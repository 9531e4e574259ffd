#include "sim/dram.hpp"

#include "base/logging.hpp"

namespace plast
{

DramChannel::DramChannel(const DramParams &params, uint32_t index)
    : params_(params), index_(index), banks_(params.banksPerChannel)
{
}

void
DramChannel::submit(const DramReq &req, Cycles now)
{
    panic_if(!canSubmit(), "DRAM channel %u queue overflow", index_);
    Pending p{now, req, 0, 0};
    rowOf(req.lineAddr, p.bank, p.row);
    queue_.push_back(p);
    // A new request may target an idle bank: re-enable the scan.
    nextIssueAt_ = 0;
}

void
DramChannel::rowOf(Addr lineAddr, uint32_t &bank, int64_t &row) const
{
    // Strip the channel-interleave bits: line index local to this
    // channel, then split into rows of rowBytes striped across banks.
    Addr local = lineAddr / (kBurstBytes * params_.channels);
    Addr lines_per_row = params_.rowBytes / kBurstBytes;
    bank = static_cast<uint32_t>((local / lines_per_row) %
                                 params_.banksPerChannel);
    row = static_cast<int64_t>(local /
                               (lines_per_row * params_.banksPerChannel));
}

void
DramChannel::step(Cycles now, std::vector<DramReq> &completed)
{
    // Deliver due responses.
    while (!responses_.empty() && responses_.front().readyAt <= now) {
        completed.push_back(responses_.front().req);
        responses_.pop_front();
    }

    if (queue_.empty() || now < nextIssueAt_)
        return;

    // FR-FCFS: oldest row-hit whose bank is ready; else oldest ready.
    // The scan is pure, so when every target bank is busy we can skip
    // re-scanning until the earliest of their ready times.
    size_t pick = queue_.size();
    Cycles earliest = ~Cycles{0};
    for (size_t i = 0; i < queue_.size(); ++i) {
        const Pending &q = queue_[i];
        if (banks_[q.bank].readyAt > now) {
            earliest = std::min(earliest, banks_[q.bank].readyAt);
            continue;
        }
        if (banks_[q.bank].openRow == q.row) {
            pick = i;
            break;
        }
        if (pick == queue_.size())
            pick = i;
    }
    if (pick == queue_.size()) {
        nextIssueAt_ = earliest; // all target banks busy until then
        return;
    }

    Pending p = queue_[pick];
    if (pick == 0)
        queue_.pop_front();
    else
        queue_.erase(queue_.begin() + static_cast<long>(pick));

    uint32_t bank = p.bank;
    int64_t row = p.row;
    Bank &bk = banks_[bank];

    Cycles t0 = std::max(now, bk.readyAt);
    Cycles data_start;
    if (bk.openRow == row) {
        data_start = std::max(t0 + params_.tCas, busFreeAt_);
        ++stats_.rowHits;
    } else if (bk.openRow >= 0) {
        // Precharge the open row, activate the new one.
        data_start =
            std::max(t0 + params_.tRp + params_.tRcd + params_.tCas,
                     busFreeAt_);
        ++stats_.rowConflicts;
    } else {
        data_start = std::max(t0 + params_.tRcd + params_.tCas,
                              busFreeAt_);
        ++stats_.rowMisses;
    }
    bool was_hit = (bk.openRow == row);
    bk.openRow = row;
    // Row hits pipeline column commands at the burst rate (tCCD); a
    // fresh activate keeps the bank busy until tRAS allows the next
    // precharge.
    bk.readyAt = was_hit ? t0 + params_.tBurst
                         : std::max(data_start, t0 + params_.tRas);

    stats_.busBusyCycles += params_.tBurst;
    busFreeAt_ = data_start + params_.tBurst;
    responses_.push_back({data_start + params_.tBurst, p.req});
    if (p.req.write)
        ++stats_.writes;
    else
        ++stats_.reads;
}

DramModel::DramModel(const DramParams &params) : params_(params)
{
    channels_.reserve(params.channels);
    for (uint32_t i = 0; i < params.channels; ++i)
        channels_.emplace_back(params, i);
}


void
DramModel::step(Cycles now, std::vector<DramReq> &completed)
{
    for (auto &ch : channels_)
        ch.step(now, completed);
}

Cycles
DramModel::nextEvent(Cycles now) const
{
    Cycles next = kNeverCycle;
    for (const auto &ch : channels_)
        next = std::min(next, ch.nextEvent(now));
    return next;
}

bool
DramModel::quiescent() const
{
    for (const auto &ch : channels_) {
        if (!ch.quiescent())
            return false;
    }
    return true;
}

void
DramModel::reserve(Addr bytes)
{
    Addr words = (bytes + 3) / 4;
    if (words > image_.size())
        image_.resize(words, 0);
}



} // namespace plast
