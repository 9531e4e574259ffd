#include "sim/scratchpad.hpp"

#include <algorithm>

#include "base/logging.hpp"
#include "sim/simobject.hpp"

namespace plast
{

void
Scratchpad::configure(const ScratchCfg &cfg, uint32_t banks,
                      uint32_t capacityWords)
{
    cfg_ = cfg;
    banks_ = banks;
    fatal_if(cfg.numBufs == 0, "scratchpad needs at least one buffer");
    // Duplication mode replicates the contents in every bank, so the
    // usable logical capacity shrinks by the bank count.
    uint64_t effective = cfg.mode == BankingMode::kDup
                             ? capacityWords / banks
                             : capacityWords;
    fatal_if(static_cast<uint64_t>(cfg.numBufs) * cfg.sizeWords >
                 effective,
             "scratchpad config %u x %u words exceeds PMU capacity "
             "%llu (mode %s)",
             cfg.numBufs, cfg.sizeWords,
             static_cast<unsigned long long>(effective),
             bankingModeName(cfg.mode).c_str());
    data_.assign(static_cast<size_t>(cfg.numBufs) * cfg.sizeWords, 0);
}

Word
Scratchpad::read(uint32_t buf, uint32_t addr) const
{
    addr = wrap(addr);
    if (buf >= cfg_.numBufs || addr >= cfg_.sizeWords) {
        outOfRange("read", buf, addr);
        return 0;
    }
    size_t flat = static_cast<size_t>(buf) * cfg_.sizeWords + addr;
    if (ecc_ && !poison_.empty())
    {
        auto it = poison_.find(static_cast<uint32_t>(flat));
        if (it != poison_.end())
        {
            if (it->second.bits == 1)
            {
                // SECDED corrects the single-bit upset and the
                // controller scrubs the word back to the array.
                ++eccStats_.corrected;
                poison_.erase(it);
            }
            else
            {
                ++eccStats_.uncorrectable;
                uncorrectable_ = true;
                corruptedAt_ =
                    std::min(corruptedAt_, it->second.injectedAt);
                poison_.erase(it);
            }
        }
    }
    return data_[flat];
}

void
Scratchpad::write(uint32_t buf, uint32_t addr, Word w)
{
    addr = wrap(addr);
    if (buf >= cfg_.numBufs || addr >= cfg_.sizeWords) {
        outOfRange("write", buf, addr);
        return;
    }
    size_t flat = static_cast<size_t>(buf) * cfg_.sizeWords + addr;
    // A write regenerates the check bits, clearing any pending upset.
    if (!poison_.empty())
        poison_.erase(static_cast<uint32_t>(flat));
    data_[flat] = w;
}

void
Scratchpad::outOfRange(const char *op, uint32_t buf, uint32_t addr) const
{
    latchAddressFault(
        addrFault_,
        strfmt("scratchpad %s buf %u addr %u out of range (%u x %u words)",
               op, buf, addr, cfg_.numBufs, cfg_.sizeWords));
}

bool
Scratchpad::injectFault(uint32_t buf, uint32_t addr, uint32_t bits,
                        uint32_t bitPos, Cycles now)
{
    if (cfg_.mode == BankingMode::kFifo || bits == 0)
        return false;
    addr = wrap(addr);
    if (buf >= cfg_.numBufs || addr >= cfg_.sizeWords)
        return false;
    size_t flat = static_cast<size_t>(buf) * cfg_.sizeWords + addr;
    if (ecc_)
    {
        // Correction restores the original word, so the data array is
        // left untouched; only the poison ledger records the upset.
        Poison &p = poison_[static_cast<uint32_t>(flat)];
        p.bits += bits;
        p.injectedAt = p.bits == bits ? now : std::min(p.injectedAt, now);
    }
    else
    {
        Word mask = 0;
        for (uint32_t i = 0; i < bits && i < 32; ++i)
            mask |= Word{1} << ((bitPos + i) % 32);
        data_[flat] ^= mask;
    }
    return true;
}

uint32_t
Scratchpad::conflictCycles(const std::vector<uint32_t> &addrs) const
{
    if (addrs.empty())
        return 1;
    if (cfg_.mode == BankingMode::kDup)
        return 1;
    perBankScratch_.assign(banks_, 0);
    uint32_t worst = 1;
    for (uint32_t a : addrs)
        worst = std::max(worst, ++perBankScratch_[wrap(a) % banks_]);
    return worst;
}

void
Scratchpad::fifoPush(const Vec &v)
{
    panic_if(cfg_.mode != BankingMode::kFifo, "fifoPush on non-FIFO mode");
    fifo_.push_back(v);
}

Vec
Scratchpad::fifoPop()
{
    panic_if(fifo_.empty(), "fifoPop on empty scratchpad FIFO");
    Vec v = fifo_.front();
    fifo_.pop_front();
    return v;
}

} // namespace plast
