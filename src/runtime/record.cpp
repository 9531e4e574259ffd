#include "runtime/record.hpp"

#include <map>

#include "base/logging.hpp"
#include "compiler/mapper.hpp"
#include "pir/eval.hpp"
#include "sim/fabric.hpp"

namespace plast
{

using namespace pir;

RunRecord
captureRun(const Fabric &fab, const Program &prog, Cycles cycles)
{
    RunRecord rec;
    rec.cycles = cycles;
    fab.dumpStats(rec.stats);
    for (uint32_t s = 0; s < prog.numArgOuts; ++s)
        rec.argOuts.push_back(fab.argOut(s));
    return rec;
}

void
loadDram(Fabric &fab, const Program &prog, const compiler::MapResult &map,
         const std::map<MemId, std::vector<Word>> &host)
{
    Addr extent = 0;
    for (size_t m = 0; m < prog.mems.size(); ++m) {
        if (prog.mems[m].kind == MemKind::kDram)
            extent = std::max(extent, map.dramBase[m] +
                                          prog.mems[m].sizeWords * 4 + 64);
    }
    fab.dram().reserve(extent);
    for (const auto &[mid, data] : host) {
        for (size_t w = 0; w < data.size(); ++w)
            fab.dram().writeWord(map.dramBase[mid] + w * 4, data[w]);
    }
}

void
readBackDram(const Fabric &fab, const Program &prog,
             const compiler::MapResult &map, RunRecord &rec)
{
    rec.dram.assign(prog.mems.size(), {});
    for (size_t m = 0; m < prog.mems.size(); ++m) {
        if (prog.mems[m].kind != MemKind::kDram)
            continue;
        std::vector<Word> &buf = rec.dram[m];
        buf.resize(prog.mems[m].sizeWords);
        for (size_t w = 0; w < buf.size(); ++w)
            buf[w] = fab.mem().dram().readWord(map.dramBase[m] + w * 4);
    }
}

RunRecord
recordOf(const Evaluator &ev, const Program &prog)
{
    RunRecord rec;
    for (uint32_t s = 0; s < prog.numArgOuts; ++s) {
        const std::vector<Word> &v = ev.argOuts(static_cast<int32_t>(s));
        rec.argOuts.emplace_back(v.begin(), v.end());
    }
    rec.dram.resize(prog.mems.size());
    for (size_t m = 0; m < prog.mems.size(); ++m) {
        if (prog.mems[m].kind == MemKind::kDram)
            rec.dram[m] = ev.dramBuf(static_cast<MemId>(m));
    }
    return rec;
}

namespace
{

Status
mismatch(std::string what)
{
    return Status(StatusCode::kMismatch, std::move(what));
}

/** A word by value: its bits, as a signed integer and as a float
 *  (nine digits, so two different floats never print alike). */
std::string
wordText(Word w)
{
    return strfmt("0x%08x (i32 %d, f32 %.9g)", w, static_cast<int32_t>(w),
                  static_cast<double>(wordToFloat(w)));
}

/** The first differing element of two word sequences, or ok. */
template <class Seq>
Status
compareWords(const std::string &what, const Seq &want, const Seq &got)
{
    if (want.size() != got.size())
        return mismatch(strfmt("%s: size %zu vs %zu", what.c_str(),
                               want.size(), got.size()));
    for (size_t i = 0; i < want.size(); ++i) {
        if (want[i] != got[i])
            return mismatch(strfmt("%s[%zu]: %s vs %s", what.c_str(), i,
                                   wordText(want[i]).c_str(),
                                   wordText(got[i]).c_str()));
    }
    return Status();
}

unsigned long long
ull(uint64_t v)
{
    return static_cast<unsigned long long>(v);
}

} // namespace

Status
checkOutputs(const Program &prog, const RunRecord &want,
             const RunRecord &got, const std::string &legs)
{
    panic_if(want.dram.size() != prog.mems.size() ||
                 got.dram.size() != prog.mems.size(),
             "comparing a run record whose DRAM was never read back");
    for (uint32_t s = 0; s < prog.numArgOuts; ++s) {
        if (Status st =
                compareWords(strfmt("%s argOut[%u]", legs.c_str(), s),
                             want.argOuts.at(s), got.argOuts.at(s));
            !st.ok())
            return st;
    }
    for (size_t m = 0; m < prog.mems.size(); ++m) {
        if (Status st = compareWords(strfmt("%s dram '%s'", legs.c_str(),
                                            prog.mems[m].name.c_str()),
                                     want.dram[m], got.dram[m]);
            !st.ok())
            return st;
    }
    return Status();
}

Status
checkWholeRun(const Program &prog, const RunRecord &oracle,
              const RunRecord &got, const std::string &legs)
{
    if (Status st = checkOutputs(prog, oracle, got, legs); !st.ok())
        return st;
    if (oracle.cycles != got.cycles)
        return mismatch(strfmt("%s completion cycle: %llu vs %llu",
                               legs.c_str(), ull(oracle.cycles),
                               ull(got.cycles)));

    // Host work: how many cycles each unit evaluated, and the trace
    // ring's own counts.
    auto host = [](const std::string &key) {
        return key.starts_with("trace.") ||
               key.ends_with(".cycles.stepped");
    };
    for (const auto &[key, have] : got.stats.all()) {
        if (!host(key) && !oracle.stats.has(key))
            return mismatch(strfmt("%s counter %s: absent vs %llu",
                                   legs.c_str(), key.c_str(), ull(have)));
    }
    for (const auto &[key, want] : oracle.stats.all()) {
        if (host(key))
            continue;
        if (!got.stats.has(key))
            return mismatch(strfmt("%s counter %s: %llu vs absent",
                                   legs.c_str(), key.c_str(), ull(want)));
        if (const uint64_t have = got.stats.get(key); want != have)
            return mismatch(strfmt("%s counter %s: %llu vs %llu",
                                   legs.c_str(), key.c_str(), ull(want),
                                   ull(have)));
    }
    return Status();
}

} // namespace plast
