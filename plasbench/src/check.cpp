#include "check.hpp"

#include "base/logging.hpp"

namespace plasbench
{

using namespace plast;

Reference
referenceFor(const Runner &runner)
{
    const pir::Program &prog = runner.program();
    pir::Evaluator ev = runner.runReference();
    Reference ref;
    for (uint32_t s = 0; s < prog.numArgOuts; ++s)
        ref.argOuts.push_back(ev.argOuts(static_cast<int32_t>(s)));
    ref.dram.resize(prog.mems.size());
    for (size_t m = 0; m < prog.mems.size(); ++m) {
        if (prog.mems[m].kind == pir::MemKind::kDram)
            ref.dram[m] = ev.dramBuf(static_cast<pir::MemId>(m));
    }
    return ref;
}

serve::JobOutcome
outcomeOf(const pir::Program &prog, const Status &st,
          const Runner::Result &res,
          const std::function<std::vector<Word>(pir::MemId)> &readDram)
{
    serve::JobOutcome out;
    out.outcome = statusCodeName(st.code());
    out.cycles = res.cycles;
    out.argOuts = res.argOuts;
    out.dram.resize(prog.mems.size());
    for (size_t m = 0; m < prog.mems.size(); ++m) {
        if (prog.mems[m].kind == pir::MemKind::kDram)
            out.dram[m] = readDram(static_cast<pir::MemId>(m));
    }
    return out;
}

std::string
compareOutputs(const pir::Program &prog, const Reference &want,
               const serve::JobOutcome &got)
{
    if (got.outcome != statusCodeName(StatusCode::kOk))
        return "outcome " + got.outcome;
    if (got.argOuts.size() != want.argOuts.size() ||
        got.dram.size() != want.dram.size())
        return "output shape differs";
    for (size_t s = 0; s < want.argOuts.size(); ++s) {
        const auto &w = want.argOuts[s];
        const auto &g = got.argOuts[s];
        if (w.size() != g.size())
            return strfmt("argOut[%zu]: %zu values, expected %zu", s,
                          g.size(), w.size());
        for (size_t i = 0; i < w.size(); ++i) {
            if (w[i] != g[i])
                return strfmt("argOut[%zu][%zu] differs", s, i);
        }
    }
    std::string why;
    for (size_t m = 0; m < want.dram.size(); ++m) {
        const auto &w = want.dram[m];
        const auto &g = got.dram[m];
        if (w.size() != g.size())
            return strfmt("dram '%s' size differs",
                          prog.mems[m].name.c_str());
        size_t diff = 0;
        for (size_t i = 0; i < w.size(); ++i)
            diff += w[i] != g[i];
        if (diff)
            why += strfmt("%sdram '%s': %zu/%zu words differ",
                          why.empty() ? "" : ", ",
                          prog.mems[m].name.c_str(), diff, w.size());
    }
    return why;
}

} // namespace plasbench
