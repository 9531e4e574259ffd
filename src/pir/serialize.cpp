#include "pir/serialize.hpp"

#include <sstream>

#include "base/textio.hpp"

namespace plast::pir
{

// --------------------------------------------------------------------
// The .pir field walks (base/textio.hpp). Format properties: "_"
// stands for an empty name, literal words and argument values are
// spelled 0x-hex, and the controller tree is appended as '#' comments.
// --------------------------------------------------------------------

namespace
{

template <class S>
Name<S>
name(S &s)
{
    return {s, "_"};
}

/** Program::dump() as trailing comment lines. */
std::string
treeComment(const Program &prog)
{
    std::string out = "#\n# controller tree:\n";
    std::istringstream pretty(prog.dump());
    std::string line;
    while (std::getline(pretty, line))
        out += "#   " + line + '\n';
    return out;
}

} // namespace

template <class Ar, Is<ArgDecl> A>
void
fields(Ar &ar, A &a)
{
    ar.line("arg", hex(a.value), name(a.name));
}

template <class Ar, Is<MemDecl> M>
void
fields(Ar &ar, M &m)
{
    ar.line("mem", m.kind, m.sizeWords, m.mode, m.nbufMin, m.clearAt,
            name(m.name));
}

template <class Ar, Is<CtrDecl> C>
void
fields(Ar &ar, C &c)
{
    ar.line("ctr", c.min, c.step, c.max, c.boundArg, c.boundSinkNode,
            c.boundSinkIdx, c.boundScale, c.vectorized, name(c.name));
}

template <class Ar, Is<Expr> E>
void
fields(Ar &ar, E &e)
{
    ar.line("expr", e.kind, hex(e.cval), e.arg, e.ctr, e.alu, e.a, e.b, e.c,
            e.mem, e.addr, e.stream, e.scalar);
}

template <class Ar, Is<StreamIn> S>
void
fields(Ar &ar, S &s)
{
    ar(s.dram, s.addr);
}

template <class Ar, Is<ScalarIn> S>
void
fields(Ar &ar, S &s)
{
    ar(s.fromNode, s.fromSink);
}

template <class Ar, Is<Sink> S>
void
fields(Ar &ar, S &s)
{
    ar.line("sink", s.kind, s.value, s.mem, s.addr, s.accumulate, s.accumOp,
            s.foldOp, s.foldLevel, s.crossLane, s.postScale, s.postOffset,
            s.dest, s.argOut, s.pred, s.countArgOut, s.dram, s.dramAddr,
            s.scatterPred);
}

template <class Ar, Is<TransferDesc> X>
void
fields(Ar &ar, X &x)
{
    ar.line("xfer", x.load, x.sparse, x.dram, x.sram, x.base, x.rows,
            x.rowWords, x.rowWordsArg, x.dramRowStride, x.sramRowStride,
            x.addrMem, x.countSinkNode, x.countSinkIdx, x.countScale);
}

template <class Ar, Is<Node> N>
void
fields(Ar &ar, N &n)
{
    ar.line("node", n.kind, n.parent, name(n.name));
    switch (n.kind) {
      case NodeKind::kOuter:
        ar.line("outer", n.scheme, n.depthHint, "ctrs", n.ctrs, "children",
                n.children);
        break;
      case NodeKind::kCompute:
        ar.line("leafctrs", n.leafCtrs);
        ar.line("streamins", n.streamIns);
        ar.line("scalarins", n.scalarIns);
        ar.list("sinks", n.sinks);
        break;
      case NodeKind::kTransfer:
        fields(ar, n.xfer);
        break;
    }
}

template <class Ar, Is<Program> P>
void
fields(Ar &ar, P &prog)
{
    ar.note("# pir seed file (see src/pir/serialize.hpp)\n");
    ar.version("pir", 1);
    ar.line("program", name(prog.name));
    ar.line("argouts", prog.numArgOuts);
    ar.list("args", prog.args);
    ar.list("mems", prog.mems);
    ar.list("ctrs", prog.ctrs);
    ar.list("exprs", prog.exprs);
    ar.list("nodes", prog.nodes);
    ar.line("root", prog.root);
    ar.line("end");
    if constexpr (Ar::kSaving) {
        if (prog.root != kNone &&
            prog.root < static_cast<NodeId>(prog.nodes.size()))
            ar.note(treeComment(prog));
    }
}

void
programFields(TextWriter &ar, const Program &prog)
{
    fields(ar, prog);
}

void
programFields(TextReader &ar, Program &prog)
{
    fields(ar, prog);
}

void
writeProgram(std::ostream &os, const Program &prog)
{
    TextWriter ar(os);
    fields(ar, prog);
}

std::string
programToText(const Program &prog)
{
    std::ostringstream os;
    writeProgram(os, prog);
    return os.str();
}

bool
readProgram(std::istream &is, Program &out, std::string *err)
{
    TextReader ar(is);
    Program prog;
    fields(ar, prog);
    if (!ar.ok()) {
        if (err)
            *err = ar.error();
        return false;
    }
    out = std::move(prog);
    return true;
}

} // namespace plast::pir
