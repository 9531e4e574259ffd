#include "pir/builder.hpp"

#include <algorithm>

#include "base/logging.hpp"
#include "pir/validate.hpp"

namespace plast::pir
{

Builder::Builder(std::string name)
{
    prog_.name = std::move(name);
}

ArgId
Builder::arg(const std::string &name, Word value)
{
    prog_.args.push_back({name, value});
    return static_cast<ArgId>(prog_.args.size() - 1);
}

void
Builder::bindArg(ArgId id, Word value)
{
    prog_.args.at(id).value = value;
}

int32_t
Builder::argOut()
{
    return static_cast<int32_t>(prog_.numArgOuts++);
}

MemId
Builder::dram(const std::string &name, uint64_t words)
{
    MemDecl m;
    m.kind = MemKind::kDram;
    m.name = name;
    m.sizeWords = words;
    prog_.mems.push_back(m);
    return static_cast<MemId>(prog_.mems.size() - 1);
}

MemId
Builder::sram(const std::string &name, uint64_t words, BankingMode mode,
              uint32_t nbufMin)
{
    MemDecl m;
    m.kind = MemKind::kSram;
    m.name = name;
    m.sizeWords = words;
    m.mode = mode;
    m.nbufMin = nbufMin;
    prog_.mems.push_back(m);
    return static_cast<MemId>(prog_.mems.size() - 1);
}

CtrId
Builder::ctr(const std::string &name, int64_t min, int64_t max,
             int64_t step, bool vectorized)
{
    CtrDecl c;
    c.name = name;
    c.min = min;
    c.max = max;
    c.step = step;
    c.vectorized = vectorized;
    prog_.ctrs.push_back(c);
    return static_cast<CtrId>(prog_.ctrs.size() - 1);
}

CtrId
Builder::ctrArg(const std::string &name, ArgId bound, int64_t min,
                int64_t step, bool vectorized)
{
    CtrId id = ctr(name, min, 0, step, vectorized);
    prog_.ctrs[id].boundArg = bound;
    return id;
}

CtrId
Builder::ctrDyn(const std::string &name, NodeId producer, int32_t sink,
                int64_t min, int64_t step, bool vectorized,
                int32_t boundScale)
{
    CtrId id = ctr(name, min, 0, step, vectorized);
    prog_.ctrs[id].boundSinkNode = producer;
    prog_.ctrs[id].boundSinkIdx = sink;
    prog_.ctrs[id].boundScale = boundScale;
    return id;
}

ExprId
Builder::imm(Word w)
{
    Expr e;
    e.kind = ExprKind::kConst;
    e.cval = w;
    prog_.exprs.push_back(e);
    return static_cast<ExprId>(prog_.exprs.size() - 1);
}

ExprId
Builder::argE(ArgId a)
{
    Expr e;
    e.kind = ExprKind::kArg;
    e.arg = a;
    prog_.exprs.push_back(e);
    return static_cast<ExprId>(prog_.exprs.size() - 1);
}

ExprId
Builder::ctrE(CtrId c)
{
    Expr e;
    e.kind = ExprKind::kCtr;
    e.ctr = c;
    prog_.exprs.push_back(e);
    return static_cast<ExprId>(prog_.exprs.size() - 1);
}

ExprId
Builder::laneId()
{
    Expr e;
    e.kind = ExprKind::kLaneId;
    prog_.exprs.push_back(e);
    return static_cast<ExprId>(prog_.exprs.size() - 1);
}

ExprId
Builder::alu(FuOp op, ExprId a, ExprId b, ExprId c)
{
    Expr e;
    e.kind = ExprKind::kAlu;
    e.alu = op;
    e.a = a;
    e.b = b;
    e.c = c;
    prog_.exprs.push_back(e);
    return static_cast<ExprId>(prog_.exprs.size() - 1);
}

ExprId
Builder::load(MemId mem, ExprId addr)
{
    fatal_if(prog_.mems.at(mem).kind != MemKind::kSram,
             "load() targets SRAM; use streamIns for DRAM");
    Expr e;
    e.kind = ExprKind::kLoadSram;
    e.mem = mem;
    e.addr = addr;
    prog_.exprs.push_back(e);
    return static_cast<ExprId>(prog_.exprs.size() - 1);
}

ExprId
Builder::streamRef(int32_t idx)
{
    Expr e;
    e.kind = ExprKind::kStreamIn;
    e.stream = idx;
    prog_.exprs.push_back(e);
    return static_cast<ExprId>(prog_.exprs.size() - 1);
}

ExprId
Builder::scalarRef(int32_t idx)
{
    Expr e;
    e.kind = ExprKind::kScalarIn;
    e.scalar = idx;
    prog_.exprs.push_back(e);
    return static_cast<ExprId>(prog_.exprs.size() - 1);
}

NodeId
Builder::outer(const std::string &name, CtrlScheme scheme,
               std::vector<CtrId> ctrs, NodeId parent, uint32_t depthHint)
{
    Node n;
    n.kind = NodeKind::kOuter;
    n.name = name;
    n.scheme = scheme;
    n.ctrs = std::move(ctrs);
    n.parent = parent;
    n.depthHint = depthHint;
    prog_.nodes.push_back(n);
    NodeId id = static_cast<NodeId>(prog_.nodes.size() - 1);
    if (parent != kNone)
        prog_.nodes[parent].children.push_back(id);
    return id;
}

NodeId
Builder::compute(const std::string &name, NodeId parent,
                 std::vector<CtrId> leafCtrs, std::vector<StreamIn> streamIns,
                 std::vector<ScalarIn> scalarIns, std::vector<Sink> sinks)
{
    Node n;
    n.kind = NodeKind::kCompute;
    n.name = name;
    n.parent = parent;
    n.leafCtrs = std::move(leafCtrs);
    n.streamIns = std::move(streamIns);
    n.scalarIns = std::move(scalarIns);
    n.sinks = std::move(sinks);
    prog_.nodes.push_back(n);
    NodeId id = static_cast<NodeId>(prog_.nodes.size() - 1);
    fatal_if(parent == kNone, "compute leaf needs a parent");
    prog_.nodes[parent].children.push_back(id);
    return id;
}

NodeId
Builder::loadTile(const std::string &name, NodeId parent, MemId dram,
                  MemId sram, ExprId base, int64_t rows, int64_t rowWords,
                  int64_t dramRowStride, int64_t sramRowStride)
{
    Node n;
    n.kind = NodeKind::kTransfer;
    n.name = name;
    n.parent = parent;
    n.xfer.load = true;
    n.xfer.dram = dram;
    n.xfer.sram = sram;
    n.xfer.base = base;
    n.xfer.rows = rows;
    n.xfer.rowWords = rowWords;
    n.xfer.dramRowStride = dramRowStride;
    n.xfer.sramRowStride = sramRowStride < 0 ? rowWords : sramRowStride;
    prog_.nodes.push_back(n);
    NodeId id = static_cast<NodeId>(prog_.nodes.size() - 1);
    fatal_if(parent == kNone, "transfer leaf needs a parent");
    prog_.nodes[parent].children.push_back(id);
    return id;
}

NodeId
Builder::storeTile(const std::string &name, NodeId parent, MemId dram,
                   MemId sram, ExprId base, int64_t rows, int64_t rowWords,
                   int64_t dramRowStride, int64_t sramRowStride)
{
    NodeId id = loadTile(name, parent, dram, sram, base, rows, rowWords,
                         dramRowStride, sramRowStride);
    prog_.nodes[id].xfer.load = false;
    return id;
}

NodeId
Builder::gather(const std::string &name, NodeId parent, MemId dram,
                MemId addrMem, MemId sram, int64_t count,
                NodeId countSinkNode, int32_t countSinkIdx,
                int32_t countScale)
{
    Node n;
    n.kind = NodeKind::kTransfer;
    n.name = name;
    n.parent = parent;
    n.xfer.load = true;
    n.xfer.sparse = true;
    n.xfer.dram = dram;
    n.xfer.sram = sram;
    n.xfer.addrMem = addrMem;
    n.xfer.rowWords = count;
    n.xfer.countSinkNode = countSinkNode;
    n.xfer.countSinkIdx = countSinkIdx;
    n.xfer.countScale = countScale;
    prog_.nodes.push_back(n);
    NodeId id = static_cast<NodeId>(prog_.nodes.size() - 1);
    fatal_if(parent == kNone, "transfer leaf needs a parent");
    prog_.nodes[parent].children.push_back(id);
    return id;
}

Sink
Builder::storeSram(MemId mem, ExprId addr, ExprId value, bool accumulate,
                   FuOp accumOp)
{
    Sink s;
    s.kind = SinkKind::kStoreSram;
    s.mem = mem;
    s.addr = addr;
    s.value = value;
    s.accumulate = accumulate;
    s.accumOp = accumOp;
    return s;
}

Sink
Builder::fold(FuOp op, ExprId value, CtrId level, int32_t argOut)
{
    Sink s;
    s.kind = SinkKind::kFold;
    s.foldOp = op;
    s.value = value;
    s.foldLevel = level;
    s.dest = FoldDest::kArgOut;
    s.argOut = argOut;
    return s;
}

Sink
Builder::foldToSram(FuOp op, ExprId value, CtrId level, MemId mem,
                    ExprId addr, bool accumulate, bool crossLane)
{
    Sink s;
    s.kind = SinkKind::kFold;
    s.foldOp = op;
    s.value = value;
    s.foldLevel = level;
    s.crossLane = crossLane;
    s.dest = FoldDest::kSramAddr;
    s.mem = mem;
    s.addr = addr;
    s.accumulate = accumulate;
    s.accumOp = op;
    return s;
}

Sink
Builder::foldToScalar(FuOp op, ExprId value, CtrId level)
{
    Sink s;
    s.kind = SinkKind::kFold;
    s.foldOp = op;
    s.value = value;
    s.foldLevel = level;
    s.dest = FoldDest::kScalarStream;
    return s;
}

Sink
Builder::flatMap(MemId mem, ExprId value, ExprId pred, int32_t countArgOut)
{
    Sink s;
    s.kind = SinkKind::kFlatMapSram;
    s.mem = mem;
    s.value = value;
    s.pred = pred;
    s.countArgOut = countArgOut;
    return s;
}

Sink
Builder::streamOut(MemId dram, ExprId dramAddr, ExprId value)
{
    Sink s;
    s.kind = SinkKind::kStreamOut;
    s.dram = dram;
    s.dramAddr = dramAddr;
    s.value = value;
    return s;
}

Sink
Builder::scatterOut(MemId dram, ExprId dramAddr, ExprId value, ExprId pred)
{
    Sink s;
    s.kind = SinkKind::kScatterOut;
    s.dram = dram;
    s.dramAddr = dramAddr;
    s.value = value;
    s.scatterPred = pred;
    return s;
}

Program
Builder::finish(NodeId root)
{
    fatal_if(root == kNone, "program has no root");
    fatal_if(prog_.nodes.at(root).kind != NodeKind::kOuter,
             "root must be an outer controller");
    prog_.root = root;
    validate();
    std::vector<std::string> problems = validateProgram(prog_);
    if (!problems.empty()) {
        for (const std::string &p : problems)
            warn("%s: %s", prog_.name.c_str(), p.c_str());
        fatal("program '%s' failed validation (%zu problems)",
              prog_.name.c_str(), problems.size());
    }
    return prog_;
}

void
Builder::validate() const
{
    for (size_t i = 0; i < prog_.nodes.size(); ++i) {
        const Node &n = prog_.nodes[i];
        if (n.kind == NodeKind::kOuter) {
            fatal_if(n.children.empty() && prog_.root != kNone &&
                         static_cast<NodeId>(i) == prog_.root,
                     "root controller '%s' has no children",
                     n.name.c_str());
        }
        if (n.kind == NodeKind::kCompute) {
            fatal_if(n.sinks.empty(), "compute leaf '%s' has no sinks",
                     n.name.c_str());
            fatal_if(n.leafCtrs.empty(), "compute leaf '%s' needs counters",
                     n.name.c_str());
        }
    }
    for (const CtrDecl &c : prog_.ctrs) {
        fatal_if(c.step <= 0, "counter '%s' needs positive step",
                 c.name.c_str());
    }
}

std::string
Program::dump() const
{
    std::string out = strfmt("program %s\n", name.c_str());
    struct Rec
    {
        NodeId id;
        int depth;
    };
    // Parsed programs are not validated yet: a dangling id, or a node
    // that is its own ancestor, is printed and not followed.
    auto nameOf = [](const auto &decls, int32_t id) {
        return id >= 0 && id < static_cast<int32_t>(decls.size())
                   ? decls[id].name.c_str()
                   : "?";
    };
    std::vector<NodeId> path; // ancestors of the node being printed
    std::vector<Rec> stack{{root, 1}};
    while (!stack.empty()) {
        Rec r = stack.back();
        stack.pop_back();
        out += std::string(static_cast<size_t>(r.depth) * 2, ' ');
        path.resize(static_cast<size_t>(r.depth) - 1);
        if (r.id < 0 || r.id >= static_cast<NodeId>(nodes.size()) ||
            std::find(path.begin(), path.end(), r.id) != path.end()) {
            out += strfmt("<node %d>\n", r.id);
            continue;
        }
        path.push_back(r.id);
        const Node &n = nodes[r.id];
        switch (n.kind) {
          case NodeKind::kOuter:
            out += strfmt("%s [%s", n.name.c_str(),
                          ctrlSchemeName(n.scheme).c_str());
            for (CtrId c : n.ctrs)
                out += strfmt(" %s", nameOf(ctrs, c));
            out += "]\n";
            for (auto it = n.children.rbegin(); it != n.children.rend();
                 ++it)
                stack.push_back({*it, r.depth + 1});
            break;
          case NodeKind::kCompute:
            out += strfmt("compute %s (%zu ctrs, %zu sinks)\n",
                          n.name.c_str(), n.leafCtrs.size(),
                          n.sinks.size());
            break;
          case NodeKind::kTransfer:
            out += strfmt("%s %s %s<->%s\n",
                          n.xfer.sparse ? "gather" : "tile",
                          n.name.c_str(),
                          nameOf(mems, n.xfer.dram),
                          n.xfer.sram != kNone ? nameOf(mems, n.xfer.sram)
                                               : "-");
            break;
        }
    }
    return out;
}

} // namespace plast::pir
