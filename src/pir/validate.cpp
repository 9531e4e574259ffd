#include "pir/validate.hpp"

#include <functional>
#include <map>
#include <set>

#include "base/logging.hpp"

namespace plast::pir
{

namespace
{

class Validator
{
  public:
    Validator(const Program &prog, uint32_t lanes)
        : prog_(prog), lanes_(lanes)
    {
    }

    std::vector<std::string>
    run()
    {
        if (prog_.root == kNone) {
            err("program has no root controller");
            return errors_;
        }
        // Referential integrity first: the structural checks below
        // index freely through nodes/ctrs/mems/exprs, so any
        // out-of-range id must stop validation here with a diagnostic
        // instead of undefined behaviour.
        checkRefs();
        if (!errors_.empty())
            return errors_;
        checkTree();
        for (size_t n = 0; n < prog_.nodes.size(); ++n) {
            const Node &node = prog_.nodes[n];
            if (node.kind == NodeKind::kCompute)
                checkLeaf(static_cast<NodeId>(n));
            if (node.kind == NodeKind::kTransfer)
                checkTransfer(static_cast<NodeId>(n));
        }
        checkWriters();
        return errors_;
    }

  private:
    void
    err(std::string msg)
    {
        errors_.push_back(std::move(msg));
    }

    bool
    nodeIdOk(NodeId id) const
    {
        return id >= 0 && id < static_cast<NodeId>(prog_.nodes.size());
    }

    bool
    exprIdOk(ExprId id) const
    {
        return id >= 0 && id < static_cast<ExprId>(prog_.exprs.size());
    }

    bool
    memIdOk(MemId id) const
    {
        return id >= 0 && id < static_cast<MemId>(prog_.mems.size());
    }

    bool
    ctrIdOk(CtrId id) const
    {
        return id >= 0 && id < static_cast<CtrId>(prog_.ctrs.size());
    }

    /** kNone is allowed; anything else must be a live expression. */
    bool
    optExprOk(ExprId id) const
    {
        return id == kNone || exprIdOk(id);
    }

    /**
     * Every id stored anywhere in the program resolves to a live
     * declaration: expression operands, sink targets, counter bounds,
     * cross-leaf scalar references and transfer operands. Catches the
     * malformed shapes hand-forged programs, shrinker candidates and
     * parsed .pir seeds can produce (dangling MemId / sink references,
     * out-of-range bank/buffer counts, broken counter chains).
     */
    void
    checkRefs()
    {
        for (size_t i = 0; i < prog_.mems.size(); ++i) {
            const MemDecl &m = prog_.mems[i];
            if (m.sizeWords == 0)
                err(strfmt("memory '%s' has zero words",
                           m.name.c_str()));
            if (m.nbufMin < 1 || m.nbufMin > 64)
                err(strfmt("memory '%s': buffer depth %u out of range "
                           "[1, 64]",
                           m.name.c_str(), m.nbufMin));
            if (m.clearAt != kNone && m.clearAt != kNeverClear &&
                !nodeIdOk(m.clearAt))
                err(strfmt("memory '%s': clearAt names node %d of %zu",
                           m.name.c_str(), m.clearAt,
                           prog_.nodes.size()));
        }
        for (size_t i = 0; i < prog_.ctrs.size(); ++i) {
            const CtrDecl &c = prog_.ctrs[i];
            if (c.step <= 0)
                err(strfmt("counter '%s' has non-positive step %lld",
                           c.name.c_str(),
                           static_cast<long long>(c.step)));
            if (c.boundArg != kNone &&
                (c.boundArg < 0 ||
                 c.boundArg >= static_cast<ArgId>(prog_.args.size())))
                err(strfmt("counter '%s': bound arg %d of %zu",
                           c.name.c_str(), c.boundArg,
                           prog_.args.size()));
            if (c.boundSinkNode != kNone) {
                if (!nodeIdOk(c.boundSinkNode)) {
                    err(strfmt("counter '%s': dynamic bound from "
                               "dangling node %d",
                               c.name.c_str(), c.boundSinkNode));
                } else {
                    const Node &p = prog_.nodes[c.boundSinkNode];
                    if (p.kind != NodeKind::kCompute ||
                        c.boundSinkIdx < 0 ||
                        c.boundSinkIdx >=
                            static_cast<int32_t>(p.sinks.size()))
                        err(strfmt("counter '%s': dynamic bound from "
                                   "'%s' sink %d (not a compute sink)",
                                   c.name.c_str(), p.name.c_str(),
                                   c.boundSinkIdx));
                }
            }
        }
        for (size_t i = 0; i < prog_.exprs.size(); ++i) {
            const Expr &e = prog_.exprs[i];
            bool ok = true;
            switch (e.kind) {
              case ExprKind::kArg:
                ok = e.arg >= 0 &&
                     e.arg < static_cast<ArgId>(prog_.args.size());
                break;
              case ExprKind::kCtr:
                ok = ctrIdOk(e.ctr);
                break;
              case ExprKind::kAlu:
                ok = optExprOk(e.a) && optExprOk(e.b) && optExprOk(e.c);
                break;
              case ExprKind::kLoadSram:
                ok = memIdOk(e.mem) && exprIdOk(e.addr);
                break;
              default:
                break;
            }
            if (!ok)
                err(strfmt("expression %zu has a dangling reference",
                           i));
        }
        for (size_t n = 0; n < prog_.nodes.size(); ++n) {
            const Node &node = prog_.nodes[n];
            std::string where =
                strfmt("node '%s'", node.name.c_str());
            if (node.parent != kNone && !nodeIdOk(node.parent))
                err(where + ": dangling parent");
            for (NodeId c : node.children) {
                if (!nodeIdOk(c))
                    err(where + ": dangling child");
            }
            for (CtrId c : node.ctrs) {
                if (!ctrIdOk(c))
                    err(where + ": dangling outer counter");
            }
            for (CtrId c : node.leafCtrs) {
                if (!ctrIdOk(c))
                    err(where + ": dangling leaf counter");
            }
            for (const StreamIn &si : node.streamIns) {
                if (!memIdOk(si.dram) ||
                    prog_.mems[si.dram].kind != MemKind::kDram)
                    err(where + ": stream input from a non-DRAM memory");
                if (!exprIdOk(si.addr))
                    err(where + ": stream input address dangles");
            }
            for (const ScalarIn &si : node.scalarIns) {
                if (!nodeIdOk(si.fromNode) ||
                    prog_.nodes[si.fromNode].kind !=
                        NodeKind::kCompute ||
                    si.fromSink < 0 ||
                    si.fromSink >= static_cast<int32_t>(
                                       prog_.nodes[si.fromNode]
                                           .sinks.size()))
                    err(where +
                        strfmt(": scalar input from dangling node %d "
                               "sink %d",
                               si.fromNode, si.fromSink));
            }
            for (size_t s = 0; s < node.sinks.size(); ++s) {
                const Sink &sk = node.sinks[s];
                std::string sw = where + strfmt(" sink %zu", s);
                if (!optExprOk(sk.value) || !optExprOk(sk.addr) ||
                    !optExprOk(sk.pred) || !optExprOk(sk.postScale) ||
                    !optExprOk(sk.postOffset) ||
                    !optExprOk(sk.dramAddr) ||
                    !optExprOk(sk.scatterPred))
                    err(sw + ": dangling expression reference");
                bool usesMem =
                    sk.kind == SinkKind::kStoreSram ||
                    sk.kind == SinkKind::kFlatMapSram ||
                    (sk.kind == SinkKind::kFold &&
                     sk.dest == FoldDest::kSramAddr);
                if (usesMem &&
                    (!memIdOk(sk.mem) ||
                     prog_.mems[sk.mem].kind != MemKind::kSram))
                    err(sw + strfmt(": dangling or non-SRAM memory %d",
                                    sk.mem));
                if (sk.kind == SinkKind::kFold && !ctrIdOk(sk.foldLevel))
                    err(sw + ": dangling fold level");
                if (sk.kind == SinkKind::kFold &&
                    !fuOpIsReducible(sk.foldOp))
                    err(sw + strfmt(": fold op %s is not a combiner",
                                    fuOpName(sk.foldOp).c_str()));
                if ((sk.kind == SinkKind::kStreamOut ||
                     sk.kind == SinkKind::kScatterOut) &&
                    (!memIdOk(sk.dram) ||
                     prog_.mems[sk.dram].kind != MemKind::kDram))
                    err(sw + ": DRAM sink targets a non-DRAM memory");
                if (sk.kind == SinkKind::kFold &&
                    sk.dest == FoldDest::kArgOut &&
                    (sk.argOut < 0 ||
                     sk.argOut >=
                         static_cast<int32_t>(prog_.numArgOuts)))
                    err(sw + strfmt(": argOut slot %d of %u", sk.argOut,
                                    prog_.numArgOuts));
                if (sk.countArgOut != kNone &&
                    (sk.countArgOut < 0 ||
                     sk.countArgOut >=
                         static_cast<int32_t>(prog_.numArgOuts)))
                    err(sw + strfmt(": count argOut slot %d of %u",
                                    sk.countArgOut, prog_.numArgOuts));
            }
            if (node.kind == NodeKind::kTransfer) {
                const TransferDesc &x = node.xfer;
                if (!memIdOk(x.dram))
                    err(where + ": transfer dram operand dangles");
                if (x.sram != kNone && !memIdOk(x.sram))
                    err(where + ": transfer sram operand dangles");
                if (x.base != kNone && !exprIdOk(x.base))
                    err(where + ": transfer base expression dangles");
                if (x.addrMem != kNone && !memIdOk(x.addrMem))
                    err(where + ": gather index memory dangles");
                if (x.rowWordsArg != kNone &&
                    (x.rowWordsArg < 0 ||
                     x.rowWordsArg >=
                         static_cast<ArgId>(prog_.args.size())))
                    err(where + ": dynamic row length arg dangles");
                if (x.countSinkNode != kNone) {
                    if (!nodeIdOk(x.countSinkNode) ||
                        prog_.nodes[x.countSinkNode].kind !=
                            NodeKind::kCompute ||
                        x.countSinkIdx < 0 ||
                        x.countSinkIdx >=
                            static_cast<int32_t>(
                                prog_.nodes[x.countSinkNode]
                                    .sinks.size()))
                        err(where + ": dynamic count sink dangles");
                }
            }
        }
        if (!nodeIdOk(prog_.root))
            err(strfmt("root id %d of %zu nodes", prog_.root,
                       prog_.nodes.size()));
    }

    void
    checkTree()
    {
        // Every non-root node must be reachable from the root exactly
        // once, and parents must match child links.
        std::set<NodeId> seen;
        std::function<void(NodeId)> walk = [&](NodeId id) {
            if (seen.count(id)) {
                err(strfmt("node '%s' reachable twice",
                           prog_.nodes[id].name.c_str()));
                return;
            }
            seen.insert(id);
            const Node &n = prog_.nodes[id];
            // A childless outer controller can never complete: its
            // control box waits forever on child-done pulses that no
            // unit produces (guaranteed fabric deadlock).
            if (n.kind == NodeKind::kOuter && n.children.empty())
                err(strfmt("outer node '%s' has no children",
                           n.name.c_str()));
            for (NodeId c : n.children) {
                if (prog_.nodes[c].parent != id)
                    err(strfmt("child '%s' has mismatched parent",
                               prog_.nodes[c].name.c_str()));
                walk(c);
            }
        };
        walk(prog_.root);
        for (size_t n = 0; n < prog_.nodes.size(); ++n) {
            if (!seen.count(static_cast<NodeId>(n)))
                err(strfmt("node '%s' is not reachable from the root",
                           prog_.nodes[n].name.c_str()));
        }
    }

    void
    scanExpr(ExprId id, const Node &leaf, std::set<MemId> &readMems)
    {
        if (id == kNone)
            return;
        const Expr &e = prog_.exprs[id];
        switch (e.kind) {
          case ExprKind::kLoadSram:
            if (prog_.mems[e.mem].kind != MemKind::kSram)
                err(strfmt("leaf '%s' load()s DRAM memory '%s'",
                           leaf.name.c_str(),
                           prog_.mems[e.mem].name.c_str()));
            readMems.insert(e.mem);
            scanExpr(e.addr, leaf, readMems);
            break;
          case ExprKind::kStreamIn:
            if (e.stream < 0 ||
                e.stream >= static_cast<int32_t>(leaf.streamIns.size()))
                err(strfmt("leaf '%s' references stream %d of %zu",
                           leaf.name.c_str(), e.stream,
                           leaf.streamIns.size()));
            break;
          case ExprKind::kScalarIn:
            if (e.scalar < 0 ||
                e.scalar >= static_cast<int32_t>(leaf.scalarIns.size()))
                err(strfmt("leaf '%s' references scalar %d of %zu",
                           leaf.name.c_str(), e.scalar,
                           leaf.scalarIns.size()));
            break;
          case ExprKind::kAlu:
            scanExpr(e.a, leaf, readMems);
            scanExpr(e.b, leaf, readMems);
            scanExpr(e.c, leaf, readMems);
            break;
          default:
            break;
        }
    }

    void
    checkLeaf(NodeId id)
    {
        const Node &leaf = prog_.nodes[id];
        // Vectorization: at most one vectorized counter, and only the
        // innermost position.
        for (size_t i = 0; i < leaf.leafCtrs.size(); ++i) {
            const CtrDecl &c = prog_.ctrs[leaf.leafCtrs[i]];
            if (c.vectorized && i + 1 != leaf.leafCtrs.size())
                err(strfmt("leaf '%s': vectorized counter '%s' is not "
                           "innermost",
                           leaf.name.c_str(), c.name.c_str()));
        }

        std::set<MemId> reads;
        for (size_t s = 0; s < leaf.sinks.size(); ++s) {
            const Sink &sk = leaf.sinks[s];
            scanExpr(sk.value, leaf, reads);
            scanExpr(sk.pred, leaf, reads);
            scanExpr(sk.scatterPred, leaf, reads);
            scanExpr(sk.addr, leaf, reads);
            scanExpr(sk.dramAddr, leaf, reads);
            if (sk.kind == SinkKind::kFold) {
                bool found = false;
                size_t lvl = 0;
                for (size_t i = 0; i < leaf.leafCtrs.size(); ++i) {
                    if (leaf.leafCtrs[i] == sk.foldLevel) {
                        found = true;
                        lvl = i;
                    }
                }
                if (!found) {
                    err(strfmt("leaf '%s' sink %zu: fold level is not "
                               "one of the leaf's counters",
                               leaf.name.c_str(), s));
                    continue;
                }
                (void)lvl;
                if (!sk.crossLane && !leaf.leafCtrs.empty()) {
                    const CtrDecl &inner =
                        prog_.ctrs[leaf.leafCtrs.back()];
                    int64_t span =
                        inner.boundArg != kNone
                            ? wordToInt(
                                  prog_.args[inner.boundArg].value)
                            : inner.max;
                    if (inner.vectorized &&
                        span - inner.min >
                            static_cast<int64_t>(lanes_) * inner.step)
                        err(strfmt(
                            "leaf '%s' sink %zu: per-lane fold needs "
                            "the vectorized counter to span one "
                            "wavefront (<= %u lanes), got %lld",
                            leaf.name.c_str(), s, lanes_,
                            static_cast<long long>(span - inner.min)));
                }
            }
            if (sk.kind == SinkKind::kFlatMapSram &&
                sk.pred == kNone)
                err(strfmt("leaf '%s' sink %zu: FlatMap needs a "
                           "predicate",
                           leaf.name.c_str(), s));
        }
    }

    void
    checkTransfer(NodeId id)
    {
        const Node &n = prog_.nodes[id];
        const TransferDesc &x = n.xfer;
        if (prog_.mems[x.dram].kind != MemKind::kDram)
            err(strfmt("transfer '%s': dram operand is on-chip",
                       n.name.c_str()));
        if (x.sram != kNone &&
            prog_.mems[x.sram].kind != MemKind::kSram)
            err(strfmt("transfer '%s': sram operand is off-chip",
                       n.name.c_str()));
        if (!x.sparse && x.rowWords <= 0 && x.rowWordsArg == kNone)
            err(strfmt("transfer '%s': empty rows", n.name.c_str()));
    }

    void
    checkWriters()
    {
        std::map<MemId, int> writers;
        for (const Node &n : prog_.nodes) {
            if (n.kind == NodeKind::kCompute) {
                for (const Sink &sk : n.sinks) {
                    if (sk.kind == SinkKind::kStoreSram ||
                        sk.kind == SinkKind::kFlatMapSram ||
                        (sk.kind == SinkKind::kFold &&
                         sk.dest == FoldDest::kSramAddr))
                        writers[sk.mem]++;
                }
            } else if (n.kind == NodeKind::kTransfer &&
                       n.xfer.sram != kNone &&
                       (n.xfer.load || n.xfer.sparse)) {
                if (n.xfer.load)
                    writers[n.xfer.sram]++;
            }
        }
        for (auto [mem, count] : writers) {
            if (count > 2)
                err(strfmt("memory '%s' has %d writers; PMUs support "
                           "at most two write ports",
                           prog_.mems[mem].name.c_str(), count));
        }
    }

    const Program &prog_;
    uint32_t lanes_;
    std::vector<std::string> errors_;
};

} // namespace

std::vector<std::string>
validateProgram(const Program &prog, uint32_t lanes)
{
    return Validator(prog, lanes).run();
}

} // namespace plast::pir
