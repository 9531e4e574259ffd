/**
 * @file
 * The parallel-pattern intermediate representation (PIR).
 *
 * Applications are hierarchies of parallelizable dataflow pipelines, as
 * produced from the parallel patterns Map / FlatMap / Fold / HashReduce
 * (§2, §3.6): outer controllers contain only other controllers; inner
 * controllers (leaves) are dataflow graphs of compute and memory
 * operations. Leaves are either Compute pipelines (a counter stack plus
 * an expression DAG with sinks) or Transfers (dense tile loads/stores
 * and sparse gathers between DRAM and on-chip memories).
 *
 * Outer-loop parallelization mirrors DHDL: the builder unrolls by
 * instantiating sibling leaves over strided counter ranges
 * (user-specified factors, §3.6); see pir/builder.hpp helpers.
 */

#ifndef PLAST_PIR_IR_HPP
#define PLAST_PIR_IR_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "arch/config.hpp"
#include "arch/opcodes.hpp"
#include "base/types.hpp"

namespace plast::pir
{

using ExprId = int32_t;
using MemId = int32_t;
using CtrId = int32_t;
using NodeId = int32_t;
using ArgId = int32_t;
constexpr int32_t kNone = -1;
/** MemDecl::clearAt sentinel: a persistent accumulator (never zeroed by
 *  the fabric; e.g. model weights updated in place across epochs). */
constexpr int32_t kNeverClear = -2;

// --------------------------------------------------------------------
// Memories
// --------------------------------------------------------------------

enum class MemKind : uint8_t { kDram, kSram };
constexpr MemKind enumLast(MemKind) { return MemKind::kSram; }

struct MemDecl
{
    MemKind kind = MemKind::kSram;
    std::string name;
    uint64_t sizeWords = 0;
    /** SRAM banking hint; kStrided unless the app needs FIFO/linebuffer
     *  semantics or duplicated parallel random reads. */
    BankingMode mode = BankingMode::kStrided;
    /** Extra multi-buffering on top of what metapipes require. */
    uint32_t nbufMin = 1;
    /**
     * Accumulated memories (reduction targets) are zeroed at the start
     * of every iteration of this controller — the reduction's
     * generation boundary. kNone: fresh at every writer-leaf run
     * (HashReduce semantics). Set via Builder::clearAccumAt.
     */
    NodeId clearAt = kNone;
};

// --------------------------------------------------------------------
// Counters (pattern index domains)
// --------------------------------------------------------------------

/** One loop index. Bound is a constant, a host argument, or a scalar
 *  computed at runtime by another leaf's sink (data-dependent sizes). */
struct CtrDecl
{
    std::string name;
    int64_t min = 0;
    int64_t step = 1;
    int64_t max = 0;          ///< used when boundArg/boundSink unset
    ArgId boundArg = kNone;   ///< bound = host argument value
    NodeId boundSinkNode = kNone; ///< bound streams from this leaf's...
    int32_t boundSinkIdx = kNone; ///< ...sink index (count / fold scalar)
    int32_t boundScale = 1;   ///< dynamic bound multiplier (count * k)
    bool vectorized = false;  ///< innermost SIMD dimension
};

// --------------------------------------------------------------------
// Expressions
// --------------------------------------------------------------------

enum class ExprKind : uint8_t
{
    kConst,    ///< literal word
    kArg,      ///< host argument (resolved at configuration time)
    kCtr,      ///< counter value (outer-controller or leaf counter)
    kAlu,      ///< FU operation over 1-3 operands
    kLoadSram, ///< read mems[mem] at `addr`
    kStreamIn, ///< element of dense DRAM input stream `stream`
    kScalarIn, ///< cross-leaf scalar stream `scalar`
    kLaneId,   ///< SIMD lane index
};
constexpr ExprKind enumLast(ExprKind) { return ExprKind::kLaneId; }

struct Expr
{
    ExprKind kind = ExprKind::kConst;
    Word cval = 0;
    ArgId arg = kNone;
    CtrId ctr = kNone;
    FuOp alu = FuOp::kNop;
    ExprId a = kNone, b = kNone, c = kNone;
    MemId mem = kNone;
    ExprId addr = kNone;
    int32_t stream = kNone;
    int32_t scalar = kNone;
};

// --------------------------------------------------------------------
// Leaf inputs and sinks
// --------------------------------------------------------------------

/** Dense DRAM input stream: one element per leaf index point; `addr`
 *  is the word offset within `dram`, affine with stride one in the
 *  vectorized counter. */
struct StreamIn
{
    MemId dram = kNone;
    ExprId addr = kNone;
};

/** Cross-leaf scalar stream: value produced by another leaf's sink,
 *  consumed once per run of this leaf. */
struct ScalarIn
{
    NodeId fromNode = kNone;
    int32_t fromSink = kNone;
};

enum class SinkKind : uint8_t
{
    kStoreSram,   ///< mems[mem][addr] = value (optionally accumulate)
    kFold,        ///< reduce `value` with `op` over counters >= level
    kFlatMapSram, ///< append value when pred != 0 (FIFO-mode memory)
    kStreamOut,   ///< dense DRAM store stream
    kScatterOut,  ///< sparse DRAM store (addr per lane)
};
constexpr SinkKind enumLast(SinkKind) { return SinkKind::kScatterOut; }

enum class FoldDest : uint8_t { kArgOut, kSramAddr, kScalarStream };
constexpr FoldDest enumLast(FoldDest) { return FoldDest::kScalarStream; }

struct Sink
{
    SinkKind kind = SinkKind::kStoreSram;
    ExprId value = kNone;

    // kStoreSram / kFlatMapSram
    MemId mem = kNone;
    ExprId addr = kNone;
    bool accumulate = false;
    FuOp accumOp = FuOp::kFAdd;

    // kFold
    FuOp foldOp = FuOp::kFAdd;
    CtrId foldLevel = kNone;   ///< outermost counter inside the fold
    /**
     * true: reduce across SIMD lanes too (scalar result, reduction
     * tree). false: per-lane accumulators across the fold domain
     * (vector result); requires the vectorized counter to span a
     * single wavefront per fold iteration (e.g. GEMM / CNN inner
     * products over a 16-wide output slice).
     */
    bool crossLane = true;
    /** Optional affine post-op on the fold result:
     *  r' = r * postScale + postOffset (lane-uniform, data-free
     *  expressions; kNone = identity). Lowered to one FMA stage. */
    ExprId postScale = kNone;
    ExprId postOffset = kNone;
    FoldDest dest = FoldDest::kArgOut;
    int32_t argOut = kNone;    ///< kArgOut: host slot
    // kSramAddr: reuses mem/addr fields (addr over counters outside
    // the fold). kScalarStream: consumed via ScalarIn elsewhere.

    // kFlatMapSram
    ExprId pred = kNone;
    int32_t countArgOut = kNone; ///< optional: emit appended count

    // kStreamOut / kScatterOut
    MemId dram = kNone;
    ExprId dramAddr = kNone; ///< StreamOut: affine; ScatterOut: per lane
    ExprId scatterPred = kNone;
};

// --------------------------------------------------------------------
// Controller-tree nodes
// --------------------------------------------------------------------

enum class NodeKind : uint8_t { kOuter, kCompute, kTransfer };
constexpr NodeKind enumLast(NodeKind) { return NodeKind::kTransfer; }

struct TransferDesc
{
    bool load = true; ///< DRAM -> SRAM
    bool sparse = false;
    MemId dram = kNone;
    MemId sram = kNone;
    /** Dense: rows x rowWords tile; DRAM rows are dramRowStride words
     *  apart, SRAM rows sramRowStride apart. `base` is the DRAM word
     *  offset (affine over outer counters / args). */
    ExprId base = kNone;
    int64_t rows = 1;
    int64_t rowWords = 0;
    ArgId rowWordsArg = kNone; ///< dynamic inner length (optional)
    int64_t dramRowStride = 0;
    int64_t sramRowStride = 0;
    /** Sparse gather: word indices within `dram` come from `addrMem`
     *  (read linearly, `rowWords` of them; bound may be dynamic). */
    MemId addrMem = kNone;
    NodeId countSinkNode = kNone; ///< dynamic element count source
    int32_t countSinkIdx = kNone;
    int32_t countScale = 1;       ///< dynamic count multiplier
};

struct Node
{
    NodeKind kind = NodeKind::kOuter;
    std::string name;
    NodeId parent = kNone;

    // ---- kOuter ----
    CtrlScheme scheme = CtrlScheme::kSequential;
    std::vector<CtrId> ctrs; ///< outer loop indices (may be empty)
    std::vector<NodeId> children;
    uint32_t depthHint = 0;  ///< metapipe depth override (0 = #children)

    // ---- kCompute ----
    std::vector<CtrId> leafCtrs; ///< leaf counters, outermost first
    std::vector<StreamIn> streamIns;
    std::vector<ScalarIn> scalarIns;
    std::vector<Sink> sinks;

    // ---- kTransfer ----
    TransferDesc xfer;
};

// --------------------------------------------------------------------
// Program
// --------------------------------------------------------------------

struct ArgDecl
{
    std::string name;
    Word value = 0; ///< bound before compilation
};

struct Program
{
    std::string name;
    std::vector<ArgDecl> args;
    uint32_t numArgOuts = 0;
    std::vector<MemDecl> mems;
    std::vector<CtrDecl> ctrs;
    std::vector<Expr> exprs;
    std::vector<Node> nodes;
    NodeId root = kNone;

    const Node &node(NodeId id) const { return nodes[id]; }
    Node &node(NodeId id) { return nodes[id]; }

    /** Pretty-print the controller tree (debugging / docs). */
    std::string dump() const;
};

} // namespace plast::pir

#endif // PLAST_PIR_IR_HPP
