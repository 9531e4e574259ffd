/**
 * @file
 * Static configuration structures — the "bitstream" of the Plasticine
 * fabric. The compiler (src/compiler) emits a FabricConfig; the simulator
 * (src/sim) executes exactly what these structures describe and nothing
 * else. The fields mirror the microarchitecture of §3 of the paper:
 *
 *  - PcuCfg:  counter chain + SIMD pipeline stages + IO ports + control
 *  - PmuCfg:  banked scratchpad + write/read address ports + control
 *  - AgCfg:   dense/sparse DRAM address generation
 *  - ControlBoxCfg: outer-controller logic hosted in switches (§3.3, §3.5)
 *  - ChannelCfg: statically routed point-to-point buses on the scalar /
 *    vector / control networks; tokens and credits are control channels
 *    with initial token counts (credits are tokens on a reverse channel).
 */

#ifndef PLAST_ARCH_CONFIG_HPP
#define PLAST_ARCH_CONFIG_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "arch/opcodes.hpp"
#include "arch/params.hpp"
#include "base/types.hpp"

namespace plast
{

// --------------------------------------------------------------------
// Operands and pipeline stages
// --------------------------------------------------------------------

enum class OperandKind : uint8_t
{
    kNone = 0,
    kReg,       ///< pipeline register `index` of the current lane
    kCounter,   ///< value of counter `index` (innermost may be vectorized)
    kScalarIn,  ///< head of scalar input FIFO `index` (broadcast)
    kVectorIn,  ///< current element of vector input FIFO `index` (per lane)
    kImm,       ///< immediate word
    kLaneId,    ///< this lane's index (0..lanes-1)
};
constexpr OperandKind enumLast(OperandKind) { return OperandKind::kLaneId; }

struct Operand
{
    OperandKind kind = OperandKind::kNone;
    uint8_t index = 0;
    Word imm = 0;

    static Operand none() { return {}; }
    static Operand reg(uint8_t r) { return {OperandKind::kReg, r, 0}; }
    static Operand ctr(uint8_t c) { return {OperandKind::kCounter, c, 0}; }
    static Operand scalarIn(uint8_t s)
    {
        return {OperandKind::kScalarIn, s, 0};
    }
    static Operand vectorIn(uint8_t v)
    {
        return {OperandKind::kVectorIn, v, 0};
    }
    static Operand immWord(Word w) { return {OperandKind::kImm, 0, w}; }
    static Operand immInt(int32_t v)
    {
        return {OperandKind::kImm, 0, intToWord(v)};
    }
    static Operand laneId() { return {OperandKind::kLaneId, 0, 0}; }
};

enum class StageKind : uint8_t
{
    kMap,        ///< dst[l] = op(a[l], b[l], c[l]) on all valid lanes
    kReduceStep, ///< cross-lane tree step at distance `reduceDist`
    kAccum,      ///< dst = op(dst, a); reset/emit at counter boundaries
    kShift,      ///< dst[l] = a[l - shiftAmt] (cross-lane shift network)
};
constexpr StageKind enumLast(StageKind) { return StageKind::kShift; }

/**
 * One pipeline stage of a PCU (SIMD across lanes) or of a PMU/AG scalar
 * datapath (single lane). Each stage is one FU executing one configured
 * operation; results land in pipeline register `dstReg`.
 */
struct StageCfg
{
    StageKind kind = StageKind::kMap;
    FuOp op = FuOp::kNop;
    Operand a, b, c;
    uint8_t dstReg = 0;
    bool setsMask = false;   ///< kMap: AND nonzero-result into valid mask
    uint8_t reduceDist = 1;  ///< kReduceStep: partner distance
    uint8_t accLevel = 0;    ///< kAccum: counter level framing the fold
    int8_t shiftAmt = 0;     ///< kShift: lane shift distance

    std::string describe() const;
};

// --------------------------------------------------------------------
// Counter chains
// --------------------------------------------------------------------

/**
 * One programmable counter. Iterates min, min+step, ... while < max.
 * The innermost counter of a chain may be vectorized: lane l observes
 * value + l*step and the counter advances by lanes*step per wavefront;
 * lanes at or beyond max are issued with their valid-mask bit cleared.
 */
struct CounterCfg
{
    int64_t min = 0;
    int64_t step = 1;
    int64_t max = 1;
    bool vectorized = false;
    int8_t maxFromScalarIn = -1; ///< >=0: bound read from scalar input
    int32_t boundScale = 1;     ///< dynamic bound multiplier

    int64_t
    trips(int64_t bound, uint32_t lanes) const
    {
        int64_t span = bound - min;
        if (span <= 0)
            return 0;
        int64_t per = vectorized ? step * lanes : step;
        return (span + per - 1) / per;
    }
};

/** Counter chain, outermost first. */
struct ChainCfg
{
    std::vector<CounterCfg> ctrs;

    bool empty() const { return ctrs.empty(); }
};

// --------------------------------------------------------------------
// Unit IO and control
// --------------------------------------------------------------------

/** When an output port emits: every wavefront, or only when the counter
 *  at `level` (and everything inner to it) completes. */
struct EmitCond
{
    bool always = true;
    uint8_t level = 0;

    static EmitCond everyWavefront() { return {true, 0}; }
    static EmitCond lastAtLevel(uint8_t lvl) { return {false, lvl}; }
};

struct VecOutCfg
{
    bool enabled = false;
    uint8_t srcReg = 0;
    EmitCond cond;
    bool coalesce = false; ///< FlatMap: pack valid words across wavefronts
};

struct ScalOutCfg
{
    bool enabled = false;
    uint8_t srcReg = 0;
    EmitCond cond;
    /**
     * >= 0: instead of a register, emit the total number of valid words
     * a coalescing vector-output port produced this run (emitted at run
     * end; used by FlatMap consumers to learn dynamic sizes).
     */
    int8_t countOfVecOut = -1;
};

/**
 * Token gating for one execution "run" (one full counter-chain sweep).
 * The unit consumes one token from each listed control input to begin a
 * run and pulses each listed control output when the run completes.
 * Credits (§3.5) are expressed as tokens on reverse channels with
 * nonzero initial counts. A unit with no token inputs self-starts once.
 */
struct ControlCfg
{
    std::vector<uint8_t> tokenIns;
    std::vector<uint8_t> doneOuts;
};

// --------------------------------------------------------------------
// Pattern Compute Unit
// --------------------------------------------------------------------

struct PcuCfg
{
    bool used = false;
    std::string name;
    ChainCfg chain;
    std::vector<StageCfg> stages;
    std::vector<VecOutCfg> vecOuts;   ///< sized to params.pcu.vectorOuts
    std::vector<ScalOutCfg> scalOuts; ///< sized to params.pcu.scalarOuts
    ControlCfg ctrl;
};

// --------------------------------------------------------------------
// Pattern Memory Unit
// --------------------------------------------------------------------

enum class BankingMode : uint8_t
{
    kStrided,    ///< word w lives in bank w % banks (dense linear access)
    kFifo,       ///< streaming queue semantics
    kLineBuffer, ///< circular row buffer for sliding windows
    kDup,        ///< contents duplicated per bank: parallel random reads
};
constexpr BankingMode enumLast(BankingMode) { return BankingMode::kDup; }

std::string bankingModeName(BankingMode mode);

struct ScratchCfg
{
    BankingMode mode = BankingMode::kStrided;
    uint8_t numBufs = 1;     ///< N-buffering depth
    uint32_t sizeWords = 0;  ///< logical words per buffer
};

/**
 * One PMU access port (write side fed by the producer pattern, read side
 * driven by the consumer pattern, §3.2). The port owns a counter chain
 * and a scalar address pipeline; alternatively addresses arrive per-lane
 * on a vector input (gather/scatter within the scratchpad).
 */
struct PmuPortCfg
{
    bool enabled = false;
    ChainCfg chain;
    std::vector<StageCfg> addrStages; ///< scalar pipeline; final addr word
    uint8_t addrReg = 0;              ///< register holding the address
    int8_t addrVecIn = -1;  ///< >=0: per-lane word addresses from vector in
    int8_t dataVecIn = -1;  ///< write port: data vector input index
    int8_t dataVecOut = -1; ///< read port: data vector output index
    bool accumulate = false;     ///< write port RMW (dense HashReduce)
    FuOp accumOp = FuOp::kFAdd;
    ControlCfg ctrl;
    /** Advance the N-buffer pointer every `swapEvery` run completions
     *  (0 = never). Lets a producer accumulate in place across an
     *  inner loop and rotate buffers at an outer loop boundary. */
    uint32_t swapEvery = 0;
    bool vecLinear = false;  ///< scalar addr covers `lanes` consecutive words
    /** Zero the target buffer at the start of every `clearEvery`-th run
     *  (0 = never): in-place reduction initialisation (HashReduce /
     *  tile accumulators). */
    uint32_t clearEvery = 0;
    /** Read port: single-word read replicated across all lanes
     *  (duplication-mode broadcast of loop-invariant operands). */
    bool broadcast = false;
    /** Write port: FlatMap append — incoming valid words are packed at
     *  a run-local cursor (ignores addrStages). */
    bool appendMode = false;
};

struct PmuCfg
{
    bool used = false;
    std::string name;
    ScratchCfg scratch;
    PmuPortCfg write;
    /** Secondary write port (e.g. one-time initialisation alongside a
     *  per-iteration producer). Shares the scratchpad storage. */
    PmuPortCfg write2;
    PmuPortCfg read;
};

// --------------------------------------------------------------------
// Address generators & DRAM
// --------------------------------------------------------------------

enum class AgMode : uint8_t
{
    kDenseLoad,
    kDenseStore,
    kSparseLoad,  ///< gather
    kSparseStore, ///< scatter
};
constexpr AgMode enumLast(AgMode) { return AgMode::kSparseStore; }

std::string agModeName(AgMode mode);

struct AgCfg
{
    bool used = false;
    std::string name;
    AgMode mode = AgMode::kDenseLoad;
    ChainCfg chain;                   ///< dense: one command per iteration
    std::vector<StageCfg> addrStages; ///< scalar pipeline -> word index
    uint8_t addrReg = 0;
    Addr base = 0;           ///< byte base of the DRAM region
    uint32_t wordsPerCmd = 16; ///< dense: contiguous words per command
    int8_t addrVecIn = -1;   ///< sparse: per-lane word indices
    int8_t dataVecIn = -1;   ///< stores: data input
    int8_t dataVecOut = -1;  ///< loads: data output
    ControlCfg ctrl;
    uint8_t channel = 0;     ///< DRAM channel binding
};

// --------------------------------------------------------------------
// Outer controllers (control boxes in switches)
// --------------------------------------------------------------------

enum class CtrlScheme : uint8_t
{
    kSequential, ///< one iteration in flight
    kMetapipe,   ///< up to `depth` iterations in flight (tokens+credits)
    kStream,     ///< children run concurrently, FIFO flow control
};
constexpr CtrlScheme enumLast(CtrlScheme) { return CtrlScheme::kStream; }

std::string ctrlSchemeName(CtrlScheme scheme);

struct ControlBoxCfg
{
    bool used = false;
    std::string name;
    CtrlScheme scheme = CtrlScheme::kSequential;
    ChainCfg chain;                      ///< outer loop counters
    ControlCfg ctrl;                     ///< parent-facing tokens
    std::vector<uint8_t> childStartOuts; ///< control outs to head children
    std::vector<uint8_t> childDoneIns;   ///< control ins from tail children
    uint32_t depth = 1;                  ///< metapipe iterations in flight

    /** Counter values exported on the scalar network each iteration. */
    struct CtrExport
    {
        uint8_t ctrIdx;
        uint8_t scalarOutPort;
    };
    std::vector<CtrExport> exports;
};

// --------------------------------------------------------------------
// Channels (statically routed buses)
// --------------------------------------------------------------------

enum class NetKind : uint8_t { kScalar, kVector, kControl };
constexpr NetKind enumLast(NetKind) { return NetKind::kControl; }

std::string netKindName(NetKind kind);

enum class UnitClass : uint8_t { kPcu, kPmu, kAg, kBox, kHost };
constexpr UnitClass enumLast(UnitClass) { return UnitClass::kHost; }

std::string unitClassName(UnitClass cls);

struct UnitRef
{
    UnitClass cls = UnitClass::kHost;
    uint16_t index = 0;

    bool
    operator==(const UnitRef &o) const
    {
        return cls == o.cls && index == o.index;
    }
    std::string describe() const;
};

struct Endpoint
{
    UnitRef unit;
    uint8_t port = 0;
};

/**
 * A statically routed point-to-point bus. `latency` is the hop count of
 * the placed route (pipelined switches, §3.3). Control channels may
 * carry `initialTokens` (credits). A src port may feed several channels
 * (multicast through switches).
 */
struct ChannelCfg
{
    NetKind kind = NetKind::kScalar;
    Endpoint src, dst;
    uint32_t latency = 1;
    uint32_t initialTokens = 0;
    uint32_t capacity = 16; ///< receiver FIFO depth
    /** Scalar channels: consumer pops every Nth run (see ScalarInPort). */
    uint32_t dstPopEvery = 1;

    std::string describe() const;
};

/** A scalar input pinned to a constant (host argument registers). */
struct ConstScalar
{
    Endpoint dst;
    Word value;
};

// --------------------------------------------------------------------
// Whole-fabric configuration
// --------------------------------------------------------------------

struct FabricConfig
{
    ArchParams params;
    std::vector<PcuCfg> pcus;
    std::vector<PmuCfg> pmus;
    std::vector<AgCfg> ags;
    std::vector<ControlBoxCfg> boxes;
    std::vector<ChannelCfg> channels;
    std::vector<ConstScalar> constants;
    /** Box whose done pulse terminates the application. */
    int rootBox = -1;
    /** Number of host scalar-output slots (argOut registers). */
    uint32_t hostArgOuts = 0;

    uint32_t usedPcus() const;
    uint32_t usedPmus() const;
    uint32_t usedAgs() const;
    std::string describe() const;
};

// --------------------------------------------------------------------
// Reachability / deadness analysis
// --------------------------------------------------------------------

/**
 * What a mapped PCU configuration can actually exercise. Computed once
 * per config; the specializer (sim/execplan.hpp) uses it to elide the
 * machinery a config provably cannot touch from the per-cycle path:
 * only `touchedRegs` lane arrays are reset per issue, only the live
 * output ports are scanned at retire, and coalescing/run-count logic
 * is skipped entirely when no port uses it.
 *
 * Conservatism contract: every register the datapath may read or write
 * during a run is in `touchedRegs`, and every enabled output port is
 * live — analysis may over-approximate (extra resets are harmless,
 * they match the interpreter's zero-initialised wavefronts) but never
 * under-approximate.
 */
struct PcuLiveness
{
    uint32_t readRegs = 0;    ///< bitmask: regs any operand or srcReg reads
    uint32_t writtenRegs = 0; ///< bitmask: regs any stage dstReg writes
    uint32_t touchedRegs = 0; ///< readRegs | writtenRegs
    std::vector<uint8_t> liveVecOuts;   ///< indices of enabled vector outs
    std::vector<uint8_t> liveScalOuts;  ///< enabled register scalar outs
    std::vector<uint8_t> countScalOuts; ///< enabled FlatMap-count outs
    std::vector<uint8_t> vecInRefs;     ///< vector inputs any stage reads
    bool anyCoalesce = false; ///< some live vector out coalesces
    bool anySetsMask = false; ///< some map stage filters the lane mask
};

PcuLiveness analyzePcu(const PcuCfg &cfg);

} // namespace plast

#endif // PLAST_ARCH_CONFIG_HPP
