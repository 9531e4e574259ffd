/**
 * @file
 * Virtual-unit construction (§3.6 step 1): each compute leaf is lowered
 * to a *virtual PCU* — an abstract unit with unbounded stages,
 * registers and IO. The lowering analyses every SRAM access (linear /
 * broadcast / gather via numeric probing), linearises the expression
 * DAG into a pipeline schedule that keeps live ranges short, and
 * expands folds into reduction-tree and accumulator stages. The
 * partitioner (partition.hpp) then splits virtual units into physical
 * PCUs; the same path powers the Figure 7 design-space sweeps.
 */

#ifndef PLAST_COMPILER_VLEAF_HPP
#define PLAST_COMPILER_VLEAF_HPP

#include <map>
#include <string>
#include <vector>

#include "arch/config.hpp"
#include "pir/ir.hpp"

namespace plast::compiler
{

/** How a leaf's SRAM load is served by a PMU read port. */
enum class AccessClass : uint8_t
{
    kVecLinear, ///< addr affine, stride one in the vectorized counter
    kBroadcast, ///< addr independent of the vectorized counter
    kGather,    ///< computed per-lane addresses (needs an addr stream)
};

/** A vector input of the virtual unit. */
struct VecSource
{
    enum class Kind : uint8_t
    {
        kSramLoad,  ///< PMU read stream (expr kLoadSram)
        kDramStream,///< AG dense load stream (expr kStreamIn)
        kGatherData,///< PMU gather read data (addr computed on-fabric)
    };
    Kind kind = Kind::kSramLoad;
    pir::ExprId expr = pir::kNone; ///< the load / stream expr
    AccessClass access = AccessClass::kVecLinear;
    int32_t addrValue = -1; ///< kGatherData: value id of the address
};

/** A scalar input of the virtual unit. */
struct ScalSource
{
    enum class Kind : uint8_t
    {
        kOuterCtr,  ///< outer-controller counter export
        kLeafScalar,///< cross-leaf scalar stream (pir ScalarIn)
        kDynBound,  ///< dynamic counter bound
    };
    Kind kind = Kind::kOuterCtr;
    pir::CtrId ctr = pir::kNone;
    int32_t scalarIn = pir::kNone; ///< index into leaf.scalarIns
    int32_t boundCtrLevel = -1;    ///< which leaf counter it bounds
};

/** One value in the virtual pipeline. */
struct VValue
{
    enum class Kind : uint8_t
    {
        kImm,    ///< literal / resolved argument
        kCtr,    ///< leaf counter (level)
        kLane,   ///< lane id
        kScalar, ///< scalar input index
        kVecIn,  ///< vector input index
        kOp,     ///< produced by pipeline op `def`
    };
    Kind kind = Kind::kImm;
    Word imm = 0;
    int32_t index = -1; ///< ctr level / scalar idx / vec idx
    int32_t def = -1;   ///< defining op for kOp
};

/** One pipeline operation (maps 1:1 to a physical stage). */
struct VOp
{
    StageKind kind = StageKind::kMap;
    FuOp op = FuOp::kNop;
    int32_t a = -1, b = -1, c = -1; ///< value ids
    int32_t result = -1;            ///< value id defined
    bool setsMask = false;
    uint8_t reduceDist = 1;
    uint8_t accLevel = 0;
    /** Gather barrier: ops after this one must live in a later PCU so
     *  the address can round-trip through the PMU. */
    bool barrierAfter = false;
};

/** What a chunk must emit for a program sink. */
struct VEmission
{
    enum class Kind : uint8_t { kVecOut, kScalOut, kCountOut };
    Kind kind = Kind::kVecOut;
    int32_t sinkIdx = -1;  ///< index into the leaf's sinks
    int32_t value = -1;    ///< value id emitted (kVecOut/kScalOut)
    EmitCond cond;
    bool coalesce = false;
    int32_t countOfSink = -1; ///< kCountOut: FlatMap sink measured
    /** >=0: this is the address stream feeding a gather vector source. */
    int32_t gatherVecSource = -1;
    /** >=0: this is the address stream of a scatter-style sink. */
    int32_t scatterAddrForSink = -1;
};

/** A compute leaf lowered to one virtual PCU. */
struct VirtualLeaf
{
    pir::NodeId node = pir::kNone;
    std::string name;
    /** Non-empty when lowering failed; the rest of the leaf is then
     *  partial and must not be partitioned or mapped. */
    std::string error;
    ChainCfg chain;              ///< leaf counter chain (bounds resolved)
    std::vector<pir::CtrId> ctrIds; ///< CtrId per chain level
    std::vector<int8_t> dynBoundScalar; ///< per level: scalar idx or -1
    std::vector<VecSource> vecSources;
    std::vector<ScalSource> scalSources;
    std::vector<VValue> values;
    std::vector<VOp> ops;        ///< pipeline schedule, in order
    std::vector<VEmission> emissions;
};

/**
 * Numeric linearity probe: evaluates `addr` under random counter
 * assignments at several lanes. Returns the access class. Exposed for
 * unit testing.
 */
AccessClass classifyAddr(const pir::Program &prog, const pir::Node &leaf,
                         pir::ExprId addr);

/** Lower one compute leaf to a virtual unit. */
VirtualLeaf lowerLeaf(const pir::Program &prog, pir::NodeId leaf,
                      uint32_t lanes);

/**
 * Lower a scalar address expression to PMU/AG datapath stages.
 * `ctrLevel` maps CtrId -> chain level of the port's own chain;
 * `scalarPort` maps CtrId (outer counters) -> scalar input port.
 * Returns the stages and sets `addrReg`. A malformed expression
 * (unmapped counter, too-deep tree, non-address expr kind) sets `err`
 * and returns empty stages.
 */
std::vector<StageCfg>
lowerScalarExpr(const pir::Program &prog, pir::ExprId expr,
                const std::map<pir::CtrId, int> &ctrLevel,
                const std::map<pir::CtrId, int> &scalarPort,
                uint8_t &addrReg, std::string &err);

} // namespace plast::compiler

#endif // PLAST_COMPILER_VLEAF_HPP
