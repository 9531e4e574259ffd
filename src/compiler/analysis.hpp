/**
 * @file
 * Program analysis, the compiler's first pass (§3.6): every compute
 * leaf lowered to a virtual PCU and partitioned into physical chunks,
 * the DRAM layout, each SRAM's readers and writers, the controller its
 * buffers rotate at and the metapipes whose depth sets its N-buffering.
 * Later passes only read the result. The demand check and the N-buffer
 * depth fixpoint (capacity spilling, DESIGN.md §12) work from it.
 */

#ifndef PLAST_COMPILER_ANALYSIS_HPP
#define PLAST_COMPILER_ANALYSIS_HPP

#include <map>
#include <set>

#include "compiler/mapper.hpp"

namespace plast::compiler
{

/** A unit that reads an SRAM: each one gets a PMU of its own. */
struct ReaderDesc
{
    enum class Kind { kLeafLoad, kXferStore, kGatherAddr } kind;
    pir::NodeId node;
    int32_t vecSource = -1; ///< kLeafLoad: index into vleaf sources
};

/** A unit that writes an SRAM through a PMU write port. */
struct WriterDesc
{
    enum class Kind { kLeafSink, kXferLoad, kGatherDst } kind;
    pir::NodeId node;
    int32_t sinkIdx = -1;
};

struct Analysis
{
    std::vector<Addr> dramBase; ///< per memory; zero for SRAMs
    /** Compute leaves, transfers and outer controllers, in tree order. */
    std::vector<pir::NodeId> leaves, xfers, outers;
    std::map<pir::CtrId, pir::NodeId> ctrOwner;
    /** A leaf whose lowering failed is in neither map; a failed
     *  partition stays for checkDemand. */
    std::map<pir::NodeId, VirtualLeaf> vleaves;
    std::map<pir::NodeId, PartitionResult> parts;
    std::string error; ///< the first lowering error, "" if none

    /** Per memory, in controller-tree order: its readers and writers,
     *  the controller its N-buffers rotate at and the metapipes whose
     *  depth its N-buffering must cover. */
    std::vector<std::vector<ReaderDesc>> readers;
    std::vector<std::vector<WriterDesc>> writers;
    std::vector<pir::NodeId> rotNode;
    std::vector<std::set<pir::NodeId>> nbufContrib;
};

Analysis analyzeProgram(const pir::Program &prog, const ArchParams &params);

/**
 * Total unit, port and scratchpad demand of the analysed program
 * against the architecture, with masked sites removed; infeasible when
 * any check is over, naming the first as the binding resource.
 */
CompileDiagnostics checkDemand(const pir::Program &prog,
                               const Analysis &an,
                               const ArchParams &params,
                               const UnitMask &mask);

/** Scratchpad words one PMU gives memory `md`: a duplicated memory
 *  keeps a full copy in every bank. */
uint64_t scratchpadWords(const pir::MemDecl &md, const PmuParams &pmu);

/** N-buffer depths and the metapipe caps that keep them on-chip. */
struct DepthPlan
{
    std::vector<uint32_t> nbuf; ///< per SRAM (0 for DRAM)
    std::map<pir::NodeId, uint32_t> caps;
    std::vector<SpillAction> spills;
    /** The first SRAM that still does not fit, or kNone. */
    pir::MemId overflow = pir::kNone;

    /** Concurrency of outer node `o`, after any cap. */
    uint32_t metapipeDepth(const pir::Program &prog, pir::NodeId o) const;
};

/**
 * Capacity spilling as a fixpoint: each round computes the depths
 * under the current caps, takes the first over-capacity SRAM in
 * declaration order and caps its contributing metapipes at the depth
 * that fits. Stops when nothing overflows, when the overflow cannot
 * spill (`allowSpill` off, its floor does not fit, or no metapipe
 * drives it), when a cap changes nothing, or after 8 rounds.
 */
DepthPlan planDepths(const pir::Program &prog, const Analysis &an,
                     const PmuParams &pmu, bool allowSpill);

} // namespace plast::compiler

#endif // PLAST_COMPILER_ANALYSIS_HPP
