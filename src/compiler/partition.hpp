/**
 * @file
 * Virtual-PCU partitioning (§3.6): split a virtual unit's pipeline
 * schedule into chunks that each fit one physical PCU — bounded stages,
 * live registers, scalar inputs, and vector IO. Values crossing a cut
 * travel on vector buses (one output on the producer, one input on the
 * consumer); gather loads force the consumer into a later chunk so the
 * address can round-trip through a PMU.
 *
 * The same cost model drives the Figure 7 design-space sweeps: the
 * paper's "normalized area overhead" is (#PCUs x PCU area) relative to
 * the minimum over the swept space, and infeasible parameter choices
 * (x marks in the figure) are partitions that return !ok here.
 */

#ifndef PLAST_COMPILER_PARTITION_HPP
#define PLAST_COMPILER_PARTITION_HPP

#include "arch/params.hpp"
#include "compiler/vleaf.hpp"

namespace plast::compiler
{

struct ChunkMetrics
{
    uint32_t stages = 0;
    uint32_t regs = 0;      ///< peak live op results
    uint32_t scalarIns = 0;
    uint32_t scalarOuts = 0;
    uint32_t vectorIns = 0;
    uint32_t vectorOuts = 0;
};

struct Chunk
{
    int32_t firstOp = 0;
    int32_t lastOp = -1; ///< inclusive
    ChunkMetrics metrics;
};

struct PartitionResult
{
    bool ok = false;
    std::string error;
    std::vector<Chunk> chunks;

    uint32_t numChunks() const
    {
        return static_cast<uint32_t>(chunks.size());
    }
};

/** Last op index that reads each value of `leaf`; -1 if never read. */
std::vector<int32_t> computeLastUse(const VirtualLeaf &leaf);

/** Partition one virtual leaf under the given PCU parameters. */
PartitionResult partitionLeaf(const VirtualLeaf &leaf,
                              const PcuParams &params);

/** Chunk index containing op `opIdx` (result must be ok). */
int32_t chunkOfOp(const PartitionResult &part, int32_t opIdx);

} // namespace plast::compiler

#endif // PLAST_COMPILER_PARTITION_HPP
