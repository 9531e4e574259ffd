/**
 * @file
 * Architecture parameters (Table 3 of the paper): the tunable design space
 * and the final selected Plasticine configuration. Every knob swept by
 * Figure 7 lives here so the tuning harness and the final architecture
 * share one code path.
 */

#ifndef PLAST_ARCH_PARAMS_HPP
#define PLAST_ARCH_PARAMS_HPP

#include <cstdint>
#include <string>

#include "base/types.hpp"

namespace plast
{

/** Parameters of a Pattern Compute Unit. */
struct PcuParams
{
    uint32_t lanes = 16;        ///< SIMD lanes (swept 4,8,16,32)
    uint32_t stages = 6;        ///< pipeline stages (swept 1-16)
    uint32_t regsPerStage = 6;  ///< pipeline registers per FU (swept 2-16)
    uint32_t scalarIns = 6;     ///< scalar inputs (swept 1-16)
    uint32_t scalarOuts = 5;    ///< scalar outputs (swept 1-6)
    uint32_t vectorIns = 3;     ///< vector inputs (swept 1-10)
    uint32_t vectorOuts = 3;    ///< vector outputs (swept 1-6)
    uint32_t counters = 4;      ///< counter-chain depth
    /** Vector input FIFO depth of every unit: the compiler sizes the
     *  vector inputs of PCUs, PMUs and AGs by it. */
    uint32_t fifoDepth = 16;
};

/** Parameters of a Pattern Memory Unit. */
struct PmuParams
{
    uint32_t banks = 16;        ///< SRAM banks (= PCU lanes)
    uint32_t bankKilobytes = 16;///< per-bank capacity (swept 4-64 KB)
    uint32_t stages = 4;        ///< scalar address-datapath stages
    uint32_t regsPerStage = 6;
    uint32_t scalarIns = 4;
    uint32_t scalarOuts = 0;    ///< PMUs never use scalar outputs (§3.7)
    uint32_t vectorIns = 3;
    uint32_t vectorOuts = 1;
    /** SECDED ECC on the scratchpad banks: single-bit upsets are
     *  corrected (and scrubbed) on read, double-bit upsets are detected
     *  as uncorrectable. Costs 7 check bits per 32-bit word (39/32 SRAM
     *  area) plus encode/decode logic; see model/area.cpp. */
    bool ecc = false;

    uint32_t totalBytes() const { return banks * bankKilobytes * 1024; }
    uint32_t totalWords() const { return totalBytes() / 4; }
};

/** DRAM system parameters: 4x DDR3-1600 (51.2 GB/s peak, §4.2). A
 *  burst is always kBurstBytes (one 16-word vector). */
struct DramParams
{
    uint32_t channels = 4;
    uint32_t banksPerChannel = 8;
    uint32_t rowBytes = 8192;       ///< row-buffer size per bank
    // Timing in 1 GHz fabric cycles (DDR3-1600: ~13.75 ns CL/RCD/RP).
    uint32_t tRcd = 14;
    uint32_t tCas = 14;
    uint32_t tRp = 14;
    uint32_t tRas = 35;
    uint32_t tBurst = 5;            ///< 64 B on a 12.8 GB/s channel
    uint32_t queueDepth = 32;       ///< per-channel command queue
    /** SECDED ECC on DRAM bursts (x72 DIMM: 8 check bits per 64 data
     *  bits). Single-bit response errors are corrected in the memory
     *  controller; double-bit errors are detected and retried. */
    bool ecc = false;
    double
    peakBytesPerCycle() const
    {
        return static_cast<double>(channels * kBurstBytes) / tBurst;
    }
};

/** Whole-fabric parameters. */
struct ArchParams
{
    uint32_t gridCols = 16;     ///< unit columns (16 x 8 = 128 units)
    uint32_t gridRows = 8;      ///< unit rows
    PcuParams pcu;
    PmuParams pmu;
    DramParams dram;
    uint32_t numAgs = 34;       ///< address generators (Table 5)
    uint32_t coalescerCacheLines = 32;  ///< coalescing-cache entries
    uint32_t coalescerMaxOutstanding = 64;
    uint32_t vectorTracks = 4;  ///< routable vector buses per switch link
    uint32_t scalarTracks = 8;
    uint32_t controlTracks = 32;

    /** Units are laid out as a PCU/PMU checkerboard: site (c, r) is a
     *  PCU when (c + r) is even, so odd x odd grids hold one more PCU
     *  than PMU — the counts here must match Geometry::siteIsPcu. */
    uint32_t numUnits() const { return gridCols * gridRows; }
    uint32_t numPcus() const { return (numUnits() + 1) / 2; }
    uint32_t numPmus() const { return numUnits() - numPcus(); }
    uint32_t switchCols() const { return gridCols + 1; }
    uint32_t switchRows() const { return gridRows + 1; }

    /** The paper's final configuration (Table 3). */
    static ArchParams plasticineFinal() { return ArchParams{}; }

    std::string describe() const;
};

} // namespace plast

#endif // PLAST_ARCH_PARAMS_HPP
