/**
 * @file
 * The 13 evaluation benchmarks (Table 4): each app builds a PIR
 * program at a configurable scale, stages synthetic input data, and
 * carries the analytical characteristics (FLOPs, DRAM traffic,
 * boundedness) that the FPGA baseline model consumes.
 *
 * Paper sizes (e.g. 768M-element inner product) target the full 49 W
 * chip; the default scales here run locally in seconds while keeping
 * every benchmark in the same performance regime (memory-bound
 * streaming stays memory-bound, compute-bound tiling stays
 * compute-bound). EXPERIMENTS.md documents the scaling.
 */

#ifndef PLAST_APPS_APPS_HPP
#define PLAST_APPS_APPS_HPP

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "pir/ir.hpp"
#include "runtime/runner.hpp"

namespace plast::apps
{

struct AppInstance
{
    std::string name;
    pir::Program prog;
    /** Stage synthetic inputs into the runner's DRAM buffers. */
    std::function<void(Runner &)> load;
    /** Analytical characteristics for the baseline models. */
    double flops = 0;      ///< arithmetic operations in the kernel
    double dramBytes = 0;  ///< total DRAM traffic (bytes)
    bool sparse = false;   ///< dominated by random DRAM accesses
    double paperScale = 1; ///< paper size / this size (for projection)
    /** Length of the genuinely serial dependence chain (controller
     *  steps that cannot overlap); bounds the FPGA baseline's latency
     *  at its slower fabric clock. */
    double serialSteps = 0;
    /** DRAM-traffic multiplier on the FPGA: BRAM port/capacity limits
     *  force smaller tiles than Plasticine's 256 KB scratchpads, so
     *  tiled workloads refetch operands (§4.5: OuterProduct, GEMM). */
    double fpgaTrafficFactor = 1.0;
};

/** Scale selector: small sizes for tests, default for benches,
 *  kPaper for the paper's original dataset sizes (Table 7) on apps
 *  that support it (others fall back to their default size). */
enum class Scale { kTiny, kDefault, kPaper };

AppInstance makeInnerProduct(Scale scale, uint32_t par = 2);
AppInstance makeOuterProduct(Scale scale);
AppInstance makeBlackScholes(Scale scale, uint32_t par = 2);
AppInstance makeTpchQ6(Scale scale, uint32_t par = 2);
AppInstance makeGemm(Scale scale);
AppInstance makeGda(Scale scale);
AppInstance makeLogReg(Scale scale);
AppInstance makeSgd(Scale scale);
AppInstance makeKmeans(Scale scale);
AppInstance makeCnn(Scale scale);
AppInstance makeSmdv(Scale scale);
AppInstance makePageRank(Scale scale);
AppInstance makeBfs(Scale scale);

struct AppSpec
{
    std::string name;
    bool sparse;
    std::function<AppInstance(Scale)> make;
};

/** All benchmarks in Table 4 / Table 7 order. */
const std::vector<AppSpec> &allApps();

/** The benchmark called `name` in allApps(), or null. */
const AppSpec *findApp(std::string_view name);

} // namespace plast::apps

#endif // PLAST_APPS_APPS_HPP
