/**
 * @file
 * Tooling example: compile a benchmark and print the configuration
 * "assembly" the compiler produced — every configured PCU stage, PMU
 * port program, AG command generator, control box, and routed channel
 * (the paper's §3.6 configuration description).
 *
 * Usage: ./inspect_mapping [benchmark-name]   (default: GEMM)
 */

#include <cstdio>

#include "apps/apps.hpp"
#include "arch/disasm.hpp"
#include "base/flags.hpp"
#include "compiler/mapper.hpp"

using namespace plast;

int
main(int argc, char **argv)
{
    setVerbose(false);
    const apps::AppSpec *spec = apps::findApp("GEMM");
    FlagSet flags("inspect_mapping", "[benchmark-name]");
    flags.arg(
        "benchmark-name", "benchmark to compile (default GEMM)",
        [&spec](const std::string &v) {
            spec = apps::findApp(v);
            return spec ? std::string() : "unknown benchmark '" + v + "'";
        },
        false);
    if (auto rc = flags.parse(argc, argv))
        return *rc;

    apps::AppInstance app = spec->make(apps::Scale::kTiny);
    std::printf("--- controller tree ---\n%s\n", app.prog.dump().c_str());
    compiler::MapResult res =
        compiler::compileProgram(app.prog, ArchParams::plasticineFinal());
    if (!res.report.ok) {
        std::fprintf(stderr, "mapping failed: %s\n",
                     res.report.error.c_str());
        return 1;
    }
    std::printf("--- configuration assembly ---\n%s",
                disasmFabric(res.fabric).c_str());
    std::printf("\n%s\n", res.report.summary(ArchParams{}).c_str());
    return 0;
}
