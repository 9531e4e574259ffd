/**
 * @file
 * Output checks. A job's outputs are its argOut streams and its DRAM
 * image after the run; the reference is the functional evaluator run on
 * the same staged inputs. Failures are counted, never fatal, so one
 * wrong program lowers ok_frac instead of ending the run.
 */

#ifndef PLASBENCH_CHECK_HPP
#define PLASBENCH_CHECK_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "runtime/runner.hpp"
#include "serve/server.hpp"

namespace plasbench
{

/** Expected outputs of one job (DRAM buffers indexed by MemId, empty
 *  for on-chip memories). */
struct Reference
{
    std::vector<std::vector<plast::Word>> argOuts;
    std::vector<std::vector<plast::Word>> dram;
};

/** Run the reference evaluator on the runner's staged inputs. */
Reference referenceFor(const plast::Runner &runner);

/**
 * A finished run's outputs in the serve daemon's outcome form (status,
 * cycles, argOuts, DRAM readback), so sim jobs and serve jobs are
 * checked the same way; serve::hashOutcome fingerprints it. The result
 * hash is left unset.
 */
plast::serve::JobOutcome
outcomeOf(const plast::pir::Program &prog, const plast::Status &st,
          const plast::Runner::Result &res,
          const std::function<std::vector<plast::Word>(plast::pir::MemId)>
              &readDram);

/** "" when `got` is an ok outcome whose argOuts and DRAM buffers equal
 *  `want` bit for bit; otherwise what differs (every differing DRAM
 *  buffer with its count of differing words). */
std::string compareOutputs(const plast::pir::Program &prog,
                           const Reference &want,
                           const plast::serve::JobOutcome &got);

/** Attempted / failed operation counts. */
struct Tally
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    void
    count(bool ok)
    {
        ++attempted;
        failed += ok ? 0 : 1;
    }
    double
    okFrac() const
    {
        return attempted ? double(attempted - failed) / attempted : 0.0;
    }
};

} // namespace plasbench

#endif // PLASBENCH_CHECK_HPP
