/**
 * @file
 * Batch execution: forEachJob(), and the {row x config} MatrixResult grid
 * that Experiment (sim/experiment.hh) fills. forEachJob starts its worker
 * threads per call and joins them before it returns; the workers and the
 * caller take job indices from one shared counter. Results are written
 * into pre-allocated row-major slots, so the figures a bench prints are
 * bit-identical whether the matrix ran on one thread or sixteen, and
 * independent of job completion order.
 */

#ifndef CONSTABLE_SIM_BATCH_HH
#define CONSTABLE_SIM_BATCH_HH

#include <functional>
#include <vector>

#include "sim/runner.hh"

namespace constable {

/** Cap on explicit thread counts (a mistyped CONSTABLE_THREADS must not
 *  try to spawn 100000 OS threads; larger values are fatal). */
inline constexpr unsigned kMaxThreads = 256;

/**
 * Run fn(job) for job in [0, n), blocking until every job completed.
 * `threads` counts the caller too; 0 = the hardware thread count clamped
 * to [1, 16]. Runs serially for one thread, n <= 1, or a call from a
 * parallel call's job; otherwise min(threads, n) - 1 workers are started,
 * and none outlives the call. Jobs report errors through fatal(): an
 * exception escaping a job on a worker thread ends the program.
 */
void forEachJob(size_t n, const std::function<void(size_t)>& fn,
                unsigned threads = 0);

/** Dense row-major result grid of a {row x config} experiment matrix. */
struct MatrixResult
{
    size_t numRows = 0;
    size_t numConfigs = 0;
    std::vector<RunResult> results; ///< results[row * numConfigs + cfg]

    RunResult&
    at(size_t row, size_t cfg)
    {
        return results[row * numConfigs + cfg];
    }

    const RunResult&
    at(size_t row, size_t cfg) const
    {
        return results[row * numConfigs + cfg];
    }

    /** Per-row speedup of config `test` over config `base`. */
    std::vector<double> speedupsOver(size_t test, size_t base) const;
};

/** Builds the SystemConfig for one matrix cell; may depend on the row
 *  (e.g. ideal-oracle presets seeded with per-workload stable-PC sets). */
using ConfigFactory = std::function<SystemConfig(size_t row)>;

} // namespace constable

#endif
