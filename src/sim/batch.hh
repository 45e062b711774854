/**
 * @file
 * Batch execution: forEachJob() with per-job RNG streams, and the
 * {row x config} MatrixResult grid that Experiment (sim/experiment.hh)
 * fills. forEachJob starts its worker threads per call and joins them
 * before it returns; the workers and the caller take job indices from one
 * shared counter. Results are written into pre-allocated row-major slots,
 * so the figures a bench prints are bit-identical whether the matrix ran
 * on one thread or sixteen, and independent of job completion order. Each
 * job also receives a private RNG stream derived from (master seed, job
 * index) via splitmix64 so randomized sweeps stay reproducible under any
 * schedule.
 */

#ifndef CONSTABLE_SIM_BATCH_HH
#define CONSTABLE_SIM_BATCH_HH

#include <functional>
#include <vector>

#include "common/rng.hh"
#include "sim/runner.hh"

namespace constable {

/** Knobs shared by every batch entry point. */
struct BatchOptions
{
    /** Cap on explicit thread counts (a mistyped CONSTABLE_THREADS must
     *  not try to spawn 100000 OS threads; larger values are fatal). */
    static constexpr unsigned kMaxThreads = 256;

    /** Total threads, the caller included; 0 = the hardware thread count
     *  clamped to [1, 16], 1 = serial. */
    unsigned threads = 0;
    /** Master seed for the per-job RNG streams. */
    uint64_t seed = 0x5eed5eedull;
};

/** The thread count a batch with @p opts resolves to (see threads). */
unsigned batchThreads(const BatchOptions& opts);

/**
 * Run fn(job, rng) for job in [0, n), blocking until every job completed.
 * Runs serially for one thread, n <= 1, or a call from a parallel call's job;
 * otherwise min(threads, n) - 1 workers are started, and none outlives the
 * call. The rng argument is seeded from (opts.seed, job) only, never from
 * the executing thread, so results are reproducible for any thread count.
 * Jobs report errors through fatal(): an exception escaping a job on a
 * worker thread ends the program.
 */
void forEachJob(size_t n, const std::function<void(size_t, Rng&)>& fn,
                const BatchOptions& opts = {});

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
