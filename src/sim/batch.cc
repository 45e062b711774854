#include "sim/batch.hh"

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>

#include "common/obs.hh"

namespace constable {

namespace {

/** Set while the current thread runs jobs of a parallel forEachJob; a
 *  nested call from inside a job runs inline on that thread. */
thread_local bool tlsInJob = false;

} // namespace

unsigned
batchThreads(const BatchOptions& opts)
{
    if (opts.threads != 0)
        return opts.threads;
    return std::clamp(std::thread::hardware_concurrency(), 1u, 16u);
}

void
forEachJob(size_t n, const std::function<void(size_t, Rng&)>& fn,
           const BatchOptions& opts)
{
    auto runJob = [&](size_t job) {
        // Seeded from (master seed, job) only: independent of the executing
        // thread, so any schedule reproduces the same streams.
        Rng rng(Rng::splitmix(opts.seed) ^ Rng::splitmix(job + 1));
        fn(job, rng);
    };
    const size_t threads = std::min<size_t>(batchThreads(opts), n);
    if (threads <= 1 || tlsInJob) {
        for (size_t i = 0; i < n; ++i)
            runJob(i);
        return;
    }

    // Jobs take milliseconds, so one shared counter deals them one at a
    // time: a slow job holds back only its own thread.
    std::atomic<size_t> next { 0 };
    auto drain = [&] {
        tlsInJob = true;
        for (size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) < n;)
            runJob(i);
        tlsInJob = false;
    };
    // Declared after everything the workers use, so on every exit path
    // (a later worker failing to start included) they are joined first.
    std::vector<std::jthread> workers;
    workers.reserve(threads - 1);
    for (size_t k = 1; k < threads; ++k) {
        workers.emplace_back([&, k] {
            // One trace lane per worker index, however many calls run.
            if (obsArmed())
                obsSetThreadLane("pool-" + std::to_string(k));
            drain();
        });
    }
    drain();
}

std::vector<double>
MatrixResult::speedupsOver(size_t test, size_t base) const
{
    std::vector<double> out(numRows);
    for (size_t r = 0; r < numRows; ++r)
        out[r] = speedup(at(r, test), at(r, base));
    return out;
}

} // namespace constable
