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

void
forEachJob(size_t n, const std::function<void(size_t)>& fn, unsigned threads)
{
    if (threads == 0)
        threads = std::clamp(std::thread::hardware_concurrency(), 1u, 16u);
    const size_t workers = std::min<size_t>(threads, n);
    if (workers <= 1 || tlsInJob) {
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    // Jobs take milliseconds, so one shared counter deals them one at a
    // time: a slow job holds back only its own thread.
    std::atomic<size_t> next { 0 };
    auto drain = [&] {
        tlsInJob = true;
        for (size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) < n;)
            fn(i);
        tlsInJob = false;
    };
    // Declared after everything the workers use, so on every exit path
    // (a later worker failing to start included) they are joined first.
    std::vector<std::jthread> pool;
    pool.reserve(workers - 1);
    for (size_t k = 1; k < workers; ++k) {
        pool.emplace_back([&, k] {
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
