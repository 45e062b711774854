#include "sim/batch.hh"

#include <algorithm>

#include "common/obs.hh"

namespace constable {

namespace {

/** Set while the current thread executes pool jobs; nested run() calls from
 *  inside a job execute inline instead of deadlocking on runMu_. */
thread_local bool tlsInPoolJob = false;

unsigned
defaultConcurrency()
{
    unsigned hw = std::thread::hardware_concurrency();
    return std::max(1u, std::min(hw == 0 ? 1u : hw, 16u));
}

} // namespace

ThreadPool::ThreadPool(unsigned concurrency)
    : concurrency_(concurrency == 0
                       ? defaultConcurrency()
                       : std::min(concurrency, kMaxConcurrency))
{
    shards_.reserve(concurrency_);
    for (unsigned i = 0; i < concurrency_; ++i)
        shards_.push_back(std::make_unique<Shard>());
    // Worker 0 is the calling thread; only the rest get dedicated threads.
    threads_.reserve(concurrency_ - 1);
    for (unsigned id = 1; id < concurrency_; ++id)
        threads_.emplace_back([this, id]() { workerLoop(id); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        shutdown_ = true;
    }
    cvStart_.notify_all();
    for (auto& t : threads_)
        t.join();
}

bool
ThreadPool::grabWork(unsigned id, std::pair<size_t, size_t>& out)
{
    // Own deque first: newest chunk (back) for locality.
    {
        Shard& own = *shards_[id];
        std::lock_guard<std::mutex> lk(own.mu);
        if (!own.chunks.empty()) {
            out = own.chunks.back();
            own.chunks.pop_back();
            return true;
        }
    }
    // Then steal the oldest chunk (front) from the first non-empty victim.
    for (unsigned k = 1; k < concurrency_; ++k) {
        Shard& victim = *shards_[(id + k) % concurrency_];
        std::lock_guard<std::mutex> lk(victim.mu);
        if (!victim.chunks.empty()) {
            out = victim.chunks.front();
            victim.chunks.pop_front();
            return true;
        }
    }
    return false;
}

void
ThreadPool::drain(unsigned id, const std::function<void(size_t)>& fn)
{
    std::pair<size_t, size_t> range;
    while (grabWork(id, range)) {
        tlsInPoolJob = true;
        for (size_t i = range.first; i < range.second; ++i)
            fn(i);
        tlsInPoolJob = false;
        pending_.fetch_sub(range.second - range.first);
    }
}

void
ThreadPool::workerLoop(unsigned id)
{
    // Name this thread's span lane after its pool slot, so Perfetto shows
    // one row per worker (worker 0 is the calling thread -- its spans land
    // on that thread's existing lane).
    obsSetThreadLane("pool-" + std::to_string(id));
    uint64_t seenBatch = 0;
    for (;;) {
        const std::function<void(size_t)>* fn = nullptr;
        {
            std::unique_lock<std::mutex> lk(mu_);
            cvStart_.wait(lk, [&]() {
                return shutdown_ || (fn_ != nullptr && batchId_ != seenBatch);
            });
            if (shutdown_)
                return;
            seenBatch = batchId_;
            fn = fn_;
            // Committed to this batch: run() must not return (and the next
            // batch must not load chunks) until this worker leaves drain(),
            // or a slow worker could run new chunks with a stale fn.
            ++active_;
        }
        drain(id, *fn);
        {
            std::lock_guard<std::mutex> lk(mu_);
            --active_;
        }
        cvDone_.notify_all();
    }
}

void
ThreadPool::run(size_t n, const std::function<void(size_t)>& fn)
{
    if (n == 0)
        return;
    if (concurrency_ == 1 || n == 1 || tlsInPoolJob) {
        // Serial pool, trivial batch, or nested call from inside a job.
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    std::lock_guard<std::mutex> batch(runMu_);

    // Deal chunks round-robin so stealing starts balanced; ~4 chunks per
    // worker keeps steal traffic low while still smoothing skewed job costs.
    size_t chunk = std::max<size_t>(1, n / (size_t(concurrency_) * 4));
    size_t nextShard = 0;
    for (size_t begin = 0; begin < n; begin += chunk) {
        size_t end = std::min(n, begin + chunk);
        Shard& s = *shards_[nextShard++ % concurrency_];
        std::lock_guard<std::mutex> lk(s.mu);
        s.chunks.emplace_back(begin, end);
    }
    pending_.store(n);
    {
        std::lock_guard<std::mutex> lk(mu_);
        fn_ = &fn;
        ++batchId_;
    }
    cvStart_.notify_all();

    // The submitting thread works too (worker 0's shard is its home).
    drain(0, fn);

    std::unique_lock<std::mutex> lk(mu_);
    cvDone_.wait(lk,
                 [&]() { return pending_.load() == 0 && active_ == 0; });
    fn_ = nullptr;
}

ThreadPool&
ThreadPool::global()
{
    static ThreadPool pool;
    return pool;
}

namespace {

/** Dispatch a batch to the right executor for opts.threads. */
void
dispatch(size_t n, const BatchOptions& opts,
         const std::function<void(size_t)>& fn)
{
    if (opts.threads == 1) {
        for (size_t i = 0; i < n; ++i)
            fn(i);
    } else if (opts.threads == 0 || opts.threads == defaultConcurrency()) {
        // defaultConcurrency() is what global() was (or will be) built
        // with; comparing against it avoids materializing the global pool
        // just to read its size when a dedicated pool is wanted anyway.
        ThreadPool::global().run(n, fn);
    } else {
        ThreadPool pool(opts.threads);
        pool.run(n, fn);
    }
}

} // namespace

void
forEachJob(size_t n, const std::function<void(size_t, Rng&)>& fn,
           const BatchOptions& opts)
{
    dispatch(n, opts, [&](size_t job) {
        // Seeded from (master seed, job) only: independent of the executing
        // worker, so any steal schedule reproduces the same streams.
        Rng rng(Rng::splitmix(opts.seed) ^ Rng::splitmix(job + 1));
        fn(job, rng);
    });
}

std::vector<double>
MatrixResult::speedupsOver(size_t test, size_t base) const
{
    std::vector<double> out(numRows);
    for (size_t r = 0; r < numRows; ++r)
        out[r] = speedup(at(r, test), at(r, base));
    return out;
}

StatSet
MatrixResult::aggregateStats() const
{
    StatSet agg;
    for (const RunResult& r : results)
        agg.merge(r.stats);
    return agg;
}

uint64_t
MatrixResult::totalCycles() const
{
    uint64_t sum = 0;
    for (const RunResult& r : results)
        sum += r.cycles;
    return sum;
}

} // namespace constable
