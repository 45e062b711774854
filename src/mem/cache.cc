#include "mem/cache.hh"

#include <bit>

#include "common/logging.hh"

namespace constable {

namespace {

/** Retired tag arrays kept per thread for reuse. Three geometries recur
 *  (L1D/L2/LLC) and best fit hands each its own array back, so the pool
 *  reaches steady state after one run; the cap bounds a thread at a few MB
 *  even when tests churn odd sizes. */
constexpr size_t kMaxPooledArrays = 6;

} // namespace

/**
 * Retired tag arrays plus the thread's epoch counter. Invariant: every
 * line of every pooled array carries an epoch no greater than `epoch`, so
 * the next owner, which takes epoch + 1, finds all of them invalid without
 * rewriting one. Lines only ever take their owner's epoch or 0, so an
 * array keeps the invariant when released if its owner's epoch is not
 * ahead of the counter; that fails only for an array acquired on another
 * thread or before the counter wrapped, and such arrays are freed. When
 * the counter wraps, pooled lines may carry any epoch, so the pool is
 * dropped.
 */
struct Cache::LinePool
{
    std::vector<std::vector<Line>> arrays;
    uint32_t epoch = 0;
};

Cache::LinePool&
Cache::linePool()
{
    thread_local LinePool pool;
    return pool;
}

void
Cache::acquireLines(size_t n)
{
    LinePool& pool = linePool();
    if (++pool.epoch == 0) {
        pool.arrays.clear();
        pool.epoch = 1;
    }
    epoch = pool.epoch;
    // Best fit by line count: an L1D never walks off with an LLC-sized
    // array that the LLC would then have to allocate afresh.
    auto& arrays = pool.arrays;
    size_t best = arrays.size();
    for (size_t i = 0; i < arrays.size(); ++i) {
        if (arrays[i].capacity() >= n &&
            (best == arrays.size() ||
             arrays[i].capacity() < arrays[best].capacity()))
            best = i;
    }
    if (best == arrays.size()) {
        lines.assign(n, Line{});
        return;
    }
    lines = std::move(arrays[best]);
    arrays[best] = std::move(arrays.back());
    arrays.pop_back();
    // Shrinking leaves the kept lines untouched; growing value-initializes
    // only the new tail (epoch 0: invalid).
    lines.resize(n);
}

void
Cache::releaseLines()
{
    LinePool& pool = linePool();
    if (lines.capacity() == 0 || epoch > pool.epoch ||
        pool.arrays.size() >= kMaxPooledArrays)
        return; // freed normally
    pool.arrays.push_back(std::move(lines));
}

Cache::Cache(const CacheConfig& cache_cfg) : cfg(cache_cfg)
{
    uint64_t numLines = static_cast<uint64_t>(cfg.sizeKB) * 1024 / kLineBytes;
    if (cfg.ways == 0 || numLines % cfg.ways != 0)
        fatal("Cache " + cfg.name + ": bad geometry");
    sets = static_cast<unsigned>(numLines / cfg.ways);
    if (!std::has_single_bit(sets))
        fatal("Cache " + cfg.name + ": set count must be a power of two");
    setShift = static_cast<unsigned>(std::countr_zero(sets));
    acquireLines(numLines);
}

Cache::~Cache()
{
    releaseLines();
}

bool
Cache::lookup(Addr line, bool is_write)
{
    unsigned set = setIndex(line);
    Addr tag = tagOf(line);
    for (unsigned w = 0; w < cfg.ways; ++w) {
        Line& l = lines[set * cfg.ways + w];
        if (valid(l) && l.tag == tag) {
            l.lru = ++stamp;
            l.rrpv = 0;
            l.dirty |= is_write;
            ++hits;
            return true;
        }
    }
    ++misses;
    return false;
}

bool
Cache::contains(Addr line) const
{
    unsigned set = setIndex(line);
    Addr tag = tagOf(line);
    for (unsigned w = 0; w < cfg.ways; ++w) {
        const Line& l = lines[set * cfg.ways + w];
        if (valid(l) && l.tag == tag)
            return true;
    }
    return false;
}

unsigned
Cache::victimWay(unsigned set)
{
    // Prefer an invalid way.
    for (unsigned w = 0; w < cfg.ways; ++w) {
        if (!valid(lines[set * cfg.ways + w]))
            return w;
    }
    if (cfg.policy == ReplPolicy::LRU) {
        unsigned best = 0;
        uint64_t bestStamp = UINT64_MAX;
        for (unsigned w = 0; w < cfg.ways; ++w) {
            const Line& l = lines[set * cfg.ways + w];
            if (l.lru < bestStamp) {
                bestStamp = l.lru;
                best = w;
            }
        }
        return best;
    }
    // RRIP: evict first line with max RRPV, aging the set until one exists.
    for (;;) {
        for (unsigned w = 0; w < cfg.ways; ++w) {
            if (lines[set * cfg.ways + w].rrpv >= 3)
                return w;
        }
        for (unsigned w = 0; w < cfg.ways; ++w)
            ++lines[set * cfg.ways + w].rrpv;
    }
}

void
Cache::insert(Addr line, bool is_write, bool from_prefetch)
{
    unsigned set = setIndex(line);
    Addr tag = tagOf(line);
    // Refresh if already present (prefetch racing a demand fill).
    for (unsigned w = 0; w < cfg.ways; ++w) {
        Line& l = lines[set * cfg.ways + w];
        if (valid(l) && l.tag == tag) {
            l.dirty |= is_write;
            return;
        }
    }
    unsigned w = victimWay(set);
    Line& l = lines[set * cfg.ways + w];
    if (valid(l)) {
        ++evictions;
        if (evictHook) {
            Addr victimLine = (l.tag << setShift) | set;
            evictHook(victimLine, l.dirty);
        }
    }
    l.epoch = epoch;
    l.tag = tag;
    l.dirty = is_write;
    l.lru = ++stamp;
    l.rrpv = from_prefetch ? 3 : 2;
}

std::optional<bool>
Cache::invalidate(Addr line)
{
    unsigned set = setIndex(line);
    Addr tag = tagOf(line);
    for (unsigned w = 0; w < cfg.ways; ++w) {
        Line& l = lines[set * cfg.ways + w];
        if (valid(l) && l.tag == tag) {
            l.epoch = 0;
            return l.dirty;
        }
    }
    return std::nullopt;
}

} // namespace constable
