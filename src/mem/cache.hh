/**
 * @file
 * Generic set-associative cache tag array with pluggable replacement.
 * Timing is owned by the hierarchy facade; this class models presence,
 * recency and evictions (the latter feed the Constable-AMT-I variant and
 * the directory CV-bit logic).
 */

#ifndef CONSTABLE_MEM_CACHE_HH
#define CONSTABLE_MEM_CACHE_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hh"

namespace constable {

/** Replacement policies used across the hierarchy (Table 2). */
enum class ReplPolicy : uint8_t {
    LRU,
    RRIP,   ///< re-reference interval prediction (dead-block-aware stand-in)
};

/** Cache geometry + behaviour configuration. */
struct CacheConfig
{
    std::string name = "cache";
    unsigned sizeKB = 48;
    unsigned ways = 12;
    unsigned latency = 5;          ///< round-trip hit latency in cycles
    ReplPolicy policy = ReplPolicy::LRU;
};

/**
 * Set-associative tag array over 64-byte lines.
 * Eviction notifications carry the victim line address and its dirty bit.
 */
class Cache
{
  public:
    using EvictHook = std::function<void(Addr line, bool dirty)>;

    explicit Cache(const CacheConfig& cfg);
    ~Cache();

    /** The backing tag array is recycled through a per-thread pool across
     *  Cache lifetimes (a batch worker constructs three arrays per
     *  simulated run) and is never rewritten on reuse: each Cache takes a
     *  fresh epoch instead, and a line is valid only while it carries its
     *  owner's epoch (see Line). Construction from a warm pool therefore
     *  costs O(1), not O(lines). Moves keep the buffer and its epoch. */
    Cache(const Cache&) = delete;
    Cache& operator=(const Cache&) = delete;
    Cache(Cache&&) = default;
    Cache& operator=(Cache&&) = default;

    /** Probe for a line; updates recency on hit. @param line line address. */
    bool lookup(Addr line, bool is_write);

    /** Probe without recency update or stats. */
    bool contains(Addr line) const;

    /**
     * Fill a line (allocate-on-miss). Evicts a victim if the set is full
     * and calls the eviction hook.
     * @param from_prefetch fills from prefetchers get distant RRIP ages.
     */
    void insert(Addr line, bool is_write, bool from_prefetch = false);

    /** Invalidate a line if present (snoop); @return was present+dirty. */
    std::optional<bool> invalidate(Addr line);

    void setEvictHook(EvictHook hook) { evictHook = std::move(hook); }

    const CacheConfig& config() const { return cfg; }
    unsigned numSets() const { return sets; }

    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;

  private:
    /** Packed to 24 bytes: the tag array is scanned way-by-way, so line
     *  size is probe cost. A line is valid iff its epoch equals its
     *  owner's; every other field of an invalid line is read only to be
     *  overwritten by insert(), so a recycled line from an earlier owner is
     *  indistinguishable from a value-initialized one. */
    struct Line
    {
        Addr tag = 0;
        uint64_t lru = 0;     ///< recency stamp (LRU)
        uint32_t epoch = 0;   ///< owner's epoch when valid; 0 = invalidated
        uint8_t rrpv = 3;     ///< re-reference prediction value (RRIP)
        bool dirty = false;
    };
    static_assert(sizeof(Line) == 24, "the epoch must fit the padding");

    bool valid(const Line& l) const { return l.epoch == epoch; }
    unsigned setIndex(Addr line) const { return line & (sets - 1); }
    Addr tagOf(Addr line) const { return line >> setShift; }
    unsigned victimWay(unsigned set);

    /** Per-thread recycled tag-array storage (see cache.cc). */
    struct LinePool;
    static LinePool& linePool();
    void acquireLines(size_t n);
    void releaseLines();

    CacheConfig cfg;
    unsigned sets;
    unsigned setShift;
    uint32_t epoch = 0;        ///< validity stamp of this owner's lines
    uint64_t stamp = 0;
    std::vector<Line> lines;   ///< sets * ways, row-major
    EvictHook evictHook;
};

} // namespace constable

#endif
