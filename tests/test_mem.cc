/**
 * @file
 * Memory-hierarchy substrate tests: cache tag array, replacement,
 * prefetchers, DRAM timing, DTLB, directory and the facade.
 */

#include <gtest/gtest.h>

#include <thread>
#include <utility>
#include <vector>

#include "mem/cache.hh"
#include "mem/directory.hh"
#include "mem/dram.hh"
#include "mem/dtlb.hh"
#include "mem/hierarchy.hh"
#include "mem/prefetcher.hh"

namespace constable {
namespace {

CacheConfig
tinyCache(ReplPolicy pol = ReplPolicy::LRU)
{
    // 4 sets x 2 ways x 64B = 512B.
    CacheConfig c;
    c.name = "tiny";
    c.sizeKB = 1;
    c.ways = 2;
    c.policy = pol;
    return c;
}

TEST(Cache, MissThenHit)
{
    Cache c(tinyCache());
    EXPECT_FALSE(c.lookup(0x10, false));
    c.insert(0x10, false);
    EXPECT_TRUE(c.lookup(0x10, false));
    EXPECT_EQ(c.misses, 1u);
    EXPECT_EQ(c.hits, 1u);
}

TEST(Cache, LruEvictsOldest)
{
    Cache c(tinyCache());
    unsigned sets = c.numSets();
    // Three lines mapping to set 0: evict the least recently used.
    c.insert(0 * sets, false);
    c.insert(1 * sets, false);
    c.lookup(0 * sets, false);       // touch line 0: line 1 becomes LRU
    c.insert(2 * sets, false);       // evicts line 1
    EXPECT_TRUE(c.contains(0 * sets));
    EXPECT_FALSE(c.contains(1 * sets));
    EXPECT_TRUE(c.contains(2 * sets));
}

TEST(Cache, EvictHookReportsVictimAndDirty)
{
    Cache c(tinyCache());
    unsigned sets = c.numSets();
    Addr victim = 0;
    bool dirty = false;
    int calls = 0;
    c.setEvictHook([&](Addr line, bool d) {
        victim = line;
        dirty = d;
        ++calls;
    });
    c.insert(0 * sets, true);  // dirty
    c.insert(1 * sets, false);
    c.insert(2 * sets, false); // evicts line 0 (oldest)
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(victim, 0u * sets);
    EXPECT_TRUE(dirty);
}

TEST(Cache, InvalidateReturnsDirtyState)
{
    Cache c(tinyCache());
    c.insert(0x20, true);
    auto r = c.invalidate(0x20);
    ASSERT_TRUE(r.has_value());
    EXPECT_TRUE(*r);
    EXPECT_FALSE(c.contains(0x20));
    EXPECT_FALSE(c.invalidate(0x20).has_value());
}

TEST(Cache, WriteSetsDirty)
{
    Cache c(tinyCache());
    c.insert(0x30, false);
    c.lookup(0x30, true);
    auto r = c.invalidate(0x30);
    ASSERT_TRUE(r.has_value());
    EXPECT_TRUE(*r);
}

TEST(Cache, RripPrefetchInsertsEvictFirst)
{
    Cache c(tinyCache(ReplPolicy::RRIP));
    unsigned sets = c.numSets();
    c.insert(0 * sets, false);             // demand: rrpv 2
    c.insert(1 * sets, false, true);       // prefetch: rrpv 3 (distant)
    c.insert(2 * sets, false);             // evicts the prefetch
    EXPECT_TRUE(c.contains(0 * sets));
    EXPECT_FALSE(c.contains(1 * sets));
}

// --------------------------------------------------- tag-array recycling

/** Everything one replay observes: each operation's outcome, the
 *  evict-hook (line, dirty) sequence and the final counters. */
struct ReplayLog
{
    std::vector<int> outcomes;
    std::vector<std::pair<Addr, bool>> evictions;
    std::vector<uint64_t> counters;
};

/** 16 sets x 32 tags. The 4096-line stride maps a line to the same set in
 *  the L1D, L2 and LLC geometries (all have <= 4096 sets), and 32 tags
 *  overflow every set of every one of them. */
Addr
replayLine(uint64_t r)
{
    return (r % 16) + ((r >> 8) % 32) * 4096;
}

/** One fixed insert/lookup/invalidate sequence. */
void
replay(Cache& c, ReplayLog& log)
{
    c.setEvictHook([&log](Addr line, bool dirty) {
        log.evictions.emplace_back(line, dirty);
    });
    uint64_t r = 12345;
    for (int i = 0; i < 6000; ++i) {
        r = r * 6364136223846793005ull + 1442695040888963407ull;
        Addr line = replayLine(r >> 33);
        switch ((r >> 20) % 4) {
          case 0:
          case 1:
            if (c.lookup(line, (r >> 24) & 1)) {
                log.outcomes.push_back(1);
            } else {
                log.outcomes.push_back(0);
                c.insert(line, (r >> 25) & 1);
            }
            break;
          case 2:
            c.insert(line, false, true);
            log.outcomes.push_back(c.contains(line) ? 3 : 2);
            break;
          default: {
              std::optional<bool> dirty = c.invalidate(line);
              log.outcomes.push_back(!dirty ? 4 : *dirty ? 6 : 5);
          }
        }
    }
    log.counters = { c.hits, c.misses, c.evictions };
}

/** Replay on an L1D- and an LLC-geometry cache built on this thread. */
std::vector<ReplayLog>
replayL1dAndLlc()
{
    HierarchyConfig h;
    Cache l1d(h.l1d);
    Cache llc(h.llc);
    std::vector<ReplayLog> logs(2);
    replay(l1d, logs[0]);
    replay(llc, logs[1]);
    return logs;
}

TEST(Cache, RecycledArrayStartsCold)
{
    // Leave this thread's pool an LLC and an L2 array full of dirty lines
    // over the very addresses the replay touches: best fit then hands the
    // L2 array to the L1D and the LLC array back to the LLC.
    std::vector<ReplayLog> recycled;
    std::thread([&recycled] {
        HierarchyConfig h;
        {
            Cache llc(h.llc);
            Cache l2(h.l2);
            for (uint64_t r = 0; r < 8192; ++r) {
                llc.insert(replayLine(r), true);
                l2.insert(replayLine(r), true);
            }
        }
        recycled = replayL1dAndLlc();
    }).join();
    std::vector<ReplayLog> fresh;
    std::thread([&fresh] { fresh = replayL1dAndLlc(); }).join();

    ASSERT_EQ(recycled.size(), 2u);
    ASSERT_EQ(fresh.size(), 2u);
    for (size_t i = 0; i < 2; ++i) {
        SCOPED_TRACE(i == 0 ? "L1D" : "LLC");
        EXPECT_EQ(recycled[i].outcomes, fresh[i].outcomes);
        EXPECT_EQ(recycled[i].evictions, fresh[i].evictions);
        EXPECT_EQ(recycled[i].counters, fresh[i].counters);
        EXPECT_FALSE(fresh[i].evictions.empty());
    }
}

TEST(Prefetch, StrideDetectsAfterTraining)
{
    StridePrefetcher p;
    std::vector<Addr> out;
    for (int i = 0; i < 4; ++i) {
        out.clear();
        p.observe(0x100, 0x1000 + 64 * i, out);
    }
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(out[0], 0x1000u + 64 * 3 + 64);
}

TEST(Prefetch, StrideIgnoresRandom)
{
    StridePrefetcher p;
    std::vector<Addr> out;
    Addr addrs[] = { 0x1000, 0x5020, 0x2310, 0x8fa8, 0x1458 };
    for (Addr a : addrs) {
        out.clear();
        p.observe(0x100, a, out);
    }
    EXPECT_TRUE(out.empty());
}

TEST(Prefetch, StreamerFollowsDirection)
{
    StreamerPrefetcher p;
    std::vector<Addr> out;
    p.observe(0x10000, out);
    p.observe(0x10040, out);
    out.clear();
    p.observe(0x10080, out); // two increasing steps: direction up
    ASSERT_FALSE(out.empty());
    EXPECT_GT(out[0], 0x10080u);
}

TEST(Prefetch, SppLearnsDeltaChain)
{
    SppPrefetcher p;
    std::vector<Addr> out;
    for (int i = 0; i < 12; ++i) {
        out.clear();
        p.observe(0x20000 + 128 * i, out); // delta of 2 lines within page
    }
    EXPECT_FALSE(out.empty());
}

TEST(Dram, RowHitFasterThanMiss)
{
    Dram d;
    unsigned first = d.access(0x10000);     // row miss
    unsigned second = d.access(0x10000);    // same row: hit
    EXPECT_GT(first, second);
    EXPECT_EQ(d.rowMisses, 1u);
    EXPECT_EQ(d.rowHits, 1u);
}

TEST(Dram, LatenciesMatchConfig)
{
    DramConfig cfg;
    Dram d(cfg);
    unsigned miss = d.access(0x40000);
    EXPECT_EQ(miss, cfg.tRp + cfg.tRcd + cfg.tCas + cfg.busTransfer);
    unsigned hit = d.access(0x40000);
    EXPECT_EQ(hit, cfg.tCas + cfg.busTransfer);
}

TEST(Dtlb, MissThenHit)
{
    Dtlb t(64, 4, 20);
    EXPECT_EQ(t.access(0x123456), 20u);
    EXPECT_EQ(t.access(0x123456 + 8), 0u); // same page
    EXPECT_EQ(t.misses, 1u);
    EXPECT_EQ(t.hits, 1u);
}

TEST(Directory, PinAndSnoop)
{
    Directory d;
    d.pin(0x55);
    EXPECT_TRUE(d.isPinned(0x55));
    d.pin(0x55); // idempotent
    EXPECT_EQ(d.numPinned(), 1u);
    d.snoopDelivered(0x55);
    EXPECT_FALSE(d.isPinned(0x55));
    EXPECT_EQ(d.snoopsDelivered, 1u);
}

TEST(Hierarchy, LatencyOrderingAcrossLevels)
{
    HierarchyConfig cfg;
    cfg.enablePrefetchers = false;
    MemHierarchy m(cfg);
    unsigned dramLat = m.load(0x1, 0x100000).latency; // cold: DRAM
    unsigned l1Lat = m.load(0x1, 0x100000).latency;   // now in L1
    EXPECT_GT(dramLat, l1Lat);
    EXPECT_GE(l1Lat, cfg.l1d.latency);
}

TEST(Hierarchy, WarmLineServesFromL2)
{
    HierarchyConfig cfg;
    cfg.enablePrefetchers = false;
    MemHierarchy m(cfg);
    m.warmLine(lineAddr(0x200000));
    MemAccessResult r = m.load(0x1, 0x200000);
    EXPECT_EQ(static_cast<int>(r.level), static_cast<int>(MemLevel::L2));
}

TEST(Hierarchy, SnoopInvalidatesEverywhere)
{
    HierarchyConfig cfg;
    cfg.enablePrefetchers = false;
    MemHierarchy m(cfg);
    m.load(0x1, 0x300000);
    m.snoop(0x300000);
    MemAccessResult r = m.load(0x1, 0x300000);
    EXPECT_EQ(static_cast<int>(r.level), static_cast<int>(MemLevel::Dram));
}

TEST(Hierarchy, CountsReadsAndWrites)
{
    MemHierarchy m;
    m.load(0x1, 0x1000);
    m.store(0x2, 0x2000);
    m.store(0x2, 0x2000);
    EXPECT_EQ(m.l1dReads, 1u);
    EXPECT_EQ(m.l1dWrites, 2u);
    StatSet s;
    m.exportStats(s);
    EXPECT_DOUBLE_EQ(s.get("mem.l1d.reads"), 1.0);
    EXPECT_DOUBLE_EQ(s.get("mem.l1d.writes"), 2.0);
}

TEST(Hierarchy, L1EvictHookFires)
{
    HierarchyConfig cfg;
    cfg.enablePrefetchers = false;
    cfg.l1d.sizeKB = 1;   // 16 lines: easy to overflow
    cfg.l1d.ways = 2;
    MemHierarchy m(cfg);
    int evictions = 0;
    m.setL1EvictHook([&](Addr, bool) { ++evictions; });
    for (Addr a = 0; a < 64 * 64; a += 64)
        m.load(0x1, 0x400000 + a);
    EXPECT_GT(evictions, 0);
}

} // namespace
} // namespace constable
