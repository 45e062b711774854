/**
 * @file
 * Tests for the deterministic fault-injection shim (common/faultio.hh):
 * plan grammar + fatal diagnostics, fail-N eio/enospc semantics, torn-write
 * arming and its writeFileAtomic integration, crash-once markers, clock
 * skew, seeded backoff determinism, the retry absorber, and thread-safety
 * of the armed counters (this file is part of the TSan CI subset — keep
 * "Fault" in every test suite name).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/faultio.hh"

namespace constable {
namespace {

namespace fs = std::filesystem;

/** Every test leaves the process disarmed, so ordering never matters. */
class FaultIoTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        clearFaultPlan();
        std::string tmpl = fs::temp_directory_path() /
                           "constable-faultio-XXXXXX";
        std::vector<char> buf(tmpl.begin(), tmpl.end());
        buf.push_back('\0');
        ASSERT_NE(mkdtemp(buf.data()), nullptr);
        dir = buf.data();
    }

    void
    TearDown() override
    {
        clearFaultPlan();
        setFaultSleepFn(nullptr);
        fs::remove_all(dir);
    }

    std::string dir;
};

// ---------------------------------------------------------------- registry

TEST_F(FaultIoTest, RegistryIsLargeUniqueAndWellKinded)
{
    const auto& table = faultPointTable();
    EXPECT_GE(table.size(), 15u); // the faultsweep acceptance floor
    std::set<std::string> names;
    const std::set<std::string> kinds = { "read", "write", "sync", "clock" };
    for (const auto& p : table) {
        EXPECT_TRUE(names.insert(p.name).second)
            << "duplicate fault point " << p.name;
        EXPECT_TRUE(kinds.count(p.kind))
            << p.name << " has unknown kind " << p.kind;
        EXPECT_NE(std::string(p.site), "");
    }
}

// ------------------------------------------------------------ plan grammar

TEST_F(FaultIoTest, UnarmedFastPathInjectsNothing)
{
    EXPECT_FALSE(faultPlanArmed());
    EXPECT_FALSE(faultFailed("ckpt.cell.read"));
    EXPECT_FALSE(faultConsumeTorn());
    EXPECT_EQ(faultSkewSeconds("lease.age"), 0.0);
    EXPECT_EQ(faultPointHits("ckpt.cell.read"), 0u);
}

TEST(FaultPlanDeathTest, UnknownPointIsFatal)
{
    EXPECT_EXIT(installFaultPlan("no.such.point:eio"),
                ::testing::ExitedWithCode(1), "fault point");
}

TEST(FaultPlanDeathTest, UnknownActionIsFatal)
{
    EXPECT_EXIT(installFaultPlan("ckpt.cell.read:explode"),
                ::testing::ExitedWithCode(1), "action");
}

TEST(FaultPlanDeathTest, MalformedClauseIsFatal)
{
    EXPECT_EXIT(installFaultPlan("ckpt.cell.read"),
                ::testing::ExitedWithCode(1), "clause");
    EXPECT_EXIT(installFaultPlan("ckpt.cell.read:eio@zero"),
                ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(installFaultPlan("ckpt.cell.read:eio@0"),
                ::testing::ExitedWithCode(1), "");
}

TEST_F(FaultIoTest, ClausesSplitOnSemicolonAndComma)
{
    installFaultPlan("ckpt.cell.read:eio;lease.read:enospc@2,"
                     "lease.age:skew");
    EXPECT_TRUE(faultPlanArmed());
    auto armed = faultArmedHits();
    ASSERT_EQ(armed.size(), 3u);
    EXPECT_EQ(armed[0].first, "ckpt.cell.read");
    EXPECT_EQ(armed[1].first, "lease.read");
    EXPECT_EQ(armed[2].first, "lease.age");
}

// ------------------------------------------------------- fail-N semantics

TEST_F(FaultIoTest, EioFailsFirstNThenHeals)
{
    ::testing::internal::CaptureStderr();
    installFaultPlan("ckpt.cell.read:eio@2");
    EXPECT_TRUE(faultFailed("ckpt.cell.read"));
    EXPECT_TRUE(faultFailed("ckpt.cell.read"));
    EXPECT_FALSE(faultFailed("ckpt.cell.read")); // healed
    EXPECT_FALSE(faultFailed("ckpt.cell.read"));
    EXPECT_EQ(faultPointHits("ckpt.cell.read"), 4u);
    // Only the clause's first injection is announced, and outside
    // writeFileAtomic the notice names no file.
    EXPECT_EQ(::testing::internal::GetCapturedStderr(),
              "faultio: injected eio at fault point 'ckpt.cell.read'\n");
    // Unarmed points are untouched even while a plan is live.
    EXPECT_FALSE(faultFailed("ckpt.cell.commit"));
    EXPECT_EQ(faultPointHits("ckpt.cell.commit"), 0u);
}

TEST_F(FaultIoTest, DefaultCountIsOneAndClearDisarms)
{
    installFaultPlan("lease.acquire:enospc");
    EXPECT_TRUE(faultFailed("lease.acquire"));
    EXPECT_FALSE(faultFailed("lease.acquire"));
    clearFaultPlan();
    EXPECT_FALSE(faultPlanArmed());
    EXPECT_EQ(faultPointHits("lease.acquire"), 0u); // forgotten with plan
}

// -------------------------------------------------------------- torn writes

TEST_F(FaultIoTest, TornArmsThreadLocalFlagOnce)
{
    installFaultPlan("atomic.tmp.write:torn@1");
    EXPECT_FALSE(faultFailed("atomic.tmp.write")); // torn is not a failure
    EXPECT_TRUE(faultConsumeTorn());
    EXPECT_FALSE(faultConsumeTorn()); // consumed
    EXPECT_FALSE(faultFailed("atomic.tmp.write")); // @1 exhausted
    EXPECT_FALSE(faultConsumeTorn());
}

TEST_F(FaultIoTest, TornFlagIsThreadLocal)
{
    installFaultPlan("atomic.tmp.write:torn@1");
    EXPECT_FALSE(faultFailed("atomic.tmp.write"));
    bool otherThreadSawTorn = true;
    std::thread t([&] { otherThreadSawTorn = faultConsumeTorn(); });
    t.join();
    EXPECT_FALSE(otherThreadSawTorn);
    EXPECT_TRUE(faultConsumeTorn()); // still pending on the arming thread
}

TEST_F(FaultIoTest, TornWriteCommitsHalfThePayloadButReportsSuccess)
{
    std::string path = dir + "/victim.bin";
    std::vector<uint8_t> payload(100, 0xab);
    ::testing::internal::CaptureStderr();
    installFaultPlan("atomic.tmp.write:torn@1");
    EXPECT_TRUE(writeFileAtomic(path, payload)); // silent corruption
    std::vector<uint8_t> back;
    EXPECT_TRUE(readFileBytes(path, back));
    EXPECT_LT(back.size(), payload.size());
    // The next write heals: full payload lands.
    EXPECT_TRUE(writeFileAtomic(path, payload));
    EXPECT_TRUE(readFileBytes(path, back));
    EXPECT_EQ(back.size(), payload.size());
    // The notice names the file the fault hit (constable-faultsweep reads
    // it back to check where atomic.* faults land).
    EXPECT_EQ(::testing::internal::GetCapturedStderr(),
              "faultio: injected torn at fault point 'atomic.tmp.write' "
              "while writing '" + path + "'\n");
}

// ------------------------------------------------------------ crash points

TEST_F(FaultIoTest, CrashExitsWithTheSentinelCode)
{
    installFaultPlan("ckpt.cell.commit:crash@1"); // no marker dir: always
    EXPECT_EXIT(faultFailed("ckpt.cell.commit"),
                ::testing::ExitedWithCode(kFaultCrashExitCode),
                "injected crash at fault point 'ckpt.cell.commit'");
}

TEST_F(FaultIoTest, CrashFiresOnTheNthHitOnly)
{
    installFaultPlan("ckpt.cell.commit:crash@3");
    EXPECT_FALSE(faultFailed("ckpt.cell.commit"));
    EXPECT_FALSE(faultFailed("ckpt.cell.commit"));
    EXPECT_EXIT(faultFailed("ckpt.cell.commit"),
                ::testing::ExitedWithCode(kFaultCrashExitCode), "");
}

TEST_F(FaultIoTest, CrashMarkerMakesTheCrashOneShot)
{
    installFaultPlan("ckpt.cell.commit:crash@1", dir);
    // The EXPECT_EXIT child crashes and leaves the O_EXCL marker behind...
    EXPECT_EXIT(faultFailed("ckpt.cell.commit"),
                ::testing::ExitedWithCode(kFaultCrashExitCode), "");
    bool marker = false;
    for (const auto& e : fs::directory_iterator(dir))
        marker |= e.path().filename().string().rfind("crash-", 0) == 0;
    EXPECT_TRUE(marker);
    // ...so this "relaunched" process survives the same plan: the crash is
    // disarmed and the call site proceeds normally.
    EXPECT_FALSE(faultFailed("ckpt.cell.commit"));
    EXPECT_FALSE(faultFailed("ckpt.cell.commit"));
}

// -------------------------------------------------------------- clock skew

TEST_F(FaultIoTest, SkewReportsItsParamAndCountsHits)
{
    installFaultPlan("lease.age:skew@400");
    EXPECT_EQ(faultSkewSeconds("lease.age"), 400.0);
    EXPECT_EQ(faultSkewSeconds("lease.age"), 400.0); // not fail-N: sticky
    EXPECT_EQ(faultSkewSeconds("ckpt.cell.read"), 0.0);
    EXPECT_GE(faultPointHits("lease.age"), 2u);
    EXPECT_FALSE(faultFailed("lease.age")); // skew never fails the call
}

TEST_F(FaultIoTest, SkewDefaultsTo300Seconds)
{
    installFaultPlan("lease.age:skew");
    EXPECT_EQ(faultSkewSeconds("lease.age"), 300.0);
}

// ----------------------------------------------------- deterministic backoff

TEST(FaultBackoff, SameInputsSameDelayAcrossCalls)
{
    BackoffPolicy p;
    for (unsigned attempt = 0; attempt < 4; ++attempt) {
        unsigned a = backoffDelayMs("lease.read", attempt, p);
        unsigned b = backoffDelayMs("lease.read", attempt, p);
        EXPECT_EQ(a, b) << "attempt " << attempt;
    }
}

TEST(FaultBackoff, DelaysGrowExponentiallyWithinJitterBounds)
{
    BackoffPolicy p;
    p.baseMs = 8;
    p.mult = 2.0;
    p.jitterFrac = 0.5;
    p.capMs = 10000;
    for (unsigned attempt = 0; attempt < 5; ++attempt) {
        double nominal = p.baseMs * std::pow(p.mult, attempt);
        unsigned d = backoffDelayMs("ckpt.cell.commit", attempt, p);
        EXPECT_GE(d + 1.0, nominal) << "attempt " << attempt; // +1: rounding
        EXPECT_LE(d, nominal * (1.0 + p.jitterFrac) + 1.0)
            << "attempt " << attempt;
    }
}

TEST(FaultBackoff, CapBoundsEveryDelay)
{
    BackoffPolicy p;
    p.baseMs = 100;
    p.mult = 10.0;
    p.capMs = 250;
    for (unsigned attempt = 0; attempt < 8; ++attempt)
        EXPECT_LE(backoffDelayMs("lease.acquire", attempt, p), p.capMs);
}

TEST(FaultBackoff, DifferentPointsDesynchronize)
{
    // Seeded jitter exists to spread contending writers apart: across a few
    // attempts, two points must not share an identical delay schedule.
    BackoffPolicy p;
    bool differ = false;
    for (unsigned attempt = 0; attempt < 6 && !differ; ++attempt)
        differ = backoffDelayMs("lease.read", attempt, p) !=
                 backoffDelayMs("lease.release", attempt, p);
    EXPECT_TRUE(differ);
}

// ------------------------------------------------------------- retry loop

unsigned g_sleepCalls = 0;
unsigned g_sleepTotalMs = 0;

void
countingSleep(unsigned ms)
{
    ++g_sleepCalls;
    g_sleepTotalMs += ms;
}

TEST_F(FaultIoTest, RetryAbsorbsTransientFailuresAndSleepsBetween)
{
    g_sleepCalls = g_sleepTotalMs = 0;
    setFaultSleepFn(&countingSleep);
    installFaultPlan("lease.read:eio@2");
    unsigned tries = 0;
    bool ok = retryWithBackoff("lease.read", [&] {
        ++tries;
        return !faultFailed("lease.read");
    });
    EXPECT_TRUE(ok);
    EXPECT_EQ(tries, 3u);      // two injected failures, then success
    EXPECT_EQ(g_sleepCalls, 2u);
    EXPECT_GT(g_sleepTotalMs, 0u);
}

TEST_F(FaultIoTest, RetryGivesUpAfterThePolicyBudget)
{
    g_sleepCalls = 0;
    setFaultSleepFn(&countingSleep);
    BackoffPolicy p;
    p.attempts = 3;
    unsigned tries = 0;
    bool ok = retryWithBackoff("lease.read", [&] {
        ++tries;
        return false;
    }, p);
    EXPECT_FALSE(ok);
    EXPECT_EQ(tries, 3u);
    EXPECT_EQ(g_sleepCalls, 2u); // no sleep after the final failure
}

// ------------------------------------------------------------ thread safety

TEST_F(FaultIoTest, ConcurrentHitCountingIsExactUnderContention)
{
    constexpr unsigned kThreads = 4;
    constexpr unsigned kPerThread = 250;
    installFaultPlan("trace.cache.read:eio@100");
    std::vector<unsigned> injected(kThreads, 0);
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < kThreads; ++t) {
        pool.emplace_back([&, t] {
            for (unsigned i = 0; i < kPerThread; ++i)
                if (faultFailed("trace.cache.read"))
                    ++injected[t];
        });
    }
    for (auto& th : pool)
        th.join();
    unsigned total = 0;
    for (unsigned n : injected)
        total += n;
    EXPECT_EQ(total, 100u); // exactly the first N hits fail, race-free
    EXPECT_EQ(faultPointHits("trace.cache.read"), kThreads * kPerThread);
}

} // namespace
} // namespace constable
