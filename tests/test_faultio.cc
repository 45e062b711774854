/**
 * @file
 * Tests for the deterministic fault-injection shim (common/faultio.hh):
 * plan grammar + fatal diagnostics, fail-N eio semantics, torn-write
 * arming and its writeFileAtomic integration, crash-once markers, the
 * fixed retry schedule and the retry absorber, and thread-safety
 * of the armed counters (this file is part of the TSan CI subset — keep
 * "Fault" in every test suite name).
 */

#include <gtest/gtest.h>

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
    // Exactly the points with a live call site: a new one must be added
    // here (and to CI's fault-sweep list), a dead one removed.
    const std::vector<std::string> want = {
        "atomic.tmp.open",     "atomic.tmp.write",    "atomic.tmp.fsync",
        "atomic.commit.rename", "atomic.dir.fsync",   "trace.cache.read",
        "trace.cache.write",   "ckpt.cell.read",      "ckpt.cell.commit",
        "sweep.manifest.read", "sweep.manifest.write",
    };
    const auto& table = faultPointTable();
    std::vector<std::string> names;
    const std::set<std::string> kinds = { "read", "write", "sync" };
    for (const auto& p : table) {
        names.push_back(p.name);
        EXPECT_TRUE(kinds.count(p.kind))
            << p.name << " has unknown kind " << p.kind;
        EXPECT_NE(std::string(p.site), "");
    }
    EXPECT_EQ(names, want);
}

// ------------------------------------------------------------ plan grammar

TEST_F(FaultIoTest, UnarmedFastPathInjectsNothing)
{
    EXPECT_FALSE(faultPlanArmed());
    EXPECT_FALSE(faultFailed("ckpt.cell.read"));
    EXPECT_FALSE(faultConsumeTorn());
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

TEST(FaultPlanDeathTest, SkewActionIsRejected)
{
    EXPECT_EXIT(installFaultPlan("ckpt.cell.read:skew"),
                ::testing::ExitedWithCode(1), "unknown action 'skew'");
}

/** A transient failure has one action, eio. */
TEST(FaultPlanDeathTest, EnospcActionIsRejected)
{
    EXPECT_EXIT(installFaultPlan("ckpt.cell.commit:enospc"),
                ::testing::ExitedWithCode(1), "unknown action 'enospc'");
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
    installFaultPlan("ckpt.cell.read:eio;sweep.manifest.read:eio@2,"
                     "trace.cache.write:torn");
    EXPECT_TRUE(faultPlanArmed());
    auto armed = faultArmedHits();
    ASSERT_EQ(armed.size(), 3u);
    EXPECT_EQ(armed[0].first, "ckpt.cell.read");
    EXPECT_EQ(armed[1].first, "sweep.manifest.read");
    EXPECT_EQ(armed[2].first, "trace.cache.write");
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
    installFaultPlan("sweep.manifest.write:eio");
    EXPECT_TRUE(faultFailed("sweep.manifest.write"));
    EXPECT_FALSE(faultFailed("sweep.manifest.write"));
    clearFaultPlan();
    EXPECT_FALSE(faultPlanArmed());
    EXPECT_EQ(faultPointHits("sweep.manifest.write"), 0u); // forgotten
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
    installFaultPlan("sweep.manifest.read:eio@2");
    unsigned tries = 0;
    bool ok = retryWithBackoff("sweep.manifest.read", [&] {
        ++tries;
        return !faultFailed("sweep.manifest.read");
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
    unsigned tries = 0;
    bool ok = retryWithBackoff("sweep.manifest.read", [&] {
        ++tries;
        return false;
    });
    EXPECT_FALSE(ok);
    EXPECT_EQ(tries, 4u);
    EXPECT_EQ(g_sleepCalls, 3u); // no sleep after the final failure
}

std::vector<unsigned> g_sleeps;

/** Retries follow an I/O error, never a lost race, so every caller sleeps
 *  the same fixed schedule between its 4 tries. */
TEST(FaultBackoff, FixedScheduleSleeps5Then10Then20Ms)
{
    g_sleeps.clear();
    setFaultSleepFn([](unsigned ms) { g_sleeps.push_back(ms); });
    for (const char* point : { "ckpt.cell.commit", "sweep.manifest.write" })
        EXPECT_FALSE(retryWithBackoff(point, [] { return false; }));
    setFaultSleepFn(nullptr);
    EXPECT_EQ(g_sleeps, (std::vector<unsigned> { 5, 10, 20, 5, 10, 20 }));
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
