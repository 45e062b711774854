/**
 * @file
 * Tests for the sharded multi-process sweep subsystem (sim/shard.hh):
 * lease-file claim semantics, manifest pinning, fork-coordinator runs that
 * are bit-identical to single-process runs, SIGKILL crash recovery through
 * mtime-based lease reclaim, and merge-time regeneration of corrupt cells
 * and cleanup of orphaned tmp files.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

#include <sys/wait.h>
#include <unistd.h>

#include "common/faultio.hh"
#include "sim/experiment.hh"
#include "sim/shard.hh"
#include "trace/serialize.hh"
#include "workloads/suite.hh"

namespace constable {
namespace {

namespace fs = std::filesystem;

class ShardTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        std::string tmpl = fs::temp_directory_path() /
                           "constable-shard-XXXXXX";
        std::vector<char> buf(tmpl.begin(), tmpl.end());
        buf.push_back('\0');
        ASSERT_NE(mkdtemp(buf.data()), nullptr);
        dir = buf.data();
    }

    void TearDown() override { fs::remove_all(dir); }

    std::string dir;
};

/** A 2x3 synthetic sweep: cells are cheap deterministic functions of the
 *  index, which is all the shard layer requires of a cell. */
SweepManifest
syntheticManifest()
{
    SweepManifest m;
    m.experiment = "shard-test";
    m.suiteHash = 0x5eed;
    m.numRows = 2;
    m.numConfigs = 3;
    m.configNames = { "a", "b", "c" };
    return m;
}

RunResult
syntheticCell(size_t cell)
{
    RunResult r;
    r.cycles = 1000 + cell * 17;
    r.instructions = 100 + cell;
    r.stats.set("cell.index", static_cast<double>(cell));
    r.stats.set("cell.awkward", 0.1 + 0.2 * static_cast<double>(cell));
    return r;
}

ShardOptions
workerOpts(int shard_id, unsigned ttl_sec = 120)
{
    ShardOptions o;
    o.shards = 1;
    o.shardId = shard_id;
    o.leaseTtlSec = ttl_sec;
    o.pollMs = 20;
    o.batch.threads = 1;
    return o;
}

// ---------------------------------------------------------------- leases

TEST_F(ShardTest, LeaseAcquireIsExclusiveAndRoundTrips)
{
    std::string lp = dir + "/cell-0-0.rr.lease";
    LeaseRecord r;
    r.owner = processOwnerTag();
    r.pid = static_cast<uint64_t>(getpid());
    r.shardId = 3;
    r.acquiredUnixSec = 1234567;
    ASSERT_TRUE(tryAcquireLease(lp, r));
    EXPECT_FALSE(tryAcquireLease(lp, r)); // second claim loses

    LeaseRecord back;
    ASSERT_TRUE(readLease(lp, back));
    EXPECT_EQ(back.owner, r.owner);
    EXPECT_EQ(back.pid, r.pid);
    EXPECT_EQ(back.shardId, 3);
    EXPECT_EQ(back.acquiredUnixSec, 1234567u);

    double age = leaseAgeSeconds(lp);
    EXPECT_GE(age, 0.0);
    EXPECT_LT(age, 60.0);

    EXPECT_TRUE(removeLease(lp));
    EXPECT_LT(leaseAgeSeconds(lp), 0.0); // missing
    EXPECT_TRUE(tryAcquireLease(lp, r)); // claimable again
}

TEST_F(ShardTest, CorruptLeaseIsUnreadableButStillBlocksAndExpires)
{
    std::string lp = dir + "/x.lease";
    std::ofstream(lp) << "garbage";
    LeaseRecord back;
    EXPECT_FALSE(readLease(lp, back));
    LeaseRecord mine;
    EXPECT_FALSE(tryAcquireLease(lp, mine)); // existence is the claim
    // Backdate: expiry is mtime-based, so even junk leases age out.
    fs::last_write_time(lp, fs::file_time_type::clock::now() -
                                std::chrono::seconds(500));
    EXPECT_GE(leaseAgeSeconds(lp), 499.0);
}

// -------------------------------------------------------------- manifests

TEST_F(ShardTest, ManifestRoundTripsAndPinsTheSweep)
{
    SweepManifest m = syntheticManifest();
    writeOrVerifyManifest(dir, m);
    SweepManifest back;
    ASSERT_TRUE(loadManifest(dir + "/manifest.sweep", back));
    EXPECT_EQ(back, m);
    writeOrVerifyManifest(dir, m); // idempotent
}

TEST_F(ShardTest, ManifestMismatchIsFatal)
{
    SweepManifest m = syntheticManifest();
    writeOrVerifyManifest(dir, m);
    SweepManifest other = m;
    other.experiment = "different-sweep";
    EXPECT_EXIT(writeOrVerifyManifest(dir, other),
                ::testing::ExitedWithCode(1), "belongs to sweep");
}

// ------------------------------------------------------------ worker mode

TEST_F(ShardTest, SingleWorkerCompletesAndMergesTheMatrix)
{
    SweepManifest m = syntheticManifest();
    std::vector<RunResult> out;
    ShardOutcome oc =
        runShardedCells(dir, m, syntheticCell, out, workerOpts(0));
    EXPECT_EQ(oc.computed, 6u);
    EXPECT_EQ(oc.loaded, 6u);      // the final merge spans the matrix
    EXPECT_EQ(oc.preExisting, 0u); // nothing was resumed
    EXPECT_EQ(oc.reclaimed, 0u);
    ASSERT_EQ(out.size(), 6u);
    for (size_t c = 0; c < out.size(); ++c) {
        EXPECT_EQ(serializeRunResult(out[c]),
                  serializeRunResult(syntheticCell(c)));
        EXPECT_FALSE(fs::exists(cellLeasePath(dir, m, c))); // released
    }
}

TEST_F(ShardTest, TwoSequentialWorkersSplitViaCommittedCells)
{
    SweepManifest m = syntheticManifest();
    std::vector<RunResult> out1, out2;
    ShardOutcome a =
        runShardedCells(dir, m, syntheticCell, out1, workerOpts(0));
    ShardOutcome b =
        runShardedCells(dir, m, syntheticCell, out2, workerOpts(0));
    EXPECT_EQ(a.computed, 6u);
    EXPECT_EQ(a.preExisting, 0u);
    EXPECT_EQ(b.computed, 0u); // everything already committed
    EXPECT_EQ(b.loaded, 6u);
    EXPECT_EQ(b.preExisting, 6u); // a fully resumed sweep
    for (size_t c = 0; c < out1.size(); ++c) {
        EXPECT_EQ(serializeRunResult(out1[c]), serializeRunResult(out2[c]));
    }
}

// ------------------------------------------------------- crash recovery

/**
 * The ISSUE's crash drill: a worker claims a cell, commits some others,
 * and is SIGKILLed while holding a lease mid-compute. A surviving worker
 * with a short TTL must reclaim the orphaned lease, re-run the cell, and
 * produce a matrix bit-identical to an undisturbed single-worker run.
 */
TEST_F(ShardTest, SigkilledWorkerLeasesAreReclaimedAndCellsReRun)
{
    SweepManifest m = syntheticManifest();
    const size_t hangCell = 2;
    std::string marker = dir + "/hanging";

    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Worker that wedges (lease held, cell never committed) on cell 2
        // after committing cells 0 and 1.
        auto compute = [&](size_t cell) -> RunResult {
            if (cell == hangCell) {
                std::ofstream(marker) << "hung";
                for (;;)
                    ::pause();
            }
            return syntheticCell(cell);
        };
        std::vector<RunResult> out;
        runShardedCells(dir, m, compute, out, workerOpts(0));
        ::_exit(0); // not reached
    }
    // Wait for the child to wedge, then kill it without any cleanup.
    for (int i = 0; i < 2000 && !fs::exists(marker); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_TRUE(fs::exists(marker)) << "worker never reached the hang cell";
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));

    // The orphaned claim is still on disk.
    ASSERT_TRUE(fs::exists(cellLeasePath(dir, m, hangCell)));
    ASSERT_FALSE(fs::exists(cellFilePath(dir, m, hangCell)));

    // Survivor with a 1 s TTL: waits out the stale lease, reclaims it,
    // re-runs the dead worker's cell and finishes the rest.
    std::vector<RunResult> out;
    ShardOutcome oc = runShardedCells(dir, m, syntheticCell, out,
                                      workerOpts(0, /*ttl_sec=*/1));
    EXPECT_GE(oc.reclaimed, 1u);
    EXPECT_EQ(oc.computed, 4u); // hangCell + the three never-claimed cells
    EXPECT_EQ(oc.preExisting, 2u); // the dead worker's two committed cells
    EXPECT_EQ(oc.loaded, 6u);

    // Bit-identical to an undisturbed 1-shard run in a fresh directory.
    std::string refDir = dir + "/ref";
    fs::create_directories(refDir);
    std::vector<RunResult> ref;
    runShardedCells(refDir, m, syntheticCell, ref, workerOpts(0));
    ASSERT_EQ(out.size(), ref.size());
    for (size_t c = 0; c < out.size(); ++c) {
        EXPECT_EQ(serializeRunResult(out[c]), serializeRunResult(ref[c]));
    }
}

TEST_F(ShardTest, FreshLeaseOfALiveWorkerIsNotReclaimed)
{
    SweepManifest m = syntheticManifest();
    writeOrVerifyManifest(dir, m);
    // Another (live) worker holds cell 0: lease fresh, no cell file. A
    // second worker must compute everything else, then wait for the lease
    // to expire before touching cell 0 — with a generous TTL it would
    // block, so commit the cell from "the other worker" mid-wait.
    LeaseRecord other;
    other.owner = "other-host:99999";
    ASSERT_TRUE(tryAcquireLease(cellLeasePath(dir, m, 0), other));

    std::thread committer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
        ASSERT_TRUE(saveRunResult(cellFilePath(dir, m, 0), syntheticCell(0),
                                  true));
        removeLease(cellLeasePath(dir, m, 0));
    });
    std::vector<RunResult> out;
    ShardOutcome oc = runShardedCells(dir, m, syntheticCell, out,
                                      workerOpts(1, /*ttl_sec=*/300));
    committer.join();
    EXPECT_EQ(oc.reclaimed, 0u);
    EXPECT_EQ(oc.computed, 5u); // all but the foreign-committed cell 0
    EXPECT_EQ(serializeRunResult(out[0]),
              serializeRunResult(syntheticCell(0)));
}

// ------------------------------------------------------ merge robustness

TEST_F(ShardTest, CorruptCellsAreRegeneratedAndStaleTmpFilesSwept)
{
    SweepManifest m = syntheticManifest();
    std::vector<RunResult> out;
    runShardedCells(dir, m, syntheticCell, out, workerOpts(0));

    // Mangle one committed cell (checksum now fails) and truncate another,
    // then drop an orphaned tmp file from a "killed writer", backdated
    // past the TTL, plus a fresh one that must survive.
    {
        std::fstream f(cellFilePath(dir, m, 1),
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(10);
        f.put('\x7f');
    }
    fs::resize_file(cellFilePath(dir, m, 4), 5);
    std::string staleTmp = cellFilePath(dir, m, 3) + ".tmp.4242.dead.0";
    std::ofstream(staleTmp) << "partial";
    fs::last_write_time(staleTmp, fs::file_time_type::clock::now() -
                                      std::chrono::seconds(1000));
    std::string freshTmp = cellFilePath(dir, m, 5) + ".tmp.4242.live.0";
    std::ofstream(freshTmp) << "in-flight";

    std::vector<RunResult> merged;
    ShardOutcome oc;
    CellFn compute = syntheticCell;
    EXPECT_TRUE(mergeShardedCells(dir, m, &compute, merged,
                                  workerOpts(0), oc));
    EXPECT_EQ(oc.computed, 2u); // the two mangled cells
    EXPECT_EQ(oc.loaded, 4u);
    EXPECT_EQ(oc.staleTmpRemoved, 1u);
    EXPECT_FALSE(fs::exists(staleTmp));
    EXPECT_TRUE(fs::exists(freshTmp));
    for (size_t c = 0; c < merged.size(); ++c) {
        EXPECT_EQ(serializeRunResult(merged[c]),
                  serializeRunResult(syntheticCell(c)));
    }

    // Without a compute fallback the same damage makes the merge report
    // incompleteness instead of fatal()ing or returning garbage.
    fs::resize_file(cellFilePath(dir, m, 2), 5);
    std::vector<RunResult> partial;
    ShardOutcome oc2;
    EXPECT_FALSE(mergeShardedCells(dir, m, nullptr, partial, workerOpts(0),
                                   oc2));
    EXPECT_EQ(oc2.loaded, 5u);
}

// ---------------------------------------------------------------- scaling

/**
 * The subsystem's reason to exist: N workers must genuinely overlap. Cells
 * that sleep (rather than burn CPU) make the measurement independent of
 * how many cores this machine has, so the >= 2.5x-at-4-shards floor holds
 * even on a 1-CPU CI container. perfbench's sampled_long workload
 * measures the CPU-bound counterpart (sim.shard.busy_frac over 2 forked
 * workers).
 */
TEST_F(ShardTest, FourShardsOverlapForAtLeast2point5x)
{
    SweepManifest m;
    m.experiment = "scaling";
    m.suiteHash = 0xabc;
    m.numRows = 10;
    m.numConfigs = 4; // 40 cells x 20 ms
    m.configNames = { "a", "b", "c", "d" };
    auto compute = [](size_t cell) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return syntheticCell(cell);
    };
    auto timeRun = [&](unsigned shards, const std::string& sub) {
        std::string d = dir + "/" + sub;
        fs::create_directories(d);
        ShardOptions o;
        o.shards = shards;
        o.pollMs = 10;
        o.batch.threads = 1;
        std::vector<RunResult> out;
        auto t0 = std::chrono::steady_clock::now();
        runShardedCells(d, m, compute, out, o);
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };
    double serial = timeRun(1, "s1");
    double sharded = timeRun(4, "s4");
    EXPECT_GE(serial, 40 * 0.020); // sanity: the sleeps really happened
    EXPECT_GE(serial / sharded, 2.5)
        << "serial " << serial << "s vs 4-shard " << sharded << "s";
}

// ------------------------------------------------------- lease heartbeats

/**
 * The ROADMAP lease-heartbeat drill: a cell that computes LONGER than the
 * lease TTL. The background mtime refresh must keep the held lease fresh
 * the whole time, so observers never see it as stale.
 */
TEST_F(ShardTest, HeartbeatKeepsLeaseFreshThroughSubComputeTtl)
{
    SweepManifest m = syntheticManifest();
    m.numRows = 1;
    m.numConfigs = 1;
    m.configNames = { "slow" };
    auto compute = [](size_t cell) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1600));
        return syntheticCell(cell);
    };

    ShardOutcome oc;
    std::vector<RunResult> out;
    std::thread worker([&] {
        oc = runShardedCells(dir, m, compute, out, workerOpts(0, 1));
    });

    // Sample the lease's age while the cell computes: with a 1 s TTL and a
    // ~250 ms heartbeat it must never look reclaimable.
    std::string lp = cellLeasePath(dir, m, 0);
    double maxAge = -1.0;
    for (int i = 0; i < 2000 && !fs::exists(lp); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ASSERT_TRUE(fs::exists(lp)) << "worker never claimed the cell";
    while (fs::exists(lp)) {
        maxAge = std::max(maxAge, leaseAgeSeconds(lp));
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    worker.join();

    EXPECT_GE(maxAge, 0.0);
    EXPECT_LT(maxAge, 1.0) << "heartbeat failed to refresh the lease";
    EXPECT_EQ(oc.computed, 1u);
    EXPECT_EQ(oc.reclaimed, 0u);
}

/**
 * Two cooperating workers, cells slower than the TTL: without heartbeats
 * the idle worker would reclaim its sibling's in-progress lease and
 * benignly double-compute the cell; with them, every cell computes
 * exactly once.
 */
TEST_F(ShardTest, NoDoubleComputationWithSlowCellsAndShortTtl)
{
    SweepManifest m = syntheticManifest();
    m.numRows = 3;
    m.numConfigs = 1; // 3 cells x 1.5 s vs a 1 s TTL
    m.configNames = { "slow" };
    auto compute = [](size_t cell) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1500));
        return syntheticCell(cell);
    };
    auto opts = [&](int id) {
        ShardOptions o = workerOpts(id, /*ttl_sec=*/1);
        o.shards = 2;
        return o;
    };

    ShardOutcome a, b;
    std::vector<RunResult> outA, outB;
    std::thread wa([&] { a = runShardedCells(dir, m, compute, outA,
                                             opts(0)); });
    std::thread wb([&] { b = runShardedCells(dir, m, compute, outB,
                                             opts(1)); });
    wa.join();
    wb.join();

    EXPECT_EQ(a.reclaimed + b.reclaimed, 0u);
    EXPECT_EQ(a.computed + b.computed, 3u) << "a cell was double-computed";
    for (size_t c = 0; c < m.numCells(); ++c) {
        EXPECT_EQ(serializeRunResult(outA[c]),
                  serializeRunResult(syntheticCell(c)));
        EXPECT_EQ(serializeRunResult(outB[c]),
                  serializeRunResult(syntheticCell(c)));
    }
}

/**
 * The heartbeat-vs-reclaim race, from the losing side: while a worker
 * computes, its lease is usurped (as a TTL-expiry reclaim by another worker
 * would). The commit-time ownership check must detect the lost lease,
 * abandon the cell without committing over the usurper, and let the normal
 * claim loop reclaim + recompute it — exactly once, no double-commit.
 */
TEST_F(ShardTest, LostLeaseIsDetectedAtCommitAndCellAbandoned)
{
    SweepManifest m = syntheticManifest();
    m.numRows = 1;
    m.numConfigs = 1;
    m.configNames = { "contested" };
    std::string lp = cellLeasePath(dir, m, 0);

    unsigned invocations = 0;
    auto compute = [&](size_t cell) -> RunResult {
        if (++invocations == 1) {
            // Simulate a sibling reclaiming mid-compute: our lease file is
            // replaced by one bearing a foreign owner.
            removeLease(lp);
            LeaseRecord foreign;
            foreign.owner = "other-host:4242";
            EXPECT_TRUE(tryAcquireLease(lp, foreign));
        }
        return syntheticCell(cell);
    };

    std::vector<RunResult> out;
    ShardOutcome oc = runShardedCells(dir, m, compute, out,
                                      workerOpts(0, /*ttl_sec=*/1));
    EXPECT_EQ(oc.abandoned, 1u);   // first pass computed but never committed
    EXPECT_EQ(oc.computed, 1u);    // the reclaimed re-run is the only commit
    EXPECT_GE(oc.reclaimed, 1u);   // the foreign lease aged out
    EXPECT_EQ(invocations, 2u);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(serializeRunResult(out[0]), serializeRunResult(syntheticCell(0)));
}

/**
 * Quarantine: a cell whose regenerated checkpoint keeps failing
 * verification (every write torn via the fault shim) must be moved into
 * <dir>/quarantine/ after opts.quarantineAfter attempts instead of being
 * rewritten forever — while the in-memory result keeps the matrix complete.
 */
TEST_F(ShardTest, PersistentlyCorruptCellIsQuarantined)
{
    SweepManifest m = syntheticManifest();
    std::vector<RunResult> out;
    runShardedCells(dir, m, syntheticCell, out, workerOpts(0));

    // Corrupt one committed cell, then make every rewrite tear.
    fs::resize_file(cellFilePath(dir, m, 2), 5);
    installFaultPlan("atomic.tmp.write:torn@999");

    std::vector<RunResult> merged;
    ShardOutcome oc;
    CellFn compute = syntheticCell;
    EXPECT_TRUE(mergeShardedCells(dir, m, &compute, merged, workerOpts(0),
                                  oc));
    clearFaultPlan();

    EXPECT_GE(oc.corruptCells, 1u);
    EXPECT_EQ(oc.quarantined, 1u);
    EXPECT_FALSE(fs::exists(cellFilePath(dir, m, 2))); // moved, not left
    bool inQuarantine = false;
    for (const auto& e : fs::directory_iterator(dir + "/quarantine"))
        inQuarantine |= e.path().filename().string().rfind("cell-", 0) == 0;
    EXPECT_TRUE(inQuarantine);
    ASSERT_EQ(merged.size(), m.numCells());
    for (size_t c = 0; c < merged.size(); ++c) {
        EXPECT_EQ(serializeRunResult(merged[c]),
                  serializeRunResult(syntheticCell(c)));
    }
}

/**
 * The lease-expiry skew guard: with injected clock skew larger than the
 * lease's raw age, the adjusted age goes negative. It must be clamped to 0
 * (fresh — never "instantly reclaimable") and counted, and the sweep must
 * still complete once the lease's real owner commits the cell.
 */
TEST_F(ShardTest, ClockSkewOnLeaseAgeIsClampedNotReclaimed)
{
    SweepManifest m = syntheticManifest();
    m.numRows = 1;
    m.numConfigs = 1;
    m.configNames = { "skewed" };
    writeOrVerifyManifest(dir, m);
    std::string lp = cellLeasePath(dir, m, 0);
    LeaseRecord other;
    other.owner = "other-host:99999";
    ASSERT_TRUE(tryAcquireLease(lp, other));

    installFaultPlan("lease.age:skew@400");
    std::thread committer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
        ASSERT_TRUE(saveRunResult(cellFilePath(dir, m, 0), syntheticCell(0),
                                  true));
        removeLease(lp);
    });
    std::vector<RunResult> out;
    ShardOutcome oc = runShardedCells(dir, m, syntheticCell, out,
                                      workerOpts(0, /*ttl_sec=*/300));
    committer.join();
    clearFaultPlan();

    EXPECT_GE(oc.skewClamped, 1u); // raw age ~0 minus 400 s of skew
    EXPECT_EQ(oc.reclaimed, 0u);   // clamped-to-fresh is never reclaimed
    EXPECT_EQ(oc.computed, 0u);    // the real owner's commit was honored
    EXPECT_EQ(serializeRunResult(out[0]),
              serializeRunResult(syntheticCell(0)));
}

// ------------------------------------------------ cost-aware scheduling

/** Shard-aware scheduling from the per-cell `.cost` sidecars: a worker
 *  resuming a directory whose committed cells recorded their compute
 *  seconds claims the remaining cells most expensive config first (rows
 *  ascending within a config); a fresh directory claims in stride order;
 *  a non-numeric sidecar is skipped, never read as its numeric prefix. */
TEST_F(ShardTest, CostModelClaimsExpensiveCellsFirst)
{
    SweepManifest m = syntheticManifest();
    m.numRows = 3;
    m.configNames = { "fast", "mid", "slow" }; // cell = row * 3 + cfg

    // Commit row 0 with sidecars; returns the order the rest was claimed.
    auto resumeWith = [&](const std::string& d,
                          const std::vector<std::string>& sidecars) {
        fs::create_directories(d);
        for (size_t c = 0; c < sidecars.size(); ++c) {
            std::string cell = cellFilePath(d, m, c);
            EXPECT_TRUE(saveRunResult(cell, syntheticCell(c)));
            EXPECT_TRUE(writeFileAtomic(cell + ".cost", sidecars[c]));
        }
        std::vector<size_t> order;
        std::vector<RunResult> out;
        ShardOutcome oc = runShardedCells(
            d, m,
            [&](size_t cell) {
                order.push_back(cell); // serial worker: no locking needed
                return syntheticCell(cell);
            },
            out, workerOpts(0));
        EXPECT_EQ(oc.preExisting, sidecars.size());
        EXPECT_EQ(oc.computed, m.numCells() - sidecars.size());
        for (size_t c = 0; c < m.numCells(); ++c) {
            EXPECT_EQ(serializeRunResult(out[c]),
                      serializeRunResult(syntheticCell(c)));
        }
        return order;
    };

    // slow (cfg 2) > mid (cfg 1) > fast (cfg 0).
    std::vector<size_t> ranked =
        resumeWith(dir + "/ranked", { "0.010000\n", "0.100000\n",
                                      "1.000000\n" });
    EXPECT_EQ(ranked, (std::vector<size_t> { 5, 8, 4, 7, 3, 6 }));

    // "9.5x" is skipped, so slow takes the mean observed cost (0.055)
    // and ranks between mid and fast; a prefix parse would put it first.
    std::vector<size_t> skipped =
        resumeWith(dir + "/skipped", { "0.010000\n", "0.100000\n",
                                       "9.5x\n" });
    EXPECT_EQ(skipped, (std::vector<size_t> { 4, 7, 5, 8, 3, 6 }));

    // A fresh directory has no sidecars: worker 1 of 3 starts a third of
    // the way in and wraps around.
    std::string fresh = dir + "/fresh";
    fs::create_directories(fresh);
    std::vector<size_t> stride;
    ShardOptions o = workerOpts(1);
    o.shards = 3;
    std::vector<RunResult> out;
    runShardedCells(
        fresh, m,
        [&](size_t cell) {
            stride.push_back(cell);
            return syntheticCell(cell);
        },
        out, o);
    EXPECT_EQ(stride, (std::vector<size_t> { 3, 4, 5, 6, 7, 8, 0, 1, 2 }));
}

// --------------------------------------------------- experiment integration

ExperimentOptions
tinyOpts()
{
    ExperimentOptions o;
    o.threads = 1;
    o.traceOps = 1500;
    return o;
}

std::vector<WorkloadSpec>
twoSpecs()
{
    auto specs = smokeSuite(1500);
    specs.resize(2);
    return specs;
}

TEST_F(ShardTest, ForkCoordinatorMatchesSerialRunBitExactly)
{
    ExperimentOptions serial = tinyOpts();
    Suite suite = Suite::fromSpecs(twoSpecs(), serial);
    auto build = [&](const ExperimentOptions& o) {
        Experiment e("forked", suite, o);
        e.add("baseline", mechFor("baseline"))
            .add("constable", mechFor("constable"))
            .add("eves", mechFor("eves"));
        return e;
    };
    auto ref = build(serial).run();

    ExperimentOptions sharded = tinyOpts();
    sharded.shards = 3;
    sharded.checkpointDir = dir;
    auto res = build(sharded).run();
    EXPECT_EQ(res.resumedCells(), 0u); // fresh sweep: nothing was resumed

    ASSERT_EQ(res.matrix().results.size(), ref.matrix().results.size());
    for (size_t c = 0; c < ref.matrix().results.size(); ++c) {
        EXPECT_EQ(serializeRunResult(res.matrix().results[c]),
                  serializeRunResult(ref.matrix().results[c]));
    }
    EXPECT_EQ(res.totalCycles(), ref.totalCycles());
    EXPECT_EQ(res.matrix().aggregateStats().all(),
              ref.matrix().aggregateStats().all());

    // The checkpoint dir now holds the finished sweep: merge() assembles
    // the same matrix without simulating.
    auto merged = build(sharded).merge();
    EXPECT_EQ(merged.totalCycles(), ref.totalCycles());
    EXPECT_EQ(merged.resumedCells(), 6u);
}

TEST_F(ShardTest, ForkCoordinatorWithoutCheckpointDirUsesScratch)
{
    ExperimentOptions serial = tinyOpts();
    Suite suite = Suite::fromSpecs(twoSpecs(), serial);
    auto run = [&](const ExperimentOptions& o) {
        return Experiment("scratch", suite, o)
            .add("baseline", mechFor("baseline"))
            .run();
    };
    auto ref = run(serial);
    ExperimentOptions sharded = tinyOpts();
    sharded.shards = 2; // no checkpointDir: private scratch, auto-removed
    auto res = run(sharded);
    EXPECT_EQ(res.totalCycles(), ref.totalCycles());
}

TEST_F(ShardTest, WorkerModeRequiresCheckpointDir)
{
    ExperimentOptions o = tinyOpts();
    o.shards = 2;
    o.shardId = 1;
    Suite suite = Suite::fromSpecs(twoSpecs(), o);
    Experiment e("nockpt", suite, o);
    e.add("baseline", mechFor("baseline"));
    EXPECT_EXIT(e.run(), ::testing::ExitedWithCode(1),
                "needs --checkpoint-dir");
}

TEST_F(ShardTest, ShardIdBeyondShardCountIsFatal)
{
    ExperimentOptions o = tinyOpts();
    o.shards = 2;
    o.shardId = 2;
    EXPECT_EXIT(o.shard(), ::testing::ExitedWithCode(1), "out of range");

    // A shard count set directly (as perfbench/passes.cc sets it) must
    // meet the same cap --shards and CONSTABLE_SHARDS enforce.
    o.shards = ShardOptions::kMaxShards + 1;
    o.shardId = -1;
    EXPECT_EXIT(o.shard(), ::testing::ExitedWithCode(1), "out of range");
}

TEST(ShardOptionsParse, FlagsAndEnvRoundTrip)
{
    const char* argv[] = { "prog", "--shards=4", "--shard-id=2",
                           "--lease-ttl-sec=7", "--shard-poll-ms=5" };
    auto opts = ExperimentOptions::fromArgs(
        static_cast<int>(std::size(argv)), const_cast<char**>(argv));
    EXPECT_EQ(opts.shards, 4u);
    EXPECT_EQ(opts.shardId, 2);
    EXPECT_EQ(opts.leaseTtlSec, 7u);
    EXPECT_EQ(opts.shardPollMs, 5u);
    EXPECT_FALSE(opts.printsReport()); // shard 2 stays silent
    ShardOptions s = opts.shard();
    EXPECT_EQ(s.shards, 4u);
    EXPECT_EQ(s.shardId, 2);
    EXPECT_EQ(s.leaseTtlSec, 7u);
    EXPECT_EQ(s.pollMs, 5u);

    setenv("CONSTABLE_SHARDS", "3", 1);
    setenv("CONSTABLE_SHARD_ID", "0", 1);
    auto env = ExperimentOptions::fromEnv();
    unsetenv("CONSTABLE_SHARDS");
    unsetenv("CONSTABLE_SHARD_ID");
    EXPECT_EQ(env.shards, 3u);
    EXPECT_EQ(env.shardId, 0);
    EXPECT_TRUE(env.printsReport()); // shard 0 is the reporter
}

TEST(ShardOptionsParseDeathTest, OutOfRangeValuesAreFatal)
{
    const char* argv[] = { "prog", "--shards=0" };
    EXPECT_EXIT(ExperimentOptions::fromArgs(2, const_cast<char**>(argv)),
                ::testing::ExitedWithCode(1), "must be in");
    EXPECT_EXIT(
        {
            setenv("CONSTABLE_SHARDS", "100000", 1);
            ExperimentOptions::fromEnv();
        },
        ::testing::ExitedWithCode(1), "CONSTABLE_SHARDS");
}

} // namespace
} // namespace constable
