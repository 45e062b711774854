/**
 * @file
 * Tests for the sharded multi-process sweep subsystem (sim/shard.hh):
 * manifest pinning, fork-coordinator runs that are bit-identical to
 * single-process runs, cells taken exactly once from the shared counter,
 * recovery of a SIGKILLed worker's cell at merge, merge-time regeneration
 * of corrupt cells and cleanup of orphaned tmp files, cost-ranked claim
 * order, output buffered before the fork written once, and a resumed
 * rerun's progress report.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include <fcntl.h>
#include <unistd.h>

#include "common/faultio.hh"
#include "common/obs.hh"
#include "sim/experiment.hh"
#include "sim/scenario.hh"
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
shardOpts(unsigned shards)
{
    ShardOptions o;
    o.shards = shards;
    return o;
}

/** Append `cell` as one line to `path`. Cells compute in forked workers,
 *  so a file is how they report back; O_APPEND keeps the lines of
 *  concurrent processes whole. */
void
logCell(const std::string& path, size_t cell)
{
    std::string line = std::to_string(cell) + "\n";
    int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd < 0 || ::write(fd, line.data(), line.size()) !=
                      static_cast<ssize_t>(line.size()))
        std::abort();
    ::close(fd);
}

std::vector<size_t>
loggedCells(const std::string& path)
{
    std::vector<size_t> cells;
    std::ifstream in(path);
    for (size_t c; in >> c;)
        cells.push_back(c);
    return cells;
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

// ------------------------------------------------------- fork coordinator

TEST_F(ShardTest, SingleWorkerCompletesAndMergesTheMatrix)
{
    SweepManifest m = syntheticManifest();
    std::vector<RunResult> out;
    ShardOutcome oc =
        runShardedCells(dir, m, syntheticCell, out, shardOpts(1));
    EXPECT_EQ(oc.workersForked, 1u);
    EXPECT_EQ(oc.workersFailed, 0u);
    EXPECT_EQ(oc.computed, 6u);
    EXPECT_EQ(oc.loaded, 6u);      // the final merge spans the matrix
    EXPECT_EQ(oc.preExisting, 0u); // nothing was resumed
    ASSERT_EQ(out.size(), 6u);
    for (size_t c = 0; c < out.size(); ++c) {
        EXPECT_EQ(serializeRunResult(out[c]),
                  serializeRunResult(syntheticCell(c)));
        EXPECT_TRUE(fs::exists(cellFilePath(dir, m, c) + ".cost"));
    }
}

TEST_F(ShardTest, TwoSequentialWorkersSplitViaCommittedCells)
{
    SweepManifest m = syntheticManifest();
    std::vector<RunResult> out1, out2;
    ShardOutcome a =
        runShardedCells(dir, m, syntheticCell, out1, shardOpts(1));
    ShardOutcome b =
        runShardedCells(dir, m, syntheticCell, out2, shardOpts(1));
    EXPECT_EQ(a.computed, 6u);
    EXPECT_EQ(a.preExisting, 0u);
    EXPECT_EQ(b.computed, 0u); // everything already committed
    EXPECT_EQ(b.workersForked, 0u);
    EXPECT_EQ(b.loaded, 6u);
    EXPECT_EQ(b.preExisting, 6u); // a fully resumed sweep
    for (size_t c = 0; c < out1.size(); ++c) {
        EXPECT_EQ(serializeRunResult(out1[c]), serializeRunResult(out2[c]));
    }
}

// ------------------------------------------------------- crash recovery

/**
 * The crash drill: a forked worker SIGKILLs itself while computing cell 2.
 * It loses only that cell: its sibling takes the rest from the shared
 * counter, the coordinator reaps one failed worker, and the merge
 * recomputes cell 2, giving a matrix bit-identical to an undisturbed run.
 */
TEST_F(ShardTest, SigkilledWorkerLeasesAreReclaimedAndCellsReRun)
{
    SweepManifest m = syntheticManifest();
    const size_t killCell = 2;
    const pid_t coordinator = ::getpid();
    const std::string log = dir + "/computed.log";
    auto compute = [&](size_t cell) -> RunResult {
        logCell(log, cell);
        if (cell == killCell && ::getpid() != coordinator)
            ::raise(SIGKILL);
        return syntheticCell(cell);
    };

    std::vector<RunResult> out;
    ShardOutcome oc = runShardedCells(dir, m, compute, out, shardOpts(2));
    EXPECT_EQ(oc.workersForked, 2u);
    EXPECT_EQ(oc.workersFailed, 1u);
    EXPECT_EQ(oc.computed, 6u); // 5 committed by workers + 1 at merge
    EXPECT_TRUE(fs::exists(cellFilePath(dir, m, killCell)));

    // Every cell computed once, except the killed one: once in the dead
    // worker, once more at merge.
    std::vector<size_t> computedTimes(m.numCells(), 0);
    for (size_t c : loggedCells(log))
        ++computedTimes[c];
    for (size_t c = 0; c < m.numCells(); ++c)
        EXPECT_EQ(computedTimes[c], c == killCell ? 2u : 1u) << "cell " << c;

    // Bit-identical to an undisturbed 1-shard run in a fresh directory.
    std::string refDir = dir + "/ref";
    fs::create_directories(refDir);
    std::vector<RunResult> ref;
    runShardedCells(refDir, m, syntheticCell, ref, shardOpts(1));
    ASSERT_EQ(out.size(), ref.size());
    for (size_t c = 0; c < out.size(); ++c) {
        EXPECT_EQ(serializeRunResult(out[c]), serializeRunResult(ref[c]));
    }
}

/** Four workers dealing 40 cells from one counter: each cell is computed
 *  by exactly one process. A second computation of any cell finds its
 *  marker file already created and aborts, which fails the run. */
TEST_F(ShardTest, EveryCellComputesExactlyOnceAcrossFourShards)
{
    SweepManifest m;
    m.experiment = "once";
    m.suiteHash = 0x0ce;
    m.numRows = 10;
    m.numConfigs = 4; // 40 cells
    m.configNames = { "a", "b", "c", "d" };
    auto compute = [&](size_t cell) {
        std::string marker = dir + "/once-" + std::to_string(cell);
        int fd = ::open(marker.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
        if (fd < 0)
            std::abort();
        ::close(fd);
        return syntheticCell(cell);
    };

    std::vector<RunResult> out;
    ShardOutcome oc = runShardedCells(dir, m, compute, out, shardOpts(4));
    EXPECT_EQ(oc.workersForked, 4u);
    EXPECT_EQ(oc.workersFailed, 0u);
    EXPECT_EQ(oc.computed, 40u);
    ASSERT_EQ(out.size(), 40u);
    for (size_t c = 0; c < out.size(); ++c) {
        EXPECT_TRUE(fs::exists(dir + "/once-" + std::to_string(c)));
        EXPECT_EQ(serializeRunResult(out[c]),
                  serializeRunResult(syntheticCell(c)));
    }
}

/** A worker flushes its stdio buffers before it exits, so output the
 *  coordinator buffered before forking would be written once by each
 *  worker too, unless the coordinator flushes first. */
TEST_F(ShardTest, OutputBufferedBeforeTheForkIsWrittenOnce)
{
    SweepManifest m = syntheticManifest();
    std::string path = dir + "/stdout.txt";
    EXPECT_EXIT(
        {
            // A file makes stdout fully buffered, as in `bench > out.txt`.
            if (!std::freopen(path.c_str(), "w", stdout))
                std::exit(2);
            std::printf("printed before the sweep\n");
            std::vector<RunResult> out;
            runShardedCells(dir, m, syntheticCell, out, shardOpts(2));
            std::exit(0);
        },
        ::testing::ExitedWithCode(0), "");
    std::string text;
    ASSERT_TRUE(readFileText(path, text));
    EXPECT_EQ(text, "printed before the sweep\n");
}

// ------------------------------------------------------ merge robustness

TEST_F(ShardTest, CorruptCellsAreRegeneratedAndStaleTmpFilesSwept)
{
    SweepManifest m = syntheticManifest();
    std::vector<RunResult> out;
    runShardedCells(dir, m, syntheticCell, out, shardOpts(1));

    // Mangle one committed cell (checksum now fails) and truncate another,
    // then drop an orphaned tmp file from a "killed writer", backdated
    // past the 120 s orphan age, plus a fresh one that must survive.
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
    EXPECT_TRUE(mergeShardedCells(dir, m, &compute, merged, oc));
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
    EXPECT_FALSE(mergeShardedCells(dir, m, nullptr, partial, oc2));
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
        std::vector<RunResult> out;
        auto t0 = std::chrono::steady_clock::now();
        runShardedCells(d, m, compute, out, shardOpts(shards));
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

/**
 * Quarantine: a cell whose regenerated checkpoint keeps failing
 * verification (every write torn via the fault shim) must be moved into
 * <dir>/quarantine/ after 3 attempts instead of being rewritten forever —
 * while the in-memory result keeps the matrix complete.
 */
TEST_F(ShardTest, PersistentlyCorruptCellIsQuarantined)
{
    SweepManifest m = syntheticManifest();
    std::vector<RunResult> out;
    runShardedCells(dir, m, syntheticCell, out, shardOpts(1));

    // Corrupt one committed cell, then make every rewrite tear.
    fs::resize_file(cellFilePath(dir, m, 2), 5);
    installFaultPlan("atomic.tmp.write:torn@999");

    std::vector<RunResult> merged;
    ShardOutcome oc;
    CellFn compute = syntheticCell;
    EXPECT_TRUE(mergeShardedCells(dir, m, &compute, merged, oc));
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

// ------------------------------------------------ cost-aware scheduling

/** Shard-aware scheduling from the per-cell `.cost` sidecars: a sweep
 *  resuming a directory whose committed cells recorded their compute
 *  seconds deals the remaining cells most expensive config first (rows
 *  ascending within a config); a fresh directory deals them in index
 *  order; a non-numeric sidecar is skipped, never read as its numeric
 *  prefix. */
TEST_F(ShardTest, CostModelClaimsExpensiveCellsFirst)
{
    SweepManifest m = syntheticManifest();
    m.numRows = 3;
    m.configNames = { "fast", "mid", "slow" }; // cell = row * 3 + cfg

    // Commit row 0 with sidecars; returns the order the rest was taken in.
    auto resumeWith = [&](const std::string& d,
                          const std::vector<std::string>& sidecars) {
        fs::create_directories(d);
        for (size_t c = 0; c < sidecars.size(); ++c) {
            std::string cell = cellFilePath(d, m, c);
            EXPECT_TRUE(saveRunResult(cell, syntheticCell(c)));
            EXPECT_TRUE(writeFileAtomic(cell + ".cost", sidecars[c]));
        }
        std::string log = d + "/order.log";
        std::vector<RunResult> out;
        ShardOutcome oc = runShardedCells(
            d, m,
            [&](size_t cell) {
                logCell(log, cell); // one worker: the log is the order
                return syntheticCell(cell);
            },
            out, shardOpts(1));
        EXPECT_EQ(oc.preExisting, sidecars.size());
        EXPECT_EQ(oc.computed, m.numCells() - sidecars.size());
        for (size_t c = 0; c < m.numCells(); ++c) {
            EXPECT_EQ(serializeRunResult(out[c]),
                      serializeRunResult(syntheticCell(c)));
        }
        return loggedCells(log);
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

    // A fresh directory has no sidecars: cells go in index order.
    std::vector<size_t> fresh = resumeWith(dir + "/fresh", {});
    EXPECT_EQ(fresh, (std::vector<size_t> { 0, 1, 2, 3, 4, 5, 6, 7, 8 }));
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
    EXPECT_EQ(resultFingerprint(res.matrix()),
              resultFingerprint(ref.matrix()));

    // The checkpoint dir now holds the finished sweep: merge() assembles
    // the same matrix without simulating.
    auto merged = build(sharded).merge();
    EXPECT_EQ(resultFingerprint(merged.matrix()),
              resultFingerprint(ref.matrix()));
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
    EXPECT_EQ(resultFingerprint(res.matrix()),
              resultFingerprint(ref.matrix()));
}

/** Mops/s counts only the cells a run simulates: rerunning a finished
 *  sharded sweep resumes every cell, so its closing status reads 0. */
TEST_F(ShardTest, ResumedShardedRerunReportsZeroMops)
{
    ExperimentOptions o = tinyOpts();
    o.shards = 2;
    o.checkpointDir = dir;
    Suite suite = Suite::fromSpecs(twoSpecs(), o);
    auto runAndReadStatus = [&] {
        Experiment("resumed", suite, o)
            .add("baseline", mechFor("baseline"))
            .add("constable", mechFor("constable"))
            .run();
        std::string status;
        for (const auto& e : fs::recursive_directory_iterator(dir)) {
            if (e.path().filename() == "status.json")
                status = obsReadStatus(e.path().string());
        }
        return status;
    };
    std::string first = runAndReadStatus();
    EXPECT_NE(first.find("\"state\":\"done\""), std::string::npos) << first;
    EXPECT_EQ(first.find("\"mops\":0.000"), std::string::npos) << first;
    std::string rerun = runAndReadStatus();
    EXPECT_NE(rerun.find("\"state\":\"done\""), std::string::npos) << rerun;
    EXPECT_NE(rerun.find("\"mops\":0.000"), std::string::npos) << rerun;
}

TEST_F(ShardTest, ShardIdBeyondShardCountIsFatal)
{
    // A shard count set directly (as perfbench/passes.cc sets it) must
    // meet the same cap --shards and CONSTABLE_SHARDS enforce.
    ExperimentOptions o = tinyOpts();
    o.shards = ShardOptions::kMaxShards + 1;
    EXPECT_EXIT(o.shard(), ::testing::ExitedWithCode(1), "out of range");
}

TEST(ShardOptionsParse, FlagsAndEnvRoundTrip)
{
    const char* argv[] = { "prog", "--shards=4" };
    auto opts = ExperimentOptions::fromArgs(
        static_cast<int>(std::size(argv)), const_cast<char**>(argv));
    EXPECT_EQ(opts.shards, 4u);
    EXPECT_EQ(opts.shard().shards, 4u);

    setenv("CONSTABLE_SHARDS", "3", 1);
    auto env = ExperimentOptions::fromEnv();
    unsetenv("CONSTABLE_SHARDS");
    EXPECT_EQ(env.shards, 3u);
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

/** Workers are only ever forked by a coordinator: the flags of separately
 *  launched workers are unknown arguments. */
TEST(ShardOptionsParseDeathTest, RetiredWorkerFlagsAreRejected)
{
    for (const char* flag :
         { "--shard-id=1", "--lease-ttl-sec=7", "--shard-poll-ms=5" }) {
        const char* argv[] = { "prog", flag };
        EXPECT_EXIT(ExperimentOptions::fromArgs(2, const_cast<char**>(argv)),
                    ::testing::ExitedWithCode(1), "unknown argument")
            << flag;
    }
}

} // namespace
} // namespace constable
