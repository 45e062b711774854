/**
 * @file
 * Tests for the sim layer: forEachJob's parallel loop, determinism of
 * Experiment's {trace x config} matrix across thread counts, and smoke
 * coverage of every mechanism registry preset in sim/mechanisms.hh.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <iterator>
#include <mutex>
#include <thread>
#include <vector>

#include "inspector/load_inspector.hh"
#include "sim/batch.hh"
#include "sim/experiment.hh"
#include "sim/mechanisms.hh"
#include "sim/runner.hh"
#include "sim/scenario.hh"
#include "trace/generator.hh"
#include "workloads/suite.hh"

namespace constable {
namespace {

// ------------------------------------------------------------- forEachJob

TEST(ForEachJob, RunsEveryIndexExactlyOnce)
{
    constexpr size_t kN = 1000;
    std::vector<std::atomic<unsigned>> hits(kN);
    forEachJob(kN, [&](size_t i) { hits[i].fetch_add(1); }, 4);
    for (size_t i = 0; i < kN; ++i)
        EXPECT_EQ(hits[i].load(), 1u) << "index " << i;
}

TEST(ForEachJob, RepeatedCallsEachRunEveryJob)
{
    for (int round = 0; round < 20; ++round) {
        std::atomic<size_t> sum { 0 };
        forEachJob(64, [&](size_t i) { sum.fetch_add(i); }, 3);
        EXPECT_EQ(sum.load(), 64u * 63u / 2);
    }
}

TEST(ForEachJob, NestedCallRunsInlineOnItsJobsThread)
{
    std::atomic<size_t> inner { 0 };
    std::atomic<size_t> offThread { 0 };
    forEachJob(8, [&](size_t) {
        // A job that itself submits a batch runs it on its own thread.
        const std::thread::id outer = std::this_thread::get_id();
        forEachJob(4, [&](size_t) {
            inner.fetch_add(1);
            if (std::this_thread::get_id() != outer)
                offThread.fetch_add(1);
        }, 4);
    }, 4);
    EXPECT_EQ(inner.load(), 32u);
    EXPECT_EQ(offThread.load(), 0u);
}

TEST(ForEachJob, ZeroAndOneSizedBatches)
{
    unsigned calls = 0;
    forEachJob(0, [&](size_t) { ++calls; }, 4);
    EXPECT_EQ(calls, 0u);
    forEachJob(1, [&](size_t) { ++calls; }, 4);
    EXPECT_EQ(calls, 1u);
}

TEST(ForEachJob, SlowJobDoesNotHoldBackOthers)
{
    // Job 0 blocks its thread until the other 15 jobs are done: the second
    // thread must be free to take every one of them.
    constexpr size_t kN = 16;
    std::mutex mu;
    std::condition_variable cv;
    size_t finished = 0;
    size_t seenByJob0 = 0;
    forEachJob(kN, [&](size_t job) {
        std::unique_lock<std::mutex> lk(mu);
        if (job == 0) {
            cv.wait_for(lk, std::chrono::seconds(5),
                        [&] { return finished == kN - 1; });
            seenByJob0 = finished;
        } else {
            ++finished;
            cv.notify_all();
        }
    }, 2);
    EXPECT_EQ(seenByJob0, kN - 1);
}

/** Threads of this process, as the kernel lists them. */
long
liveThreads()
{
    namespace fs = std::filesystem;
    return std::distance(fs::directory_iterator("/proc/self/task"),
                         fs::directory_iterator {});
}

TEST(ForEachJob, NoThreadOutlivesTheCall)
{
    // Start and join one thread first, so a runtime helper thread spawned
    // on the first thread creation (TSan has one) is already counted.
    std::thread([] {}).join();
    const long before = liveThreads();
    std::atomic<size_t> ran { 0 };
    forEachJob(64, [&](size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 64u);
    // A joined thread can linger in /proc for a moment while the kernel
    // reaps it; poll briefly, bounded.
    long after = liveThreads();
    for (int i = 0; i < 200 && after != before; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        after = liveThreads();
    }
    EXPECT_EQ(after, before);
}

// ------------------------------------------------------- matrix determinism

/** Four small traces shared by the matrix tests, each swept through
 *  Experiment at a chosen thread count. */
class MatrixDeterminism : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        auto specs = smokeSuite(1500);
        specs.resize(4);
        for (const auto& spec : specs)
            traces.push_back(generateTrace(spec));
    }

    /** The first @p n traces as a suite. */
    Suite
    suiteOf(size_t n, bool inspect) const
    {
        return Suite::fromTraces(
            std::vector<Trace>(traces.begin(), traces.begin() + n),
            inspect);
    }

    static ExperimentOptions
    threadsOpts(unsigned threads)
    {
        ExperimentOptions opts;
        opts.threads = threads;
        return opts;
    }

    std::vector<Trace> traces;
};

TEST_F(MatrixDeterminism, ParallelMatchesSerialBitExactly)
{
    Suite suite = suiteOf(2, /*inspect=*/false);
    auto sweep = [&](unsigned threads) {
        return Experiment("determinism", suite, threadsOpts(threads))
            .add("baseline", mechFor("baseline"))
            .add("constable", mechFor("constable"))
            .add("eves+constable", mechFor("eves+constable"))
            .run();
    };
    ExperimentResult ref = sweep(1);

    for (unsigned threads : { 2u, 4u, 8u }) {
        ExperimentResult got = sweep(threads);
        const MatrixResult& g = got.matrix();
        const MatrixResult& r = ref.matrix();
        ASSERT_EQ(g.results.size(), r.results.size());
        for (size_t i = 0; i < r.results.size(); ++i) {
            EXPECT_EQ(g.results[i].cycles, r.results[i].cycles)
                << "cell " << i << " @ " << threads << " threads";
            EXPECT_EQ(g.results[i].instructions, r.results[i].instructions);
        }
        // Every cell's full serialized RunResult (stats included) must be
        // bit-identical, not just the headline numbers.
        EXPECT_EQ(resultFingerprint(g), resultFingerprint(r))
            << "results diverge @ " << threads << " threads";
    }
}

TEST_F(MatrixDeterminism, SmtMatrixParallelMatchesSerial)
{
    // Four traces give two co-run pairs: (0, 2) and (1, 3).
    Suite suite = suiteOf(4, /*inspect=*/false);
    auto sweep = [&](unsigned threads) {
        return Experiment("smt-determinism", suite, threadsOpts(threads))
            .add("baseline", mechFor("baseline"))
            .add("constable", mechFor("constable"))
            .runSmt();
    };
    ExperimentResult ref = sweep(1);
    ExperimentResult got = sweep(4);
    ASSERT_EQ(ref.numRows(), 2u);
    ASSERT_EQ(got.matrix().results.size(), ref.matrix().results.size());
    for (size_t i = 0; i < ref.matrix().results.size(); ++i)
        EXPECT_EQ(got.matrix().results[i].cycles,
                  ref.matrix().results[i].cycles);
    EXPECT_EQ(resultFingerprint(got.matrix()),
              resultFingerprint(ref.matrix()));
}

TEST_F(MatrixDeterminism, RowDependentConfigsAndGsSets)
{
    // An inspected suite attaches each row's global-stable set to its
    // cells, and the oracle column is built per row from the same sets.
    Suite suite = suiteOf(2, /*inspect=*/true);
    auto sweep = [&](unsigned threads) {
        return Experiment("row-dependent", suite, threadsOpts(threads))
            .add("baseline", mechFor("baseline"))
            .add("eves+ideal-constable",
                 [&](size_t row) {
                     return SystemConfig {
                         CoreConfig{},
                         mechFor("eves+ideal-constable",
                                 &suite.globalStablePcs(row)) };
                 })
            .run();
    };
    ExperimentResult ref = sweep(1);
    ExperimentResult got = sweep(4);
    EXPECT_EQ(resultFingerprint(got.matrix()),
              resultFingerprint(ref.matrix()));
    // The oracle must not lose to the baseline on its own stable set.
    EXPECT_GE(speedup(ref.at(0, 1), ref.at(0, 0)), 0.9);
}

TEST(Matrix, SpeedupsOverShape)
{
    auto specs = smokeSuite(1000);
    specs.resize(1);
    std::vector<Trace> traces;
    traces.push_back(generateTrace(specs[0]));
    Suite suite = Suite::fromTraces(std::move(traces), /*inspect=*/false);
    ExperimentOptions opts;
    opts.threads = 1;
    ExperimentResult res = Experiment("shape", suite, opts)
                               .add("baseline", mechFor("baseline"))
                               .add("constable", mechFor("constable"))
                               .run();
    const MatrixResult& m = res.matrix();
    EXPECT_EQ(m.numRows, 1u);
    EXPECT_EQ(m.numConfigs, 2u);
    auto s = m.speedupsOver(1, 0);
    ASSERT_EQ(s.size(), 1u);
    EXPECT_GT(s[0], 0.0);
}

// ------------------------------------------------------------ preset smoke

/** Every registry preset must run a trace to completion
 *  (runTrace panics on a golden-check failure, so surviving the run plus
 *  retiring every instruction is a real end-to-end check). */
TEST(Presets, EveryFactoryRunsCleanly)
{
    auto specs = smokeSuite(1200);
    specs.resize(1);
    Trace t = generateTrace(specs[0]);
    auto gs = inspectLoads(t).globalStablePcs();

    struct Case
    {
        const char* name;
        MechanismConfig mech;
    };
    std::vector<Case> cases = {
        { "baseline", mechFor("baseline") },
        { "constable", mechFor("constable") },
        { "eves", mechFor("eves") },
        { "eves+constable", mechFor("eves+constable") },
        { "elar", mechFor("elar") },
        { "rfp", mechFor("rfp") },
        { "elar+constable", mechFor("elar+constable") },
        { "rfp+constable", mechFor("rfp+constable") },
        { "constable-amt-i", mechFor("constable-amt-i") },
        { "mode-pcrel", mechFor("constable-pcrel") },
        { "mode-stackrel", mechFor("constable-stackrel") },
        { "mode-regrel", mechFor("constable-regrel") },
        { "ideal-lvp", mechFor("ideal-stable-lvp", &gs) },
        { "ideal-lvp-nofetch", mechFor("ideal-stable-lvp-nofetch", &gs) },
        { "ideal-constable", mechFor("ideal-constable", &gs) },
        { "eves+ideal-constable", mechFor("eves+ideal-constable", &gs) },
    };

    for (const Case& c : cases) {
        SCOPED_TRACE(c.name);
        SystemConfig cfg { CoreConfig{}, c.mech };
        RunResult r = runTrace(t, cfg, &gs);
        EXPECT_GT(r.cycles, 0u);
        EXPECT_EQ(r.instructions, t.ops.size());
        EXPECT_FALSE(r.goldenCheckFailed);
    }
}

/** Presets must actually differ from the baseline where it matters. */
TEST(Presets, FlagsMatchIntent)
{
    EXPECT_FALSE(mechFor("baseline").constable.enabled);
    EXPECT_TRUE(mechFor("constable").constable.enabled);
    EXPECT_TRUE(mechFor("eves").eves);
    EXPECT_TRUE(mechFor("eves+constable").eves);
    EXPECT_TRUE(mechFor("eves+constable").constable.enabled);
    EXPECT_TRUE(mechFor("elar+constable").elar);
    EXPECT_TRUE(mechFor("rfp+constable").rfp);
    EXPECT_FALSE(mechFor("constable-amt-i").constable.cvBitPinning);
    EXPECT_TRUE(mechFor("constable").constable.cvBitPinning);
    MechanismConfig pcrel = mechFor("constable-pcrel");
    EXPECT_TRUE(pcrel.constable.eliminatePcRel);
    EXPECT_FALSE(pcrel.constable.eliminateStackRel);
    EXPECT_FALSE(pcrel.constable.eliminateRegRel);
}

} // namespace
} // namespace constable
