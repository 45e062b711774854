/**
 * @file
 * Tests for phase-sampled simulation (sim/sample.hh): window selection is
 * a pure function of (seed, trace, spec); a sampled sweep is bit-identical
 * across 1/4/8 threads and fork-shard execution; malformed --sample specs
 * terminate instead of being reinterpreted; sampled and full-fidelity
 * sweeps checkpoint under different cell directories; and "sample.*" stat
 * keys appear exactly when sampling ran (never on the full-fidelity
 * golden-snapshot surface).
 *
 * Specs here are small and explicit (the ctest env pins
 * CONSTABLE_TRACE_OPS=2000): traces are built at 4000+ ops so selection
 * stays non-degenerate (measured windows strictly under full coverage).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "trace/serialize.hh"
#include "workloads/suite.hh"

namespace constable {
namespace {

/** Small but non-degenerate sampling spec for 4000-op traces: 20 phases
 *  of 200 ops, at most 4x2 measured windows (40% coverage). */
SampleOptions
testSpec()
{
    return SampleOptions::parse("phases:4,window:200,fill:128,warm:512,"
                                "spread:2");
}

std::vector<WorkloadSpec>
twoSpecs(size_t ops = 4000)
{
    auto specs = smokeSuite(ops);
    specs.resize(2);
    return specs;
}

ExperimentOptions
sampledOpts(unsigned threads = 1)
{
    ExperimentOptions opts;
    opts.threads = threads;
    opts.traceOps = 4000;
    opts.sample = testSpec();
    return opts;
}

ExperimentResult
runSampled(const ExperimentOptions& opts)
{
    Suite suite = Suite::fromSpecs(twoSpecs(), opts);
    return Experiment("sampled", suite, opts)
        .add("baseline", mechFor("baseline"))
        .add("constable", mechFor("constable"))
        .run();
}

// ----------------------------------------------------------- selection

TEST(SampleSelect, SameSeedSelectsIdenticalWindows)
{
    ExperimentOptions opts = sampledOpts();
    Trace t = generateTrace(twoSpecs()[0]);

    auto a = selectSampleWindows(t, opts.sample, /*seed=*/42);
    auto b = selectSampleWindows(t, opts.sample, /*seed=*/42);
    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].begin, b[i].begin);
        EXPECT_EQ(a[i].end, b[i].end);
        EXPECT_EQ(a[i].weight, b[i].weight);
    }

    // Windows are window-sized, sorted, in range, and weights partition
    // (sum to at most 1; equal shares of each cluster's population).
    double wsum = 0.0;
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].end - a[i].begin, opts.sample.window);
        EXPECT_LE(a[i].end, t.ops.size());
        if (i > 0) {
            EXPECT_GT(a[i].begin, a[i - 1].begin);
        }
        wsum += a[i].weight;
    }
    EXPECT_LE(wsum, 1.0 + 1e-9);
    EXPECT_GT(wsum, 0.0);
}

// --------------------------------------------------------- determinism

TEST(SampleDeterminism, BitIdenticalAcrossThreadCounts)
{
    ExperimentResult r1 = runSampled(sampledOpts(1));
    ExperimentResult r4 = runSampled(sampledOpts(4));
    ExperimentResult r8 = runSampled(sampledOpts(8));

    ASSERT_EQ(r1.numRows(), 2u);
    for (size_t row = 0; row < r1.numRows(); ++row) {
        for (size_t cfg = 0; cfg < 2; ++cfg) {
            auto bytes = serializeRunResult(r1.at(row, cfg));
            EXPECT_EQ(serializeRunResult(r4.at(row, cfg)), bytes);
            EXPECT_EQ(serializeRunResult(r8.at(row, cfg)), bytes);
        }
    }
}

TEST(SampleDeterminism, ForkShardMatchesInProcess)
{
    ExperimentResult serial = runSampled(sampledOpts(1));

    ExperimentOptions sharded = sampledOpts(1);
    sharded.shards = 3; // fork coordinator, private scratch checkpoint
    ExperimentResult forked = runSampled(sharded);

    for (size_t row = 0; row < serial.numRows(); ++row) {
        for (size_t cfg = 0; cfg < 2; ++cfg) {
            EXPECT_EQ(serializeRunResult(forked.at(row, cfg)),
                      serializeRunResult(serial.at(row, cfg)));
        }
    }
}

// -------------------------------------------------------- spec parsing

TEST(SampleOptionsDeathTest, MalformedSpecsAreFatal)
{
    EXPECT_EXIT(SampleOptions::parse(""), ::testing::ExitedWithCode(1),
                "empty spec");
    EXPECT_EXIT(SampleOptions::parse("bogus"),
                ::testing::ExitedWithCode(1), "key:value");
    EXPECT_EXIT(SampleOptions::parse("phases:0"),
                ::testing::ExitedWithCode(1), "phases");
    EXPECT_EXIT(SampleOptions::parse("window:8"),
                ::testing::ExitedWithCode(1), "window");
    EXPECT_EXIT(SampleOptions::parse("phases:4,phases:8"),
                ::testing::ExitedWithCode(1), "duplicate");
    EXPECT_EXIT(SampleOptions::parse("frobnicate:3"),
                ::testing::ExitedWithCode(1), "unknown");
    EXPECT_EXIT(SampleOptions::parse("spread:0"),
                ::testing::ExitedWithCode(1), "spread");
    EXPECT_EXIT(SampleOptions::parse("spread:65"),
                ::testing::ExitedWithCode(1), "spread");
    EXPECT_EXIT(SampleOptions::parse("phases:"),
                ::testing::ExitedWithCode(1), "phases");
}

TEST(SampleOptions, SpecRoundTripsAndOffDisables)
{
    SampleOptions o = testSpec();
    EXPECT_TRUE(o.enabled);
    EXPECT_EQ(o.spec(), "phases:4,window:200,fill:128,warm:512,spread:2");
    SampleOptions back = SampleOptions::parse(o.spec());
    EXPECT_EQ(back.spec(), o.spec());

    SampleOptions off = SampleOptions::parse("off");
    EXPECT_FALSE(off.enabled);
    EXPECT_EQ(off.spec(), "off");
}

// -------------------------------------------------- checkpoint isolation

TEST(SampleCheckpoint, SampledAndFullCellsNeverCollide)
{
    ExperimentOptions full = sampledOpts();
    full.sample = SampleOptions{}; // disabled
    ExperimentOptions sampled = sampledOpts();
    Suite suite = Suite::fromSpecs(twoSpecs(), full);

    namespace fs = std::filesystem;
    std::string tmpl =
        (fs::temp_directory_path() / "constable-sample-ckpt-XXXXXX").string();
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    ASSERT_NE(mkdtemp(buf.data()), nullptr);
    const std::string root = buf.data();

    // The checkpoint subdirectory a one-config sweep creates under a fresh
    // root: the name is the sweep's cell key.
    unsigned runs = 0;
    auto dirFor = [&](const ExperimentOptions& o) {
        ExperimentOptions rooted = o;
        rooted.checkpointDir = root + "/" + std::to_string(runs++);
        Experiment exp("ckpt", suite, rooted);
        exp.add("baseline", mechFor("baseline"));
        exp.run();
        std::string key;
        for (const auto& e : fs::directory_iterator(rooted.checkpointDir))
            key = e.path().filename().string();
        EXPECT_FALSE(key.empty());
        return key;
    };
    const std::string sampledDir = dirFor(sampled);
    const std::string fullDir = dirFor(full);
    EXPECT_NE(fullDir, sampledDir);

    // Different sample specs and different seeds also get their own cells
    // (the seed drives window selection, so it is part of the identity).
    ExperimentOptions widened = sampled;
    widened.sample.spread = 1;
    EXPECT_NE(sampledDir, dirFor(widened));
    ExperimentOptions reseeded = sampled;
    reseeded.seed += 1;
    EXPECT_NE(sampledDir, dirFor(reseeded));
    // Full-fidelity checkpoints ignore the seed (cells are deterministic
    // functions of (row, config) alone) — the sampled-only sensitivity
    // above must not leak into the full path.
    ExperimentOptions fullReseeded = full;
    fullReseeded.seed += 1;
    EXPECT_EQ(fullDir, dirFor(fullReseeded));
    fs::remove_all(root);
}

// ---------------------------------------------------------------- stats

TEST(SampleStats, SampleKeysAppearExactlyWhenSamplingRan)
{
    ExperimentOptions opts = sampledOpts();
    Suite suite = Suite::fromSpecs(twoSpecs(), opts);

    ExperimentResult sampled = Experiment("stats", suite, opts)
                                   .add("constable", mechFor("constable"))
                                   .run();
    const RunResult& s = sampled.at(0, 0);
    EXPECT_EQ(s.stats.get("sample.enabled"), 1.0);
    EXPECT_GT(s.stats.get("sample.windows"), 0.0);
    EXPECT_GT(s.stats.get("sample.coverage"), 0.0);
    EXPECT_LT(s.stats.get("sample.coverage"), 1.0);
    EXPECT_GE(s.stats.get("sample.cycles.ci95"), 0.0);
    // Extrapolation covers the whole trace: effective instruction count
    // is the full trace length, not the measured-window subset.
    EXPECT_EQ(s.instructions, suite.trace(0).ops.size());

    ExperimentOptions fullOpts = opts;
    fullOpts.sample = SampleOptions{};
    ExperimentResult full = Experiment("stats_full", suite, fullOpts)
                                .add("constable", mechFor("constable"))
                                .run();
    for (const auto& [key, value] : full.at(0, 0).stats.all()) {
        EXPECT_EQ(key.rfind("sample.", 0), std::string::npos)
            << "full-fidelity result leaked stat key " << key;
    }
}

} // namespace
} // namespace constable
