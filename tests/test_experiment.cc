/**
 * @file
 * Tests for the unified experiment API: binary trace/result serialization
 * (byte-stable round trips, corruption fallback), the CONSTABLE_TRACE_DIR
 * suite cache (warm-cache invocations skip generation and are bit-identical
 * to fresh ones), per-cell checkpoint/resume (a half-completed sweep
 * resumes to a bit-identical result), and strict option parsing from env
 * and CLI.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/env.hh"
#include "common/faultio.hh"
#include "sim/experiment.hh"
#include "sim/scenario.hh"
#include "trace/serialize.hh"
#include "workloads/suite.hh"

namespace constable {
namespace {

namespace fs = std::filesystem;

/** Fresh temp directory per test, removed on teardown. */
class TempDirTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        std::string tmpl = fs::temp_directory_path() /
                           "constable-test-XXXXXX";
        std::vector<char> buf(tmpl.begin(), tmpl.end());
        buf.push_back('\0');
        ASSERT_NE(mkdtemp(buf.data()), nullptr);
        dir = buf.data();
    }

    void TearDown() override { fs::remove_all(dir); }

    std::string dir;
};

std::vector<WorkloadSpec>
twoSpecs(size_t ops = 1500)
{
    auto specs = smokeSuite(ops);
    specs.resize(2);
    return specs;
}

ExperimentOptions
serialOpts()
{
    ExperimentOptions opts;
    opts.threads = 1;
    opts.traceOps = 1500;
    return opts;
}

// ------------------------------------------------------------ serialization

TEST(TraceSerialize, RoundTripIsByteStableAndLossless)
{
    Trace t = generateTrace(twoSpecs()[0]);
    t.snoops.push_back({ 17, 0xdeadbe00 });

    auto bytes = serializeTrace(t);
    Trace back;
    ASSERT_TRUE(deserializeTrace(bytes, back));

    EXPECT_EQ(back.name, t.name);
    EXPECT_EQ(back.category, t.category);
    EXPECT_EQ(back.numArchRegs, t.numArchRegs);
    ASSERT_EQ(back.ops.size(), t.ops.size());
    for (size_t i = 0; i < t.ops.size(); ++i) {
        EXPECT_EQ(back.ops[i].pc, t.ops[i].pc);
        EXPECT_EQ(back.ops[i].cls, t.ops[i].cls);
        EXPECT_EQ(back.ops[i].effAddr, t.ops[i].effAddr);
        EXPECT_EQ(back.ops[i].value, t.ops[i].value);
    }
    ASSERT_EQ(back.snoops.size(), t.snoops.size());
    EXPECT_EQ(back.snoops.back().addr, 0xdeadbe00u);

    // Byte stability: re-encoding the decoded trace reproduces the bytes.
    EXPECT_EQ(serializeTrace(back), bytes);
}

TEST(TraceSerialize, RejectsCorruptionAndTruncation)
{
    Trace t = generateTrace(twoSpecs()[0]);
    auto bytes = serializeTrace(t);

    Trace out;
    EXPECT_FALSE(deserializeTrace({}, out));

    auto truncated = bytes;
    truncated.resize(bytes.size() / 2);
    EXPECT_FALSE(deserializeTrace(truncated, out));

    auto flipped = bytes;
    flipped[flipped.size() / 2] ^= 0x40;
    EXPECT_FALSE(deserializeTrace(flipped, out));

    auto wrongMagic = bytes;
    wrongMagic[0] ^= 0xff;
    EXPECT_FALSE(deserializeTrace(wrongMagic, out));

    // Checksum-valid traces carrying an out-of-range field: the checksum
    // passes, so only the decoder's range checks stand between these and
    // rename indexing its 32-entry map with them.
    ASSERT_EQ(t.numArchRegs, 16u);
    auto withField = [&t](auto mutate) {
        Trace bad = t;
        mutate(bad);
        return serializeTrace(bad);
    };
    const std::vector<std::vector<uint8_t>> badFields = {
        withField([](Trace& b) { b.ops[0].src[0] = 40; }),
        withField([](Trace& b) { b.ops[0].src[2] = 16; }),
        withField([](Trace& b) { b.ops[0].dst = 200; }),
        withField([](Trace& b) { b.ops[0].cls = static_cast<OpClass>(200); }),
        withField([](Trace& b) {
            b.ops[0].addrMode = static_cast<AddrMode>(4);
        }),
        withField([](Trace& b) { b.ops[0].size = 0; }),
        withField([](Trace& b) { b.ops[0].size = 9; }),
        withField([](Trace& b) { b.numArchRegs = 1000; }),
        withField([](Trace& b) { b.numArchRegs = 24; }),
    };
    for (size_t i = 0; i < badFields.size(); ++i)
        EXPECT_FALSE(deserializeTrace(badFields[i], out)) << "case " << i;

    // serializeTrace writes taken only as 0 or 1, so find op 0's taken
    // byte by flipping the flag, then patch the byte and re-seal.
    Trace flip = t;
    flip.ops[0].taken = !flip.ops[0].taken;
    auto patched = serializeTrace(flip);
    ASSERT_EQ(patched.size(), bytes.size());
    size_t at = 0;
    while (at < bytes.size() - 8 && patched[at] == bytes[at])
        ++at;
    ASSERT_LT(at, bytes.size() - 8);
    auto reseal = [](std::vector<uint8_t>& b) {
        uint64_t h = fnv1a(b.data(), b.size() - 8);
        for (size_t i = 0; i < 8; ++i)
            b[b.size() - 8 + i] = static_cast<uint8_t>(h >> (8 * i));
    };
    reseal(patched); // a no-op re-seal must still decode
    EXPECT_TRUE(deserializeTrace(patched, out));
    patched[at] = 2;
    reseal(patched);
    EXPECT_FALSE(deserializeTrace(patched, out));
}

TEST(RunResultSerialize, RoundTripPreservesStatsBitExactly)
{
    auto specs = twoSpecs();
    Trace t = generateTrace(specs[0]);
    RunResult r = runTrace(t, { CoreConfig{}, mechFor("constable") });
    r.stats.set("test.awkward", 0.1 + 0.2); // not exactly representable

    auto bytes = serializeRunResult(r);
    RunResult back;
    ASSERT_TRUE(deserializeRunResult(bytes, back));

    EXPECT_EQ(back.cycles, r.cycles);
    EXPECT_EQ(back.instructions, r.instructions);
    EXPECT_EQ(back.threadInstructions, r.threadInstructions);
    EXPECT_EQ(back.threadFinishCycle, r.threadFinishCycle);
    EXPECT_EQ(back.goldenCheckFailed, r.goldenCheckFailed);
    // The full named map, doubles compared bit-exactly via ==.
    EXPECT_EQ(back.stats.all(), r.stats.all());
    EXPECT_EQ(serializeRunResult(back), bytes);

    auto truncated = bytes;
    truncated.resize(bytes.size() - 9);
    EXPECT_FALSE(deserializeRunResult(truncated, back));
}

TEST(TraceSerialize, SpecHashSeparatesSpecs)
{
    auto specs = twoSpecs();
    EXPECT_NE(specHash(specs[0]), specHash(specs[1]));

    WorkloadSpec scaled = specs[0];
    scaled.targetOps *= 2; // CONSTABLE_TRACE_OPS must invalidate the cache
    EXPECT_NE(specHash(scaled), specHash(specs[0]));

    WorkloadSpec apx = specs[0];
    apx.numArchRegs = 32;
    EXPECT_NE(specHash(apx), specHash(specs[0]));
}

// -------------------------------------------------------------- trace cache

class TraceCache : public TempDirTest
{};

TEST_F(TraceCache, WarmCacheSkipsGenerationAndIsIdentical)
{
    ExperimentOptions opts = serialOpts();
    opts.traceDir = dir;

    Suite cold = Suite::fromSpecs(twoSpecs(), opts);
    EXPECT_EQ(cold.cacheMisses(), 2u);
    EXPECT_EQ(cold.cacheHits(), 0u);

    // Second invocation: every trace comes from disk, none regenerated.
    Suite warm = Suite::fromSpecs(twoSpecs(), opts);
    EXPECT_EQ(warm.cacheHits(), 2u);
    EXPECT_EQ(warm.cacheMisses(), 0u);

    // Cached traces are byte-identical to freshly generated ones.
    ExperimentOptions noCache = serialOpts();
    Suite fresh = Suite::fromSpecs(twoSpecs(), noCache);
    for (size_t i = 0; i < fresh.size(); ++i) {
        EXPECT_EQ(serializeTrace(warm.trace(i)),
                  serializeTrace(fresh.trace(i)));
    }
}

TEST_F(TraceCache, CacheHitProducesIdenticalRunResult)
{
    ExperimentOptions opts = serialOpts();
    opts.traceDir = dir;

    auto runBoth = [&](const Suite& suite) {
        return Experiment("cachecheck", suite, opts)
            .add("baseline", mechFor("baseline"))
            .add("constable", mechFor("constable"))
            .run();
    };
    Suite cold = Suite::fromSpecs(twoSpecs(), opts);
    Suite warm = Suite::fromSpecs(twoSpecs(), opts);
    ASSERT_EQ(warm.cacheHits(), 2u);

    auto a = runBoth(cold);
    auto b = runBoth(warm);
    EXPECT_EQ(resultFingerprint(a.matrix()), resultFingerprint(b.matrix()));
}

TEST_F(TraceCache, CorruptOrTruncatedFilesFallBackToRegeneration)
{
    ExperimentOptions opts = serialOpts();
    opts.traceDir = dir;
    Suite cold = Suite::fromSpecs(twoSpecs(), opts);
    ASSERT_EQ(cold.cacheMisses(), 2u);

    // Truncate one cache file, corrupt the other in place.
    std::vector<std::string> files;
    for (const auto& e : fs::directory_iterator(dir))
        files.push_back(e.path().string());
    ASSERT_EQ(files.size(), 2u);
    fs::resize_file(files[0], fs::file_size(files[0]) / 3);
    {
        std::fstream f(files[1],
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(64);
        f.put('\x7f');
    }

    // No crash: both entries regenerate (and rewrite the cache)...
    Suite repaired = Suite::fromSpecs(twoSpecs(), opts);
    EXPECT_EQ(repaired.cacheMisses(), 2u);
    Suite fresh = Suite::fromSpecs(twoSpecs(), serialOpts());
    for (size_t i = 0; i < fresh.size(); ++i) {
        EXPECT_EQ(serializeTrace(repaired.trace(i)),
                  serializeTrace(fresh.trace(i)));
    }
    // ...and the rewritten files serve hits again.
    Suite warm = Suite::fromSpecs(twoSpecs(), opts);
    EXPECT_EQ(warm.cacheHits(), 2u);
}

// --------------------------------------------------------- checkpoint/resume

class Checkpoint : public TempDirTest
{};

TEST_F(Checkpoint, ResumeFromPartialCheckpointIsBitIdentical)
{
    ExperimentOptions opts = serialOpts();
    Suite suite = Suite::fromSpecs(twoSpecs(), opts);

    auto makeExp = [&](const ExperimentOptions& o) {
        Experiment e("resume", suite, o);
        e.add("baseline", mechFor("baseline"))
            .add("eves", mechFor("eves"))
            .add("constable", mechFor("constable"));
        return e;
    };

    // Uninterrupted reference, no checkpointing.
    auto ref = makeExp(opts).run();

    // Full checkpointed run, then drop half the cells to model a kill.
    ExperimentOptions ck = opts;
    ck.checkpointDir = dir;
    auto first = makeExp(ck).run();
    EXPECT_EQ(first.resumedCells(), 0u);
    EXPECT_EQ(resultFingerprint(first.matrix()),
              resultFingerprint(ref.matrix()));

    std::vector<std::string> cells;
    for (const auto& sub : fs::directory_iterator(dir)) {
        for (const auto& f : fs::directory_iterator(sub.path())) {
            if (f.path().extension() == ".rr") // skip the sweep manifest
                cells.push_back(f.path().string());
        }
    }
    ASSERT_EQ(cells.size(), 6u); // 2 rows x 3 configs
    std::sort(cells.begin(), cells.end());
    for (size_t i = 0; i < cells.size() / 2; ++i)
        fs::remove(cells[i]);

    // Resume: half the cells load from disk, the rest re-simulate; the
    // merged result must be bit-identical to the uninterrupted run.
    auto resumed = makeExp(ck).run();
    EXPECT_EQ(resumed.resumedCells(), 3u);
    EXPECT_EQ(resultFingerprint(resumed.matrix()),
              resultFingerprint(ref.matrix()));

    // A fully warm checkpoint resumes every cell.
    auto warm = makeExp(ck).run();
    EXPECT_EQ(warm.resumedCells(), 6u);
    EXPECT_EQ(resultFingerprint(warm.matrix()),
              resultFingerprint(ref.matrix()));
}

/**
 * The 0-byte-cell regression: a checkpoint cell truncated to nothing (a
 * crash between open and first write, or a writer out of disk) and one
 * holding garbage must both be treated as corrupt — regenerated with a
 * counted warning, never trusted, never fatal — and the resumed sweep must
 * stay bit-identical to an uninterrupted run.
 */
TEST_F(Checkpoint, ZeroByteAndGarbageCellsAreRegeneratedNotTrusted)
{
    ExperimentOptions opts = serialOpts();
    Suite suite = Suite::fromSpecs(twoSpecs(), opts);
    auto makeExp = [&](const ExperimentOptions& o) {
        Experiment e("zerobyte", suite, o);
        e.add("baseline", mechFor("baseline"))
            .add("constable", mechFor("constable"));
        return e;
    };
    auto ref = makeExp(opts).run();

    ExperimentOptions ck = opts;
    ck.checkpointDir = dir;
    makeExp(ck).run();
    std::vector<std::string> cells;
    for (const auto& sub : fs::directory_iterator(dir))
        for (const auto& f : fs::directory_iterator(sub.path()))
            if (f.path().extension() == ".rr")
                cells.push_back(f.path().string());
    ASSERT_EQ(cells.size(), 4u); // 2 rows x 2 configs
    std::sort(cells.begin(), cells.end());
    fs::resize_file(cells[0], 0);              // the classic 0-byte cell
    std::ofstream(cells[1]) << "not a cell";   // and a garbage sibling

    auto resumed = makeExp(ck).run();
    EXPECT_EQ(resumed.resumedCells(), 2u); // only the intact pair loads
    EXPECT_EQ(resultFingerprint(resumed.matrix()),
              resultFingerprint(ref.matrix()));

    // The regenerated cells are back on disk and trusted on the next run.
    auto warm = makeExp(ck).run();
    EXPECT_EQ(warm.resumedCells(), 4u);
    EXPECT_EQ(resultFingerprint(warm.matrix()),
              resultFingerprint(ref.matrix()));
}

/** A transient commit failure is retried: a checkpointed sweep whose first
 *  cell commit fails once still leaves every cell file, on threads and on
 *  forked workers. */
TEST_F(Checkpoint, TransientCommitFailureLeavesEveryCellFile)
{
    ExperimentOptions opts = serialOpts();
    Suite suite = Suite::fromSpecs(twoSpecs(), opts);
    for (unsigned shards : { 1u, 2u }) {
        ExperimentOptions ck = opts;
        ck.shards = shards;
        ck.checkpointDir = dir + "/shards-" + std::to_string(shards);
        installFaultPlan("ckpt.cell.commit:eio@1");
        Experiment("commit-eio", suite, ck)
            .add("baseline", mechFor("baseline"))
            .add("constable", mechFor("constable"))
            .run();
        clearFaultPlan();
        size_t cells = 0;
        for (const auto& e :
             fs::recursive_directory_iterator(ck.checkpointDir))
            cells += e.path().extension() == ".rr";
        EXPECT_EQ(cells, 4u) << shards << " shard(s)";
    }
}

TEST_F(Checkpoint, SmtSweepCheckpointsSeparatelyFromNoSmt)
{
    ExperimentOptions ck = serialOpts();
    ck.checkpointDir = dir;
    Suite suite = Suite::fromSpecs(twoSpecs(), ck);

    auto makeExp = [&]() {
        Experiment e("smt-vs-not", suite, ck);
        e.add("baseline", mechFor("baseline"));
        return e;
    };
    auto plain = makeExp().run();
    auto smt = makeExp().runSmt();
    EXPECT_EQ(smt.resumedCells(), 0u); // distinct key: no cross-pollution
    EXPECT_NE(resultFingerprint(plain.matrix()),
              resultFingerprint(smt.matrix()));

    auto smtAgain = makeExp().runSmt();
    EXPECT_EQ(smtAgain.resumedCells(), 1u); // 1 pair x 1 config
    EXPECT_EQ(resultFingerprint(smtAgain.matrix()),
              resultFingerprint(smt.matrix()));
}

// ----------------------------------------------------------- option parsing

TEST(Options, StrictParserAcceptsPlainDecimal)
{
    EXPECT_EQ(parseU64Strict("X", "42"), 42u);
    EXPECT_EQ(parseU64Strict("X", "0"), 0u);
    EXPECT_EQ(parseU64Strict("X", " 7"), 7u);
    EXPECT_EQ(parseU64Strict("X", "18446744073709551615"), UINT64_MAX);
}

TEST(OptionsDeathTest, StrictParserRejectsGarbage)
{
    EXPECT_EXIT(parseU64Strict("CONSTABLE_THREADS", "abc"),
                ::testing::ExitedWithCode(1), "non-negative integer");
    EXPECT_EXIT(parseU64Strict("CONSTABLE_THREADS", "4x"),
                ::testing::ExitedWithCode(1), "non-negative integer");
    EXPECT_EXIT(parseU64Strict("CONSTABLE_THREADS", ""),
                ::testing::ExitedWithCode(1), "non-negative integer");
    EXPECT_EXIT(parseU64Strict("CONSTABLE_THREADS", "-3"),
                ::testing::ExitedWithCode(1), "non-negative integer");
    EXPECT_EXIT(parseU64Strict("CONSTABLE_SEED",
                               "99999999999999999999999999"),
                ::testing::ExitedWithCode(1), "non-negative integer");
}

TEST(OptionsDeathTest, OctalAndHexSurprisesAreFatalNotRebased)
{
    // The historical bug: strtoull(..., 0) auto-detected the base, so
    // CONSTABLE_SHARDS=010 silently meant 8 workers and 0x10 meant 16.
    // Both now terminate instead of being silently reinterpreted.
    EXPECT_EXIT(parseU64Strict("CONSTABLE_SHARDS", "010"),
                ::testing::ExitedWithCode(1), "base-10");
    EXPECT_EXIT(parseU64Strict("CONSTABLE_SHARDS", "0x10"),
                ::testing::ExitedWithCode(1), "base-10");
    EXPECT_EXIT(parseU64Strict("CONSTABLE_SHARDS", "00"),
                ::testing::ExitedWithCode(1), "base-10");
    EXPECT_EXIT(
        {
            setenv("CONSTABLE_SHARDS", "010", 1);
            ExperimentOptions::fromEnv();
        },
        ::testing::ExitedWithCode(1), "CONSTABLE_SHARDS");
}

TEST(Options, DoubleParserIsStrictButNonFatal)
{
    EXPECT_EQ(tryParseDouble("0.25"), 0.25);
    EXPECT_EQ(tryParseDouble(" 3 "), 3.0);
    EXPECT_EQ(tryParseDouble("1.500000\n"), 1.5); // a .cost sidecar
    EXPECT_EQ(tryParseDouble("-2e3"), -2000.0);
    EXPECT_EQ(tryParseDouble(".5"), 0.5);
    // Raw strtod reads each of these as 0 or as its numeric prefix.
    for (const char* bad : { "", " ", "abc", "3x", "12x4", "1.0.0", "1e",
                             "0x10", "inf", "nan", "-", ".", "1e999",
                             "+1" })
        EXPECT_FALSE(tryParseDouble(bad).has_value()) << "'" << bad << "'";
}

TEST(OptionsDeathTest, FloatFlagsAreRangeChecked)
{
    // --max-regression is a fraction in [0, 1): a percentage typed there
    // used to push the gate's floor far below zero and pass every run.
    const DoubleRange fraction { .lo = 0.0, .hi = 1.0, .hiOpen = true };
    EXPECT_EQ(parseDoubleInRange("--max-regression", "0", fraction), 0.0);
    EXPECT_EQ(parseDoubleInRange("--max-regression", "0.25", fraction),
              0.25);
    EXPECT_EXIT(parseDoubleInRange("--max-regression", "25", fraction),
                ::testing::ExitedWithCode(1), "must be in \\[0, 1\\)");
    EXPECT_EXIT(parseDoubleInRange("--max-regression", "1", fraction),
                ::testing::ExitedWithCode(1), "must be in \\[0, 1\\)");
    EXPECT_EXIT(parseDoubleInRange("--max-regression", "abc", fraction),
                ::testing::ExitedWithCode(1), "decimal number");

    // --sample-check is a percentage in (0, 100].
    const DoubleRange percent { .lo = 0.0, .hi = 100.0, .loOpen = true };
    EXPECT_EQ(parseDoubleInRange("--sample-check", "100", percent), 100.0);
    EXPECT_EXIT(parseDoubleInRange("--sample-check", "3x", percent),
                ::testing::ExitedWithCode(1), "decimal number");
    EXPECT_EXIT(parseDoubleInRange("--sample-check", "0", percent),
                ::testing::ExitedWithCode(1), "must be in \\(0, 100\\]");
    EXPECT_EXIT(parseDoubleInRange("--sample-check", "100.5", percent),
                ::testing::ExitedWithCode(1), "must be in \\(0, 100\\]");
}

TEST(OptionsDeathTest, MalformedEnvIsFatalNotSilent)
{
    // The historical bug: CONSTABLE_THREADS=abc silently became 0 (all
    // cores). Now it must terminate with a clear message.
    EXPECT_EXIT(
        {
            setenv("CONSTABLE_THREADS", "abc", 1);
            ExperimentOptions::fromEnv();
        },
        ::testing::ExitedWithCode(1), "CONSTABLE_THREADS");
    // Above the thread cap is fatal too, not silently clamped to it.
    EXPECT_EXIT(
        {
            setenv("CONSTABLE_THREADS", "257", 1);
            ExperimentOptions::fromEnv();
        },
        ::testing::ExitedWithCode(1),
        "CONSTABLE_THREADS must be in \\[0, 256\\], got '257'");
    EXPECT_EXIT(
        {
            setenv("CONSTABLE_TRACE_OPS", "0", 1);
            ExperimentOptions::fromEnv();
        },
        ::testing::ExitedWithCode(1), "CONSTABLE_TRACE_OPS");
}

TEST(OptionsDeathTest, ThreadsFlagAboveCapIsFatal)
{
    const char* argv[] = { "prog", "--threads=257" };
    EXPECT_EXIT(ExperimentOptions::fromArgs(2, const_cast<char**>(argv)),
                ::testing::ExitedWithCode(1),
                "--threads must be in \\[0, 256\\], got '257'");
}

TEST(OptionsDeathTest, EnvTraceOutWithCliFaultPlanExitsCleanly)
{
    // fromEnv registers the obs atexit writer before --fault-plan first
    // builds the fault state, so the writer runs after every static
    // destructor registered later. It commits the trace through
    // writeFileAtomic, which consults the armed plan: that plan must
    // still be alive then (an ASan build reports the use-after-free).
    std::string trace = (fs::temp_directory_path() /
                         ("constable-exit-trace-" +
                          std::to_string(::getpid()) + ".json"))
                            .string();
    fs::remove(trace);
    const char* argv[] = { "prog", "--fault-plan=ckpt.cell.read:eio@1" };
    EXPECT_EXIT(
        {
            setenv("CONSTABLE_TRACE_OUT", trace.c_str(), 1);
            ExperimentOptions::fromArgs(2, const_cast<char**>(argv));
            std::exit(0);
        },
        ::testing::ExitedWithCode(0), "");
    std::error_code ec;
    EXPECT_GT(fs::file_size(trace, ec), 0u) << trace;
    fs::remove(trace, ec);
}

TEST(Options, FromArgsOverridesEnv)
{
    setenv("CONSTABLE_THREADS", "2", 1);
    const char* argv[] = { "prog", "--threads=5", "--seed", "42",
                           "--trace-ops=4000", "--suite-limit=3",
                           "--trace-dir=/tmp/x", "--checkpoint-dir",
                           "/tmp/y" };
    auto opts = ExperimentOptions::fromArgs(
        static_cast<int>(std::size(argv)), const_cast<char**>(argv));
    unsetenv("CONSTABLE_THREADS");

    EXPECT_EQ(opts.threads, 5u);
    EXPECT_EQ(opts.seed, 42u);
    EXPECT_EQ(opts.traceOps, 4000u);
    EXPECT_EQ(opts.suiteLimit, 3u);
    EXPECT_EQ(opts.traceDir, "/tmp/x");
    EXPECT_EQ(opts.checkpointDir, "/tmp/y");
}

TEST(OptionsDeathTest, UnknownFlagIsFatal)
{
    const char* argv[] = { "prog", "--no-such-flag=1" };
    EXPECT_EXIT(ExperimentOptions::fromArgs(2, const_cast<char**>(argv)),
                ::testing::ExitedWithCode(1), "unknown argument");
}

// ------------------------------------------------------------- facade shape

TEST(Experiment, MatchesDirectRunTraceBitExactly)
{
    ExperimentOptions opts = serialOpts();
    Suite suite = Suite::fromSpecs(twoSpecs(), opts);

    auto res = Experiment("parity", suite, opts)
                   .add("baseline", mechFor("baseline"))
                   .add("constable", mechFor("constable"))
                   .run();

    std::vector<SystemConfig> configs = {
        { CoreConfig{}, mechFor("baseline") },
        { CoreConfig{}, mechFor("constable") },
    };
    MatrixResult direct;
    direct.numRows = suite.size();
    direct.numConfigs = configs.size();
    for (size_t row = 0; row < suite.size(); ++row) {
        for (const SystemConfig& cfg : configs) {
            direct.results.push_back(
                runTrace(suite.trace(row), cfg, &suite.globalStablePcs(row)));
        }
    }

    ASSERT_EQ(res.matrix().results.size(), direct.results.size());
    EXPECT_EQ(resultFingerprint(res.matrix()), resultFingerprint(direct));
    // Name-addressed accessors hit the right cells.
    EXPECT_EQ(res.at(1, "constable").cycles, direct.at(1, 1).cycles);
    EXPECT_EQ(res.speedups("constable", "baseline")[0],
              speedup(direct.at(0, 1), direct.at(0, 0)));
}

TEST(ExperimentDeathTest, UnknownConfigNameIsFatal)
{
    ExperimentOptions opts = serialOpts();
    auto specs = twoSpecs();
    specs.resize(1);
    Suite suite = Suite::fromSpecs(specs, opts);
    auto res = Experiment("names", suite, opts)
                   .add("baseline", mechFor("baseline"))
                   .run();
    EXPECT_EXIT(res.at(0, "typo"), ::testing::ExitedWithCode(1),
                "no configuration named");
}

TEST(ExperimentDeathTest, SmtSweepOfOneTraceIsFatal)
{
    // One trace makes no co-run pair, so the SMT matrix has no rows.
    ExperimentOptions opts = serialOpts();
    auto specs = twoSpecs();
    specs.resize(1);
    Suite suite = Suite::fromSpecs(specs, opts, /*inspect=*/false);
    Experiment exp("smt-one", suite, opts);
    exp.add("baseline", mechFor("baseline"));
    EXPECT_EXIT(exp.runSmt(), ::testing::ExitedWithCode(1),
                "'smt-one' has no rows: an SMT sweep needs at least 2 "
                "traces");
}

TEST(ExperimentDeathTest, ReportersNeedOneValuePerTrace)
{
    // Four traces make two SMT pairs: a speedup series over the pairs is
    // not a per-trace series, and the category reporters must say so
    // rather than read past its end.
    ExperimentOptions opts = serialOpts();
    auto specs = smokeSuite(1500);
    specs.resize(4);
    Suite suite = Suite::fromSpecs(specs, opts, /*inspect=*/false);
    auto res = Experiment("smt-four", suite, opts)
                   .add("baseline", mechFor("baseline"))
                   .add("constable", mechFor("constable"))
                   .runSmt();
    std::vector<double> perPair = res.speedups("constable", "baseline");
    ASSERT_EQ(perPair.size(), 2u);
    EXPECT_EXIT(res.printGeomeans("smt", { perPair }, { "constable" }),
                ::testing::ExitedWithCode(1),
                "a series has 2 values for 4 traces");
    EXPECT_EXIT(res.printMeans("smt", { perPair }, { "constable" }),
                ::testing::ExitedWithCode(1),
                "a series has 2 values for 4 traces");
    EXPECT_EXIT(res.printBoxWhisker("smt", perPair),
                ::testing::ExitedWithCode(1),
                "a series has 2 values for 4 traces");
}

TEST(Suite, FromTracesSupportsHandBuiltWorkloads)
{
    auto specs = twoSpecs();
    std::vector<Trace> traces;
    traces.push_back(generateTrace(specs[0]));
    traces.push_back(generateTrace(specs[1]));
    std::string name0 = traces[0].name;

    Suite suite = Suite::fromTraces(std::move(traces));
    EXPECT_EQ(suite.size(), 2u);
    EXPECT_EQ(suite.spec(0).name, name0);
    EXPECT_TRUE(suite.inspected());
    EXPECT_EQ(suite.gsPtrs().size(), 2u);

    // Checkpoints key on the trace bytes: an edited hand-built trace with
    // the same name must change the suite's content hash.
    std::vector<Trace> edited;
    edited.push_back(generateTrace(specs[0]));
    edited.push_back(generateTrace(specs[1]));
    edited[0].ops[0].value ^= 1;
    Suite editedSuite = Suite::fromTraces(std::move(edited));
    EXPECT_NE(editedSuite.contentHash(), suite.contentHash());
}

} // namespace
} // namespace constable
