/**
 * @file
 * Tests for the observability tier (common/obs.hh): the armed/disarmed
 * gate never perturbs simulated results (RunResult bytes are bit-identical
 * either way), the span ring drops and counts on overflow, status.json is
 * atomically rewritten (a concurrent reader never sees a torn file), the
 * emitted Chrome trace-event JSON is well-formed, forEachJob's workers
 * keep one lane per worker index across calls, and shard partial files
 * round-trip counters/histograms/spans through save + merge.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/faultio.hh"
#include "common/obs.hh"
#include "sim/batch.hh"
#include "sim/mechanisms.hh"
#include "sim/runner.hh"
#include "trace/serialize.hh"
#include "workloads/suite.hh"

namespace constable {
namespace {

namespace fs = std::filesystem;

/** Fresh temp dir per test; obs state reset on both ends so test order
 *  never matters (counters/lanes are process-global). */
class ObsTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        obsReset();
        std::string tmpl = fs::temp_directory_path() /
                           "constable-obs-XXXXXX";
        std::vector<char> buf(tmpl.begin(), tmpl.end());
        buf.push_back('\0');
        ASSERT_NE(mkdtemp(buf.data()), nullptr);
        dir = buf.data();
    }

    void
    TearDown() override
    {
        obsReset();
        fs::remove_all(dir);
    }

    std::string dir;
};

// --------------------------------------------------------- registry gate

TEST_F(ObsTest, ArmedRunIsBitIdenticalToDisarmed)
{
    auto specs = smokeSuite(1200);
    Trace t = generateTrace(specs[0]);
    SystemConfig cfg { CoreConfig{}, mechFor("constable") };

    ASSERT_FALSE(obsArmed());
    std::vector<uint8_t> disarmed = serializeRunResult(runTrace(t, cfg));

    obsArm();
    ASSERT_TRUE(obsArmed());
    std::vector<uint8_t> armed = serializeRunResult(runTrace(t, cfg));

    // Obs state lives strictly outside RunResult: arming the registry
    // must never reach the simulated bytes (golden fingerprints depend
    // on this).
    EXPECT_EQ(armed, disarmed);
    // ...but the armed run did observe something (the idle fast-forward
    // flush at minimum fires once per core run).
    EXPECT_GT(obsCounter("sim.idle_ff_cycles").value(), 0u);
}

TEST_F(ObsTest, CountersHistogramsGateOnArmed)
{
    ObsCounter& c = obsCounter("test.gate.counter");
    ObsHistogram& h = obsHistogram("test.gate.hist");

    c.add(5);
    h.record(9);
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(h.count(), 0u);

    obsArm();
    c.add(5);
    h.record(9);
    EXPECT_EQ(c.value(), 5u);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.sum(), 9u);
    // Power-of-two buckets: 0 and 1 -> bucket 0, 2..3 -> 1, 1024 -> 10.
    h.record(0);
    h.record(1);
    h.record(2);
    h.record(1024);
    EXPECT_EQ(h.bucket(0), 2u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(3), 1u); // 9 lives in [8,16)
    EXPECT_EQ(h.bucket(10), 1u);
}

// --------------------------------------------------------- span recorder

TEST_F(ObsTest, SpanRingOverflowDropsAndCounts)
{
    obsArm();
    const size_t emitted = 5000; // ring capacity is 4096 per lane
    for (size_t i = 0; i < emitted; ++i)
        obsEmitSpan("overflow-lane", "span", "test", i, 1);
    EXPECT_EQ(obsSpanCount(), 4096u);
    EXPECT_EQ(obsSpansDropped(), emitted - 4096u);

    // The drop total must survive into the metrics snapshot.
    std::string path = dir + "/metrics.json";
    ASSERT_TRUE(obsWriteMetrics(path));
    std::string json = obsReadStatus(path);
    EXPECT_NE(json.find("\"dropped\": " + std::to_string(emitted - 4096)),
              std::string::npos)
        << json;
}

/** Validate brace/bracket balance outside string literals — the mini
 *  well-formedness check for the emitted JSON. */
bool
jsonBalanced(const std::string& s)
{
    int depth = 0;
    bool inStr = false;
    for (size_t i = 0; i < s.size(); ++i) {
        char c = s[i];
        if (inStr) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                inStr = false;
            continue;
        }
        if (c == '"')
            inStr = true;
        else if (c == '{' || c == '[')
            ++depth;
        else if (c == '}' || c == ']') {
            if (--depth < 0)
                return false;
        }
    }
    return depth == 0 && !inStr;
}

TEST_F(ObsTest, TraceEventJsonIsWellFormedWithLaneMetadata)
{
    obsArm();
    {
        ObsSpan s("outer", "test");
        ObsSpan inner("inner", "test");
    }
    obsEmitSpan("shard-3", "cell.compute", "cell", 10, 20);
    obsEmitSpan("fleet:web", "dispatch:\"quoted\"", "fleet", 5, 1);

    std::string path = dir + "/trace.json";
    ASSERT_TRUE(obsWriteTrace(path));
    std::string json = obsReadStatus(path);
    ASSERT_FALSE(json.empty());

    EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u) << json;
    EXPECT_TRUE(jsonBalanced(json)) << json;
    // One thread_name metadata record per lane, and the lanes we named.
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(json.find("\"shard-3\""), std::string::npos);
    EXPECT_NE(json.find("\"fleet:web\""), std::string::npos);
    // The quoted span name must arrive escaped, not raw.
    EXPECT_NE(json.find("dispatch:\\\"quoted\\\""), std::string::npos);
    // Complete events carry the X phase with timestamps.
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ts\":10,\"dur\":20"), std::string::npos);
}

/** Names of the thread lanes in a written trace ("main", "pool-<k>",
 *  "thread-<n>"), in lane order; synthetic lanes are left out. */
std::vector<std::string>
threadLaneNames(const std::string& json)
{
    const std::string key = "\"name\":\"thread_name\"";
    const std::string arg = "\"args\":{\"name\":\"";
    std::vector<std::string> names;
    for (size_t at = json.find(key); at != std::string::npos;
         at = json.find(key, at + 1)) {
        size_t begin = json.find(arg, at) + arg.size();
        std::string name = json.substr(begin, json.find('"', begin) - begin);
        if (name == "main" || name.rfind("pool-", 0) == 0 ||
            name.rfind("thread-", 0) == 0)
            names.push_back(name);
    }
    return names;
}

TEST_F(ObsTest, PoolLanesStayBoundedAcrossCalls)
{
    obsArm();
    BatchOptions opts;
    opts.threads = 3;
    {
        ObsSpan outer("calls", "test");
        for (int call = 0; call < 20; ++call) {
            forEachJob(32, [](size_t, Rng&) { ObsSpan s("job", "test"); },
                       opts);
        }
    }
    std::string path = dir + "/trace.json";
    ASSERT_TRUE(obsWriteTrace(path));
    // Each worker index keeps one lane however many calls start a worker.
    std::vector<std::string> lanes = threadLaneNames(obsReadStatus(path));
    std::sort(lanes.begin(), lanes.end());
    EXPECT_EQ(lanes,
              (std::vector<std::string> { "main", "pool-1", "pool-2" }));
}

TEST_F(ObsTest, MetricsSnapshotIsWellFormedJson)
{
    obsArm();
    obsCounter("test.snapshot.counter").add(3);
    obsHistogram("test.snapshot.hist").record(42);
    std::string path = dir + "/metrics.json";
    ASSERT_TRUE(obsWriteMetrics(path));
    std::string json = obsReadStatus(path);
    EXPECT_TRUE(jsonBalanced(json)) << json;
    EXPECT_NE(json.find("\"test.snapshot.counter\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"count\": 1, \"sum\": 42"), std::string::npos);
}

// ------------------------------------------------------- shard partials

TEST_F(ObsTest, PartialSaveMergeRoundTrips)
{
    obsArm();
    obsCounter("test.partial.counter").add(11);
    obsHistogram("test.partial.hist").record(100);
    {
        ObsSpan s("cell.compute", "cell");
    }
    std::string path = dir + "/obs-shard-0.partial";
    ASSERT_TRUE(obsSavePartial(path, "shard-0"));

    obsReset();
    obsArm();
    EXPECT_EQ(obsCounter("test.partial.counter").value(), 0u);
    ASSERT_TRUE(obsMergePartial(path));
    EXPECT_EQ(obsCounter("test.partial.counter").value(), 11u);
    EXPECT_EQ(obsHistogram("test.partial.hist").count(), 1u);
    EXPECT_EQ(obsHistogram("test.partial.hist").sum(), 100u);
    // The span came back under the override lane.
    std::string trace = dir + "/trace.json";
    ASSERT_TRUE(obsWriteTrace(trace));
    std::string json = obsReadStatus(trace);
    EXPECT_NE(json.find("\"shard-0\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"cell.compute\""), std::string::npos) << json;
}

TEST_F(ObsTest, CorruptPartialFailsWholeMerge)
{
    obsArm();
    std::string path = dir + "/bad.partial";
    auto mergeText = [&](const std::string& text) {
        EXPECT_TRUE(writeFileAtomic(path, text));
        return obsMergePartial(path);
    };

    // Wrong header.
    EXPECT_FALSE(mergeText("not-a-partial\nC x 1\nE 1\n"));

    // A malformed record rejects the whole file: the good counter parsed
    // before it must not be applied either.
    EXPECT_FALSE(mergeText(
        "obs-partial v2\nC probe.good 5\nC probe.bad 12x4\nE 2\n"));
    EXPECT_EQ(obsCounter("probe.good").value(), 0u);

    // Torn mid-record ("C probe.trunc 314" cut to 31): no line terminator
    // and no seal, so the merge rejects it instead of applying 31.
    EXPECT_FALSE(mergeText("obs-partial v2\nC probe.trunc 31"));
    EXPECT_EQ(obsCounter("probe.trunc").value(), 0u);

    // Torn exactly at a line boundary: every record parses, but the
    // trailing count is missing (or disagrees), so nothing is applied.
    EXPECT_FALSE(mergeText("obs-partial v2\nC probe.trunc 314\n"));
    EXPECT_FALSE(mergeText("obs-partial v2\nC probe.trunc 314\nE 2\n"));
    EXPECT_EQ(obsCounter("probe.trunc").value(), 0u);
    EXPECT_TRUE(mergeText("obs-partial v2\nC probe.trunc 314\nE 1\n"));
    EXPECT_EQ(obsCounter("probe.trunc").value(), 314u);

    // A partial saved under an armed torn write commits half its bytes
    // and still reports success; the merge must reject it whole.
    obsReset();
    obsArm();
    for (int i = 0; i < 8; ++i)
        obsCounter("probe.torn." + std::to_string(i)).add(1000 + i);
    installFaultPlan("atomic.tmp.write:torn");
    EXPECT_TRUE(obsSavePartial(path, "shard-0"));
    clearFaultPlan();
    obsReset();
    obsArm();
    EXPECT_FALSE(obsMergePartial(path));
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(obsCounter("probe.torn." + std::to_string(i)).value(), 0u);
}

// --------------------------------------------------------- live progress

TEST_F(ObsTest, StatusJsonIsAtomicUnderConcurrentReader)
{
    std::string path = dir + "/status.json";
    std::atomic<bool> stop { false };
    std::atomic<uint64_t> reads { 0 };
    std::atomic<uint64_t> tornReads { 0 };

    std::thread reader([&] {
        while (!stop.load()) {
            std::string json = obsReadStatus(path);
            if (json.empty())
                continue; // not written yet, or mid-rename: both fine
            ++reads;
            // Every observed file content must render: a torn write
            // would drop required fields and format to "".
            if (obsFormatStatus(json).empty())
                ++tornReads;
        }
    });

    ObsProgressConfig cfg;
    cfg.label = "atomic-test";
    cfg.total = 4;
    cfg.statusPath = path;
    cfg.intervalSec = 0; // no stderr chatter from the test
    for (int iter = 0; iter < 200; ++iter) {
        obsProgressBegin(cfg);
        obsProgressCellDone(1'000'000);
        obsProgressUpdate(3);
        obsProgressEnd(); // final: unconditional atomic rewrite
    }
    stop.store(true);
    reader.join();

    EXPECT_GT(reads.load(), 0u);
    EXPECT_EQ(tornReads.load(), 0u);

    // The final status is "done" and renders with the label.
    std::string line = obsFormatStatus(obsReadStatus(path));
    EXPECT_NE(line.find("atomic-test"), std::string::npos) << line;
    EXPECT_NE(line.find("done"), std::string::npos) << line;
}

TEST_F(ObsTest, StatusFormatterRejectsGarbage)
{
    EXPECT_EQ(obsFormatStatus(""), "");
    EXPECT_EQ(obsFormatStatus("{\"experiment\":\"x\"}"), "");
    EXPECT_EQ(obsFormatStatus("hello"), "");
    std::string ok =
        "{\"experiment\":\"fig11\",\"state\":\"running\","
        "\"cells_done\":3,\"cells_total\":16,\"mops\":1.250,"
        "\"eta_sec\":40,\"elapsed_sec\":9.5,\"owner\":\"pid-7\","
        "\"updated_unix_sec\":1}";
    std::string line = obsFormatStatus(ok);
    EXPECT_NE(line.find("fig11"), std::string::npos) << line;
    EXPECT_NE(line.find("3/16"), std::string::npos) << line;
    EXPECT_NE(line.find("pid-7"), std::string::npos) << line;
}

} // namespace
} // namespace constable
