#include "common/obs.hh"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string_view>
#include <vector>

#include "common/env.hh"
#include "common/faultio.hh"
#include "common/logging.hh"

namespace constable {

namespace {

/** Spans per thread lane before overflow starts dropping (and counting). */
constexpr size_t kRingCap = 4096;

/** First line of a shard partial; v2 ends with an "E <records>" seal. */
constexpr std::string_view kPartialHeader = "obs-partial v2\n";

/** One recorded slice. Names/cats point at string literals or interned
 *  strings (stable for the process lifetime). */
struct SpanRec
{
    const char* name;
    const char* cat;
    uint64_t startUs;
    uint64_t durUs;
};

/** A trace lane: one real thread's ring buffer, or a synthetic lane
 *  (merged shard partials). */
struct Lane
{
    std::string name;
    std::vector<SpanRec> spans;
    uint64_t dropped = 0;
};

struct Registry
{
    std::mutex mu;
    std::map<std::string, std::unique_ptr<ObsCounter>> counters;
    std::map<std::string, std::unique_ptr<ObsHistogram>> histograms;
    /** Thread lanes in registration order, then synthetic lanes; lanes
     *  are never destroyed (thread_local pointers outlive their thread's
     *  useful life only until process exit). */
    std::vector<std::unique_ptr<Lane>> lanes;
    /** Interned span names/cats for spans not backed by literals. */
    std::set<std::string> intern;
    std::string traceOut;
    std::string metricsOut;
    bool atexitRegistered = false;
    uint64_t threadLaneCount = 0;
};

/** Never destroyed: the atexit writers read the registry after static
 *  destructors run at exit. */
Registry&
reg()
{
    static Registry* r = new Registry;
    return *r;
}

const char*
internString(Registry& r, const std::string& s)
{
    return r.intern.insert(s).first->c_str();
}

/** The calling thread's lane, once registered or named. */
thread_local Lane* tlsLane = nullptr;

Lane&
laneForThisThread()
{
    // Registration is once per thread; afterwards the pointer is reused.
    // All mutation of a lane's spans happens under reg().mu (spans are
    // coarse — cells, cache preps, backoffs — so the lock is cold).
    if (!tlsLane) {
        Registry& r = reg();
        std::lock_guard<std::mutex> lk(r.mu);
        auto lane = std::make_unique<Lane>();
        lane->name = r.threadLaneCount == 0
                         ? "main"
                         : "thread-" + std::to_string(r.threadLaneCount);
        ++r.threadLaneCount;
        lane->spans.reserve(kRingCap);
        tlsLane = lane.get();
        r.lanes.push_back(std::move(lane));
    }
    return *tlsLane;
}

Lane&
namedLaneLocked(Registry& r, const std::string& name)
{
    for (auto& l : r.lanes) {
        if (l->name == name)
            return *l;
    }
    auto lane = std::make_unique<Lane>();
    lane->name = name;
    Lane& ref = *lane;
    r.lanes.push_back(std::move(lane));
    return ref;
}

void
appendSpanLocked(Lane& lane, const SpanRec& s)
{
    if (lane.spans.size() >= kRingCap) {
        ++lane.dropped;
        return;
    }
    lane.spans.push_back(s);
}

/** JSON string escaping (quotes, backslashes, control chars). */
std::string
jsonEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** Lenient digit-run parser for partial/status payloads: corrupt input
 *  must fail the merge, not fatal() the coordinator (env.hh's strict
 *  parsers are for operator-supplied knobs). */
bool
parseU64Field(const std::string& s, uint64_t& out)
{
    if (s.empty())
        return false;
    uint64_t v = 0;
    for (char c : s) {
        if (c < '0' || c > '9')
            return false;
        uint64_t d = static_cast<uint64_t>(c - '0');
        if (v > (UINT64_MAX - d) / 10)
            return false;
        v = v * 10 + d;
    }
    out = v;
    return true;
}

void
writeOutputsAtExit()
{
    Registry& r = reg();
    std::string traceOut, metricsOut;
    {
        std::lock_guard<std::mutex> lk(r.mu);
        traceOut = r.traceOut;
        metricsOut = r.metricsOut;
    }
    if (!metricsOut.empty() && !obsWriteMetrics(metricsOut))
        warn("cannot write metrics snapshot '" + metricsOut + "'");
    if (!traceOut.empty() && !obsWriteTrace(traceOut))
        warn("cannot write trace '" + traceOut + "'");
}

// ---------------------------------------------------------- progress

struct ProgressState
{
    std::mutex mu;
    std::string label;
    std::string statusPath;
    size_t total = 0;
    size_t doneLocal = 0;
    size_t doneExternal = 0;
    uint64_t ops = 0;
    unsigned intervalSec = 10;
    uint64_t beginUs = 0;
    uint64_t lastReportUs = 0;
    uint64_t lastReportOps = 0;
    uint64_t lastStatusUs = 0;
    bool reported = false;
};

std::atomic<bool> progressActive { false };

ProgressState&
progress()
{
    static ProgressState p;
    return p;
}

/** Seconds since the unix epoch, for status.json consumers on other
 *  machines (steady_clock has no cross-process meaning as a date).
 *  Diagnostics only — never feeds simulated state. lint:wallclock */
uint64_t
unixNowSec()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::seconds>(
            // lint:wallclock status.json freshness stamp, never sim state
            std::chrono::system_clock::now().time_since_epoch())
            .count());
}

/** Emit the stderr line and/or rewrite status.json when their intervals
 *  have elapsed (or unconditionally when `final`). Caller holds p.mu. */
void
progressEmitLocked(ProgressState& p, bool final)
{
    uint64_t nowUs = obsdetail::obsNowUs();
    size_t done = std::max(p.doneLocal, p.doneExternal);
    double elapsedSec =
        static_cast<double>(nowUs - p.beginUs) / 1e6;

    // Rolling Mops/s over the window since the last report; overall
    // average when the window carries no ops (e.g. external-scan ticks).
    auto mopsOver = [&](uint64_t ops, double sec) {
        return sec > 0.0 ? static_cast<double>(ops) / sec / 1e6 : 0.0;
    };
    double rollingMops =
        p.ops > p.lastReportOps && nowUs > p.lastReportUs
            ? mopsOver(p.ops - p.lastReportOps,
                       static_cast<double>(nowUs - p.lastReportUs) / 1e6)
            : mopsOver(p.ops, elapsedSec);

    // Observed-cost ETA: remaining cells at the average per-cell
    // wall-clock so far (the same model the sharded claim order uses).
    uint64_t etaSec = 0;
    if (done > 0 && done < p.total) {
        etaSec = static_cast<uint64_t>(
            elapsedSec / static_cast<double>(done) *
            static_cast<double>(p.total - done));
    }

    // The closing summary only prints when a periodic line preceded it:
    // runs shorter than one interval stay completely silent on stderr
    // (unit tests, smoke benches) while long sweeps always end with a
    // final "done" line even if the last interval was cut short.
    if (p.intervalSec > 0 &&
        (final ? p.reported
               : nowUs - p.lastReportUs >=
                     static_cast<uint64_t>(p.intervalSec) * 1'000'000ull)) {
        double pct = p.total > 0
                         ? 100.0 * static_cast<double>(done) /
                               static_cast<double>(p.total)
                         : 0.0;
        if (final) {
            std::fprintf(stderr,
                         "progress: %s done, %zu/%zu cells, %.2f Mops/s, "
                         "%.1fs elapsed\n",
                         p.label.c_str(), done, p.total, rollingMops,
                         elapsedSec);
        } else {
            std::fprintf(stderr,
                         "progress: %s %zu/%zu cells (%.1f%%), %.2f "
                         "Mops/s, eta %llus\n",
                         p.label.c_str(), done, p.total, pct, rollingMops,
                         static_cast<unsigned long long>(etaSec));
        }
        p.lastReportUs = nowUs;
        p.lastReportOps = p.ops;
        p.reported = true;
    }

    // status.json is throttled to ~1/s so pollers never starve writers;
    // the atomic rename means a concurrent reader sees old or new bytes,
    // never a torn file.
    if (!p.statusPath.empty() &&
        (final || nowUs - p.lastStatusUs >= 1'000'000ull)) {
        char buf[512];
        std::snprintf(
            buf, sizeof(buf),
            "{\"experiment\":\"%s\",\"state\":\"%s\","
            "\"cells_done\":%zu,\"cells_total\":%zu,"
            "\"mops\":%.3f,\"eta_sec\":%llu,\"elapsed_sec\":%.1f,"
            "\"owner\":\"pid-%llu\",\"updated_unix_sec\":%llu}\n",
            jsonEscape(p.label).c_str(), final ? "done" : "running", done,
            p.total, rollingMops, static_cast<unsigned long long>(etaSec),
            elapsedSec, static_cast<unsigned long long>(::getpid()),
            static_cast<unsigned long long>(unixNowSec()));
        writeFileAtomic(p.statusPath, std::string(buf));
        p.lastStatusUs = nowUs;
    }
}

/** Minimal flat-JSON string reader for obsFormatStatus (the schema is
 *  ours and flat; numbers go through flatJsonNumber). */
bool
jsonStrField(const std::string& json, const std::string& key,
             std::string& out)
{
    size_t at = json.find("\"" + key + "\":\"");
    if (at == std::string::npos)
        return false;
    at += key.size() + 4;
    size_t end = at;
    while (end < json.size() && json[end] != '"') {
        if (json[end] == '\\')
            ++end;
        ++end;
    }
    if (end >= json.size())
        return false;
    out = json.substr(at, end - at);
    return true;
}

} // namespace

namespace obsdetail {

std::atomic<bool> obsArmedFlag { false };

uint64_t
obsNowUs()
{
    // The epoch is pinned at static init (g_obsEpochPinned below), so
    // fork children inherit it and their span timestamps align with the
    // coordinator's on one CLOCK_MONOTONIC timeline.
    static const std::chrono::steady_clock::time_point epoch =
        std::chrono::steady_clock::now();
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - epoch)
            .count());
}

void
obsRecordSpan(const char* name, const char* cat, uint64_t start_us,
              uint64_t dur_us)
{
    Lane& lane = laneForThisThread();
    Registry& r = reg();
    std::lock_guard<std::mutex> lk(r.mu);
    appendSpanLocked(lane, SpanRec { name, cat, start_us, dur_us });
}

} // namespace obsdetail

namespace {

/** Pin the span epoch before main() so every process (and every fork
 *  child) measures from the same early instant. */
const uint64_t g_obsEpochPinned = obsdetail::obsNowUs();

/** Retry observer: counts faultio backoff sleeps and reconstructs each
 *  as a span on the sleeping thread's lane (the sleep already happened,
 *  so the span is synthesized as [now - ms, now]). */
void
faultRetryObserved(const char* point, unsigned ms)
{
    static ObsCounter& retries = obsCounter("faultio.retries");
    static ObsHistogram& backoff = obsHistogram("faultio.backoff_ms");
    retries.add();
    backoff.record(ms);
    uint64_t nowUs = obsdetail::obsNowUs();
    uint64_t durUs = static_cast<uint64_t>(ms) * 1000;
    obsEmitSpan("", std::string("fault.backoff:") + point, "faultio",
                nowUs >= durUs ? nowUs - durUs : 0, durUs);
}

} // namespace

void
obsArm()
{
    (void)g_obsEpochPinned;
    obsdetail::obsArmedFlag.store(true, std::memory_order_relaxed);
    setFaultRetryObserver(&faultRetryObserved);
}

void
obsConfigureOutputs(const std::string& trace_out,
                    const std::string& metrics_out)
{
    Registry& r = reg();
    bool arm = false;
    {
        std::lock_guard<std::mutex> lk(r.mu);
        r.traceOut = trace_out;
        r.metricsOut = metrics_out;
        arm = !trace_out.empty() || !metrics_out.empty();
        if (arm && !r.atexitRegistered) {
            std::atexit(writeOutputsAtExit);
            r.atexitRegistered = true;
        }
    }
    if (arm)
        obsArm();
}

void
obsReset()
{
    obsdetail::obsArmedFlag.store(false, std::memory_order_relaxed);
    progressActive.store(false, std::memory_order_relaxed);
    setFaultRetryObserver(nullptr);
    Registry& r = reg();
    std::lock_guard<std::mutex> lk(r.mu);
    // Counter and histogram objects must survive (call sites hold static
    // references), so values reset in place.
    for (auto& kv : r.counters)
        kv.second->reset();
    for (auto& kv : r.histograms)
        kv.second->reset();
    for (auto& l : r.lanes) {
        l->spans.clear();
        l->dropped = 0;
    }
    r.traceOut.clear();
    r.metricsOut.clear();
}

ObsCounter&
obsCounter(const std::string& name)
{
    Registry& r = reg();
    std::lock_guard<std::mutex> lk(r.mu);
    auto& slot = r.counters[name];
    if (!slot)
        slot = std::make_unique<ObsCounter>();
    return *slot;
}

ObsHistogram&
obsHistogram(const std::string& name)
{
    Registry& r = reg();
    std::lock_guard<std::mutex> lk(r.mu);
    auto& slot = r.histograms[name];
    if (!slot)
        slot = std::make_unique<ObsHistogram>();
    return *slot;
}

void
obsSetThreadLane(const std::string& lane)
{
    Registry& r = reg();
    std::lock_guard<std::mutex> lk(r.mu);
    if (tlsLane)
        tlsLane->name = lane;
    else
        tlsLane = &namedLaneLocked(r, lane);
}

void
obsEmitSpan(const std::string& lane, const std::string& name,
            const std::string& cat, uint64_t start_us, uint64_t dur_us)
{
    if (!obsArmed())
        return;
    if (lane.empty()) {
        Lane& l = laneForThisThread();
        Registry& r = reg();
        std::lock_guard<std::mutex> lk(r.mu);
        appendSpanLocked(l, SpanRec { internString(r, name),
                                      internString(r, cat), start_us,
                                      dur_us });
        return;
    }
    Registry& r = reg();
    std::lock_guard<std::mutex> lk(r.mu);
    Lane& l = namedLaneLocked(r, lane);
    appendSpanLocked(l, SpanRec { internString(r, name),
                                  internString(r, cat), start_us, dur_us });
}

uint64_t
obsSpansDropped()
{
    Registry& r = reg();
    std::lock_guard<std::mutex> lk(r.mu);
    uint64_t total = 0;
    for (const auto& l : r.lanes)
        total += l->dropped;
    return total;
}

uint64_t
obsSpanCount()
{
    Registry& r = reg();
    std::lock_guard<std::mutex> lk(r.mu);
    uint64_t total = 0;
    for (const auto& l : r.lanes)
        total += l->spans.size();
    return total;
}

bool
obsWriteMetrics(const std::string& path)
{
    Registry& r = reg();
    std::string out;
    {
        std::lock_guard<std::mutex> lk(r.mu);
        out += "{\n  \"counters\": {";
        bool first = true;
        for (const auto& [name, c] : r.counters) {
            out += first ? "\n" : ",\n";
            out += "    \"" + jsonEscape(name) +
                   "\": " + std::to_string(c->value());
            first = false;
        }
        out += "\n  },\n  \"histograms\": {";
        first = true;
        for (const auto& [name, h] : r.histograms) {
            out += first ? "\n" : ",\n";
            out += "    \"" + jsonEscape(name) +
                   "\": {\"count\": " + std::to_string(h->count()) +
                   ", \"sum\": " + std::to_string(h->sum()) +
                   ", \"buckets\": [";
            for (size_t b = 0; b < ObsHistogram::kBuckets; ++b) {
                if (b)
                    out += ", ";
                out += std::to_string(h->bucket(b));
            }
            out += "]}";
            first = false;
        }
        uint64_t buffered = 0, dropped = 0;
        for (const auto& l : r.lanes) {
            buffered += l->spans.size();
            dropped += l->dropped;
        }
        out += "\n  },\n  \"spans\": {\"buffered\": " +
               std::to_string(buffered) +
               ", \"dropped\": " + std::to_string(dropped) + "}\n}\n";
    }
    return writeFileAtomic(path, out);
}

bool
obsWriteTrace(const std::string& path)
{
    Registry& r = reg();
    std::string out;
    {
        std::lock_guard<std::mutex> lk(r.mu);
        uint64_t pid = static_cast<uint64_t>(::getpid());
        out += "{\"traceEvents\":[\n";
        bool first = true;
        uint64_t tid = 1;
        for (const auto& l : r.lanes) {
            std::string pidTid = "\"pid\":" + std::to_string(pid) +
                                 ",\"tid\":" + std::to_string(tid);
            out += first ? "" : ",\n";
            first = false;
            out += "{\"ph\":\"M\",\"name\":\"thread_name\"," + pidTid +
                   ",\"args\":{\"name\":\"" + jsonEscape(l->name) + "\"}}";
            for (const SpanRec& s : l->spans) {
                out += ",\n{\"ph\":\"X\"," + pidTid +
                       ",\"ts\":" + std::to_string(s.startUs) +
                       ",\"dur\":" + std::to_string(s.durUs) +
                       ",\"name\":\"" + jsonEscape(s.name) +
                       "\",\"cat\":\"" + jsonEscape(s.cat) + "\"}";
            }
            ++tid;
        }
        out += "\n]}\n";
    }
    return writeFileAtomic(path, out);
}

bool
obsSavePartial(const std::string& path, const std::string& lane_override)
{
    Registry& r = reg();
    std::string out(kPartialHeader);
    size_t records = 0;
    auto record = [&](const std::string& line) {
        out += line;
        out += '\n';
        ++records;
    };
    {
        std::lock_guard<std::mutex> lk(r.mu);
        for (const auto& [name, c] : r.counters) {
            if (c->value() != 0)
                record("C " + name + " " + std::to_string(c->value()));
        }
        for (const auto& [name, h] : r.histograms) {
            if (h->count() == 0)
                continue;
            std::string line = "H " + name + " " +
                               std::to_string(h->count()) + " " +
                               std::to_string(h->sum());
            for (size_t b = 0; b < ObsHistogram::kBuckets; ++b) {
                line += ' ';
                line += std::to_string(h->bucket(b));
            }
            record(line);
        }
        uint64_t dropped = 0;
        for (const auto& l : r.lanes) {
            dropped += l->dropped;
            for (const SpanRec& s : l->spans) {
                record("S " +
                       (lane_override.empty() ? l->name : lane_override) +
                       " " + std::to_string(s.startUs) + " " +
                       std::to_string(s.durUs) + " " + std::string(s.cat) +
                       " " + std::string(s.name));
            }
        }
        if (dropped != 0)
            record("D " + std::to_string(dropped));
    }
    // The trailing count seals the file: a partial cut at any byte (a
    // torn write) lacks it or mismatches it, and the merge rejects it.
    out += "E " + std::to_string(records) + "\n";
    return writeFileAtomic(path, out);
}

bool
obsMergePartial(const std::string& path)
{
    std::string text;
    if (!readFileText(path, text) || text.rfind(kPartialHeader, 0) != 0)
        return false;

    // Parse every line into a staged update and apply them only once the
    // whole file has parsed and its trailing record count matches: a torn
    // or mangled partial is rejected whole, never half-applied.
    std::vector<std::function<void()>> staged;
    bool sealed = false;
    size_t pos = kPartialHeader.size();
    while (pos < text.size()) {
        size_t eol = text.find('\n', pos);
        if (eol == std::string::npos || sealed)
            return false; // cut mid-line, or bytes after the seal
        std::string line = text.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.empty())
            return false;
        std::vector<std::string> f;
        size_t start = 0;
        // Spans carry the free-text name last; split only the leading
        // fields and keep the remainder intact.
        size_t maxFields = line[0] == 'S' ? 5 : (line[0] == 'H' ? 999 : 3);
        while (f.size() + 1 < maxFields) {
            size_t sp = line.find(' ', start);
            if (sp == std::string::npos)
                break;
            f.push_back(line.substr(start, sp - start));
            start = sp + 1;
        }
        f.push_back(line.substr(start));

        if (f[0] == "C" && f.size() == 3) {
            uint64_t v;
            if (!parseU64Field(f[2], v))
                return false;
            staged.push_back([name = f[1], v] { obsCounter(name).merge(v); });
        } else if (f[0] == "H" &&
                   f.size() == 4 + ObsHistogram::kBuckets) {
            // H name count sum b0..b31
            uint64_t count, sum;
            std::array<uint64_t, ObsHistogram::kBuckets> buckets;
            if (!parseU64Field(f[2], count) || !parseU64Field(f[3], sum))
                return false;
            for (size_t b = 0; b < ObsHistogram::kBuckets; ++b) {
                if (!parseU64Field(f[4 + b], buckets[b]))
                    return false;
            }
            staged.push_back([name = f[1], count, sum, buckets] {
                obsHistogram(name).merge(count, sum, buckets.data());
            });
        } else if (f[0] == "S" && f.size() == 5) {
            // S lane start dur cat name...
            size_t sp3 = f[4].find(' ');
            if (sp3 == std::string::npos)
                return false;
            uint64_t startUs, durUs;
            if (!parseU64Field(f[2], startUs) ||
                !parseU64Field(f[3], durUs))
                return false;
            staged.push_back([lane = f[1], cat = f[4].substr(0, sp3),
                              name = f[4].substr(sp3 + 1), startUs, durUs] {
                obsEmitSpan(lane, name, cat, startUs, durUs);
            });
        } else if (f[0] == "D" && f.size() == 2) {
            uint64_t dropped;
            if (!parseU64Field(f[1], dropped))
                return false;
            staged.push_back([dropped] {
                Registry& r = reg();
                std::lock_guard<std::mutex> lk(r.mu);
                namedLaneLocked(r, "merged").dropped += dropped;
            });
        } else if (f[0] == "E" && f.size() == 2) {
            uint64_t records;
            if (!parseU64Field(f[1], records) || records != staged.size())
                return false;
            sealed = true;
        } else {
            return false;
        }
    }
    if (!sealed)
        return false;
    for (const auto& apply : staged)
        apply();
    return true;
}

// ----------------------------------------------------------- progress

void
obsProgressBegin(const ObsProgressConfig& cfg)
{
    ProgressState& p = progress();
    std::lock_guard<std::mutex> lk(p.mu);
    p.label = cfg.label;
    p.statusPath = cfg.statusPath;
    p.total = cfg.total;
    p.intervalSec = cfg.intervalSec;
    p.doneLocal = 0;
    p.doneExternal = 0;
    p.ops = 0;
    p.beginUs = obsdetail::obsNowUs();
    p.lastReportUs = p.beginUs;
    p.lastReportOps = 0;
    p.lastStatusUs = 0;
    p.reported = false;
    bool active = cfg.total > 0 &&
                  (cfg.intervalSec > 0 || !cfg.statusPath.empty());
    // No status.json write here: the first waits for the first progress
    // event, after the sweep's manifest commit, so this best-effort file
    // never takes an atomic.* fault ahead of the manifest.
    progressActive.store(active, std::memory_order_relaxed);
}

void
obsProgressCellDone(uint64_t ops)
{
    if (!progressActive.load(std::memory_order_relaxed))
        return;
    ProgressState& p = progress();
    std::lock_guard<std::mutex> lk(p.mu);
    ++p.doneLocal;
    p.ops += ops;
    progressEmitLocked(p, /*final=*/false);
}

void
obsProgressUpdate(size_t done)
{
    if (!progressActive.load(std::memory_order_relaxed))
        return;
    ProgressState& p = progress();
    std::lock_guard<std::mutex> lk(p.mu);
    p.doneExternal = std::max(p.doneExternal, done);
    progressEmitLocked(p, /*final=*/false);
}

void
obsProgressNoteOps(uint64_t ops)
{
    if (!progressActive.load(std::memory_order_relaxed))
        return;
    ProgressState& p = progress();
    std::lock_guard<std::mutex> lk(p.mu);
    p.ops += ops;
}

void
obsProgressEnd()
{
    if (!progressActive.load(std::memory_order_relaxed))
        return;
    progressActive.store(false, std::memory_order_relaxed);
    ProgressState& p = progress();
    std::lock_guard<std::mutex> lk(p.mu);
    size_t done = std::max(p.doneLocal, p.doneExternal);
    p.doneExternal = std::max(done, p.total);
    progressEmitLocked(p, /*final=*/true);
}

std::string
obsReadStatus(const std::string& path)
{
    std::string text;
    if (!readFileText(path, text))
        return "";
    return text;
}

std::string
obsFormatStatus(const std::string& json)
{
    std::string experiment, state;
    std::optional<double> doneField = flatJsonNumber(json, "cells_done");
    std::optional<double> totalField = flatJsonNumber(json, "cells_total");
    if (!jsonStrField(json, "experiment", experiment) ||
        !jsonStrField(json, "state", state) || !doneField || !totalField)
        return "";
    double done = *doneField, total = *totalField;
    double mops = flatJsonNumber(json, "mops").value_or(0.0);
    double eta = flatJsonNumber(json, "eta_sec").value_or(0.0);
    double elapsed = flatJsonNumber(json, "elapsed_sec").value_or(0.0);
    std::string owner;
    jsonStrField(json, "owner", owner);

    double pct = total > 0 ? 100.0 * done / total : 0.0;
    char buf[512];
    if (state == "done") {
        std::snprintf(buf, sizeof(buf),
                      "sweep '%s': done — %.0f/%.0f cells, %.2f Mops/s, "
                      "%.1fs elapsed%s%s",
                      experiment.c_str(), done, total, mops, elapsed,
                      owner.empty() ? "" : ", owner ", owner.c_str());
    } else {
        std::snprintf(buf, sizeof(buf),
                      "sweep '%s': %s — %.0f/%.0f cells (%.1f%%), %.2f "
                      "Mops/s, eta %.0fs, %.1fs elapsed%s%s",
                      experiment.c_str(), state.c_str(), done, total, pct,
                      mops, eta, elapsed, owner.empty() ? "" : ", owner ",
                      owner.c_str());
    }
    return buf;
}

} // namespace constable
