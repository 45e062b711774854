/**
 * @file
 * Observability tier: a registry of named counters, a per-thread
 * ring-buffer span recorder that emits Chrome trace-event / Perfetto
 * JSON, and live sweep progress with an atomically rewritten
 * status.json. Every file obs writes (status.json, metrics, traces, shard
 * partials) commits through writeFileAtomic (common/faultio.hh), so the
 * atomic.* fault points cover it too.
 *
 * Everything here lives strictly *outside* the simulated state: no obs
 * object ever reaches RunResult or a StatSet, so arming observability can
 * never perturb golden-snapshot fingerprints. The disabled path follows
 * the same discipline as common/faultio: one relaxed atomic load and a
 * predicted branch, so a disarmed build costs nothing measurable
 * (perfbench's untraced passes run with obs compiled in and disarmed).
 *
 * Arming happens through --trace-out / --metrics-out (or the
 * CONSTABLE_TRACE_OUT / CONSTABLE_METRICS_OUT env knobs): either output
 * path arms the registry and registers an atexit writer for the requested
 * files. Fork-based shard workers save their spans and counters as a
 * partial file which the coordinator merges, so one trace holds a lane
 * per shard process next to the coordinator's pool-worker lanes.
 *
 * Call sites keep a function-local static reference so the registry
 * lookup (a mutex + map) happens once per site:
 *
 *     static ObsCounter& hits = obsCounter("trace.cache.hit");
 *     hits.add();                       // armed-gated relaxed fetch_add
 *
 *     { ObsSpan span("cell.compute", "cell"); ... }  // RAII slice
 */

#ifndef CONSTABLE_COMMON_OBS_HH
#define CONSTABLE_COMMON_OBS_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace constable {

namespace obsdetail {

/** Armed flag; relaxed everywhere (observability tolerates races). */
extern std::atomic<bool> obsArmedFlag;

/** Microseconds since the process's obs epoch (steady clock). */
uint64_t obsNowUs();

/** Record a finished span on the calling thread's ring buffer. */
void obsRecordSpan(const char* name, const char* cat, uint64_t start_us,
                   uint64_t dur_us);

} // namespace obsdetail

/** True when any obs output (trace or metrics) is armed. */
inline bool
obsArmed()
{
    return obsdetail::obsArmedFlag.load(std::memory_order_relaxed);
}

/** Arm the registry without configuring outputs (tests). */
void obsArm();

/** Set output paths and arm when either is non-empty; registers the
 *  atexit writer once. Later calls override earlier paths (CLI over env). */
void obsConfigureOutputs(const std::string& trace_out,
                         const std::string& metrics_out);

/** Disarm and clear every counter, span, lane, progress state and output
 *  path (test teardown). */
void obsReset();

/** Monotonic counter. Stable address for the process lifetime. */
class ObsCounter
{
  public:
    void
    add(uint64_t n = 1)
    {
        if (!obsArmed())
            return;
        v_.fetch_add(n, std::memory_order_relaxed);
    }

    uint64_t value() const { return v_.load(std::memory_order_relaxed); }
    void reset() { v_.store(0, std::memory_order_relaxed); }

    /** Ungated add for merging shard partials (not a hot path). */
    void merge(uint64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> v_ { 0 };
};

/** Registry lookup: one mutex-guarded map hit per call, so call sites
 *  should cache the reference in a function-local static. Names must be
 *  stable for the process lifetime (string literals). */
ObsCounter& obsCounter(const std::string& name);

/** RAII span: a complete ("ph":"X") slice on the calling thread's lane
 *  from construction to destruction. Ring overflow drops the span and
 *  counts it (obsSpansDropped). `name` and `cat` must be string literals
 *  (stored by pointer). */
class ObsSpan
{
  public:
    explicit ObsSpan(const char* name, const char* cat = "sim")
        : name_(name), cat_(cat),
          startUs_(obsArmed() ? obsdetail::obsNowUs() : 0),
          armed_(obsArmed())
    {}

    ~ObsSpan()
    {
        if (armed_) {
            obsdetail::obsRecordSpan(name_, cat_, startUs_,
                                     obsdetail::obsNowUs() - startUs_);
        }
    }

    ObsSpan(const ObsSpan&) = delete;
    ObsSpan& operator=(const ObsSpan&) = delete;

  private:
    const char* name_;
    const char* cat_;
    uint64_t startUs_;
    bool armed_;
};

/** Name the calling thread's trace lane ("pool-3", "shard-1", ...). A
 *  thread without a lane yet joins an existing lane of that name, so
 *  threads that take turns at one role share one lane. The first thread
 *  to record anything without naming itself is "main". */
void obsSetThreadLane(const std::string& lane);

/** Append a span with explicit timing to a named (possibly synthetic)
 *  lane — merged shard partials, fault-backoff sleeps reconstructed after
 *  the fact. Empty lane = the calling thread's lane. Mutex-guarded, so
 *  keep this off hot paths. */
void obsEmitSpan(const std::string& lane, const std::string& name,
                 const std::string& cat, uint64_t start_us, uint64_t dur_us);

/** Current time on the obs span timeline (microseconds since the process
 *  epoch) — the clock obsEmitSpan() timestamps live on. */
inline uint64_t
obsTimestampUs()
{
    return obsdetail::obsNowUs();
}

/** Spans dropped to ring overflow, across all lanes (plus merged
 *  partials). */
uint64_t obsSpansDropped();

/** Total spans currently buffered across all lanes. */
uint64_t obsSpanCount();

/** Write a metrics snapshot: sorted-key JSON of every counter, committed through writeFileAtomic (so the atomic.* fault
 *  points cover it). False on I/O failure. */
bool obsWriteMetrics(const std::string& path);

/** Write all buffered spans as Chrome trace-event JSON ("traceEvents"
 *  array plus thread_name metadata per lane), loadable by Perfetto and
 *  chrome://tracing. Atomic. False on I/O failure. */
bool obsWriteTrace(const std::string& path);

/** Serialize this process's spans + counters to a line-oriented partial file sealed by a trailing record count; every
 *  thread-lane span is relabelled to `lane_override` (fork children:
 *  "shard-<k>"). Committed through writeFileAtomic. */
bool obsSavePartial(const std::string& path,
                    const std::string& lane_override);

/** Merge a partial written by obsSavePartial into this process: counters
 *  add, spans append under their recorded lanes. All or
 *  nothing: false, with nothing applied, unless every line parses and the
 *  trailing record count matches (a torn partial is rejected whole). */
bool obsMergePartial(const std::string& path);

// ------------------------------------------------------- live progress

/** Configuration for one sweep's progress reporting. */
struct ObsProgressConfig
{
    std::string label;      ///< experiment name (status.json "experiment")
    size_t total = 0;       ///< total cells
    std::string statusPath; ///< status.json path; empty disables the file
    /** Min seconds between one-line stderr reports; 0 disables them. */
    unsigned intervalSec = 10;
};

/** Begin progress tracking; replaces any previous sweep's state. Passive:
 *  starts no threads. Only the process that runs the sweep reports. */
void obsProgressBegin(const ObsProgressConfig& cfg);

/** `cells` more cells are done (never past the total) and `ops`
 *  simulated instructions feed the rolling Mops/s; prints the stderr line
 *  and rewrites status.json when their intervals have elapsed. */
void obsProgressAdd(size_t cells, uint64_t ops);

/** Final update: marks state "done" in status.json and prints a closing
 *  report line if reporting is enabled. */
void obsProgressEnd();

/** Read a status.json (returns "" when missing/unreadable). */
std::string obsReadStatus(const std::string& path);

/** Human-readable rendering of a status.json payload (the
 *  `constable-sweep --status` verb). Returns "" on unparsable input. */
std::string obsFormatStatus(const std::string& json);

} // namespace constable

#endif
