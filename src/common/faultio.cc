#include "common/faultio.hh"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <random>
#include <system_error>
#include <thread>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/rng.hh"

namespace constable {

const std::vector<FaultPointInfo>&
faultPointTable()
{
    // Every filesystem touchpoint, named. The faultsweep driver arms each
    // of these in turn; a new I/O call site must register here (and a
    // registered point must keep a live call site, or the sweep reports
    // it as never-hit).
    static const std::vector<FaultPointInfo> table = {
        { "atomic.tmp.open", "write",
          "writeFileAtomic: creating the tmp file" },
        { "atomic.tmp.write", "write",
          "writeFileAtomic: writing the payload into the tmp file" },
        { "atomic.tmp.fsync", "sync",
          "writeFileAtomic: fsync of the tmp file before the commit" },
        { "atomic.commit.rename", "write",
          "writeFileAtomic: the rename that commits the file" },
        { "atomic.dir.fsync", "sync",
          "writeFileAtomic: directory fsync after the commit rename" },
        { "trace.cache.read", "read",
          "loadTrace: reading a trace-cache entry" },
        { "trace.cache.write", "write",
          "saveTrace: writing a trace-cache entry" },
        { "ckpt.cell.read", "read",
          "loadRunResult: reading a checkpoint cell" },
        { "ckpt.cell.commit", "write",
          "saveRunResult: committing a checkpoint cell" },
        { "sweep.manifest.read", "read",
          "loadManifest: reading a sweep manifest" },
        { "sweep.manifest.write", "write",
          "saveManifest: writing a sweep manifest" },
    };
    return table;
}

namespace detail {

std::atomic<bool> faultArmed { false };
std::atomic<FaultRetryObserver> retryObserver { nullptr };

} // namespace detail

namespace {

struct FaultClause
{
    std::string point;
    FaultAction action = FaultAction::None;
    /** eio/enospc/torn: inject while hits <= param; crash: fire on the
     *  param-th hit. */
    uint64_t param = 1;
    uint64_t hits = 0;
    bool announced = false; ///< first injection already reported
};

struct FaultState
{
    std::mutex mu;
    std::vector<FaultClause> clauses;
    std::string markerDir;
    uint64_t seed = 0x5eedfa17ull;
};

/** Never destroyed: the obs atexit writers commit through writeFileAtomic
 *  and may run after the static destructors of anything constructed
 *  later than their registration, which a CLI --fault-plan can be. */
FaultState&
state()
{
    static FaultState* s = new FaultState;
    return *s;
}

thread_local bool tl_tornPending = false;

/** The file writeAtomic() is committing on this thread (null outside it),
 *  so an injection notice can name the write a fault hit. */
thread_local const std::string* tl_writing = nullptr;

/** One stderr line per injection that matters to a reader of the log: a
 *  crash, and the first eio/enospc/torn of each clause. constable-
 *  faultsweep reads it back to check which file a fault landed on. */
void
announceInjection(const char* action, const char* point)
{
    std::fprintf(stderr, "faultio: injected %s at fault point '%s'%s%s%s\n",
                 action, point, tl_writing ? " while writing '" : "",
                 tl_writing ? tl_writing->c_str() : "",
                 tl_writing ? "'" : "");
}

/** Marker-file-safe spelling of a point name. */
std::string
markerName(const std::string& point)
{
    std::string s = point;
    for (char& c : s) {
        bool keep = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9');
        if (!keep)
            c = '_';
    }
    return s;
}

bool
knownPoint(const std::string& name)
{
    for (const FaultPointInfo& p : faultPointTable()) {
        if (name == p.name)
            return true;
    }
    return false;
}

FaultAction
parseAction(const std::string& s, const std::string& clause)
{
    if (s == "eio")
        return FaultAction::Eio;
    if (s == "enospc")
        return FaultAction::Enospc;
    if (s == "torn")
        return FaultAction::Torn;
    if (s == "crash")
        return FaultAction::Crash;
    fatal("fault plan clause '" + clause + "': unknown action '" + s +
          "' (eio|enospc|torn|crash)");
}

/** Parse "point:action[@N]" clauses joined by ';' or ','. */
std::vector<FaultClause>
parsePlan(const std::string& spec)
{
    std::vector<FaultClause> out;
    size_t pos = 0;
    while (pos <= spec.size()) {
        size_t end = spec.find_first_of(";,", pos);
        if (end == std::string::npos)
            end = spec.size();
        std::string clause = spec.substr(pos, end - pos);
        pos = end + 1;
        // Trim surrounding spaces; empty clauses (trailing ';') are ok.
        while (!clause.empty() && clause.front() == ' ')
            clause.erase(clause.begin());
        while (!clause.empty() && clause.back() == ' ')
            clause.pop_back();
        if (clause.empty()) {
            if (pos > spec.size())
                break;
            continue;
        }
        size_t colon = clause.find(':');
        if (colon == std::string::npos || colon == 0 ||
            colon + 1 >= clause.size()) {
            fatal("fault plan clause '" + clause +
                  "' is not point:action[@N] (see README, \"Fault "
                  "injection & recovery\")");
        }
        FaultClause c;
        c.point = clause.substr(0, colon);
        std::string actionStr = clause.substr(colon + 1);
        size_t at = actionStr.find('@');
        if (at != std::string::npos) {
            c.param = parseU64Strict("fault plan clause '" + clause + "'",
                                     actionStr.substr(at + 1));
            actionStr = actionStr.substr(0, at);
        }
        c.action = parseAction(actionStr, clause);
        if (c.param == 0) {
            fatal("fault plan clause '" + clause +
                  "': @N must be >= 1 for " + actionStr);
        }
        if (!knownPoint(c.point)) {
            fatal("fault plan clause '" + clause +
                  "': unknown fault point '" + c.point +
                  "' (constable-faultsweep --list prints the registry)");
        }
        out.push_back(std::move(c));
    }
    return out;
}

/** Crash-once gate: create the point's marker with O_CREAT|O_EXCL. True
 *  means this process won the creation and must crash; false means an
 *  earlier launch already crashed here, so the crash is disarmed. Checked
 *  at fire time, not install time, so a re-launched (or forked) process
 *  sees crashes its predecessors already took. */
bool
claimCrashMarker(const std::string& marker_dir, const std::string& point)
{
    if (marker_dir.empty())
        return true; // no marker dir: crash every time
    std::string path = marker_dir + "/crash-" + markerName(point);
    std::FILE* f = std::fopen(path.c_str(), "wbx");
    if (!f)
        return false;
    std::fclose(f);
    return true;
}

void
installLocked(FaultState& s, const std::string& spec,
              const std::string& marker_dir)
{
    s.clauses = parsePlan(spec);
    s.markerDir = marker_dir;
    if (auto v = envU64("CONSTABLE_FAULT_SEED"))
        s.seed = *v;
    detail::faultArmed.store(!s.clauses.empty(),
                             std::memory_order_relaxed);
}

/** One-time lazy pickup of the env plan (call sites reach faultFailed()
 *  long before any CLI parsing, e.g. in tests). */
void
ensureEnvPlanOnce()
{
    static const bool loaded = [] {
        auto plan = envStr("CONSTABLE_FAULT_PLAN");
        if (!plan)
            return true;
        FaultState& s = state();
        std::lock_guard<std::mutex> lk(s.mu);
        if (s.clauses.empty()) {
            std::string marker =
                envStr("CONSTABLE_FAULT_MARKER_DIR").value_or("");
            installLocked(s, *plan, marker);
        }
        return true;
    }();
    (void)loaded;
}

FaultSleepFn&
sleepHook()
{
    static FaultSleepFn fn = nullptr;
    return fn;
}

/** Eager env pickup: faultFailed()'s fast path is a bare atomic load, so
 *  a CONSTABLE_FAULT_PLAN must be armed before the first check — at
 *  static init of this TU (linked into every binary via the call sites).
 *  A malformed plan dies loudly before main(). */
const bool g_envPlanLoaded = [] {
    ensureEnvPlanOnce();
    return true;
}();

} // namespace

namespace detail {

bool
faultFailedSlow(const char* point)
{
    FaultState& s = state();
    std::string marker;
    FaultAction act = FaultAction::None;
    bool first = false;
    {
        std::lock_guard<std::mutex> lk(s.mu);
        for (FaultClause& c : s.clauses) {
            if (c.point != point)
                continue;
            ++c.hits;
            switch (c.action) {
              case FaultAction::Eio:
              case FaultAction::Enospc:
              case FaultAction::Torn:
                if (c.hits <= c.param)
                    act = c.action;
                break;
              case FaultAction::Crash:
                if (c.hits == c.param) {
                    act = c.action;
                    marker = s.markerDir;
                }
                break;
              case FaultAction::None:
                break;
            }
            first = act != FaultAction::None && !c.announced;
            c.announced = c.announced || first;
            break;
        }
    }
    switch (act) {
      case FaultAction::Eio:
      case FaultAction::Enospc:
        if (first)
            announceInjection(act == FaultAction::Eio ? "eio" : "enospc",
                              point);
        return true;
      case FaultAction::Torn:
        if (first)
            announceInjection("torn", point);
        tl_tornPending = true;
        return false;
      case FaultAction::Crash:
        if (claimCrashMarker(marker, point)) {
            announceInjection("crash", point);
            std::fflush(nullptr);
            std::_Exit(kFaultCrashExitCode);
        }
        return false;
      default:
        return false;
    }
}

void
faultEnsureEnvPlan()
{
    ensureEnvPlanOnce();
}

} // namespace detail

bool
faultConsumeTorn()
{
    if (!tl_tornPending)
        return false;
    tl_tornPending = false;
    return true;
}

bool
faultPlanArmed()
{
    detail::faultEnsureEnvPlan();
    return detail::faultArmed.load(std::memory_order_relaxed);
}

void
installFaultPlan(const std::string& spec, const std::string& marker_dir)
{
    FaultState& s = state();
    std::lock_guard<std::mutex> lk(s.mu);
    installLocked(s, spec, marker_dir);
}

void
clearFaultPlan()
{
    FaultState& s = state();
    std::lock_guard<std::mutex> lk(s.mu);
    s.clauses.clear();
    s.markerDir.clear();
    detail::faultArmed.store(false, std::memory_order_relaxed);
    tl_tornPending = false;
}

void
faultLoadEnvPlan()
{
    detail::faultEnsureEnvPlan();
}

uint64_t
faultPointHits(const std::string& point)
{
    FaultState& s = state();
    std::lock_guard<std::mutex> lk(s.mu);
    uint64_t total = 0;
    for (const FaultClause& c : s.clauses) {
        if (c.point == point)
            total += c.hits;
    }
    return total;
}

std::vector<std::pair<std::string, uint64_t>>
faultArmedHits()
{
    FaultState& s = state();
    std::lock_guard<std::mutex> lk(s.mu);
    std::vector<std::pair<std::string, uint64_t>> out;
    for (const FaultClause& c : s.clauses)
        out.emplace_back(c.point, c.hits);
    return out;
}

unsigned
backoffDelayMs(const char* point, unsigned attempt, const BackoffPolicy& p)
{
    double delay = static_cast<double>(p.baseMs);
    for (unsigned k = 0; k < attempt; ++k)
        delay *= p.mult;
    // Jitter from a per-(point, attempt) stream: deterministic across
    // runs and threads (never wall clock or a global RNG), yet distinct
    // points desynchronize instead of thundering-herding their retries.
    uint64_t pointHash = 0xcbf29ce484222325ull;
    for (const char* c = point; *c; ++c) {
        pointHash ^= static_cast<uint8_t>(*c);
        pointHash *= 0x100000001b3ull;
    }
    uint64_t seed;
    {
        FaultState& s = state();
        std::lock_guard<std::mutex> lk(s.mu);
        seed = s.seed;
    }
    Rng rng(Rng::splitmix(seed ^ pointHash ^ attempt));
    delay *= 1.0 + p.jitterFrac * rng.uniform();
    delay = std::min(delay, static_cast<double>(p.capMs));
    return static_cast<unsigned>(delay);
}

FaultRetryObserver
setFaultRetryObserver(FaultRetryObserver fn)
{
    return detail::retryObserver.exchange(fn, std::memory_order_relaxed);
}

FaultSleepFn
setFaultSleepFn(FaultSleepFn fn)
{
    FaultSleepFn prev = sleepHook();
    sleepHook() = fn;
    return prev;
}

void
faultSleepMs(unsigned ms)
{
    FaultSleepFn fn = sleepHook();
    if (fn)
        fn(ms);
    else
        std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// ------------------------------------------------------ whole-file I/O

namespace {

/** Per-write unique tmp suffix: pid + process-random nonce + counter.
 *  Sharded sweeps have many processes (and threads) writing into one
 *  directory, possibly targeting the same entry (every shard worker
 *  rewrites status.json); a pid-only suffix would let two threads of one
 *  process collide. */
std::string
tmpSuffix()
{
    static const uint64_t nonce = [] {
        std::random_device rd;
        return (static_cast<uint64_t>(rd()) << 32) ^ rd();
    }();
    static std::atomic<uint64_t> counter { 0 };
    char buf[64];
    std::snprintf(buf, sizeof(buf), ".tmp.%llu.%08llx.%llu",
                  static_cast<unsigned long long>(::getpid()),
                  static_cast<unsigned long long>(nonce & 0xffffffffull),
                  static_cast<unsigned long long>(
                      counter.fetch_add(1, std::memory_order_relaxed)));
    return buf;
}

/** Flush a directory's metadata so a just-renamed entry survives a crash
 *  (best-effort: not every filesystem needs or supports it). */
void
fsyncDirOf(const std::string& path)
{
    std::filesystem::path dir = std::filesystem::path(path).parent_path();
    int fd = ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY);
    if (fd >= 0) {
        ::fsync(fd);
        ::close(fd);
    }
}

bool
writeAtomic(const std::string& path, const uint8_t* data, size_t size,
            bool durable)
{
    struct Writing
    {
        explicit Writing(const std::string& p) { tl_writing = &p; }
        ~Writing() { tl_writing = nullptr; }
    } writing(path);
    if (faultFailed("atomic.tmp.open"))
        return false;
    std::string tmp = path + tmpSuffix();
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        return false;
    if (faultFailed("atomic.tmp.write")) {
        std::fclose(f);
        std::remove(tmp.c_str());
        return false;
    }
    // A pending torn write (armed here or at a higher-level point like
    // ckpt.cell.commit:torn) silently commits half the payload: the write
    // and rename both "succeed", and only the trailing checksum can tell.
    size_t n = size;
    if (faultConsumeTorn())
        n /= 2;
    size_t wrote = n == 0 ? 0 : std::fwrite(data, 1, n, f);
    bool ok = wrote == n;
    if (ok && durable) {
        ok = std::fflush(f) == 0 && !faultFailed("atomic.tmp.fsync") &&
             ::fsync(::fileno(f)) == 0;
    }
    ok = (std::fclose(f) == 0) && ok;
    if (!ok) {
        std::remove(tmp.c_str());
        return false;
    }
    // Crash at atomic.commit.rename models death just before the commit
    // (an orphaned tmp file); crash at atomic.dir.fsync models death just
    // after it (the file is committed but its dir entry not yet synced).
    if (faultFailed("atomic.commit.rename")) {
        std::remove(tmp.c_str());
        return false;
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::remove(tmp.c_str());
        return false;
    }
    if (durable && !faultFailed("atomic.dir.fsync"))
        fsyncDirOf(path);
    return true;
}

} // namespace

bool
writeFileAtomic(const std::string& path, const std::vector<uint8_t>& bytes,
                bool durable)
{
    return writeAtomic(path, bytes.data(), bytes.size(), durable);
}

bool
writeFileAtomic(const std::string& path, const std::string& text,
                bool durable)
{
    return writeAtomic(path, reinterpret_cast<const uint8_t*>(text.data()),
                       text.size(), durable);
}

bool
readFileBytes(const std::string& path, std::vector<uint8_t>& bytes)
{
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    std::fseek(f, 0, SEEK_END);
    long sz = std::ftell(f);
    if (sz < 0) {
        std::fclose(f);
        return false;
    }
    std::fseek(f, 0, SEEK_SET);
    bytes.resize(static_cast<size_t>(sz));
    // A 0-byte file (a touched-but-never-written cell) must read as an
    // empty buffer, not fread into a null data() pointer.
    size_t got =
        bytes.empty() ? 0 : std::fread(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
    return got == bytes.size();
}

bool
readFileText(const std::string& path, std::string& out)
{
    std::vector<uint8_t> bytes;
    if (!readFileBytes(path, bytes))
        return false;
    out.assign(bytes.begin(), bytes.end());
    return true;
}

} // namespace constable
