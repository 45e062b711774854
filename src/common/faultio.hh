/**
 * @file
 * Deterministic fault injection for every filesystem touchpoint: the
 * robustness proof-layer behind `tools/constable-faultsweep`, and the home
 * of the whole-file primitives (writeFileAtomic, readFileBytes,
 * readFileText) through which the program commits and reads every file.
 *
 * Each I/O call site (atomic writes, checkpoint cell, sweep manifest and
 * trace-cache reads/writes) names a *fault point* from the
 * central registry (faultPointTable()) and asks faultFailed() whether an
 * armed FaultPlan wants to inject a failure there. With no plan armed —
 * the production and CI-perf configuration — every check is a single
 * relaxed atomic load and a predicted branch, so the shim adds nothing
 * measurable to paths that are about to issue real syscalls anyway.
 *
 * A plan comes from CONSTABLE_FAULT_PLAN (or --fault-plan, or
 * installFaultPlan() in tests) with the grammar
 *
 *     plan   := clause (';' clause)*            (',' also accepted)
 *     clause := point ':' action ['@' N]
 *     action := eio | torn | crash
 *
 *  - eio fails the point's first N hits (default 1), then heals: the
 *    transient-failure model the retry schedule must absorb.
 *  - torn arms a torn-write for the first N hits: the next atomic write
 *    silently commits only half its payload (rename still happens), the
 *    corruption the trailing checksums must catch.
 *  - crash calls _Exit(kFaultCrashExitCode) on the point's N-th hit. When
 *    CONSTABLE_FAULT_MARKER_DIR is set, the crash first creates a marker
 *    file there with O_EXCL; an existing marker disarms the crash, so a
 *    re-launched process recovers instead of crash-looping.
 *
 * Each crash, and the first eio/torn of each clause, prints one
 * "faultio: injected ..." line on stderr naming the point and, inside
 * writeFileAtomic, the file being written.
 *
 * Unknown point or action names fatal() at parse time. Injection
 * decisions use no wall clock and no ambient randomness: a clause fires
 * on the N-th evaluation of its point in this process. One input is
 * timed, though: a checkpointed sweep rewrites status.json about once a
 * second, and those writes pass the atomic.* points too, so which file
 * an atomic.* clause with N > 1 hits can vary from run to run (a sweep
 * commits its manifest before any status.json; see README, "Fault
 * injection & recovery").
 */

#ifndef CONSTABLE_COMMON_FAULTIO_HH
#define CONSTABLE_COMMON_FAULTIO_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace constable {

/** Exit code of an injected crash point (distinguishable from fatal()'s
 *  exit 1 and from a real signal death in the faultsweep driver). */
inline constexpr int kFaultCrashExitCode = 86;

/** What an armed plan wants a call site to do. Call sites only ever see
 *  Eio (as `true` from faultFailed); Torn is delivered through the
 *  pending torn-write flag, and Crash never returns. */
enum class FaultAction : uint8_t { None, Eio, Torn, Crash };

/** One registered fault point. `kind` drives which actions the faultsweep
 *  driver arms: "read" and "sync" take eio+crash, "write" takes
 *  eio+torn+crash. */
struct FaultPointInfo
{
    const char* name; ///< e.g. "ckpt.cell.commit" (the faultFailed() key)
    const char* kind; ///< "read" | "write" | "sync"
    const char* site; ///< human description of the call site
};

/** The central compiled-in registry of every fault point. Call sites must
 *  use names from this table (checked when a plan is armed), and the
 *  faultsweep driver enumerates it — a point added here without a call
 *  site shows up as never-hit in the sweep. */
const std::vector<FaultPointInfo>& faultPointTable();

namespace detail {

/** Armed flag (relaxed: arming happens-before any injected check the
 *  caller cares about via the plan-install path). */
extern std::atomic<bool> faultArmed;

bool faultFailedSlow(const char* point);
void faultEnsureEnvPlan();

} // namespace detail

/**
 * The main hook: returns true when the armed plan injects a transient
 * failure (EIO) at this point — the call site then behaves exactly
 * as if the corresponding syscall failed. Torn arms the pending torn-write
 * flag and returns false; crash does not return.
 * With no plan armed this is one atomic load.
 */
inline bool
faultFailed(const char* point)
{
    if (!detail::faultArmed.load(std::memory_order_relaxed))
        return false;
    return detail::faultFailedSlow(point);
}

/** Consume the thread-local pending torn-write flag (set by a Torn clause
 *  at any point on this thread). writeFileAtomic() calls this once per
 *  write; true means "commit only half the payload, report success". */
bool faultConsumeTorn();

// ------------------------------------------------------ whole-file I/O

/**
 * The atomic-write primitive behind every file this program commits
 * (trace cache, checkpoint cells, manifests, obs outputs, perf
 * recordings): bytes go to a tmp file named with a PID +
 * per-process-random suffix (safe when many processes write the same
 * entry concurrently), and the rename is the commit point. With
 * durable=true the tmp file is fsync'd before the rename (and the
 * directory after it), so a renamed file survives a crash with its full
 * contents — the invariant the sharded-sweep merge relies on: a visible
 * cell file is either complete or fails its checksum. The atomic.* fault
 * points fire here, for every caller. Returns false on I/O failure.
 */
bool writeFileAtomic(const std::string& path,
                     const std::vector<uint8_t>& bytes,
                     bool durable = false);

/** writeFileAtomic for text payloads (same contract). */
bool writeFileAtomic(const std::string& path, const std::string& text,
                     bool durable = false);

/** Read a whole file into @p bytes; false on missing/unreadable files.
 *  The only sanctioned way to slurp a file (see the lint raw-io rule);
 *  an empty file reads as an empty buffer, not an error. */
bool readFileBytes(const std::string& path, std::vector<uint8_t>& bytes);

/** Read a whole file as text (same contract as readFileBytes). */
bool readFileText(const std::string& path, std::string& out);

/** True when any fault plan is currently armed. */
bool faultPlanArmed();

/**
 * Arm a plan programmatically (tests, --fault-plan). Replaces any armed
 * plan; fatal() on malformed specs or unknown point/action names.
 * @p marker_dir backs crash-once markers (empty: crashes always fire).
 */
void installFaultPlan(const std::string& spec,
                      const std::string& marker_dir = "");

/** Disarm and forget the current plan (test teardown). */
void clearFaultPlan();

/** Force the lazy CONSTABLE_FAULT_PLAN / CONSTABLE_FAULT_MARKER_DIR load
 *  now, so a malformed env plan dies at startup instead of at the first
 *  I/O (ExperimentOptions::fromEnv calls this). */
void faultLoadEnvPlan();

/** Times the named point was evaluated while a plan was armed (armed
 *  clauses only; 0 for unknown or never-hit points). */
uint64_t faultPointHits(const std::string& point);

/** (point, hits) for every clause of the armed plan, in plan order. */
std::vector<std::pair<std::string, uint64_t>> faultArmedHits();

// ------------------------------------------------------------ fixed retry

/**
 * The sleeps between the 4 tries of retryWithBackoff(). Retries follow an
 * I/O error, never a lost race (an atomic rename cannot lose one), so the
 * schedule is fixed: no jitter to spread contending writers apart.
 */
inline constexpr unsigned kRetrySleepMs[] = { 5, 10, 20 };

/** Sleep hook: tests swap in a counting no-op so retry paths run at full
 *  speed and deterministically under TSan. Returns the previous hook;
 *  nullptr restores the real sleep. */
using FaultSleepFn = void (*)(unsigned ms);
FaultSleepFn setFaultSleepFn(FaultSleepFn fn);

/** Sleep via the current hook (default: std::this_thread::sleep_for). */
void faultSleepMs(unsigned ms);

/**
 * Observer invoked after each retryWithBackoff() sleep with the point
 * name and the delay just taken. The observability tier (common/obs)
 * installs one at arm time to count retries and reconstruct backoff
 * spans; faultio itself never depends on obs. Relaxed atomic: the
 * unobserved path costs one load.
 */
using FaultRetryObserver = void (*)(const char* point, unsigned ms);

namespace detail {
extern std::atomic<FaultRetryObserver> retryObserver;
} // namespace detail

/** Install (or clear, with nullptr) the retry observer; returns the
 *  previous one. */
FaultRetryObserver setFaultRetryObserver(FaultRetryObserver fn);

/**
 * Run `fn` until it returns true, up to 4 tries, sleeping kRetrySleepMs
 * between them. Returns the final outcome. The transient-failure absorber
 * for checkpoint commits and manifest writes.
 */
template <typename Fn>
bool
retryWithBackoff(const char* point, Fn&& fn)
{
    for (unsigned ms : kRetrySleepMs) {
        if (fn())
            return true;
        faultSleepMs(ms);
        if (FaultRetryObserver ob =
                detail::retryObserver.load(std::memory_order_relaxed))
            ob(point, ms);
    }
    return fn();
}

} // namespace constable

#endif
