#include "sim/shard.hh"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <system_error>
#include <thread>

#include "common/check.hh"
#include "common/env.hh"
#include "common/faultio.hh"
#include "common/logging.hh"
#include "common/obs.hh"

namespace constable {

namespace {

namespace fs = std::filesystem;

bool
fileExists(const std::string& path)
{
    std::error_code ec;
    return fs::exists(path, ec) && !ec;
}

void
sleepMs(unsigned ms)
{
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

LeaseRecord
makeLease(int shard_id)
{
    LeaseRecord r;
    r.owner = processOwnerTag();
    r.pid = static_cast<uint64_t>(::getpid());
    r.shardId = shard_id;
    r.acquiredUnixSec = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::seconds>(
            // informational lease timestamp only; expiry is judged from
            // the file's mtime, never from this field. lint:wallclock
            std::chrono::system_clock::now().time_since_epoch())
            .count());
    return r;
}

/**
 * Background mtime refresh of a held lease while its cell computes, so a
 * fleet can run lease TTLs far shorter than the worst-case cell time
 * (fast crash recovery) without a live worker's cell being benignly
 * double-computed by a reclaimer. The thread dies with the process
 * (SIGKILL included), leaving the mtime to go stale exactly as before --
 * crashed workers' cells are still reclaimed.
 */
class LeaseHeartbeat
{
  public:
    LeaseHeartbeat(std::string path, unsigned ttl_sec)
        : path_(std::move(path)),
          interval_(std::max(50u, ttl_sec * 1000u / 4))
    {
        thread_ = std::thread([this] { loop(); });
    }

    ~LeaseHeartbeat()
    {
        {
            std::lock_guard<std::mutex> lk(mu_);
            stop_ = true;
        }
        cv_.notify_one();
        thread_.join();
    }

    LeaseHeartbeat(const LeaseHeartbeat&) = delete;
    LeaseHeartbeat& operator=(const LeaseHeartbeat&) = delete;

  private:
    void
    loop()
    {
        std::unique_lock<std::mutex> lk(mu_);
        while (!cv_.wait_for(lk, interval_, [this] { return stop_; })) {
            // An injected heartbeat failure models a stalled refresh: the
            // mtime goes stale, the lease gets reclaimed, and the commit
            // path's ownership check must catch the loss.
            if (faultFailed("lease.heartbeat"))
                continue;
            std::error_code ec;
            fs::last_write_time(path_, fs::file_time_type::clock::now(),
                                ec);
            static ObsCounter& beats = obsCounter("lease.heartbeats");
            beats.add();
        }
    }

    std::string path_;
    std::chrono::milliseconds interval_;
    std::thread thread_;
    std::mutex mu_;
    std::condition_variable cv_;
    bool stop_ = false;
};

/**
 * Lease age for the claim loop, guarded against clock skew between the
 * mtime writer and this reader (distinct machines on a shared filesystem,
 * or an injected "lease.age" skew clause). A raw negative age on an
 * existing file means the mtime is ahead of our clock: clamp to 0 (the
 * lease reads as freshly refreshed, never as reclaimable), count it, and
 * warn once the skew is large enough to distort expiry decisions. Missing
 * files keep leaseAgeSeconds' negative sentinel untouched.
 */
double
guardedLeaseAge(const std::string& path, double ttl, ShardOutcome& outcome)
{
    double age = leaseAgeSeconds(path) - faultSkewSeconds("lease.age");
    if (age >= 0.0 || !fileExists(path))
        return age;
    ++outcome.skewClamped;
    if (-age > ttl / 2) {
        // Once per lease path: the claim loop polls this every pollMs.
        warnOnce("lease-skew:" + path,
                 "lease '" + path + "' mtime is " + std::to_string(-age) +
                     "s in the future (clock skew beyond TTL/2); treating "
                     "as fresh");
    }
    return 0.0;
}

/**
 * Mean observed per-config compute seconds from the `.cost` sidecars
 * committed next to cell checkpoints (workerPass writes one per computed
 * cell). Resumed or partially complete sweeps thus order claims by what
 * cells of THIS sweep actually cost on THIS machine. Sidecars that are
 * missing, non-numeric or non-positive are skipped; empty when none is
 * usable.
 */
std::vector<double>
observedConfigCosts(const std::string& dir, const SweepManifest& m)
{
    std::vector<double> sum(m.numConfigs, 0.0);
    std::vector<size_t> cnt(m.numConfigs, 0);
    size_t seen = 0;
    for (size_t c = 0; c < m.numCells(); ++c) {
        std::string text;
        if (!readFileText(cellFilePath(dir, m, c) + ".cost", text))
            continue;
        // Advisory input: a torn or mangled sidecar is skipped, not
        // fatal and not read as its numeric prefix.
        std::optional<double> sec = tryParseDouble(text);
        if (!sec || !(*sec > 0.0))
            continue;
        sum[c % m.numConfigs] += *sec;
        ++cnt[c % m.numConfigs];
        ++seen;
    }
    if (seen == 0)
        return {};
    std::vector<double> cost(m.numConfigs, 0.0);
    double total = 0.0;
    size_t known = 0;
    for (size_t c = 0; c < m.numConfigs; ++c) {
        if (cnt[c] > 0) {
            cost[c] = sum[c] / static_cast<double>(cnt[c]);
            total += cost[c];
            ++known;
        }
    }
    // Configs with no observation yet get the mean observed cost: neither
    // hoarded first nor starved to the tail.
    double fallback = total / static_cast<double>(known);
    for (size_t c = 0; c < m.numConfigs; ++c) {
        if (cost[c] == 0.0)
            cost[c] = fallback;
    }
    return cost;
}

/**
 * The order a worker scans cells for claiming. Default: stride rotation
 * by shard id (freshly launched fleets fan out instead of racing on cell
 * 0). Once this sweep's `.cost` sidecars hold observed per-cell
 * wall-clock (a resumed or partially complete directory), the most
 * expensive configs come first -- rows ascending within a config --
 * which shrinks the tail where one worker holds the last big cell while
 * everyone else polls. Claim order never affects results (cells are
 * deterministic); only wall-clock.
 */
std::vector<size_t>
buildClaimOrder(const std::string& dir, const SweepManifest& m,
                const ShardOptions& opts)
{
    const size_t n = m.numCells();
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i)
        order[i] = i;

    std::vector<double> observed = observedConfigCosts(dir, m);
    if (!observed.empty()) {
        std::stable_sort(order.begin(), order.end(),
                         [&](size_t a, size_t b) {
                             return observed[a % m.numConfigs] >
                                    observed[b % m.numConfigs];
                         });
        return order;
    }

    if (opts.shardId > 0 && opts.shards > 1) {
        size_t offset =
            (static_cast<size_t>(opts.shardId) * n) / opts.shards;
        std::rotate(order.begin(),
                    order.begin() + static_cast<ptrdiff_t>(offset),
                    order.end());
    }
    return order;
}

/** Mutable per-process view of the claim loop. */
struct WorkerCtx
{
    const std::string& dir;
    const SweepManifest& m;
    const CellFn& compute;
    ShardOptions opts;
    ShardOutcome outcome;
    /** Cell known complete (its checkpoint file was observed). Written
     *  concurrently from batch jobs, but each job owns distinct indices. */
    std::vector<uint8_t> done;
    /** Claim-scan order (buildClaimOrder): cost-ranked or stride-rotated. */
    std::vector<size_t> claimOrder;
};

/**
 * One claim pass: scan cells in claim order, claim up to one per local
 * thread (so a queued claim's lease never sits idle long enough to go
 * stale), compute + commit + release. Returns cells computed.
 */
size_t
workerPass(WorkerCtx& ctx)
{
    const size_t n = ctx.m.numCells();
    const size_t maxClaims = batchThreads(ctx.opts.batch);
    const double ttl = static_cast<double>(ctx.opts.leaseTtlSec);

    std::vector<size_t> claimed;
    LeaseRecord lease = makeLease(ctx.opts.shardId);
    {
        ObsSpan claimSpan("cell.claim", "cell");
        for (size_t i = 0; i < n && claimed.size() < maxClaims; ++i) {
            size_t c = ctx.claimOrder[i];
            if (ctx.done[c])
                continue;
            if (fileExists(cellFilePath(ctx.dir, ctx.m, c))) {
                ctx.done[c] = 1;
                continue;
            }
            std::string lp = cellLeasePath(ctx.dir, ctx.m, c);
            if (tryAcquireLease(lp, lease)) {
                // A successful O_CREAT|O_EXCL claim implies nobody
                // committed the cell between our existence probe and
                // now... except a racer who claimed, computed, committed,
                // AND released in that window; committed cells are never
                // recomputed, so re-probe.
                CONSTABLE_ASSERT(!ctx.done[c],
                                 "claimed a cell already marked done in "
                                 "this process: claim loop state diverged");
                if (fileExists(cellFilePath(ctx.dir, ctx.m, c))) {
                    removeLease(lp);
                    ctx.done[c] = 1;
                    continue;
                }
                claimed.push_back(c);
                continue;
            }
            // Held by someone else: reclaim only if stale (its holder died
            // or lost the filesystem). The remove/re-acquire pair can race
            // with another reclaimer; determinism + atomic commits make a
            // double execution benign, so no stronger protocol is needed.
            double age = guardedLeaseAge(lp, ttl, ctx.outcome);
            if (age >= ttl) {
                removeLease(lp);
                if (tryAcquireLease(lp, lease)) {
                    ++ctx.outcome.reclaimed;
                    static ObsCounter& reclaims =
                        obsCounter("lease.reclaimed");
                    reclaims.add();
                    claimed.push_back(c);
                }
            }
        }
    }
    if (claimed.empty())
        return 0;
    CONSTABLE_ASSERT(claimed.size() <= maxClaims,
                     "claim pass took more cells than local threads");

    std::vector<uint8_t> committed(claimed.size(), 0);
    std::vector<uint8_t> abandoned(claimed.size(), 0);
    forEachJob(claimed.size(), [&](size_t i, Rng&) {
        size_t c = claimed[i];
        std::string lp = cellLeasePath(ctx.dir, ctx.m, c);
        // The claim may have queued behind other jobs: refresh the lease
        // mtime so its TTL measures compute time, not queue time. Same
        // fault point as the background refresh — a lost refresh here just
        // means the TTL measures queue time too.
        if (!faultFailed("lease.heartbeat")) {
            std::error_code ec;
            fs::last_write_time(lp, fs::file_time_type::clock::now(), ec);
        }
        uint64_t cellOps = 0;
        {
            // Keep the lease fresh for as long as the cell computes (and
            // commits): the TTL can now be shorter than a cell.
            LeaseHeartbeat heartbeat(lp, ctx.opts.leaseTtlSec);
            auto computeStart = std::chrono::steady_clock::now();
            RunResult r = [&] {
                ObsSpan span("cell.compute", "cell");
                return ctx.compute(c);
            }();
            double computeSec = std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() -
                                    computeStart)
                                    .count();
            cellOps = r.instructions;
            // Commit-time ownership check: if the heartbeat stalled past
            // the TTL, a reclaimer owns this cell now — committing over
            // its lease would double-commit, so abandon instead. The
            // retry absorbs transient read failures, which would
            // otherwise masquerade as a lost lease.
            LeaseRecord cur;
            bool owned = retryWithBackoff("lease.read", [&] {
                return readLease(lp, cur);
            }) && cur.owner == lease.owner;
            if (!owned) {
                warn("lease for cell " + std::to_string(c) +
                     " was lost during compute (heartbeat stalled past "
                     "TTL?); abandoning the cell to its new owner");
                static ObsCounter& lost = obsCounter("shard.abandoned");
                lost.add();
                abandoned[i] = 1;
                return;
            }
            ObsSpan span("cell.commit", "cell");
            if (!retryWithBackoff("ckpt.cell.commit", [&] {
                    return saveRunResult(cellFilePath(ctx.dir, ctx.m, c), r,
                                         /*durable=*/true);
                })) {
                fatal("shard worker cannot write cell checkpoint in '" +
                      ctx.dir + "'");
            }
            // Advisory wall-clock sidecar: resumed sweeps order their
            // claims by observed per-config cost. Best-effort by design —
            // a lost sidecar only costs scheduling quality, never
            // correctness.
            char costBuf[32];
            std::snprintf(costBuf, sizeof(costBuf), "%.6f\n", computeSec);
            writeFileAtomic(cellFilePath(ctx.dir, ctx.m, c) + ".cost",
                            std::string(costBuf));
        }
        // Commit precedes release: between saveRunResult's rename and
        // removeLease, observers see both the cell file and the lease,
        // which the claim scan tolerates (file check comes first).
        CONSTABLE_ASSERT(fileExists(cellFilePath(ctx.dir, ctx.m, c)),
                         "lease released before the cell checkpoint became "
                         "visible: commit/release order inverted");
        removeLease(lp);
        ctx.done[c] = 1;
        committed[i] = 1;
        obsProgressCellDone(cellOps);
    }, ctx.opts.batch);
    size_t ran = 0;
    for (size_t i = 0; i < claimed.size(); ++i) {
        ran += committed[i];
        ctx.outcome.abandoned += abandoned[i];
    }
    ctx.outcome.computed += ran;
    return ran;
}

/** Claim until every cell of the matrix has a committed checkpoint file
 *  (this process's cells and everyone else's). */
void
workerLoop(WorkerCtx& ctx)
{
    const size_t n = ctx.m.numCells();
    for (;;) {
        size_t ran = workerPass(ctx);
        size_t doneCells = 0;
        for (size_t c = 0; c < n; ++c) {
            if (ctx.done[c] || fileExists(cellFilePath(ctx.dir, ctx.m, c)))
                ++doneCells;
        }
        // Fleet-wide progress: count *everyone's* committed cells, not
        // just this worker's, so the status line tracks the sweep.
        obsProgressUpdate(doneCells);
        if (doneCells == n)
            return;
        if (ran == 0)
            sleepMs(ctx.opts.pollMs);
    }
}

/** Fork `shards` single-threaded workers over the claim loop and reap
 *  them. Child processes _exit() without running static destructors or
 *  the atexit writers, which belong to the coordinator. */
void
forkWorkers(const std::string& dir, const SweepManifest& m,
            const CellFn& compute, const ShardOptions& opts,
            ShardOutcome& outcome)
{
    std::vector<pid_t> pids;
    for (unsigned k = 0; k < opts.shards; ++k) {
        pid_t pid = ::fork();
        if (pid < 0) {
            warn("fork() failed for shard worker " + std::to_string(k) +
                 "; continuing with fewer workers");
            break;
        }
        if (pid == 0) {
            ShardOptions w = opts;
            w.shardId = static_cast<int>(k);
            w.batch.threads = 1; // processes replace threads
            WorkerCtx ctx { dir, m, compute, w, {}, {}, {} };
            ctx.done.assign(m.numCells(), 0);
            ctx.claimOrder = buildClaimOrder(dir, m, w);
            workerLoop(ctx);
            // _exit() skips the atexit trace/metrics writers on purpose
            // (they belong to the coordinator); hand the child's obs state
            // back through a partial file instead, lane-tagged by shard.
            if (obsArmed()) {
                obsSavePartial(dir + "/obs-shard-" + std::to_string(k) +
                                   ".partial",
                               "shard-" + std::to_string(k));
            }
            std::fflush(nullptr);
            ::_exit(0);
        }
        pids.push_back(pid);
        ++outcome.workersForked;
    }
    for (pid_t pid : pids) {
        int status = 0;
        if (::waitpid(pid, &status, 0) < 0 ||
            !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
            ++outcome.workersFailed;
            warn("shard worker pid " + std::to_string(pid) +
                 " exited abnormally; its cells will be recovered");
        }
    }
    if (obsArmed()) {
        for (unsigned k = 0; k < opts.shards; ++k) {
            std::string p =
                dir + "/obs-shard-" + std::to_string(k) + ".partial";
            if (!fileExists(p))
                continue; // worker died before saving: cells recover, obs
                          // from that shard is simply absent
            // All or nothing: a torn or mangled partial (a worker killed
            // mid-save, an injected torn write) merges none of its records.
            if (!obsMergePartial(p)) {
                warn("obs partial '" + p + "' from shard worker " +
                     std::to_string(k) + " is corrupt; its spans and "
                     "counters are left out of the merged trace");
            }
            std::error_code ec;
            fs::remove(p, ec);
        }
    }
}

} // namespace

std::string
cellFilePath(const std::string& dir, const SweepManifest& m, size_t cell)
{
    size_t row = cell / m.numConfigs;
    size_t cfg = cell % m.numConfigs;
    return dir + "/cell-" + std::to_string(row) + "-" +
           std::to_string(cfg) + ".rr";
}

std::string
cellLeasePath(const std::string& dir, const SweepManifest& m, size_t cell)
{
    return cellFilePath(dir, m, cell) + ".lease";
}

void
writeOrVerifyManifest(const std::string& dir, const SweepManifest& m)
{
    std::string path = dir + "/manifest.sweep";
    SweepManifest existing;
    if (!loadManifest(path, existing)) {
        // Save-then-reload, retried: a transient write failure is absorbed
        // by the backoff, and a torn write (half a manifest under a valid
        // rename) fails the reload and is rewritten rather than trusted.
        // The reload also arbitrates two sweeps racing on an empty
        // directory (last rename sticks, so exactly one survives).
        bool ok = false;
        for (unsigned a = 0; a < 3 && !ok; ++a) {
            ok = retryWithBackoff("sweep.manifest.write",
                                  [&] { return saveManifest(path, m); }) &&
                 loadManifest(path, existing);
        }
        if (!ok)
            fatal("cannot write and re-read sweep manifest '" + path + "'");
    }
    if (!(existing == m)) {
        fatal("checkpoint directory '" + dir + "' belongs to sweep '" +
              existing.experiment + "' (" + std::to_string(existing.numRows) +
              "x" + std::to_string(existing.numConfigs) +
              "), not to this sweep '" + m.experiment +
              "'; use a distinct --checkpoint-dir per sweep");
    }
}

bool
mergeShardedCells(const std::string& dir, const SweepManifest& m,
                  const CellFn* compute, std::vector<RunResult>& out,
                  const ShardOptions& opts, ShardOutcome& outcome)
{
    const size_t n = m.numCells();
    out.resize(n);
    bool complete = true;
    for (size_t c = 0; c < n; ++c) {
        if (loadRunResult(cellFilePath(dir, m, c), out[c])) {
            ++outcome.loaded;
            continue;
        }
        // Missing, or present but failing its FNV checksum (a worker died
        // after rename was scheduled but before the data hit disk, or the
        // file was mangled): regenerate rather than aborting the merge.
        std::string path = cellFilePath(dir, m, c);
        if (fileExists(path)) {
            ++outcome.corruptCells;
            static ObsCounter& corrupt = obsCounter("shard.corrupt_cells");
            corrupt.add();
            warn("cell checkpoint '" + path +
                 "' is present but corrupt; regenerating");
        }
        if (compute) {
            out[c] = (*compute)(c);
            // Save-then-verify: a checkpoint that keeps failing its own
            // reload (bad disk, torn-write injection) must not be
            // rewritten forever — after quarantineAfter attempts the bad
            // file is moved aside and reported; the in-memory result
            // keeps the merged matrix complete either way.
            RunResult check;
            bool verified = false;
            for (unsigned a = 0; a < opts.quarantineAfter && !verified;
                 ++a) {
                verified = saveRunResult(path, out[c], /*durable=*/true) &&
                           loadRunResult(path, check);
            }
            if (!verified) {
                std::string qdir = dir + "/quarantine";
                std::error_code qec;
                fs::create_directories(qdir, qec);
                fs::rename(path,
                           qdir + "/cell-" + std::to_string(c / m.numConfigs) +
                               "-" + std::to_string(c % m.numConfigs) + ".rr",
                           qec);
                ++outcome.quarantined;
                static ObsCounter& quarantined =
                    obsCounter("shard.quarantined");
                quarantined.add();
                warn("cell checkpoint '" + path + "' failed verification " +
                     std::to_string(opts.quarantineAfter) +
                     " times; quarantined into '" + qdir + "'");
            }
            removeLease(cellLeasePath(dir, m, c));
            ++outcome.computed;
        } else {
            complete = false;
        }
    }
    // Orphaned tmp files (a writer SIGKILLed mid-write) are invisible to
    // the commit protocol but accumulate; sweep old ones here.
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
        if (ec)
            break;
        std::string name = entry.path().filename().string();
        if (name.find(".tmp.") == std::string::npos)
            continue;
        double age = leaseAgeSeconds(entry.path().string());
        if (age >= static_cast<double>(opts.leaseTtlSec)) {
            std::error_code rec;
            if (fs::remove(entry.path(), rec) && !rec)
                ++outcome.staleTmpRemoved;
        }
    }
    return complete;
}

ShardOutcome
runShardedCells(const std::string& dir, const SweepManifest& m,
                const CellFn& compute, std::vector<RunResult>& out,
                const ShardOptions& opts)
{
    ShardOutcome outcome;
    writeOrVerifyManifest(dir, m);
    if (m.numCells() == 0) {
        out.clear();
        return outcome;
    }
    // Resumed-work accounting must be taken before any worker runs: after
    // the sweep every cell has a file, so a post-hoc count says nothing.
    for (size_t c = 0; c < m.numCells(); ++c) {
        if (fileExists(cellFilePath(dir, m, c)))
            ++outcome.preExisting;
    }

    if (opts.shardId >= 0) {
        // Worker mode: independently launched process of a fleet sharing
        // this directory. Claim until the matrix is complete, then merge
        // so every shard returns the same full result.
        WorkerCtx ctx { dir, m, compute, opts, outcome, {}, {} };
        ctx.done.assign(m.numCells(), 0);
        ctx.claimOrder = buildClaimOrder(dir, m, opts);
        workerLoop(ctx);
        outcome = ctx.outcome;
        mergeShardedCells(dir, m, &compute, out, opts, outcome);
        return outcome;
    }

    // Coordinator mode: fork the fleet, reap it, assemble the matrix.
    forkWorkers(dir, m, compute, opts, outcome);
    mergeShardedCells(dir, m, &compute, out, opts, outcome);
    return outcome;
}

} // namespace constable
