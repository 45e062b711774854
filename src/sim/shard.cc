#include "sim/shard.hh"

#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <new>
#include <system_error>

#include "common/env.hh"
#include "common/faultio.hh"
#include "common/logging.hh"
#include "common/obs.hh"

namespace constable {

namespace {

namespace fs = std::filesystem;

/** Save/reload attempts before a regenerated cell is quarantined. */
constexpr unsigned kQuarantineAfter = 3;

/** Tmp files older than this are orphans of a killed writer: far past
 *  any live writer's tmp-to-rename window. */
constexpr double kStaleTmpSec = 120.0;

bool
fileExists(const std::string& path)
{
    std::error_code ec;
    return fs::exists(path, ec) && !ec;
}

/**
 * The coordinator's counters, in one anonymous MAP_SHARED page that every
 * forked worker inherits. Lock-free atomics are address-free, so the same
 * fetch_add works across processes.
 */
struct SharedCounters
{
    std::atomic<uint64_t> next { 0 }; ///< next index into the claim list
    std::atomic<uint64_t> done { 0 }; ///< cells committed in this run
    std::atomic<uint64_t> ops { 0 };  ///< instructions of those cells
};

static_assert(std::atomic<uint64_t>::is_always_lock_free,
              "shard counters are shared between processes, which only "
              "lock-free atomics support");

/**
 * Mean observed per-config compute seconds from the `.cost` sidecars
 * committed next to cell checkpoints (workers write one per computed
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
 * The cells that have no committed file, in the order workers take them.
 * Default: index order. Once this sweep's `.cost` sidecars hold observed
 * per-cell wall-clock (a resumed or partially complete directory), the
 * most expensive configs come first -- rows ascending within a config --
 * which shrinks the tail where one worker computes the last big cell while
 * the others have run out. Claim order never affects results (cells are
 * deterministic); only wall-clock.
 */
std::vector<size_t>
buildClaimOrder(const std::string& dir, const SweepManifest& m)
{
    std::vector<size_t> order;
    for (size_t c = 0; c < m.numCells(); ++c) {
        if (!fileExists(cellFilePath(dir, m, c)))
            order.push_back(c);
    }
    std::vector<double> observed = observedConfigCosts(dir, m);
    if (!observed.empty()) {
        std::stable_sort(order.begin(), order.end(),
                         [&](size_t a, size_t b) {
                             return observed[a % m.numConfigs] >
                                    observed[b % m.numConfigs];
                         });
    }
    return order;
}

/** One forked worker: take the next claim-list index from the shared
 *  counter, compute and commit that cell, until the list runs out. */
void
workerLoop(const std::string& dir, const SweepManifest& m,
           const CellFn& compute, const std::vector<size_t>& order,
           size_t pre_existing, SharedCounters& shared)
{
    uint64_t opsNoted = 0;
    for (;;) {
        uint64_t i = shared.next.fetch_add(1);
        if (i >= order.size())
            return;
        size_t c = order[i];
        auto computeStart = std::chrono::steady_clock::now();
        RunResult r = [&] {
            ObsSpan span("cell.compute", "cell");
            return compute(c);
        }();
        double computeSec = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() -
                                computeStart)
                                .count();
        std::string path = cellFilePath(dir, m, c);
        {
            ObsSpan span("cell.commit", "cell");
            if (!retryWithBackoff("ckpt.cell.commit", [&] {
                    return saveRunResult(path, r, /*durable=*/true);
                })) {
                fatal("shard worker cannot write cell checkpoint in '" +
                      dir + "'");
            }
        }
        // Advisory wall-clock sidecar: resumed sweeps order their claims
        // by observed per-config cost. Best-effort by design — a lost
        // sidecar only costs scheduling quality, never correctness.
        char costBuf[32];
        std::snprintf(costBuf, sizeof(costBuf), "%.6f\n", computeSec);
        writeFileAtomic(path + ".cost", std::string(costBuf));

        // Sweep-wide progress from the shared page, so whichever worker
        // writes status.json reports every worker's cells and ops.
        uint64_t ops = shared.ops.fetch_add(r.instructions) + r.instructions;
        uint64_t done = shared.done.fetch_add(1) + 1;
        obsProgressNoteOps(ops - opsNoted);
        opsNoted = ops;
        obsProgressUpdate(pre_existing + done);
    }
}

/** Fork up to `shards` single-threaded workers over the claim list and
 *  reap them. Child processes _exit() without running static destructors
 *  or the atexit writers, which belong to the coordinator. */
void
forkWorkers(const std::string& dir, const SweepManifest& m,
            const CellFn& compute, const std::vector<size_t>& order,
            unsigned shards, ShardOutcome& outcome)
{
    void* page = ::mmap(nullptr, sizeof(SharedCounters),
                        PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS,
                        -1, 0);
    if (page == MAP_FAILED) {
        warn("mmap() of the shard counter page failed; the merge computes "
             "every cell in this process");
        return;
    }
    auto* shared = new (page) SharedCounters;
    unsigned workers = static_cast<unsigned>(
        std::min<size_t>(shards, order.size()));
    // Output buffered before the fork would otherwise be flushed again by
    // every worker's exit.
    std::fflush(nullptr);
    std::vector<pid_t> pids;
    for (unsigned k = 0; k < workers; ++k) {
        pid_t pid = ::fork();
        if (pid < 0) {
            warn("fork() failed for shard worker " + std::to_string(k) +
                 "; continuing with fewer workers");
            break;
        }
        if (pid == 0) {
            workerLoop(dir, m, compute, order, outcome.preExisting,
                       *shared);
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
                 " exited abnormally; the merge recomputes its cell");
        }
    }
    outcome.computed += shared->done.load();
    // Credit only what the workers simulated in this run: resumed cells
    // were simulated by an earlier one.
    obsProgressNoteOps(shared->ops.load());
    ::munmap(page, sizeof(SharedCounters));
    if (obsArmed()) {
        for (unsigned k = 0; k < workers; ++k) {
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
                  ShardOutcome& outcome)
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
            obsProgressNoteOps(out[c].instructions);
            // Save-then-verify: a checkpoint that keeps failing its own
            // reload (bad disk, torn-write injection) must not be
            // rewritten forever — after kQuarantineAfter attempts the bad
            // file is moved aside and reported; the in-memory result
            // keeps the merged matrix complete either way.
            RunResult check;
            bool verified = false;
            for (unsigned a = 0; a < kQuarantineAfter && !verified; ++a) {
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
                     std::to_string(kQuarantineAfter) +
                     " times; quarantined into '" + qdir + "'");
            }
            ++outcome.computed;
        } else {
            complete = false;
        }
    }
    // Orphaned tmp files (a writer SIGKILLed mid-write) are invisible to
    // the commit protocol but accumulate; sweep old ones here.
    std::error_code ec;
    const auto now = fs::file_time_type::clock::now();
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
        if (ec)
            break;
        std::string name = entry.path().filename().string();
        if (name.find(".tmp.") == std::string::npos)
            continue;
        std::error_code tec;
        auto mtime = fs::last_write_time(entry.path(), tec);
        if (tec || std::chrono::duration<double>(now - mtime).count() <
                       kStaleTmpSec)
            continue;
        std::error_code rec;
        if (fs::remove(entry.path(), rec) && !rec)
            ++outcome.staleTmpRemoved;
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
    std::vector<size_t> order = buildClaimOrder(dir, m);
    outcome.preExisting = m.numCells() - order.size();
    if (!order.empty())
        forkWorkers(dir, m, compute, order, opts.shards, outcome);
    mergeShardedCells(dir, m, &compute, out, outcome);
    return outcome;
}

} // namespace constable
