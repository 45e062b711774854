#include "sim/shard.hh"

#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <optional>
#include <string>
#include <system_error>
#include <vector>

#include "common/env.hh"
#include "common/faultio.hh"
#include "common/logging.hh"
#include "common/obs.hh"
#include "sim/batch.hh"

namespace constable {

namespace {

namespace fs = std::filesystem;

/** Save/reload attempts before a recomputed cell is quarantined. */
constexpr unsigned kQuarantineAfter = 3;

/** Tmp files older than this are orphans of a killed writer: far past
 *  any live writer's tmp-to-rename window. */
constexpr double kStaleTmpSec = 120.0;

/** What a forked worker sends the coordinator for each cell it computed.
 *  16 bytes is far below PIPE_BUF, so the records of concurrent workers
 *  never interleave. */
struct CellRecord
{
    uint64_t cell;
    uint64_t ops;
};

static_assert(std::atomic<uint64_t>::is_always_lock_free,
              "the deal counter is shared between processes, which only "
              "lock-free atomics support");

bool
fileExists(const std::string& path)
{
    std::error_code ec;
    return fs::exists(path, ec) && !ec;
}

/** Fresh private scratch directory under the system temp dir. */
std::string
makeTempDir(const char* prefix)
{
    std::string tmpl = (fs::temp_directory_path() /
                        (std::string(prefix) + "-XXXXXX"))
                           .string();
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    if (!mkdtemp(buf.data()))
        fatal("cannot create scratch directory from template " + tmpl);
    return buf.data();
}

/** One sweep's cells and the steps both executors share. */
struct SweepRunner
{
    const std::string& dir;
    const SweepManifest& m;
    const CellFn& compute;
    std::vector<RunResult>& out;
    ShardOutcome outcome {};
    /** Cells a forked worker reported as computed in this run. */
    std::vector<uint8_t> reported {};

    std::string path(size_t c) const { return cellFilePath(dir, m, c); }

    /** Load cell `c` from its file. A file that exists but does not load
     *  (torn write, mangled or empty file) is counted as corrupt. */
    bool
    load(size_t c)
    {
        std::string p = path(c);
        if (!fileExists(p))
            return false;
        if (loadRunResult(p, out[c]))
            return true;
        ++outcome.corruptCells;
        static ObsCounter& corrupt = obsCounter("shard.corrupt_cells");
        corrupt.add();
        return false;
    }

    /**
     * Mean observed per-config compute seconds from the `.cost` sidecars
     * of the `resumed` cells (forked commits write one per cell), so a
     * resumed sweep deals by what cells of THIS sweep actually cost on
     * THIS machine. Sidecars that are missing, non-numeric or
     * non-positive are skipped; empty when none is usable.
     */
    std::vector<double>
    observedConfigCosts(const std::vector<size_t>& resumed) const
    {
        std::vector<double> sum(m.numConfigs, 0.0);
        std::vector<size_t> cnt(m.numConfigs, 0);
        size_t seen = 0;
        for (size_t c : resumed) {
            std::string text;
            if (!readFileText(path(c) + ".cost", text))
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
        // Configs with no observation yet get the mean observed cost:
        // neither hoarded first nor starved to the tail.
        double fallback = total / static_cast<double>(known);
        for (size_t c = 0; c < m.numConfigs; ++c) {
            if (cost[c] == 0.0)
                cost[c] = fallback;
        }
        return cost;
    }

    /**
     * Load every cell that has a file and return the others, missing or
     * unloadable, in the order they are dealt. Default: index order. Once
     * the resumed cells' `.cost` sidecars hold observed wall-clock, the
     * most expensive configs come first -- rows ascending within a config
     * -- which shrinks the tail where one worker computes the last big
     * cell while the others have run out. Deal order never affects
     * results (cells are deterministic); only wall-clock.
     */
    std::vector<size_t>
    resume()
    {
        std::vector<size_t> deal, resumed;
        for (size_t c = 0; c < m.numCells(); ++c) {
            if (!dir.empty() && load(c))
                resumed.push_back(c);
            else
                deal.push_back(c);
        }
        outcome.resumed = resumed.size();
        if (outcome.corruptCells > 0) {
            warn(std::to_string(outcome.corruptCells) +
                 " checkpoint cell(s) present but unloadable (corrupt or "
                 "empty); recomputing them");
        }
        if (resumed.empty() || deal.empty())
            return deal;
        std::vector<double> observed = observedConfigCosts(resumed);
        if (!observed.empty()) {
            std::stable_sort(deal.begin(), deal.end(),
                             [&](size_t a, size_t b) {
                                 return observed[a % m.numConfigs] >
                                        observed[b % m.numConfigs];
                             });
        }
        return deal;
    }

    /** Simulate cell `c` into out[c]; returns its compute seconds. */
    double
    simulate(size_t c)
    {
        ObsSpan span("cell.compute", "cell");
        auto start = std::chrono::steady_clock::now();
        out[c] = compute(c);
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    }

    /**
     * Commit out[c] to its file, retrying transient I/O errors. A forked
     * worker's commit is fsync'd, because the coordinator reads it back
     * at merge, and leaves a `.cost` sidecar of the compute seconds for
     * the deal order of later runs: best-effort by design, since a lost
     * sidecar only costs scheduling quality. A threaded commit is one
     * atomic write. False when every try failed.
     */
    bool
    commit(size_t c, bool forked, double compute_sec)
    {
        ObsSpan span("cell.commit", "cell");
        std::string p = path(c);
        if (!retryWithBackoff("ckpt.cell.commit", [&] {
                return saveRunResult(p, out[c], /*durable=*/forked);
            }))
            return false;
        if (forked) {
            char costBuf[32];
            std::snprintf(costBuf, sizeof(costBuf), "%.6f\n", compute_sec);
            writeFileAtomic(p + ".cost", std::string(costBuf));
        }
        return true;
    }

    void
    runThreads(const std::vector<size_t>& deal, unsigned threads)
    {
        std::atomic<size_t> uncommitted { 0 };
        forEachJob(deal.size(), [&](size_t i) {
            size_t c = deal[i];
            double sec = simulate(c);
            if (!dir.empty() && !commit(c, /*forked=*/false, sec))
                uncommitted.fetch_add(1, std::memory_order_relaxed);
            obsProgressAdd(1, out[c].instructions);
        }, threads);
        outcome.computed += deal.size();
        if (uncommitted.load() > 0) {
            warn(std::to_string(uncommitted.load()) +
                 " checkpoint cell(s) could not be committed in '" + dir +
                 "'; the sweep keeps their results, but a rerun "
                 "recomputes them");
        }
    }

    /** One forked worker: take the next deal-list index from the shared
     *  counter, compute, commit and report that cell, until the list runs
     *  out. A cell whose commit failed is reported all the same: its
     *  simulation counts, and the merge recomputes it. */
    void
    workerLoop(const std::vector<size_t>& deal, std::atomic<uint64_t>& next,
               int report_fd)
    {
        for (uint64_t i; (i = next.fetch_add(1)) < deal.size();) {
            size_t c = deal[i];
            commit(c, /*forked=*/true, simulate(c));
            CellRecord rec { c, out[c].instructions };
            if (::write(report_fd, &rec, sizeof(rec)) !=
                static_cast<ssize_t>(sizeof(rec)))
                return; // no coordinator to report to: leave the rest
        }
    }

    /** Count every cell the workers report, until the last one exits and
     *  the pipe reaches EOF: each report is one progress event. Records
     *  are written whole, so a read returns whole records. */
    void
    readReports(int fd)
    {
        reported.assign(m.numCells(), 0);
        CellRecord rec {};
        for (;;) {
            ssize_t n = ::read(fd, &rec, sizeof(rec));
            if (n < 0 && errno == EINTR)
                continue;
            if (n != static_cast<ssize_t>(sizeof(rec)) ||
                rec.cell >= m.numCells())
                return;
            reported[rec.cell] = 1;
            ++outcome.computed;
            obsProgressAdd(1, rec.ops);
        }
    }

    /** Fork up to `shards` single-threaded workers over the deal list,
     *  count their reports and reap them. Child processes _exit() without
     *  running static destructors or the atexit writers, which belong to
     *  the coordinator. */
    void
    runForked(const std::vector<size_t>& deal, unsigned shards)
    {
        unsigned workers = static_cast<unsigned>(
            std::min<size_t>(shards, deal.size()));
        if (workers == 0)
            return;
        // One anonymous MAP_SHARED page that every forked worker inherits
        // holds the deal counter; lock-free atomics are address-free, so
        // the same fetch_add works across processes.
        void* page = ::mmap(nullptr, sizeof(std::atomic<uint64_t>),
                            PROT_READ | PROT_WRITE,
                            MAP_SHARED | MAP_ANONYMOUS, -1, 0);
        int fds[2];
        if (page == MAP_FAILED || ::pipe(fds) != 0) {
            warn("cannot set up shard workers (mmap() or pipe() failed); "
                 "the merge computes every cell in this process");
            if (page != MAP_FAILED)
                ::munmap(page, sizeof(std::atomic<uint64_t>));
            return;
        }
        auto* next = new (page) std::atomic<uint64_t>(0);
        // Output buffered before the fork would otherwise be flushed again
        // by every worker's exit.
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
                ::close(fds[0]);
                workerLoop(deal, *next, fds[1]);
                // _exit() skips the atexit trace/metrics writers on
                // purpose (they belong to the coordinator); hand the
                // child's obs state back through a partial file instead,
                // lane-tagged by shard.
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
        // The read end sees EOF once every worker's copy of the write end
        // is closed, that is, once the last worker has exited.
        ::close(fds[1]);
        readReports(fds[0]);
        ::close(fds[0]);
        for (pid_t pid : pids) {
            int status = 0;
            if (::waitpid(pid, &status, 0) < 0 ||
                !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
                ++outcome.workersFailed;
                warn("shard worker pid " + std::to_string(pid) +
                     " exited abnormally; the merge recomputes its cell");
            }
        }
        ::munmap(page, sizeof(std::atomic<uint64_t>));
        if (!obsArmed())
            return;
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

    /**
     * Load the cells the workers were dealt. One that is missing (its
     * worker died, or could not commit it) or fails its checksum is
     * recomputed here and committed save-then-verify: a file that keeps
     * failing its own reload (bad disk, torn-write injection) is moved
     * into quarantine after kQuarantineAfter tries instead of being
     * rewritten forever, and the in-memory result keeps the matrix
     * complete either way.
     */
    void
    merge(const std::vector<size_t>& deal)
    {
        size_t recomputed = 0;
        for (size_t c : deal) {
            if (load(c))
                continue;
            ++recomputed;
            double sec = simulate(c);
            // A cell its worker reported is already done: add only its ops.
            bool done = c < reported.size() && reported[c];
            obsProgressAdd(done ? 0 : 1, out[c].instructions);
            RunResult check;
            bool verified = false;
            for (unsigned a = 0; a < kQuarantineAfter && !verified; ++a) {
                verified = commit(c, /*forked=*/true, sec) &&
                           loadRunResult(path(c), check);
            }
            if (verified)
                continue;
            std::string qdir = dir + "/quarantine";
            std::error_code qec;
            fs::create_directories(qdir, qec);
            fs::rename(path(c),
                       qdir + "/" + fs::path(path(c)).filename().string(),
                       qec);
            ++outcome.quarantined;
            static ObsCounter& quarantined = obsCounter("shard.quarantined");
            quarantined.add();
            warn("cell checkpoint '" + path(c) + "' failed verification " +
                 std::to_string(kQuarantineAfter) +
                 " times; quarantined into '" + qdir + "'");
        }
        outcome.computed += recomputed;
        if (recomputed > 0) {
            warn(std::to_string(recomputed) + " cell(s) were missing or "
                 "corrupt after the shard workers finished; recomputed "
                 "them");
        }
    }

    /** Orphaned tmp files (a writer SIGKILLed mid-write) are invisible to
     *  the commit protocol but accumulate; sweep old ones. */
    void
    sweepStaleTmp()
    {
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
    }
};

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

ShardOutcome
runSweep(const std::string& dir, const SweepManifest& m,
         const CellFn& compute, std::vector<RunResult>& out,
         unsigned threads, unsigned shards, unsigned progress_sec)
{
    // Rechecked here for callers that set a shard count directly rather
    // than through --shards or CONSTABLE_SHARDS.
    if (shards > kMaxShards) {
        fatal("--shards=" + std::to_string(shards) + " out of range: at "
              "most " + std::to_string(kMaxShards) + " workers");
    }
    const bool forked = shards > 1 && compute;
    // Forked workers hand their cells back as files: without a checkpoint
    // directory they use a private scratch one, removed afterwards.
    const std::string scratch =
        forked && dir.empty() ? makeTempDir("constable-shards") : "";
    const std::string& cellDir = scratch.empty() ? dir : scratch;
    if (!cellDir.empty() && compute)
        writeOrVerifyManifest(cellDir, m);

    out.assign(m.numCells(), RunResult {});
    SweepRunner run { cellDir, m, compute, out };
    std::vector<size_t> deal = run.resume();
    if (compute) {
        ObsProgressConfig pcfg;
        pcfg.label = m.experiment;
        pcfg.total = m.numCells();
        pcfg.statusPath = dir.empty() ? "" : dir + "/status.json";
        pcfg.intervalSec = progress_sec;
        obsProgressBegin(pcfg);
        obsProgressAdd(run.outcome.resumed, 0);
        if (forked) {
            run.runForked(deal, shards);
            run.merge(deal);
        } else {
            run.runThreads(deal, threads);
        }
        obsProgressEnd();
    }
    if (!cellDir.empty())
        run.sweepStaleTmp();
    if (!scratch.empty()) {
        std::error_code ec;
        fs::remove_all(scratch, ec);
    }
    return run.outcome;
}

} // namespace constable
