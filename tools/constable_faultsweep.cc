/**
 * @file
 * Fault-injection sweep driver: the executable proof that every recovery
 * path advertised by the checkpoint/shard/cache tiers actually works.
 *
 * The driver enumerates the compiled-in fault-point registry
 * (common/faultio.hh) and, for every (point, action) pair the point's
 * kind admits, re-launches itself as a child with that single fault
 * armed via CONSTABLE_FAULT_PLAN:
 *
 *  - "read"/"sync" points take eio and crash,
 *  - "write" points take eio, torn and crash.
 *
 * The child (`--run-sweep`) runs a real workload: a 2-shard experiment
 * (trace cache, manifest, forked workers committing per-cell checkpoints,
 * merge). It prints its final matrix fingerprint. The forked workers
 * inherit the armed plan and write to the same log, so a fault that
 * fires in any process of a launch leaves its "faultio: injected" notice
 * there.
 *
 * A pair PASSES when the child's fingerprint is bit-identical to the
 * fault-free baseline — crash points included, after re-launching into
 * the same checkpoint + crash-marker directories, or after the merge
 * recomputed a crashed worker's cell — or when every launch exited
 * loudly nonzero (a detected, reported failure). It FAILS on a silent
 * fingerprint mismatch, when the armed fault never fired (a registry
 * entry whose call site has gone dead), or when an atomic.* fault landed
 * on a file other than the sweep manifest or a checkpoint cell (a
 * best-effort write such as status.json took the hit, so the recovery
 * path under test never saw it).
 */

#include <fcntl.h>
#include <stdlib.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/faultio.hh"
#include "common/logging.hh"
#include "common/obs.hh"
#include "sim/experiment.hh"
#include "sim/scenario.hh"
#include "workloads/suite.hh"

namespace {

using namespace constable;
namespace fs = std::filesystem;

constexpr unsigned kLaunchesPerRun = 3;

/**
 * 2-shard sweep: the coordinator prepares the suite and writes the
 * manifest, two forked workers compute and commit the cells, and the
 * coordinator merges them. An injected crash in the coordinator is
 * recovered by the re-launch resuming from the checkpoint directory; one
 * in a worker, by the merge recomputing that worker's cell.
 */
int
runSweepChild()
{
    // Small and fast, but through the full machinery.
    ExperimentOptions opts = ExperimentOptions::fromEnv();
    opts.threads = 2;
    opts.traceOps = 1500;
    opts.suiteLimit = 3;
    // Ambient CONSTABLE_TRACE_OUT/METRICS_OUT must not leak into the
    // crash-and-relaunch children: dozens of processes would race their
    // atexit writers on the same two files. Fingerprint comparison is the
    // observable here, not traces.
    opts.traceOutPath.clear();
    opts.metricsOutPath.clear();
    obsReset();
    opts.shards = 2;
    if (opts.checkpointDir.empty())
        fatal("--run-sweep needs CONSTABLE_CHECKPOINT_DIR");

    auto specs = smokeSuite(opts.traceOps);
    if (specs.size() > opts.suiteLimit)
        specs.resize(opts.suiteLimit);
    Suite suite = Suite::fromSpecs(std::move(specs), opts,
                                   /*inspect=*/true);
    Experiment exp("faultsweep", suite, opts);
    exp.addPreset("baseline");
    exp.addPreset("constable");

    ExperimentResult res = exp.run();
    std::printf("result fingerprint: %016llx\n",
                static_cast<unsigned long long>(
                    resultFingerprint(res.matrix())));
    std::fflush(stdout);
    return 0;
}

// ----------------------------------------------------------- driver side

/** The actions a point's kind admits. */
std::vector<std::string>
actionsFor(const std::string& kind)
{
    if (kind == "write")
        return { "eio", "torn", "crash" };
    return { "eio", "crash" }; // read, sync
}

/** Path of this executable for the re-exec (argv[0] may be PATH-bare). */
std::string
selfPath(const char* argv0)
{
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0) {
        buf[n] = '\0';
        return buf;
    }
    return argv0;
}

std::string
makeScratchDir()
{
    std::string tmpl =
        (fs::temp_directory_path() / "constable-faultsweep-XXXXXX").string();
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    if (!mkdtemp(buf.data()))
        fatal("cannot create scratch directory from template " + tmpl);
    return buf.data();
}

/** 16-hex-digit fingerprint parse (the linter bans the strtoull family
 *  repo-wide; a fixed-format log token needs no general parser). */
uint64_t
parseHexToken(const char* s)
{
    uint64_t v = 0;
    for (int i = 0; i < 16 && s[i]; ++i) {
        char c = s[i];
        int d = c >= '0' && c <= '9'   ? c - '0'
                : c >= 'a' && c <= 'f' ? c - 'a' + 10
                                       : -1;
        if (d < 0)
            break;
        v = v * 16 + static_cast<uint64_t>(d);
    }
    return v;
}

struct LaunchResult
{
    int exitCode = -1;    ///< child exit code; -1 on signal death
    uint64_t fingerprint = 0;
    bool haveFingerprint = false;
    /** Some process of this or an earlier launch into the same log
     *  announced an injection at the armed point. */
    bool fired = false;
    /** File the armed point's first injection hit inside writeFileAtomic
     *  (from the shim's "faultio: injected" notice); empty if none. */
    std::string injectedInto;
};

/** True for the files whose recovery the sweep child exercises: the
 *  sweep manifest and the checkpoint cells (cell-<row>-<cfg>.rr). */
bool
durableSweepFile(const std::string& path)
{
    std::string name = fs::path(path).filename().string();
    return name == "manifest.sweep" ||
           (name.starts_with("cell-") && name.ends_with(".rr"));
}

/** Fork + exec one `--run-sweep` child, stdout+stderr appended to
 *  @p logPath. */
LaunchResult
launchChild(const char* self, const std::string& plan,
            const std::string& point, const std::string& markerDir,
            const std::string& ckptDir, const std::string& traceDir,
            const std::string& logPath)
{
    LaunchResult r;
    pid_t pid = ::fork();
    if (pid < 0)
        fatal("fork() failed");
    if (pid == 0) {
        if (plan.empty())
            ::unsetenv("CONSTABLE_FAULT_PLAN");
        else
            ::setenv("CONSTABLE_FAULT_PLAN", plan.c_str(), 1);
        ::setenv("CONSTABLE_FAULT_MARKER_DIR", markerDir.c_str(), 1);
        ::setenv("CONSTABLE_CHECKPOINT_DIR", ckptDir.c_str(), 1);
        ::setenv("CONSTABLE_TRACE_DIR", traceDir.c_str(), 1);
        int fd = ::open(logPath.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                        0644);
        if (fd >= 0) {
            ::dup2(fd, 1);
            ::dup2(fd, 2);
            ::close(fd);
        }
        // A fresh exec, not a fork-continue: the env fault plan must be
        // re-armed by static init exactly as in a real process launch.
        ::execl(self, self, "--run-sweep", static_cast<char*>(nullptr));
        std::fprintf(stderr, "execl('%s') failed\n", self);
        ::_exit(127);
    }
    int status = 0;
    if (::waitpid(pid, &status, 0) < 0)
        fatal("waitpid() failed");
    r.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;

    std::string log;
    if (readFileText(logPath, log)) {
        size_t at = log.rfind("result fingerprint: ");
        if (at != std::string::npos) {
            r.haveFingerprint = true;
            r.fingerprint = parseHexToken(
                log.c_str() + at + std::strlen("result fingerprint: "));
        }
        std::string notice = "at fault point '" + point + "'";
        r.fired = !point.empty() && log.find(notice) != std::string::npos;
        // The log accumulates across launches, so the first notice is the
        // first launch's first injection.
        notice += " while writing '";
        size_t nat = log.find(notice);
        if (nat != std::string::npos) {
            nat += notice.size();
            r.injectedInto = log.substr(nat, log.find('\'', nat) - nat);
        }
    }
    return r;
}

int
runDriver(const char* self)
{
    std::string scratch = makeScratchDir();
    std::string warmTraces = scratch + "/traces";
    fs::create_directories(warmTraces);

    // Fault-free baseline; it also warms the shared trace cache.
    const std::string baseDir = scratch + "/base";
    fs::create_directories(baseDir);
    LaunchResult base =
        launchChild(self, "", "", baseDir + "/markers", baseDir, warmTraces,
                    baseDir + "/log.txt");
    if (base.exitCode != 0 || !base.haveFingerprint) {
        fatal("fault-free baseline run failed; see " + baseDir +
              "/log.txt");
    }
    const uint64_t want = base.fingerprint;
    std::printf("baseline fingerprint %016llx\n",
                static_cast<unsigned long long>(want));

    size_t pass = 0, fail = 0;
    std::vector<std::string> failures;
    for (const FaultPointInfo& p : faultPointTable()) {
        for (const std::string& action : actionsFor(p.kind)) {
            std::string plan = std::string(p.name) + ":" + action + "@1";
            std::string runDir = scratch + "/run-" +
                                 sanitizeFileName(plan);
            std::string markerDir = runDir + "/markers";
            std::string ckptDir = runDir + "/ckpt";
            fs::create_directories(markerDir);
            fs::create_directories(ckptDir);
            // A write fault must see a write: arm trace.cache.write
            // against a cold cache so saveTrace actually runs.
            std::string traceDir =
                std::strncmp(p.name, "trace.cache", 11) == 0 &&
                        action != "eio"
                    ? runDir + "/traces"
                    : warmTraces;
            if (std::strcmp(p.name, "trace.cache.write") == 0)
                traceDir = runDir + "/traces";
            fs::create_directories(traceDir);

            bool crashed = false, loud = false, silent = false;
            bool recovered = false, fired = false;
            std::string target;
            for (unsigned launch = 0; launch < kLaunchesPerRun; ++launch) {
                LaunchResult r = launchChild(
                    self, plan, p.name, markerDir, ckptDir, traceDir,
                    runDir + "/log.txt");
                target = r.injectedInto;
                fired = r.fired;
                if (r.exitCode == kFaultCrashExitCode) {
                    crashed = true;
                    continue; // relaunch into the same directories
                }
                if (r.exitCode == 0 && r.haveFingerprint) {
                    recovered = r.fingerprint == want;
                    silent = !recovered;
                } else {
                    loud = true; // detected + reported, not silent
                }
                break;
            }

            bool exercised = crashed || fired;
            bool offTarget = std::strncmp(p.name, "atomic.", 7) == 0 &&
                             exercised && !durableSweepFile(target);
            bool ok = exercised && !offTarget && !silent &&
                      (recovered || loud);
            if (crashed && !recovered && !loud)
                ok = false; // crash-looped through every launch
            std::string offNote = " (fault hit '" +
                                  fs::path(target).filename().string() +
                                  "', not the manifest or a cell)";
            std::printf("%-28s %-6s %s%s\n", p.name, action.c_str(),
                        ok ? "PASS" : "FAIL",
                        !exercised        ? " (fault never fired)"
                        : offTarget       ? offNote.c_str()
                        : silent          ? " (silent fingerprint mismatch)"
                        : loud            ? " (loud nonzero exit)"
                        : crashed         ? " (crash + relaunch recovered)"
                        : action == "crash"
                            ? " (worker crash recovered at merge)"
                            : "");
            if (ok) {
                ++pass;
            } else {
                ++fail;
                failures.push_back(plan + " — see " + runDir + "/log.txt");
            }
        }
    }

    std::printf("faultsweep: %zu pass, %zu fail over %zu fault points\n",
                pass, fail, faultPointTable().size());
    for (const std::string& f : failures)
        std::printf("  FAIL %s\n", f.c_str());
    if (fail == 0) {
        std::error_code ec;
        fs::remove_all(scratch, ec);
    } else {
        std::printf("scratch kept at %s\n", scratch.c_str());
    }
    return fail == 0 ? 0 : 1;
}

void
printList()
{
    for (const FaultPointInfo& p : faultPointTable())
        std::printf("%-28s %-6s %s\n", p.name, p.kind, p.site);
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc > 1 && std::strcmp(argv[1], "--list") == 0) {
        printList();
        return 0;
    }
    if (argc > 1 && std::strcmp(argv[1], "--run-sweep") == 0)
        return runSweepChild();
    if (argc > 1) {
        std::fprintf(stderr, "usage: %s [--list | --run-sweep]\n", argv[0]);
        return 2;
    }
    return runDriver(selfPath(argv[0]).c_str());
}
