/**
 * @file
 * Fault-injection sweep driver: the executable proof that every recovery
 * path advertised by the checkpoint/lease/cache tiers actually works.
 *
 * The driver enumerates the compiled-in fault-point registry
 * (common/faultio.hh) and, for every (point, action) pair the point's
 * kind admits, re-launches itself as a child with that single fault
 * armed via CONSTABLE_FAULT_PLAN:
 *
 *  - "read"/"sync" points take eio and crash,
 *  - "write" points take eio, torn and crash,
 *  - "clock" points take skew.
 *
 * Child modes run a real workload: `--run-sweep` executes a worker-mode
 * sharded experiment (lease claims, heartbeats, manifest, per-cell
 * checkpoints) and `--run-fleet` a fleet scenario with calibration-cache
 * persistence. Each prints its final matrix/report fingerprint and the
 * armed clause's hit counts.
 *
 * A pair PASSES when the child's fingerprint is bit-identical to the
 * fault-free baseline — crash points included, after re-launching into
 * the same checkpoint + crash-marker directories — or when every launch
 * exited loudly nonzero (a detected, reported failure). It FAILS on a
 * silent fingerprint mismatch, when the armed fault never fired (a
 * registry entry whose call site has gone dead), or when an atomic.*
 * fault landed on a file other than the sweep manifest or a checkpoint
 * cell (a best-effort write such as status.json took the hit, so the
 * recovery path under test never saw it).
 */

#include <fcntl.h>
#include <stdlib.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/faultio.hh"
#include "common/logging.hh"
#include "common/obs.hh"
#include "serve/fleet.hh"
#include "sim/experiment.hh"
#include "sim/scenario.hh"
#include "sim/shard.hh"
#include "workloads/suite.hh"

namespace {

using namespace constable;
namespace fs = std::filesystem;

constexpr size_t kTraceOps = 1500;
constexpr unsigned kLaunchesPerRun = 3;

/** Common child knobs: small, fast, and through the full machinery. */
ExperimentOptions
childOptions()
{
    ExperimentOptions opts = ExperimentOptions::fromEnv();
    opts.threads = 2;
    opts.traceOps = kTraceOps;
    opts.suiteLimit = 3;
    // Ambient CONSTABLE_TRACE_OUT/METRICS_OUT must not leak into the
    // crash-and-relaunch children: dozens of processes would race their
    // atexit writers on the same two files. Fingerprint comparison is the
    // observable here, not traces.
    opts.traceOutPath.clear();
    opts.metricsOutPath.clear();
    obsReset();
    opts.leaseTtlSec = 2;
    opts.shardPollMs = 50;
    return opts;
}

void
printChildResult(uint64_t fingerprint)
{
    std::printf("result fingerprint: %016llx\n",
                static_cast<unsigned long long>(fingerprint));
    for (const auto& [point, hits] : faultArmedHits()) {
        std::printf("fault hits: %s %llu\n", point.c_str(),
                    static_cast<unsigned long long>(hits));
    }
    std::fflush(stdout);
}

/**
 * Worker-mode sharded sweep: one process claims every cell itself, so
 * lease acquire/read/release/heartbeat, manifest I/O and cell commits
 * all fire in this process (hit counts stay observable) and an injected
 * crash kills the only worker — recovery is the re-launch resuming from
 * the shared checkpoint directory. A stale foreign lease planted on cell
 * 0 forces the reclaim path (and its skew-guarded age read) every run.
 */
int
runSweepChild()
{
    ExperimentOptions opts = childOptions();
    opts.shards = 2;
    opts.shardId = 0;
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

    SweepManifest manifest;
    std::string dir = exp.checkpointDirFor(opts.checkpointDir,
                                           /*smt=*/false, manifest,
                                           suite.size());
    std::error_code ec;
    fs::create_directories(dir, ec);
    LeaseRecord foreign;
    foreign.owner = "faultsweep-foreign";
    foreign.shardId = 1;
    std::string lp = cellLeasePath(dir, manifest, 0);
    if (tryAcquireLease(lp, foreign)) {
        // Backdate far past both the TTL (2 s) and any injected skew
        // (default 300 s), so the reclaim fires even under "skew".
        fs::last_write_time(
            lp, fs::file_time_type::clock::now() - std::chrono::seconds(500),
            ec);
    }

    ExperimentResult res = exp.run();
    printChildResult(resultFingerprint(res.matrix()));
    return 0;
}

/** Fleet scenario with calibration-cache persistence; the calibration
 *  sweep runs through the plain (non-sharded) checkpoint/resume path. */
int
runFleetChild()
{
    ExperimentOptions opts = childOptions();
    if (opts.checkpointDir.empty())
        fatal("--run-fleet needs CONSTABLE_CHECKPOINT_DIR");

    Scenario sc;
    sc.name = "faultsweep-fleet";
    sc.traceOps = kTraceOps;
    sc.suiteLimit = 2;
    FleetMachineClass m;
    m.name = "m0";
    m.mech = "baseline";
    m.cores = 2;
    m.replicas = 1;
    m.idlePjPerCycle = 1;
    sc.machines.push_back(m);
    FleetTaskClass t;
    t.name = "t0";
    t.interArrival = 5000;
    t.expectedOps = 2000;
    t.start = 0;
    t.end = 200'000;
    t.poisson = false;
    t.sla = SlaTier::Sla1;
    t.seed = 7;
    sc.tasks.push_back(t);

    FleetReport rep = runFleetScenario(sc, opts);
    printChildResult(rep.fingerprint());
    return 0;
}

// ----------------------------------------------------------- driver side

/** The actions a point's kind admits. */
std::vector<std::string>
actionsFor(const std::string& kind)
{
    if (kind == "write")
        return { "eio", "torn", "crash" };
    if (kind == "clock")
        return { "skew" };
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

uint64_t
parseDecToken(const char* s)
{
    uint64_t v = 0;
    while (*s >= '0' && *s <= '9')
        v = v * 10 + static_cast<uint64_t>(*s++ - '0');
    return v;
}

struct LaunchResult
{
    int exitCode = -1;    ///< child exit code; -1 on signal death
    uint64_t fingerprint = 0;
    bool haveFingerprint = false;
    uint64_t armedHits = 0; ///< summed hits of the armed point
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

/** Fork + exec one child run, stdout+stderr appended to @p logPath. */
LaunchResult
launchChild(const char* self, const char* mode, const std::string& plan,
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
        ::execl(self, self, mode, static_cast<char*>(nullptr));
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
        std::string tag = "fault hits: " + point + " ";
        for (size_t pos = log.find(tag); pos != std::string::npos;
             pos = log.find(tag, pos + 1)) {
            r.armedHits +=
                parseDecToken(log.c_str() + pos + tag.size());
        }
        // The log accumulates across launches, so the first notice is the
        // first launch's first injection.
        std::string notice = "at fault point '" + point + "' while writing '";
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

    // Fault-free baselines, one per child kind. The sweep baseline also
    // warms the shared trace cache.
    uint64_t baseFp[2] = { 0, 0 };
    const char* modes[2] = { "--run-sweep", "--run-fleet" };
    for (int k = 0; k < 2; ++k) {
        std::string dir = scratch + std::string("/base") + modes[k][6];
        fs::create_directories(dir);
        LaunchResult r =
            launchChild(self, modes[k], "", "", dir + "/markers", dir,
                        warmTraces, dir + "/log.txt");
        if (r.exitCode != 0 || !r.haveFingerprint) {
            fatal(std::string("fault-free baseline run (") + modes[k] +
                  ") failed; see " + dir + "/log.txt");
        }
        baseFp[k] = r.fingerprint;
        std::printf("baseline %-12s fingerprint %016llx\n", modes[k] + 2,
                    static_cast<unsigned long long>(baseFp[k]));
    }

    size_t pass = 0, fail = 0;
    std::vector<std::string> failures;
    for (const FaultPointInfo& p : faultPointTable()) {
        bool fleetPoint = std::strncmp(p.name, "fleet.", 6) == 0;
        const char* mode = fleetPoint ? "--run-fleet" : "--run-sweep";
        uint64_t want = baseFp[fleetPoint ? 1 : 0];
        for (const std::string& action : actionsFor(p.kind)) {
            std::string plan = std::string(p.name) + ":" + action + "@1";
            if (action == "skew")
                plan = std::string(p.name) + ":skew@400";
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
            bool recovered = false;
            uint64_t hits = 0;
            std::string target;
            for (unsigned launch = 0; launch < kLaunchesPerRun; ++launch) {
                LaunchResult r = launchChild(
                    self, mode, plan, p.name, markerDir, ckptDir, traceDir,
                    runDir + "/log.txt");
                target = r.injectedInto;
                if (r.exitCode == kFaultCrashExitCode) {
                    crashed = true;
                    continue; // relaunch into the same directories
                }
                hits = r.armedHits;
                if (r.exitCode == 0 && r.haveFingerprint) {
                    recovered = r.fingerprint == want;
                    silent = !recovered;
                } else {
                    loud = true; // detected + reported, not silent
                }
                break;
            }

            bool exercised = crashed || hits > 0;
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
    if (argc > 1 && std::strcmp(argv[1], "--run-fleet") == 0)
        return runFleetChild();
    if (argc > 1) {
        std::fprintf(stderr,
                     "usage: %s [--list | --run-sweep | --run-fleet]\n",
                     argv[0]);
        return 2;
    }
    return runDriver(selfPath(argv[0]).c_str());
}
