/**
 * @file
 * constable-sweep: the one program that runs a sweep chosen by preset
 * name, and the coordinator CLI for sharded multi-process sweeps. Runs
 * registry presets (by default all 16, in canonical order; `--mech=<name>
 * [,<name>...]` picks others) over the 90-trace suite, or over its SMT2
 * trace pairs with `--smt`, through the Experiment API, and prints
 * geomean speedups over the first preset plus a byte-level result
 * fingerprint (FNV chained over every cell's serialized RunResult, in
 * row-major order) so runs at different shard/thread counts can be
 * diffed for bit-identity. Every verb below takes the same preset list.
 *
 * 4 forked worker processes, resumable from a checkpoint directory:
 *   constable-sweep --shards=4 --checkpoint-dir=ck
 *
 * A subset, or the SMT2 pairs:
 *   constable-sweep --mech=baseline,constable,eves+constable --smt
 *
 * Assemble a finished sweep's matrix without simulating anything:
 *   constable-sweep --merge-only --checkpoint-dir=ck
 *
 * Watch a running sweep from another terminal (reads the status.json the
 * sweep atomically rewrites next to its cell checkpoints):
 *   constable-sweep --status --checkpoint-dir=ck
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/obs.hh"
#include "sim/experiment.hh"
#include "sim/scenario.hh"

namespace constable {
namespace {

/** The --status verb: find every status.json under the checkpoint root
 *  (the root itself plus one level of sweep subdirectories) and render
 *  them. Exit 0 when at least one was found and parsable. */
int
statusMain(const ExperimentOptions& opts)
{
    namespace fs = std::filesystem;
    if (opts.checkpointDir.empty())
        fatal("--status needs --checkpoint-dir to know which sweep to read");

    std::vector<std::string> candidates;
    candidates.push_back(opts.checkpointDir + "/status.json");
    std::vector<std::string> subs;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(opts.checkpointDir, ec)) {
        if (ec)
            break;
        std::error_code dec;
        if (entry.is_directory(dec) && !dec)
            subs.push_back(entry.path().string());
    }
    std::sort(subs.begin(), subs.end());
    for (const std::string& s : subs)
        candidates.push_back(s + "/status.json");

    size_t printed = 0;
    for (const std::string& path : candidates) {
        std::string line = obsFormatStatus(obsReadStatus(path));
        if (line.empty())
            continue;
        std::printf("%s\n", line.c_str());
        ++printed;
    }
    if (printed == 0) {
        std::printf("no readable status.json under '%s' (is a sweep "
                    "running there with a checkpoint dir?)\n",
                    opts.checkpointDir.c_str());
        return 1;
    }
    return 0;
}

/** The --sample-check verb: run the preset matrix twice over the same
 *  suite — full fidelity and phase-sampled — and gate each preset's
 *  geomean cycle error against @p bound_pct. This is the accuracy contract
 *  behind the README's error-bound claim; CI runs it on every push. */
int
sampleCheckMain(const Scenario& sc, const Suite& suite,
                ExperimentOptions opts, double bound_pct)
{
    using clock = std::chrono::steady_clock;
    if (!opts.sample.enabled)
        opts.sample.enabled = true; // struct defaults = the tuned spec
    ExperimentOptions fullOpts = opts;
    fullOpts.sample = SampleOptions{}; // full fidelity

    auto t0 = clock::now();
    ExperimentResult full = runScenario(sc, suite, fullOpts);
    auto t1 = clock::now();
    ExperimentResult samp = runScenario(sc, suite, opts);
    auto t2 = clock::now();
    double fullSec = std::chrono::duration<double>(t1 - t0).count();
    double sampSec = std::chrono::duration<double>(t2 - t1).count();

    std::printf("sample-check: spec=%s bound=%.2f%% rows=%zu\n",
                opts.sample.spec().c_str(), bound_pct, full.numRows());
    std::printf("%-24s %12s %12s\n", "preset", "geomean-err", "max-row-err");
    bool pass = true;
    for (size_t cfg = 0; cfg < sc.mechs.size(); ++cfg) {
        double logSum = 0.0;
        double maxErr = 0.0;
        for (size_t row = 0; row < full.numRows(); ++row) {
            double f = static_cast<double>(full.at(row, cfg).cycles);
            double s = static_cast<double>(samp.at(row, cfg).cycles);
            double ratio = s / f;
            logSum += std::log(ratio);
            maxErr = std::max(maxErr, std::fabs(ratio - 1.0));
        }
        double geo = std::exp(logSum / static_cast<double>(full.numRows()));
        double err = std::fabs(geo - 1.0) * 100.0;
        bool ok = err <= bound_pct;
        pass = pass && ok;
        std::printf("%-24s %+11.3f%% %11.3f%%%s\n", sc.mechs[cfg].c_str(),
                    (geo - 1.0) * 100.0, maxErr * 100.0,
                    ok ? "" : "  <-- over bound");
    }
    std::printf("wall: full %.2fs, sampled %.2fs (%.1fx)\n", fullSec,
                sampSec, sampSec > 0 ? fullSec / sampSec : 0.0);
    std::printf("sample-check: %s\n", pass ? "PASS" : "FAIL");
    return pass ? 0 : 1;
}

int
sweepMain(int argc, char** argv)
{
    bool mergeOnly = false;
    bool statusOnly = false;
    bool sampleCheck = false;
    double sampleCheckBound = 3.0;
    Scenario sc;
    std::vector<char*> rest;
    rest.push_back(argc > 0 ? argv[0] : const_cast<char*>("constable-sweep"));
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--merge-only") == 0) {
            mergeOnly = true;
        } else if (std::strcmp(argv[i], "--status") == 0) {
            statusOnly = true;
        } else if (std::strcmp(argv[i], "--smt") == 0) {
            sc.smt = true;
        } else if (std::strncmp(argv[i], "--mech=", 7) == 0) {
            appendPresetNames("--mech", argv[i] + 7, sc.mechs);
        } else if (std::strcmp(argv[i], "--mech") == 0) {
            if (i + 1 >= argc)
                fatal("--mech requires a value (see --help)");
            appendPresetNames("--mech", argv[++i], sc.mechs);
        } else if (std::strncmp(argv[i], "--sample-check", 14) == 0) {
            sampleCheck = true;
            if (argv[i][14] != '\0' && argv[i][14] != '=')
                fatal(std::string("unknown option ") + argv[i]);
            if (argv[i][14] == '=') {
                sampleCheckBound = parseDoubleInRange(
                    "--sample-check", argv[i] + 15,
                    { .lo = 0.0, .hi = 100.0, .loOpen = true });
            }
        } else {
            if (std::strcmp(argv[i], "--help") == 0 ||
                std::strcmp(argv[i], "-h") == 0) {
                std::printf(
                    "constable-sweep extra options:\n"
                    "  --mech=NAME[,NAME...]\n"
                    "                 the registry presets to sweep, first\n"
                    "                 = speedup base (default: all, in the\n"
                    "                 order listed below); repeatable\n"
                    "  --smt          sweep the SMT2 trace pairs instead\n"
                    "                 of one row per trace\n"
                    "  --merge-only   assemble the matrix from an existing\n"
                    "                 checkpoint dir; simulate nothing and\n"
                    "                 fail if any cell is missing\n"
                    "  --status       pretty-print the live status.json of\n"
                    "                 the sweep(s) under --checkpoint-dir\n"
                    "                 and exit; works from another process\n"
                    "                 while the sweep runs\n"
                    "  --sample-check[=PCT]\n"
                    "                 run the presets full-fidelity AND\n"
                    "                 sampled (--sample spec, or the\n"
                    "                 default), then fail if any preset's\n"
                    "                 geomean cycle error exceeds PCT\n"
                    "                 (default 3%%)\n"
                    "Mechanism presets: %s\n",
                    MechanismRegistry::instance().nameList().c_str());
            }
            rest.push_back(argv[i]);
        }
    }
    if (sc.mechs.empty()) {
        for (const MechanismPreset& p :
             MechanismRegistry::instance().presets())
            sc.mechs.push_back(p.name);
    }

    ExperimentOptions opts = ExperimentOptions::fromArgs(
        static_cast<int>(rest.size()), rest.data());

    if (statusOnly)
        return statusMain(opts);
    if (sampleCheck && (mergeOnly || sc.smt))
        fatal("--sample-check runs its own two sweeps of single-trace rows; "
              "it takes neither --merge-only nor --smt");

    Suite suite = Suite::prepare(opts, /*inspect=*/true);
    if (sampleCheck)
        return sampleCheckMain(sc, suite, opts, sampleCheckBound);
    printScenarioReport(sc, runScenario(sc, suite, opts, mergeOnly));
    return 0;
}

} // namespace
} // namespace constable

int
main(int argc, char** argv)
{
    return constable::sweepMain(argc, argv);
}
