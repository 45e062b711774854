/**
 * @file
 * constable-sweep: the coordinator CLI for sharded multi-process sweeps.
 * Runs the paper's full mechanism-preset matrix (16 named configurations x
 * the 90-trace suite) through the Experiment API and prints per-preset
 * geomean speedups plus a byte-level result fingerprint (FNV chained over
 * every cell's serialized RunResult, in row-major order) so runs at
 * different shard/thread counts can be diffed for bit-identity.
 *
 * Single machine, 4 worker processes:
 *   constable-sweep --shards=4
 *
 * Fleet on a shared filesystem (one process per machine; any worker can
 * also crash and be replaced — its leased cells are reclaimed):
 *   machine k:  constable-sweep --shards=8 --shard-id=k \
 *                   --checkpoint-dir=/shared/sweep
 *
 * Assemble a finished fleet's matrix without simulating anything:
 *   constable-sweep --merge-only --checkpoint-dir=/shared/sweep
 *
 * Watch a running sweep from another terminal (reads the status.json the
 * sweep atomically rewrites next to its cell checkpoints):
 *   constable-sweep --status --checkpoint-dir=/shared/sweep
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

/** Every registry preset (the golden-snapshot set: §8.4 plus the Fig 7
 *  oracles, Fig 13 mode filters, Fig 22 AMT-I), in canonical order. */
Experiment
presetExperiment(const Suite& suite, const ExperimentOptions& opts)
{
    Experiment exp("presets", suite, opts);
    for (const MechanismPreset& p : MechanismRegistry::instance().presets())
        exp.addPreset(p.name);
    return exp;
}

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

/** The --sample-check verb: run the full preset matrix twice over the
 *  same suite — full fidelity and phase-sampled — and gate the per-preset
 *  geomean cycle error against @p bound_pct. This is the accuracy contract
 *  behind the README's error-bound claim; CI runs it on every push. */
int
sampleCheckMain(ExperimentOptions opts, double bound_pct)
{
    using clock = std::chrono::steady_clock;
    if (!opts.sample.enabled)
        opts.sample.enabled = true; // struct defaults = the tuned spec
    ExperimentOptions fullOpts = opts;
    fullOpts.sample = SampleOptions{}; // full fidelity

    Suite suite = Suite::prepare(opts, /*inspect=*/true);

    auto t0 = clock::now();
    Experiment fullExp = presetExperiment(suite, fullOpts);
    ExperimentResult full = fullExp.run();
    auto t1 = clock::now();
    Experiment sampExp = presetExperiment(suite, opts);
    ExperimentResult samp = sampExp.run();
    auto t2 = clock::now();
    double fullSec = std::chrono::duration<double>(t1 - t0).count();
    double sampSec = std::chrono::duration<double>(t2 - t1).count();

    std::printf("sample-check: spec=%s bound=%.2f%% rows=%zu\n",
                opts.sample.spec().c_str(), bound_pct, full.numRows());
    std::printf("%-24s %12s %12s\n", "preset", "geomean-err", "max-row-err");
    bool pass = true;
    for (const MechanismPreset& p : MechanismRegistry::instance().presets()) {
        size_t cfg = full.configIndex(p.name);
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
        std::printf("%-24s %+11.3f%% %11.3f%%%s\n", p.name.c_str(),
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
    std::vector<char*> rest;
    rest.push_back(argc > 0 ? argv[0] : const_cast<char*>("constable-sweep"));
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--merge-only") == 0) {
            mergeOnly = true;
        } else if (std::strcmp(argv[i], "--status") == 0) {
            statusOnly = true;
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
                    "  --merge-only   assemble the matrix from an existing\n"
                    "                 checkpoint dir; simulate nothing and\n"
                    "                 fail if any cell is missing\n"
                    "  --status       pretty-print the live status.json of\n"
                    "                 the sweep(s) under --checkpoint-dir\n"
                    "                 and exit; works from another process\n"
                    "                 while the sweep runs\n"
                    "  --sample-check[=PCT]\n"
                    "                 run the preset matrix full-fidelity\n"
                    "                 AND sampled (--sample spec, or the\n"
                    "                 default), then fail if any preset's\n"
                    "                 geomean cycle error exceeds PCT\n"
                    "                 (default 3%%)\n");
            }
            rest.push_back(argv[i]);
        }
    }

    ExperimentOptions opts = ExperimentOptions::fromArgs(
        static_cast<int>(rest.size()), rest.data());

    if (statusOnly)
        return statusMain(opts);
    if (sampleCheck)
        return sampleCheckMain(opts, sampleCheckBound);

    // --mech / --scenario run a named registry sweep instead of the full
    // 16-preset matrix (sim/scenario.hh).
    if (runNamedSweepIfRequested("sweep", opts))
        return 0;

    Suite suite = Suite::prepare(opts, /*inspect=*/true);
    Experiment exp = presetExperiment(suite, opts);
    ExperimentResult res = mergeOnly ? exp.merge() : exp.run();

    if (!opts.printsReport())
        return 0;

    std::vector<std::vector<double>> series;
    std::vector<std::string> names = {
        "constable", "eves", "eves+constable", "elar+constable",
        "rfp+constable", "ideal-constable",
    };
    for (const std::string& n : names)
        series.push_back(res.speedups(n, "baseline"));
    res.printGeomeans("constable-sweep: preset speedups over baseline",
                      series, names);
    std::printf("\ncells: %zu (%zu resumed from prior checkpoints)\n",
                res.matrix().results.size(), res.resumedCells());
    std::printf("result fingerprint: %016llx\n",
                static_cast<unsigned long long>(
                    resultFingerprint(res.matrix())));
    return 0;
}

} // namespace
} // namespace constable

int
main(int argc, char** argv)
{
    return constable::sweepMain(argc, argv);
}
