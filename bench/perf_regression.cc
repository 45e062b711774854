/**
 * @file
 * Wall-clock regression bench for the simulator itself (not the modeled
 * core): times a {suite x mechanism-preset} sweep through the Experiment
 * API and reports simulated mega-ops per wall-second per preset, so every
 * PR leaves a recorded performance trajectory.
 *
 * Output is machine-readable JSON (BENCH_perf.json by default). With
 * --check-against=FILE the bench compares its total throughput against a
 * previously recorded file and exits non-zero on a regression beyond
 * --max-regression (CI gate).
 *
 *   ./build/bench/perf_regression                      # measure + write
 *   ./build/bench/perf_regression --repeats=3 \
 *       --check-against=bench/BENCH_perf_baseline.json # gate vs baseline
 *
 * Build Release (-O3, NDEBUG) for meaningful numbers; per-cell checkpoints
 * are force-disabled so every cell really simulates.
 */

#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/env.hh"
#include "common/faultio.hh"
#include "common/logging.hh"
#include "sim/experiment.hh"
#include "sim/runner.hh"

namespace constable {
namespace {

struct PerfFlags
{
    std::string jsonOut = "BENCH_perf.json";
    std::string checkAgainst;
    double maxRegression = 0.25;
    unsigned repeats = 1;
    /** > 1: also time the combined preset sweep serially vs forked across
     *  this many worker processes and record the scaling. */
    unsigned shardScaling = 0;
    /** Also time every preset in phase-sampled mode and record the
     *  effective (extrapolated-instructions / sampled-wall) throughput as
     *  its own series. Empty spec: the built-in sampling defaults. */
    bool sampledLeg = false;
    std::string sampledSpec;
};

struct PresetTiming
{
    std::string name;
    size_t cells = 0;
    uint64_t instructions = 0;
    uint64_t cycles = 0;
    double wallSeconds = 0.0;

    double mopsPerSec() const
    {
        return wallSeconds <= 0.0
                   ? 0.0
                   : static_cast<double>(instructions) / wallSeconds / 1e6;
    }
};

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

using PresetList = std::vector<std::pair<std::string, MechanismConfig>>;

/** One timed leg: every preset swept alone over the suite, and their
 *  sum (the presets' best times and instructions added up). */
struct LegTiming
{
    std::vector<PresetTiming> presets;
    PresetTiming total;
};

/**
 * Time each preset as its own single-config Experiment, keeping the best
 * of `repeats` wall-clock runs and that run's instruction/cycle sums, and
 * print one line per preset as it finishes. `unit` labels the throughput
 * ("eff-Mops/s" for sampled legs, whose instructions are extrapolated).
 */
LegTiming
timeLeg(const std::string& label, const Suite& suite,
        const ExperimentOptions& opts, const PresetList& presets,
        unsigned repeats, const char* unit)
{
    LegTiming leg;
    for (const auto& [name, mech] : presets) {
        Experiment exp(label + name, suite, opts);
        exp.add(name, mech);
        PresetTiming t;
        t.name = name;
        t.cells = suite.size();
        t.wallSeconds = -1.0;
        for (unsigned rep = 0; rep < repeats; ++rep) {
            auto t0 = std::chrono::steady_clock::now();
            ExperimentResult res = exp.run();
            double secs = secondsSince(t0);
            if (t.wallSeconds >= 0.0 && secs >= t.wallSeconds)
                continue;
            t.wallSeconds = secs;
            t.instructions = 0;
            t.cycles = 0;
            for (size_t row = 0; row < res.numRows(); ++row) {
                t.instructions += res.at(row, 0).instructions;
                t.cycles += res.at(row, 0).cycles;
            }
        }
        std::printf("%-18s %6.3fs  %8.2f %s  (%zu cells, %llu insts)\n",
                    name.c_str(), t.wallSeconds, t.mopsPerSec(), unit,
                    t.cells, static_cast<unsigned long long>(t.instructions));
        leg.total.wallSeconds += t.wallSeconds;
        leg.total.instructions += t.instructions;
        leg.presets.push_back(t);
    }
    return leg;
}

} // namespace

int
perfMain(int argc, char** argv)
{
    // Split this bench's own flags from the shared Experiment options.
    PerfFlags flags;
    std::vector<char*> rest;
    rest.push_back(argc > 0 ? argv[0] : const_cast<char*>("perf_regression"));
    auto valueOf = [&](const std::string& arg, int& i) -> std::string {
        if (auto eq = arg.find('='); eq != std::string::npos)
            return arg.substr(eq + 1);
        if (i + 1 >= argc)
            fatal(arg + " requires a value");
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string flag = arg.substr(0, arg.find('='));
        if (flag == "--json-out") {
            flags.jsonOut = valueOf(arg, i);
        } else if (flag == "--check-against") {
            flags.checkAgainst = valueOf(arg, i);
        } else if (flag == "--max-regression") {
            // A fraction: a percentage typed here (25) must die, not
            // push the floor below zero and pass every run.
            flags.maxRegression = parseDoubleInRange(
                "--max-regression", valueOf(arg, i),
                { .lo = 0.0, .hi = 1.0, .hiOpen = true });
        } else if (flag == "--repeats") {
            flags.repeats = static_cast<unsigned>(
                parseU64InRange("--repeats", valueOf(arg, i), 1, 1000));
        } else if (flag == "--shard-scaling") {
            flags.shardScaling = static_cast<unsigned>(
                parseU64InRange("--shard-scaling", valueOf(arg, i), 0,
                                ShardOptions::kMaxShards));
        } else if (flag == "--sampled-leg") {
            flags.sampledLeg = true;
            if (arg.find('=') != std::string::npos)
                flags.sampledSpec = valueOf(arg, i);
        } else {
            if (flag == "--help" || flag == "-h") {
                std::printf(
                    "perf_regression extra options:\n"
                    "  --json-out=PATH        result JSON (default "
                    "BENCH_perf.json)\n"
                    "  --check-against=PATH   fail on throughput regression "
                    "vs this file\n"
                    "  --max-regression=F     allowed fractional slowdown "
                    "(default 0.25)\n"
                    "  --repeats=N            timed repeats, best-of "
                    "(default 1)\n"
                    "  --shard-scaling=N      also time the preset sweep "
                    "1-process vs N forked\n                         "
                    "workers and record the speedup\n"
                    "  --sampled-leg[=SPEC]   also time every preset "
                    "phase-sampled and record the\n                     "
                    "    effective Mops/s series (default spec if omitted)\n");
            }
            rest.push_back(argv[i]);
        }
    }

    ExperimentOptions opts = ExperimentOptions::fromArgs(
        static_cast<int>(rest.size()), rest.data());
    // A perf measurement must simulate every cell: checkpoint resume would
    // turn the sweep into file reads and time nothing.
    opts.checkpointDir.clear();

    std::printf("preparing suite (workloads x %zu ops)...\n", opts.traceOps);
    Suite suite = Suite::prepare(opts, /*inspect=*/false);

    const PresetList presets = {
        { "baseline", mechFor("baseline") },
        { "constable", mechFor("constable") },
        { "eves", mechFor("eves") },
        { "eves+constable", mechFor("eves+constable") },
        { "elar+constable", mechFor("elar+constable") },
        { "rfp+constable", mechFor("rfp+constable") },
    };

    LegTiming full = timeLeg("perf_", suite, opts, presets, flags.repeats,
                             "Mops/s");
    const std::vector<PresetTiming>& timings = full.presets;
    const double totalSecs = full.total.wallSeconds;
    const double totalMops = full.total.mopsPerSec();
    // Repeats are bit-identical, so each preset's best-run cycle sum is
    // its cycle total.
    uint64_t determinism = 0;
    for (const PresetTiming& t : timings)
        determinism ^= t.cycles;
    std::printf("total              %6.3fs  %8.2f Mops/s  (determinism "
                "%016llx)\n",
                totalSecs, totalMops,
                static_cast<unsigned long long>(determinism));

    // --------------------------------------------------------- sampled leg
    // Same presets in phase-sampled mode. A sampled RunResult reports
    // extrapolated whole-trace instructions, so the throughput here is
    // *effective* — directly comparable to the full series above, and
    // only meaningfully >1x on long traces (see README "Sampled
    // simulation").
    LegTiming sampled;
    SampleOptions sampleSpec;
    double sampledSpeedup = 0.0;
    if (flags.sampledLeg) {
        sampleSpec.enabled = true;
        if (!flags.sampledSpec.empty())
            sampleSpec = SampleOptions::parse(flags.sampledSpec);
        ExperimentOptions sopts = opts;
        sopts.sample = sampleSpec;
        sampled = timeLeg("perf_sampled_", suite, sopts, presets,
                          flags.repeats, "eff-Mops/s");
        if (totalMops > 0.0)
            sampledSpeedup = sampled.total.mopsPerSec() / totalMops;
        std::printf("sampled total      %6.3fs  %8.2f eff-Mops/s  "
                    "(%.2fx vs full, spec %s)\n",
                    sampled.total.wallSeconds, sampled.total.mopsPerSec(),
                    sampledSpeedup, sampleSpec.spec().c_str());
    }

    // ------------------------------------------------ multi-process scaling
    // Times the combined preset sweep once serially and once forked across
    // N single-threaded worker processes (sim/shard.hh), verifying the
    // results agree, so the perf trajectory records what each shard buys.
    double scaleSerialSecs = 0.0, scaleShardedSecs = 0.0;
    if (flags.shardScaling > 1) {
        auto combined = [&](const ExperimentOptions& o) {
            Experiment exp("perf_shard_scaling", suite, o);
            for (const auto& [name, mech] : presets)
                exp.add(name, mech);
            return exp.run();
        };
        ExperimentOptions serial = opts;
        serial.threads = 1;
        serial.shards = 1;
        auto t0 = std::chrono::steady_clock::now();
        ExperimentResult sref = combined(serial);
        scaleSerialSecs = secondsSince(t0);

        ExperimentOptions sharded = opts;
        sharded.threads = 1; // processes, not threads, carry the fan-out
        sharded.shards = flags.shardScaling;
        t0 = std::chrono::steady_clock::now();
        ExperimentResult sres = combined(sharded);
        scaleShardedSecs = secondsSince(t0);

        if (sres.totalCycles() != sref.totalCycles())
            fatal("sharded sweep diverged from the serial reference");
        std::printf("shard scaling      %u procs: %6.3fs vs %6.3fs serial "
                    "(%.2fx)\n",
                    flags.shardScaling, scaleShardedSecs, scaleSerialSecs,
                    scaleShardedSecs > 0.0
                        ? scaleSerialSecs / scaleShardedSecs
                        : 0.0);
        unsigned cpus = std::thread::hardware_concurrency();
        if (cpus != 0 && cpus < flags.shardScaling) {
            std::printf("  (note: only %u CPU%s visible — CPU-bound cells "
                        "cannot speed up past that;\n   see the "
                        "sleep-cell scaling assertion in tests/"
                        "test_shard.cc for the harness ceiling)\n",
                        cpus, cpus == 1 ? "" : "s");
        }
    }

    // ------------------------------------------------------------- JSON out
    std::string json = "{\n  \"schema\": \"constable-perf-v1\",\n";
    {
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "  \"suite\": {\"workloads\":%zu, \"trace_ops\":%zu, "
                      "\"threads\":%u, \"repeats\":%u},\n",
                      suite.size(), opts.traceOps, opts.threads,
                      flags.repeats);
        json += buf;
        json += "  \"presets\": [\n";
        for (size_t i = 0; i < timings.size(); ++i) {
            const PresetTiming& t = timings[i];
            std::snprintf(
                buf, sizeof(buf),
                "    {\"name\":\"%s\", \"cells\":%zu, "
                "\"instructions\":%llu, \"cycles\":%llu, "
                "\"wall_seconds\":%.6f, \"mops_per_sec\":%.3f}%s\n",
                t.name.c_str(), t.cells,
                static_cast<unsigned long long>(t.instructions),
                static_cast<unsigned long long>(t.cycles), t.wallSeconds,
                t.mopsPerSec(), i + 1 < timings.size() ? "," : "");
            json += buf;
        }
        json += "  ],\n";
        if (flags.shardScaling > 1) {
            std::snprintf(
                buf, sizeof(buf),
                "  \"shard_scaling\": {\"shards\":%u, \"host_cpus\":%u, "
                "\"serial_seconds\":%.6f, \"sharded_seconds\":%.6f, "
                "\"speedup\":%.3f},\n",
                flags.shardScaling, std::thread::hardware_concurrency(),
                scaleSerialSecs, scaleShardedSecs,
                scaleShardedSecs > 0.0 ? scaleSerialSecs / scaleShardedSecs
                                       : 0.0);
            json += buf;
        }
        if (flags.sampledLeg) {
            std::snprintf(buf, sizeof(buf),
                          "  \"sampled\": {\"spec\":\"%s\", \"presets\": [\n",
                          sampleSpec.spec().c_str());
            json += buf;
            for (size_t i = 0; i < sampled.presets.size(); ++i) {
                const PresetTiming& t = sampled.presets[i];
                std::snprintf(
                    buf, sizeof(buf),
                    "    {\"name\":\"%s\", \"wall_seconds\":%.6f, "
                    "\"effective_mops_per_sec\":%.3f}%s\n",
                    t.name.c_str(), t.wallSeconds, t.mopsPerSec(),
                    i + 1 < sampled.presets.size() ? "," : "");
                json += buf;
            }
            std::snprintf(
                buf, sizeof(buf),
                "  ], \"wall_seconds\":%.6f, "
                "\"effective_mops_per_sec\":%.3f, "
                "\"speedup_vs_full\":%.3f},\n",
                sampled.total.wallSeconds, sampled.total.mopsPerSec(),
                sampledSpeedup);
            json += buf;
        }
        std::snprintf(buf, sizeof(buf),
                      "  \"total\": {\"wall_seconds\":%.6f, "
                      "\"mops_per_sec\":%.3f}\n}\n",
                      totalSecs, totalMops);
        json += buf;
    }
    if (!writeFileAtomic(flags.jsonOut, json))
        fatal("cannot write " + flags.jsonOut);
    std::printf("wrote %s\n", flags.jsonOut.c_str());

    // ------------------------------------------------------ regression gate
    // Gates per-preset Mops/s as well as the total: a regression confined
    // to one mechanism's hook path (e.g. constable's stability tables)
    // barely moves the 6-preset total, and the total-only gate used to
    // let exactly that class of slowdown through.
    if (!flags.checkAgainst.empty()) {
        std::string baseline;
        if (!readFileText(flags.checkAgainst, baseline))
            fatal("cannot read baseline " + flags.checkAgainst);
        size_t totalAt = baseline.find("\"total\"");
        std::optional<double> totalBase =
            totalAt == std::string::npos
                ? std::nullopt
                : flatJsonNumber(baseline, "mops_per_sec", totalAt);
        if (!totalBase)
            fatal("baseline " + flags.checkAgainst +
                  " has no total mops_per_sec");
        double baseMops = *totalBase;
        int regressions = 0;
        // Full-fidelity presets only: scope the per-preset lookup to the
        // first "presets" array so the sampled section's entries (which
        // share names) can never be mistaken for baselines.
        size_t presetsAt = baseline.find("\"presets\"");
        size_t presetsEnd = presetsAt == std::string::npos
                                ? std::string::npos
                                : baseline.find(']', presetsAt);
        for (const PresetTiming& t : timings) {
            size_t at = baseline.find("\"name\":\"" + t.name + "\"",
                                      presetsAt);
            std::optional<double> presetBase =
                at == std::string::npos || at > presetsEnd
                    ? std::nullopt
                    : flatJsonNumber(baseline, "mops_per_sec", at);
            if (!presetBase) {
                std::printf("  %-18s no baseline entry; skipped\n",
                            t.name.c_str());
                continue;
            }
            double base = *presetBase;
            double presetFloor = base * (1.0 - flags.maxRegression);
            std::printf("  %-18s current %8.2f vs baseline %8.2f Mops/s "
                        "(floor %8.2f)%s\n",
                        t.name.c_str(), t.mopsPerSec(), base, presetFloor,
                        t.mopsPerSec() < presetFloor ? "  REGRESSED" : "");
            if (t.mopsPerSec() < presetFloor) {
                std::fprintf(stderr,
                             "PERF REGRESSION: preset %s at %.2f Mops/s is "
                             "%.1f%% below baseline %.2f\n",
                             t.name.c_str(), t.mopsPerSec(),
                             100.0 * (1.0 - t.mopsPerSec() / base), base);
                ++regressions;
            }
        }
        double floor = baseMops * (1.0 - flags.maxRegression);
        std::printf("regression gate: current %.2f vs baseline %.2f Mops/s "
                    "(floor %.2f)\n",
                    totalMops, baseMops, floor);
        if (totalMops < floor) {
            std::fprintf(stderr,
                         "PERF REGRESSION: %.2f Mops/s is %.1f%% below "
                         "baseline %.2f\n",
                         totalMops, 100.0 * (1.0 - totalMops / baseMops),
                         baseMops);
            ++regressions;
        }
        if (regressions > 0)
            return 1;
        std::printf("regression gate passed (%zu presets + total)\n",
                    timings.size());
    }
    return 0;
}

} // namespace constable

int
main(int argc, char** argv)
{
    return constable::perfMain(argc, argv);
}
