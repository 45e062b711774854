#include "sim/experiment.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <system_error>

#include "common/env.hh"
#include "common/faultio.hh"
#include "common/logging.hh"
#include "common/obs.hh"
#include "common/stats.hh"
#include "trace/serialize.hh"

namespace constable {

namespace {

/** boost-style hash_combine over 64-bit values. */
uint64_t
hashCombine(uint64_t h, uint64_t v)
{
    return h ^ (v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
}

std::string
hex16(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

void
makeDirs(const std::string& dir, const char* what)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        fatal(std::string(what) + " directory '" + dir +
              "' cannot be created: " + ec.message());
}

[[noreturn]] void
printUsage(const char* prog, int exit_code)
{
    std::FILE* out = exit_code == 0 ? stdout : stderr;
    std::fprintf(out,
        "usage: %s [options]\n"
        "  --threads=N         batch threads, at most 256 (0 = all cores "
        "up to 16,\n                      1 = serial)\n"
        "  --seed=N            sampled-window selection seed (part of "
        "the sampled\n                      checkpoint key)\n"
        "  --trace-ops=N       dynamic micro-ops per generated trace\n"
        "  --suite-limit=N     truncate the suite to its first N traces\n"
        "  --trace-dir=PATH    on-disk trace cache (generate once, then "
        "load)\n"
        "  --checkpoint-dir=PATH  per-cell checkpoints; interrupted sweeps "
        "resume\n"
        "  --shards=N          fork N cooperating worker processes per "
        "sweep\n"
        "  --sample=SPEC       phase-sampled simulation: phases:N,window:K "
        "(or\n                      'off'); see README \"Sampled "
        "simulation\"\n"
        "  --fault-plan=SPEC   arm deterministic I/O fault injection "
        "(see\n                      README \"Fault injection & "
        "recovery\")\n"
        "  --trace-out=FILE    write a Chrome/Perfetto trace-event JSON "
        "at exit\n"
        "  --metrics-out=FILE  write an obs metrics snapshot JSON at "
        "exit\n"
        "  --progress-sec=N    seconds between one-line progress reports "
        "(0 = off)\n"
        "  --help              this text\n"
        "Environment: CONSTABLE_THREADS, CONSTABLE_SEED, "
        "CONSTABLE_TRACE_OPS,\nCONSTABLE_SUITE_LIMIT, CONSTABLE_TRACE_DIR, "
        "CONSTABLE_CHECKPOINT_DIR,\nCONSTABLE_SHARDS, "
        "CONSTABLE_SAMPLE, CONSTABLE_FAULT_PLAN,\n"
        "CONSTABLE_FAULT_MARKER_DIR, CONSTABLE_TRACE_OUT,\n"
        "CONSTABLE_METRICS_OUT, CONSTABLE_PROGRESS_SEC, "
        "CONSTABLE_LOG_LEVEL\n"
        "(strict-parsed; CLI flags override env).\n",
        prog);
    std::exit(exit_code);
}

/** The category reporters group a series by the suite's traces, so it
 *  must hold one value per trace. An SMT result has one row per trace
 *  pair and does not. */
void
requireOnePerTrace(const std::string& header, size_t values, size_t traces)
{
    if (values != traces) {
        fatal("report '" + header + "': a series has " +
              std::to_string(values) + " values for " +
              std::to_string(traces) +
              " traces (SMT rows are trace pairs; report them as overall "
              "geomeans)");
    }
}

} // namespace

int
seriesNameWidth(const std::vector<std::string>& names)
{
    size_t width = 13;
    for (const std::string& n : names)
        width = std::max(width, n.size());
    return static_cast<int>(width + 1);
}

// -------------------------------------------------------- ExperimentOptions

ExperimentOptions
ExperimentOptions::fromEnv()
{
    ExperimentOptions opts;
    if (auto v = envU64InRange("CONSTABLE_THREADS", 0, kMaxThreads))
        opts.threads = static_cast<unsigned>(*v);
    if (auto v = envU64("CONSTABLE_SEED"))
        opts.seed = *v;
    opts.traceOps = defaultTraceOps(); // strict-parses CONSTABLE_TRACE_OPS
    if (auto v = envU64("CONSTABLE_SUITE_LIMIT")) {
        if (*v == 0)
            fatal("CONSTABLE_SUITE_LIMIT must be >= 1");
        opts.suiteLimit = static_cast<size_t>(*v);
    }
    if (auto v = envStr("CONSTABLE_TRACE_DIR"))
        opts.traceDir = *v;
    if (auto v = envStr("CONSTABLE_CHECKPOINT_DIR"))
        opts.checkpointDir = *v;
    if (auto v = envU64InRange("CONSTABLE_SHARDS", 1, kMaxShards))
        opts.shards = static_cast<unsigned>(*v);
    if (auto v = envStr("CONSTABLE_SAMPLE"))
        opts.sample = SampleOptions::parse(*v);
    if (auto v = envStr("CONSTABLE_TRACE_OUT"))
        opts.traceOutPath = *v;
    if (auto v = envStr("CONSTABLE_METRICS_OUT"))
        opts.metricsOutPath = *v;
    if (auto v = envU64InRange("CONSTABLE_PROGRESS_SEC", 0, 86400))
        opts.progressSec = static_cast<unsigned>(*v);
    obsConfigureOutputs(opts.traceOutPath, opts.metricsOutPath);
    // Malformed CONSTABLE_FAULT_PLAN should die here, at startup, not at
    // the first I/O call deep inside a sweep.
    faultLoadEnvPlan();
    return opts;
}

ExperimentOptions
ExperimentOptions::fromArgs(int argc, char** argv)
{
    ExperimentOptions opts = fromEnv();
    const char* prog = argc > 0 ? argv[0] : "bench";
    auto next = [&](int& i, const std::string& flag) -> std::string {
        if (i + 1 >= argc)
            fatal(flag + " requires a value (see --help)");
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string flag = arg, value;
        bool inlineValue = false;
        if (auto eq = arg.find('='); eq != std::string::npos) {
            flag = arg.substr(0, eq);
            value = arg.substr(eq + 1);
            inlineValue = true;
        }
        auto val = [&]() {
            return inlineValue ? value : next(i, flag);
        };
        if (flag == "--help" || flag == "-h") {
            printUsage(prog, 0);
        } else if (flag == "--threads") {
            opts.threads = static_cast<unsigned>(
                parseU64InRange(flag, val(), 0, kMaxThreads));
        } else if (flag == "--seed") {
            opts.seed = parseU64Strict(flag, val());
        } else if (flag == "--trace-ops") {
            uint64_t v = parseU64Strict(flag, val());
            if (v == 0)
                fatal("--trace-ops must be >= 1");
            opts.traceOps = static_cast<size_t>(v);
        } else if (flag == "--suite-limit") {
            uint64_t v = parseU64Strict(flag, val());
            if (v == 0)
                fatal("--suite-limit must be >= 1");
            opts.suiteLimit = static_cast<size_t>(v);
        } else if (flag == "--trace-dir") {
            opts.traceDir = val();
        } else if (flag == "--checkpoint-dir") {
            opts.checkpointDir = val();
        } else if (flag == "--shards") {
            opts.shards = static_cast<unsigned>(
                parseU64InRange(flag, val(), 1, kMaxShards));
        } else if (flag == "--sample") {
            opts.sample = SampleOptions::parse(val());
        } else if (flag == "--fault-plan") {
            installFaultPlan(val(),
                             envStr("CONSTABLE_FAULT_MARKER_DIR")
                                 .value_or(std::string()));
        } else if (flag == "--trace-out") {
            opts.traceOutPath = val();
        } else if (flag == "--metrics-out") {
            opts.metricsOutPath = val();
        } else if (flag == "--progress-sec") {
            opts.progressSec = static_cast<unsigned>(
                parseU64InRange(flag, val(), 0, 86400));
        } else {
            warn("unknown argument '" + arg + "'");
            printUsage(prog, 1);
        }
    }
    obsConfigureOutputs(opts.traceOutPath, opts.metricsOutPath);
    return opts;
}

// ---------------------------------------------------------------- Suite

Suite
Suite::prepare(const ExperimentOptions& opts, bool inspect)
{
    auto specs = paperSuite(opts.traceOps);
    if (specs.size() > opts.suiteLimit)
        specs.resize(opts.suiteLimit);
    return fromSpecs(std::move(specs), opts, inspect);
}

Suite
Suite::fromSpecs(std::vector<WorkloadSpec> specs,
                 const ExperimentOptions& opts, bool inspect)
{
    Suite s;
    s.inspected_ = inspect;
    s.entries_.resize(specs.size());
    const std::string& dir = opts.traceDir;
    if (!dir.empty())
        makeDirs(dir, "trace cache");
    ObsSpan prepSpan("suite.prepare", "trace");
    // Graceful degradation: any trace-cache fault (corrupt entry, failed
    // read, failed rewrite) downgrades to regeneration, never aborts.
    // Each job owns its own slot; totals are summed after the barrier.
    std::vector<uint8_t> corruptEntry(specs.size(), 0);
    std::vector<uint8_t> rewriteFailed(specs.size(), 0);
    forEachJob(specs.size(), [&](size_t i) {
        ObsSpan span("trace.prep", "trace");
        Entry& e = s.entries_[i];
        e.spec = std::move(specs[i]);
        if (!dir.empty()) {
            std::string path = traceCachePath(dir, e.spec);
            e.fromCache = loadTrace(path, e.trace);
            if (!e.fromCache) {
                std::error_code xec;
                if (std::filesystem::exists(path, xec) && !xec)
                    corruptEntry[i] = 1;
            }
            if (!e.fromCache) {
                // Missing, corrupt or stale-format: regenerate and refresh
                // the cache entry (atomic write, safe under concurrency).
                e.trace = generateTrace(e.spec);
                if (!saveTrace(path, e.trace))
                    rewriteFailed[i] = 1;
            }
        } else {
            e.trace = generateTrace(e.spec);
        }
        e.key = specHash(e.spec);
        if (inspect) {
            e.inspection = inspectLoads(e.trace);
            e.gs = e.inspection.globalStablePcs();
        }
    }, opts.threads);
    for (const Entry& e : s.entries_)
        (e.fromCache ? s.cacheHits_ : s.cacheMisses_)++;
    {
        static ObsCounter& hits = obsCounter("trace.cache.hit");
        static ObsCounter& misses = obsCounter("trace.cache.miss");
        hits.add(s.cacheHits_);
        misses.add(s.cacheMisses_);
    }
    size_t corrupt = 0, failedWrites = 0;
    for (size_t i = 0; i < specs.size(); ++i) {
        corrupt += corruptEntry[i];
        failedWrites += rewriteFailed[i];
    }
    if (corrupt > 0) {
        warn(std::to_string(corrupt) +
             " trace cache entr" + (corrupt == 1 ? "y was" : "ies were") +
             " present but unreadable; regenerated");
    }
    if (failedWrites > 0) {
        warn(std::to_string(failedWrites) +
             " regenerated trace(s) could not be written back to the "
             "cache; continuing with in-memory traces");
    }
    return s;
}

Suite
Suite::fromTraces(std::vector<Trace> traces, bool inspect)
{
    Suite s;
    s.inspected_ = inspect;
    s.entries_.resize(traces.size());
    forEachJob(traces.size(), [&](size_t i) {
        Entry& e = s.entries_[i];
        e.trace = std::move(traces[i]);
        e.spec.name = e.trace.name;
        e.spec.category = e.trace.category;
        e.spec.numArchRegs = e.trace.numArchRegs;
        // No generating spec exists: key checkpoints on the trace bytes
        // themselves, so an edited hand-built trace invalidates them.
        e.key = traceContentHash(e.trace);
        if (inspect) {
            e.inspection = inspectLoads(e.trace);
            e.gs = e.inspection.globalStablePcs();
        }
    });
    return s;
}

std::vector<const Trace*>
Suite::tracePtrs() const
{
    std::vector<const Trace*> out;
    out.reserve(entries_.size());
    for (const Entry& e : entries_)
        out.push_back(&e.trace);
    return out;
}

std::vector<const std::unordered_set<PC>*>
Suite::gsPtrs() const
{
    std::vector<const std::unordered_set<PC>*> out;
    if (!inspected_)
        return out;
    out.reserve(entries_.size());
    for (const Entry& e : entries_)
        out.push_back(&e.gs);
    return out;
}

std::vector<std::pair<const Trace*, const Trace*>>
Suite::smtTracePairs() const
{
    std::vector<std::pair<const Trace*, const Trace*>> out;
    for (auto [a, b] : smtPairs(entries_.size()))
        out.emplace_back(&entries_[a].trace, &entries_[b].trace);
    return out;
}

uint64_t
Suite::contentHash() const
{
    uint64_t h = 0x5417ab1eull;
    for (const Entry& e : entries_)
        h = hashCombine(h, e.key);
    return h;
}

void
Suite::printGeomeans(const std::string& header,
                     const std::vector<std::vector<double>>& series,
                     const std::vector<std::string>& series_names) const
{
    for (const auto& values : series)
        requireOnePerTrace(header, values.size(), entries_.size());
    std::map<std::string, std::vector<size_t>> byCat;
    for (size_t i = 0; i < entries_.size(); ++i)
        byCat[entries_[i].spec.category].push_back(i);

    int nameWidth = seriesNameWidth(series_names);
    std::printf("%s\n", header.c_str());
    std::printf("%-*s", nameWidth, "config");
    for (const auto& [cat, idx] : byCat)
        std::printf("%12s", cat.c_str());
    std::printf("%12s\n", "GEOMEAN");
    for (size_t s = 0; s < series.size(); ++s) {
        std::printf("%-*s", nameWidth, series_names[s].c_str());
        for (const auto& [cat, idxs] : byCat) {
            std::vector<double> vals;
            for (size_t i : idxs)
                vals.push_back(series[s][i]);
            std::printf("%12.4f", geomean(vals));
        }
        std::printf("%12.4f\n", geomean(series[s]));
    }
}

void
Suite::printMeans(const std::string& header,
                  const std::vector<std::vector<double>>& series,
                  const std::vector<std::string>& series_names, double scale,
                  const char* unit) const
{
    for (const auto& values : series)
        requireOnePerTrace(header, values.size(), entries_.size());
    std::map<std::string, std::vector<size_t>> byCat;
    for (size_t i = 0; i < entries_.size(); ++i)
        byCat[entries_[i].spec.category].push_back(i);

    std::printf("%s\n", header.c_str());
    std::printf("%-26s", "series");
    for (const auto& [cat, idx] : byCat)
        std::printf("%12s", cat.c_str());
    std::printf("%12s\n", "AVG");
    for (size_t s = 0; s < series.size(); ++s) {
        std::printf("%-26s", series_names[s].c_str());
        for (const auto& [cat, idxs] : byCat) {
            std::vector<double> vals;
            for (size_t i : idxs)
                vals.push_back(series[s][i]);
            std::printf("%11.2f%s", scale * mean(vals), unit);
        }
        std::printf("%11.2f%s\n", scale * mean(series[s]), unit);
    }
}

void
Suite::printBoxWhisker(const std::string& header,
                       const std::vector<double>& samples) const
{
    requireOnePerTrace(header, samples.size(), entries_.size());
    std::map<std::string, std::vector<double>> byCat;
    for (size_t i = 0; i < entries_.size(); ++i)
        byCat[entries_[i].spec.category].push_back(samples[i]);
    std::printf("%s\n", header.c_str());
    for (const auto& [cat, vals] : byCat) {
        std::printf("  %-12s %s\n", cat.c_str(),
                    BoxWhisker::from(vals).str().c_str());
    }
    std::printf("  %-12s %s\n", "ALL",
                BoxWhisker::from(samples).str().c_str());
}

// ------------------------------------------------------- ExperimentResult

size_t
ExperimentResult::configIndex(const std::string& config) const
{
    for (size_t i = 0; i < names_.size(); ++i) {
        if (names_[i] == config)
            return i;
    }
    fatal("experiment has no configuration named '" + config + "'");
}

std::vector<double>
ExperimentResult::speedups(const std::string& test,
                           const std::string& base) const
{
    return m_.speedupsOver(configIndex(test), configIndex(base));
}

std::vector<double>
ExperimentResult::statColumn(const std::string& config,
                             const std::string& stat) const
{
    size_t cfg = configIndex(config);
    std::vector<double> out(m_.numRows);
    for (size_t r = 0; r < m_.numRows; ++r)
        out[r] = m_.at(r, cfg).stats.get(stat);
    return out;
}

void
ExperimentResult::printGeomeans(
    const std::string& header,
    const std::vector<std::vector<double>>& series,
    const std::vector<std::string>& series_names) const
{
    suite_->printGeomeans(header, series, series_names);
}

void
ExperimentResult::printMeans(const std::string& header,
                             const std::vector<std::vector<double>>& series,
                             const std::vector<std::string>& series_names,
                             double scale, const char* unit) const
{
    suite_->printMeans(header, series, series_names, scale, unit);
}

void
ExperimentResult::printBoxWhisker(const std::string& header,
                                  const std::vector<double>& samples) const
{
    suite_->printBoxWhisker(header, samples);
}

// ------------------------------------------------------------- Experiment

Experiment::Experiment(std::string name, const Suite& suite,
                       ExperimentOptions opts)
    : name_(std::move(name)), suite_(&suite), opts_(std::move(opts))
{}

Experiment&
Experiment::add(const std::string& config_name, MechanismConfig mech,
                CoreConfig core)
{
    SystemConfig cfg { core, std::move(mech) };
    return add(config_name, [cfg](size_t) { return cfg; });
}

Experiment&
Experiment::addPreset(const std::string& preset_name, CoreConfig core)
{
    const MechanismPreset& p = MechanismRegistry::instance().get(preset_name);
    if (!p.perRow)
        return add(preset_name, mechFor(preset_name), core);
    if (!suite_->inspected()) {
        fatal("experiment '" + name_ + "': oracle preset '" + preset_name +
              "' needs an inspected suite (global-stable PC sets)");
    }
    const Suite* s = suite_;
    std::string name = preset_name;
    return add(preset_name, [s, name, core](size_t row) {
        return SystemConfig { core,
                              mechFor(name, &s->globalStablePcs(row)) };
    });
}

Experiment&
Experiment::add(const std::string& config_name, ConfigFactory factory)
{
    for (const std::string& n : names_) {
        if (n == config_name)
            fatal("experiment '" + name_ + "': duplicate configuration '" +
                  config_name + "'");
    }
    names_.push_back(config_name);
    factories_.push_back(std::move(factory));
    return *this;
}

ExperimentResult
Experiment::run()
{
    return runCells(suite_->size(), /*smt=*/false);
}

ExperimentResult
Experiment::runSmt()
{
    return runCells(suite_->smtTracePairs().size(), /*smt=*/true);
}

std::string
Experiment::checkpointDirFor(bool smt, SweepManifest& manifest,
                             size_t rows) const
{
    // Checkpoints key on the sweep's identity: the experiment name, the
    // suite's content, and the ordered config names. Seed/threads are
    // excluded — cells are deterministic functions of (row, config), so the
    // same sweep resumed at a different thread count stays bit-identical.
    uint64_t key = hashCombine(suite_->contentHash(), smt ? 1 : 0);
    for (const std::string& n : names_)
        key = hashCombine(key, fnv1a(n));
    // Sampled and full-fidelity sweeps must never share cells: fold the
    // sample spec (and the seed, which drives window selection) into the
    // key so each spec gets its own checkpoint directory.
    if (opts_.sample.enabled) {
        key = hashCombine(key, fnv1a("sample:" + opts_.sample.spec()));
        key = hashCombine(key, opts_.seed);
    }
    manifest.experiment = name_;
    manifest.suiteHash = key;
    manifest.smt = smt;
    manifest.numRows = rows;
    manifest.numConfigs = factories_.size();
    manifest.configNames = names_;
    if (opts_.checkpointDir.empty())
        return "";
    return opts_.checkpointDir + "/" + sanitizeFileName(name_) + "-" +
           hex16(key);
}

ExperimentResult
Experiment::runCells(size_t rows, bool smt)
{
    if (factories_.empty())
        fatal("experiment '" + name_ + "' has no configurations");
    if (rows == 0) {
        fatal("experiment '" + name_ + "' has no rows" +
              (smt ? ": an SMT sweep needs at least 2 traces"
                   : ": the suite is empty"));
    }

    MatrixResult m;
    m.numRows = rows;
    m.numConfigs = factories_.size();

    auto traces = suite_->tracePtrs();
    auto gs = suite_->gsPtrs();
    auto pairs = smt ? suite_->smtTracePairs()
                     : std::vector<std::pair<const Trace*, const Trace*>>{};

    // One cell = one deterministic simulation, whichever executor of the
    // sweep runner (sim/shard.hh) computes it.
    auto computeCell = [&](size_t job) -> RunResult {
        size_t row = job / m.numConfigs;
        size_t cfgIdx = job % m.numConfigs;
        SystemConfig cfg = factories_[cfgIdx](row);
        if (smt) {
            if (opts_.sample.enabled) {
                fatal("--sample does not support SMT-pair sweeps; SMT "
                      "rows stay full-fidelity");
            }
            return runSmtPair(*pairs[row].first, *pairs[row].second, cfg);
        }
        const std::unordered_set<PC>* g = gs.empty() ? nullptr : gs[row];
        if (opts_.sample.enabled) {
            return runSampledTrace(*traces[row], cfg.core, cfg.mech,
                                   opts_.sample, opts_.seed, g);
        }
        return runTrace(*traces[row], cfg, g);
    };

    SweepManifest manifest;
    std::string ckptDir = checkpointDirFor(smt, manifest, rows);
    if (!ckptDir.empty())
        makeDirs(ckptDir, "checkpoint");
    ShardOutcome oc = runSweep(ckptDir, manifest, computeCell, m.results,
                               opts_.threads, opts_.shards,
                               opts_.progressSec);
    return ExperimentResult(*suite_, names_, std::move(m), oc.resumed);
}

ExperimentResult
Experiment::merge(bool smt)
{
    if (factories_.empty())
        fatal("experiment '" + name_ + "' has no configurations");
    if (opts_.checkpointDir.empty())
        fatal("experiment '" + name_ + "': merge() needs --checkpoint-dir");

    size_t rows = smt ? suite_->smtTracePairs().size() : suite_->size();
    SweepManifest manifest;
    std::string ckptDir = checkpointDirFor(smt, manifest, rows);

    SweepManifest onDisk;
    if (!loadManifest(ckptDir + "/manifest.sweep", onDisk))
        fatal("merge: no sweep manifest under '" + ckptDir +
              "' (was this sweep ever started?)");
    if (!(onDisk == manifest))
        fatal("merge: checkpoint directory '" + ckptDir +
              "' holds a different sweep than '" + name_ + "'");

    MatrixResult m;
    m.numRows = rows;
    m.numConfigs = factories_.size();
    ShardOutcome oc = runSweep(ckptDir, manifest, /*compute=*/{}, m.results,
                               opts_.threads, /*shards=*/1);
    if (oc.resumed < manifest.numCells()) {
        fatal("merge: sweep '" + name_ + "' is incomplete (" +
              std::to_string(oc.resumed) + " of " +
              std::to_string(manifest.numCells()) +
              " cells present); let the workers finish or re-run with "
              "run()");
    }
    return ExperimentResult(*suite_, names_, std::move(m), oc.resumed);
}

} // namespace constable
