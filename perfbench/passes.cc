/**
 * @file
 * perfbench_passes: runs one pass of a benchmark workload through the
 * simulator's public API and prints one JSON line describing it. Timing
 * of whole passes, fingerprint checks and metric aggregation live in
 * perfbench/run.py; this program only does the simulator work and
 * reports what it did.
 *
 * Subcommands (every flag is "--name value"):
 *
 *   info          build provenance (build type, sanitizers, compiler)
 *   full          --seed S --traces N --ops M --presets a,b,...
 *   sampled       --seed S --traces N --ops M --presets a,b,...
 *                 --cache DIR --sample SPEC
 *                 (--fill 1 | --ckpt DIR --shards K | --decompose 1)
 *   figset-setup  --ops M --cache DIR --threads T [--suite-limit N]
 *   cells         --dir DIR
 *
 * `full` and `sampled` run either the path users run — Suite::fromSpecs
 * plus an Experiment — or, with --decompose 1, the same cells as direct
 * calls into each module (generateTrace/loadTrace, inspectLoads, OooCore,
 * runSampledTrace, computePower) on one thread. The decomposed pass is
 * both the traced pass and the 1-thread, unsharded reference: its
 * fingerprint must equal the Experiment path's.
 *
 * With --trace-out FILE every such call is a span on the program's own
 * observability tier, written as Chrome trace-event JSON to FILE at the
 * end; the result line's "obs_epoch" places the trace's microsecond
 * timestamps on CLOCK_MONOTONIC, the clock run.py times passes with.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/logging.hh"
#include "common/obs.hh"
#include "cpu/core.hh"
#include "inspector/load_inspector.hh"
#include "power/power.hh"
#include "sim/experiment.hh"
#include "sim/mechanisms.hh"
#include "sim/sample.hh"
#include "sim/scenario.hh"
#include "trace/generator.hh"
#include "trace/serialize.hh"
#include "workloads/suite.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif
#ifndef PERFBENCH_SANITIZE
#define PERFBENCH_SANITIZE ""
#endif

namespace constable {
namespace {

namespace fs = std::filesystem;

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// ------------------------------------------------------------------ args

class Args
{
  public:
    Args(int argc, char** argv)
    {
        for (int i = 2; i < argc; i += 2) {
            std::string key = argv[i];
            if (key.rfind("--", 0) != 0 || i + 1 >= argc)
                fatal("expected '--flag value' pairs, got '" + key + "'");
            kv_[key.substr(2)] = argv[i + 1];
        }
    }

    bool has(const std::string& k) const { return kv_.count(k) > 0; }

    std::string
    str(const std::string& k) const
    {
        auto it = kv_.find(k);
        if (it == kv_.end())
            fatal("missing --" + k);
        return it->second;
    }

    uint64_t
    num(const std::string& k, uint64_t def) const
    {
        return has(k) ? std::stoull(str(k)) : def;
    }

    std::vector<std::string>
    list(const std::string& k) const
    {
        std::vector<std::string> out;
        std::string cur;
        for (char c : str(k) + ",") {
            if (c != ',') {
                cur += c;
            } else if (!cur.empty()) {
                out.push_back(cur);
                cur.clear();
            }
        }
        return out;
    }

  private:
    std::map<std::string, std::string> kv_;
};

// ----------------------------------------------------------------- spans

/**
 * One span around a call into a module, recorded on the calling thread's
 * lane of the program's observability tier (common/obs.hh) while it is
 * armed. The category is the layer; the name is "<kind> <detail>", where
 * a cell's detail is "<preset>@<trace> #<cell id>". run.py reads the kinds
 * back out of the trace obsWriteTrace() writes.
 */
class Scope
{
  public:
    Scope(const char* layer, const char* kind, const std::string& detail = {})
        : layer_(layer), start_(obsTimestampUs())
    {
        if (obsArmed())
            name_ = detail.empty() ? kind : std::string(kind) + " " + detail;
    }

    ~Scope()
    {
        if (!name_.empty())
            obsEmitSpan("", name_, layer_, start_, obsTimestampUs() - start_);
    }

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    const char* layer_;
    uint64_t start_;
    std::string name_;
};

std::string
cellDetail(const std::string& preset, const std::string& trace, size_t cell)
{
    return preset + "@" + trace + " #" + std::to_string(cell);
}

// ------------------------------------------------------------ json output

std::string
jsonStr(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string
jsonNum(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
hex(uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Accumulates the fields of the one JSON line a subcommand prints. */
class Report
{
  public:
    void raw(const std::string& k, const std::string& v)
    {
        body_ += (body_.empty() ? "" : ", ") + jsonStr(k) + ": " + v;
    }
    void num(const std::string& k, double v) { raw(k, jsonNum(v)); }
    void str(const std::string& k, const std::string& v)
    {
        raw(k, jsonStr(v));
    }

    void
    print()
    {
        num("obs_epoch", now() - static_cast<double>(obsTimestampUs()) * 1e-6);
        std::printf("{%s}\n", body_.c_str());
        std::fflush(stdout);
    }

  private:
    std::string body_;
};

// ------------------------------------------------------- workload inputs

uint64_t
splitmix(uint64_t& state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * @p n specs of the paper suite, drawn by @p seed from each category in
 * the suite's own proportions (Table 4: 22/14/29/11/14). Quotas use the
 * largest-remainder rule, ties going to the earlier category; within a
 * category a seeded partial Fisher-Yates shuffle picks the members. The
 * result keeps suite order.
 */
std::vector<WorkloadSpec>
stratifiedSpecs(size_t ops, size_t n, uint64_t seed)
{
    std::vector<WorkloadSpec> suite = paperSuite(ops);
    n = std::min(n, suite.size());
    std::vector<std::string> cats;
    std::map<std::string, std::vector<size_t>> members;
    for (size_t i = 0; i < suite.size(); ++i) {
        std::vector<size_t>& m = members[suite[i].category];
        if (m.empty())
            cats.push_back(suite[i].category);
        m.push_back(i);
    }

    std::vector<size_t> quota(cats.size());
    std::vector<std::pair<double, size_t>> remainders;
    size_t given = 0;
    for (size_t c = 0; c < cats.size(); ++c) {
        double exact = static_cast<double>(n * members[cats[c]].size()) /
                       static_cast<double>(suite.size());
        quota[c] = static_cast<size_t>(std::floor(exact));
        given += quota[c];
        remainders.emplace_back(exact - std::floor(exact), c);
    }
    std::stable_sort(remainders.begin(), remainders.end(),
                     [](const auto& a, const auto& b) {
                         return a.first > b.first;
                     });
    for (size_t k = 0; given + k < n; ++k)
        ++quota[remainders[k].second];

    uint64_t state = seed;
    std::vector<size_t> picked;
    for (size_t c = 0; c < cats.size(); ++c) {
        std::vector<size_t> idx = members[cats[c]];
        for (size_t j = 0; j < quota[c]; ++j) {
            size_t k = j + splitmix(state) % (idx.size() - j);
            std::swap(idx[j], idx[k]);
            picked.push_back(idx[j]);
        }
    }
    std::sort(picked.begin(), picked.end());
    std::vector<WorkloadSpec> out;
    for (size_t i : picked)
        out.push_back(suite[i]);
    return out;
}

std::vector<WorkloadSpec>
specsFrom(const Args& a)
{
    return stratifiedSpecs(a.num("ops", 0), a.num("traces", 0),
                           a.num("seed", 1));
}

const MechanismPreset&
preset(const std::string& name)
{
    const MechanismPreset* p = MechanismRegistry::instance().find(name);
    if (!p)
        fatal("unknown preset '" + name + "'");
    return *p;
}

/** The mechanism of one cell, built exactly as Experiment::addPreset
 *  does: oracle presets read the row's global-stable PC set. */
MechanismConfig
cellMech(const std::string& name, const std::unordered_set<PC>& gs)
{
    return preset(name).perRow ? mechFor(name, &gs) : mechFor(name);
}

// ------------------------------------------------------ result summaries

double
geomeanSpeedup(const MatrixResult& m, size_t test, size_t base)
{
    double logSum = 0.0;
    for (size_t r = 0; r < m.numRows; ++r)
        logSum += std::log(speedup(m.at(r, test), m.at(r, base)));
    return std::exp(logSum / static_cast<double>(m.numRows));
}

/** Add one cell's simulated-machine counts into @p counts. These are
 *  exact: a change that only speeds the simulator up must leave every one
 *  of them bit-identical. */
void
addCounts(std::map<std::string, double>& counts, const RunResult& r)
{
    static const std::pair<const char*, const char*> kStats[] = {
        { "cpu.issue_events", "issue.events" },
        { "predictor.branch_mispredicts", "branch.mispredicts" },
        { "core.loads_eliminated", "loads.eliminated" },
        { "core.sld_lookups", "constable.sld.lookups" },
        { "core.amt_invalidations", "constable.amt.invalidations" },
        { "mem.l1d_misses", "mem.l1d.misses" },
        { "mem.llc_misses", "mem.llc.misses" },
        { "vp.eves_predictions", "eves.predictions" },
        { "vp.flushes", "vp.flushes" },
    };
    counts["cpu.sim_cycles"] += static_cast<double>(r.cycles);
    counts["cpu.sim_insts"] += static_cast<double>(r.instructions);
    for (const auto& [metric, stat] : kStats)
        counts[metric] += r.stats.get(stat);
    counts["power.dyn_uj"] += computePower(r.stats).total() * 1e-6;
}

std::string
jsonMap(const std::map<std::string, double>& m)
{
    std::string out = "{";
    for (const auto& [k, v] : m)
        out += (out.size() > 1 ? ", " : "") + jsonStr(k) + ": " + jsonNum(v);
    return out + "}";
}

/** Fingerprint (the chain constable-sweep prints), per-cell hashes, the
 *  summed simulated-machine counts and the headline speedups. */
void
reportMatrix(Report& rep, const MatrixResult& m,
             const std::vector<std::string>& presets)
{
    std::map<std::string, double> counts;
    std::string cells = "[";
    uint64_t golden = 0;
    for (const RunResult& r : m.results) {
        std::vector<uint8_t> bytes = serializeRunResult(r);
        cells += (cells.size() > 1 ? ", " : "") +
                 jsonStr(hex(fnv1a(bytes.data(), bytes.size())));
        addCounts(counts, r);
        golden += r.goldenCheckFailed ? 1 : 0;
    }
    auto col = [&](const std::string& name) {
        auto it = std::find(presets.begin(), presets.end(), name);
        return it == presets.end() ? SIZE_MAX
                                   : static_cast<size_t>(it - presets.begin());
    };
    for (const char* test : { "constable", "eves+constable" }) {
        if (col(test) != SIZE_MAX && col("baseline") != SIZE_MAX) {
            std::string name = std::string("sim.speedup.") + test;
            std::replace(name.begin(), name.end(), '+', '-');
            counts[name] = geomeanSpeedup(m, col(test), col("baseline"));
        }
    }
    rep.str("fingerprint", hex(resultFingerprint(m)));
    rep.raw("cells", cells + "]");
    rep.raw("counts", jsonMap(counts));
    rep.num("golden_failures", static_cast<double>(golden));
}

void
reportTraces(Report& rep, const std::vector<WorkloadSpec>& specs)
{
    std::string names = "[";
    for (const WorkloadSpec& s : specs)
        names += (names.size() > 1 ? ", " : "") + jsonStr(s.name);
    rep.raw("traces", names + "]");
}

/** Megabytes of the trace-cache files holding @p specs. */
double
cacheMB(const std::string& cache, const std::vector<WorkloadSpec>& specs)
{
    double bytes = 0;
    for (const WorkloadSpec& spec : specs)
        bytes += static_cast<double>(
            fs::file_size(traceCachePath(cache, spec)));
    return bytes / 1e6;
}

ExperimentOptions
baseOptions(const Args& a)
{
    ExperimentOptions o;
    o.threads = 1;
    o.traceOps = a.num("ops", 0);
    o.progressSec = 0;
    return o;
}

// ------------------------------------------------------------ subcommands

int
infoMain()
{
    Report rep;
    rep.str("build_type", PERFBENCH_BUILD_TYPE);
    rep.str("sanitize", PERFBENCH_SANITIZE);
#ifdef __clang__
    rep.str("compiler", "clang " __clang_version__);
#else
    rep.str("compiler", "gcc " __VERSION__);
#endif
#ifdef NDEBUG
    rep.num("ndebug", 1);
#else
    rep.num("ndebug", 0);
#endif
    rep.print();
    return 0;
}

/** One decomposed cell: construct, run and charge power, each spanned. */
RunResult
runCell(const Trace& trace, const std::string& name,
        const std::unordered_set<PC>& gs, size_t cell)
{
    std::string detail = cellDetail(name, trace.name, cell);
    Scope s("perfbench", "cell", detail);
    CoreConfig core;
    core.smt2 = false;
    std::unique_ptr<OooCore> sim;
    {
        Scope c("cpu", "cpu.construct", detail);
        sim = std::make_unique<OooCore>(core, cellMech(name, gs),
                                        std::vector<const Trace*>{ &trace },
                                        &gs);
    }
    RunResult r;
    {
        Scope c("cpu", "cpu.run", detail);
        r = sim->run();
    }
    {
        Scope c("power", "power.compute", detail);
        computePower(r.stats);
    }
    return r;
}

/** full_1t: generate + inspect, then every {trace x preset} cell in full
 *  detail on one thread. */
int
fullMain(const Args& a)
{
    std::vector<WorkloadSpec> specs = specsFrom(a);
    std::vector<std::string> presets = a.list("presets");
    Report rep;
    reportTraces(rep, specs);
    MatrixResult m;
    m.numRows = specs.size();
    m.numConfigs = presets.size();

    if (a.num("decompose", 0)) {
        std::vector<Trace> traces(specs.size());
        std::vector<std::unordered_set<PC>> gs(specs.size());
        for (size_t i = 0; i < specs.size(); ++i) {
            {
                Scope s("trace", "trace.generate", specs[i].name);
                traces[i] = generateTrace(specs[i]);
            }
            Scope s("inspector", "inspector.inspect", specs[i].name);
            gs[i] = inspectLoads(traces[i]).globalStablePcs();
        }
        rep.num("setup_end", now());
        for (size_t row = 0; row < specs.size(); ++row) {
            for (size_t c = 0; c < presets.size(); ++c) {
                m.results.push_back(runCell(traces[row], presets[c], gs[row],
                                            row * presets.size() + c));
            }
        }
    } else {
        ExperimentOptions opts = baseOptions(a);
        Suite suite = Suite::fromSpecs(specs, opts, /*inspect=*/true);
        rep.num("setup_end", now());
        Experiment exp("perfbench_full", suite, opts);
        for (const std::string& p : presets)
            exp.addPreset(p);
        m = exp.run().matrix();
    }
    reportMatrix(rep, m, presets);
    rep.print();
    return 0;
}

/** sampled_long: phase-sampled cells over long traces read from a trace
 *  cache that --fill 1 populated before the pass. */
int
sampledMain(const Args& a)
{
    std::vector<WorkloadSpec> specs = specsFrom(a);
    std::vector<std::string> presets = a.list("presets");
    std::string cache = a.str("cache");
    ExperimentOptions opts = baseOptions(a);
    opts.traceDir = cache;
    opts.sample = SampleOptions::parse(a.str("sample"));
    Report rep;
    reportTraces(rep, specs);

    if (a.num("fill", 0)) {
        fs::create_directories(cache);
        for (const WorkloadSpec& spec : specs) {
            std::string path = traceCachePath(cache, spec);
            if (fs::exists(path))
                continue;
            Trace t;
            {
                Scope s("trace", "trace.generate", spec.name);
                t = generateTrace(spec);
            }
            {
                Scope s("trace", "trace.save", spec.name);
                if (!saveTrace(path, t))
                    fatal("cannot write trace cache entry " + path);
            }
            // Window selection is timed here, off the cell timeline: in a
            // pass, runSampledTrace selects inside the trace's first cell
            // and caches the windows for the others, so sim.sample.cell
            // includes one selection per trace.
            if (obsArmed()) {
                Scope s("sim.sample", "sim.sample.select", spec.name);
                selectSampleWindows(t, opts.sample, opts.seed);
            }
        }
        rep.print();
        return 0;
    }

    MatrixResult m;
    m.numRows = specs.size();
    m.numConfigs = presets.size();
    if (a.num("decompose", 0)) {
        for (size_t row = 0; row < specs.size(); ++row) {
            std::string path = traceCachePath(cache, specs[row]);
            Trace trace;
            {
                Scope s("trace", "trace.load", specs[row].name);
                if (!loadTrace(path, trace))
                    fatal("trace cache entry missing or corrupt: " + path);
            }
            std::unordered_set<PC> gs;
            {
                Scope s("inspector", "inspector.inspect", specs[row].name);
                gs = inspectLoads(trace).globalStablePcs();
            }
            if (row == 0)
                rep.num("setup_end", now());
            for (size_t c = 0; c < presets.size(); ++c) {
                std::string detail = cellDetail(presets[c], trace.name,
                                                row * presets.size() + c);
                Scope s("perfbench", "cell", detail);
                RunResult r;
                {
                    Scope cs("sim.sample", "sim.sample.cell", detail);
                    CoreConfig core;
                    r = runSampledTrace(trace, core,
                                        cellMech(presets[c], gs),
                                        opts.sample, opts.seed, &gs);
                }
                {
                    Scope ps("power", "power.compute", detail);
                    computePower(r.stats);
                }
                m.results.push_back(std::move(r));
            }
        }
        rep.num("cache_misses", 0);
    } else {
        opts.checkpointDir = a.str("ckpt");
        opts.shards = static_cast<unsigned>(a.num("shards", 1));
        uint64_t suiteStart = obsTimestampUs();
        Suite suite = Suite::fromSpecs(specs, opts, /*inspect=*/true);
        rep.num("setup_end", now());
        rep.num("cache_misses", static_cast<double>(suite.cacheMisses()));
        Experiment exp("perfbench_sampled", suite, opts);
        for (const std::string& p : presets)
            exp.addPreset(p);
        // Tracing is armed only now, and this pass's own two spans are
        // emitted after the sweep: each forked shard worker hands back
        // every span its process holds, so a span recorded before the fork
        // would come back once per shard.
        uint64_t sweepStart = obsTimestampUs();
        if (a.has("trace-out"))
            obsArm();
        m = exp.run().matrix();
        uint64_t sweepEnd = obsTimestampUs();
        obsEmitSpan("", "sim.experiment.suite", "sim.experiment", suiteStart,
                    sweepStart - suiteStart);
        obsEmitSpan("", "sim.shard.sweep " + std::to_string(opts.shards),
                    "sim.shard", sweepStart, sweepEnd - sweepStart);
        rep.num("sweep_s", static_cast<double>(sweepEnd - sweepStart) * 1e-6);
    }
    rep.num("load_mb", cacheMB(cache, specs));
    double windows = 0, coverage = 0;
    for (const RunResult& r : m.results) {
        windows += r.stats.get("sample.windows");
        coverage += r.stats.get("sample.coverage");
    }
    rep.num("sample_windows", windows);
    rep.num("sample_coverage",
            coverage / static_cast<double>(m.results.size()));
    reportMatrix(rep, m, presets);
    rep.print();
    return 0;
}

/** figset_2t setup: fill an empty trace cache for the paper suite. With
 *  --decompose 1 the same generate+save work runs as direct calls on
 *  --threads worker threads, one trace lane each. */
int
figsetSetupMain(const Args& a)
{
    ExperimentOptions opts = baseOptions(a);
    opts.threads = static_cast<unsigned>(a.num("threads", 1));
    opts.traceDir = a.str("cache");
    if (a.has("suite-limit"))
        opts.suiteLimit = a.num("suite-limit", SIZE_MAX);
    Report rep;
    if (a.num("decompose", 0)) {
        std::vector<WorkloadSpec> specs = paperSuite(opts.traceOps);
        if (specs.size() > opts.suiteLimit)
            specs.resize(opts.suiteLimit);
        fs::create_directories(opts.traceDir);
        std::vector<std::thread> workers;
        for (unsigned w = 0; w < opts.threads; ++w) {
            workers.emplace_back([&, w] {
                obsSetThreadLane("setup-" + std::to_string(w));
                for (size_t i = w; i < specs.size(); i += opts.threads) {
                    Trace t;
                    {
                        Scope s("trace", "trace.generate", specs[i].name);
                        t = generateTrace(specs[i]);
                    }
                    Scope s("trace", "trace.save", specs[i].name);
                    if (!saveTrace(traceCachePath(opts.traceDir, specs[i]), t))
                        fatal("cannot write trace cache entry for " +
                              specs[i].name);
                }
            });
        }
        for (std::thread& t : workers)
            t.join();
        rep.num("cache_misses", static_cast<double>(specs.size()));
    } else {
        Suite suite = Suite::prepare(opts, /*inspect=*/false);
        rep.num("cache_misses", static_cast<double>(suite.cacheMisses()));
    }
    rep.num("setup_end", now());
    rep.print();
    return 0;
}

/** Count the checkpoint cells a figure-set pass wrote and sum their
 *  simulated-machine counts. */
int
cellsMain(const Args& a)
{
    size_t cells = 0, bad = 0;
    std::map<std::string, double> counts;
    for (const auto& e : fs::recursive_directory_iterator(a.str("dir"))) {
        std::string name = e.path().filename().string();
        if (!e.is_regular_file() || name.rfind("cell-", 0) != 0 ||
            e.path().extension() != ".rr")
            continue;
        RunResult r;
        if (loadRunResult(e.path().string(), r)) {
            ++cells;
            addCounts(counts, r);
        } else {
            ++bad;
        }
    }
    Report rep;
    rep.num("cells", static_cast<double>(cells));
    rep.num("bad", static_cast<double>(bad));
    rep.raw("counts", jsonMap(counts));
    rep.print();
    return 0;
}

int
runSubcommand(const std::string& cmd, const Args& a)
{
    if (cmd == "info")
        return infoMain();
    if (cmd == "full")
        return fullMain(a);
    if (cmd == "sampled")
        return sampledMain(a);
    if (cmd == "figset-setup")
        return figsetSetupMain(a);
    if (cmd == "cells")
        return cellsMain(a);
    fatal("unknown subcommand '" + cmd + "'");
}

int
passesMain(int argc, char** argv)
{
    if (argc < 2)
        fatal("usage: perfbench_passes "
              "info|full|sampled|figset-setup|cells [--flag value ...]");
    std::string cmd = argv[1];
    Args a(argc, argv);
    bool shardSweep = cmd == "sampled" && a.has("ckpt");
    if (a.has("trace-out") && !shardSweep)
        obsArm();
    int rc = runSubcommand(cmd, a);
    if (a.has("trace-out") && !obsWriteTrace(a.str("trace-out")))
        fatal("cannot write " + a.str("trace-out"));
    return rc;
}

} // namespace
} // namespace constable

int
main(int argc, char** argv)
{
    return constable::passesMain(argc, argv);
}
