#include "sim/scenario.hh"

#include <cctype>
#include <cstdio>
#include <sstream>
#include <unordered_set>

#include "common/env.hh"
#include "common/faultio.hh"
#include "common/logging.hh"
#include "sim/mechanisms.hh"
#include "trace/serialize.hh"

namespace constable {

namespace {

/**
 * Strip a '#'-comment and surrounding whitespace. '#' opens a comment only
 * at the start of the line or after whitespace, so a value may carry an
 * embedded '#' (e.g. a task-class name like "burst#2"); "key value # note"
 * still drops the trailing note.
 */
std::string
stripLine(const std::string& line)
{
    size_t cut = line.size();
    for (size_t i = 0; i < line.size(); ++i) {
        if (line[i] == '#' &&
            (i == 0 ||
             std::isspace(static_cast<unsigned char>(line[i - 1])))) {
            cut = i;
            break;
        }
    }
    std::string s = line.substr(0, cut);
    size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

[[noreturn]] void
parseFatal(const std::string& what, size_t line_no, const std::string& msg)
{
    fatal(what + ":" + std::to_string(line_no) + ": " + msg);
}

/** A stripped, non-empty scenario line with its 1-based source line. */
struct ScnLine
{
    size_t no;
    std::string text;
};

/**
 * Parse one `machine class { ... }` / `task class { ... }` block starting
 * at lines[i] (whose first word is "machine" or "task"); appends to
 * sc.machines / sc.tasks and returns the index of the first line after the
 * closing '}'.
 */
size_t
parseFleetBlock(const std::string& what, const std::vector<ScnLine>& lines,
                size_t i, Scenario& sc)
{
    const size_t headNo = lines[i].no;
    std::istringstream hs(lines[i].text);
    std::string kind, cls, brace, extra;
    hs >> kind >> cls;
    const bool isMachine = kind == "machine";
    if (cls != "class")
        parseFatal(what, headNo, "expected '" + kind + " class {'");
    bool braceOpen = false;
    if (hs >> brace) {
        if (brace != "{" || (hs >> extra))
            parseFatal(what, headNo,
                       "expected '{' after '" + kind + " class'");
        braceOpen = true;
    }
    ++i;
    if (!braceOpen) {
        // cloudsim style: the '{' may sit on its own following line.
        if (i >= lines.size() || lines[i].text != "{")
            parseFatal(what, headNo,
                       "expected '{' after '" + kind + " class'");
        ++i;
    }

    FleetMachineClass m;
    FleetTaskClass t;
    std::unordered_set<std::string> seen;
    bool sawEnd = false, sawSeed = false;
    for (;; ++i) {
        if (i >= lines.size()) {
            parseFatal(what, headNo, "unterminated '" + kind +
                       " class {' block (missing '}')");
        }
        const size_t no = lines[i].no;
        if (lines[i].text == "}") {
            ++i;
            break;
        }
        std::istringstream ls(lines[i].text);
        std::string k, v, junk;
        ls >> k;
        if (!(ls >> v) || (ls >> junk))
            parseFatal(what, no, "'" + k + "' takes exactly one value");
        if (!seen.insert(k).second)
            parseFatal(what, no, "duplicate '" + k + "'");
        const std::string where =
            what + ":" + std::to_string(no) + ": " + k;
        if (isMachine) {
            if (k == "name") {
                m.name = v;
            } else if (k == "mech") {
                if (!MechanismRegistry::instance().find(v)) {
                    parseFatal(what, no, "unknown mechanism preset '" + v +
                               "' (known: " +
                               MechanismRegistry::instance().nameList() +
                               ")");
                }
                m.mech = v;
            } else if (k == "cores") {
                m.cores = static_cast<unsigned>(
                    parseU64InRange(where, v, 1, 1024));
            } else if (k == "replicas") {
                m.replicas = static_cast<unsigned>(
                    parseU64InRange(where, v, 1, 1'000'000));
            } else if (k == "idle-pj-per-cycle") {
                m.idlePjPerCycle = parseU64Strict(where, v);
            } else {
                parseFatal(what, no, "unknown machine-class key '" + k +
                           "' (known: name, mech, cores, replicas, "
                           "idle-pj-per-cycle)");
            }
        } else {
            if (k == "name") {
                t.name = v;
            } else if (k == "machine") {
                t.machine = v;
            } else if (k == "inter-arrival") {
                t.interArrival = parseU64InRange(where, v, 1, UINT64_MAX);
            } else if (k == "expected-ops") {
                t.expectedOps = parseU64InRange(where, v, 1, UINT64_MAX);
            } else if (k == "sla") {
                if (v == "SLA0")
                    t.sla = SlaTier::Sla0;
                else if (v == "SLA1")
                    t.sla = SlaTier::Sla1;
                else if (v == "SLA2")
                    t.sla = SlaTier::Sla2;
                else
                    parseFatal(what, no, "'sla' must be SLA0, SLA1 or "
                               "SLA2, got '" + v + "'");
            } else if (k == "seed") {
                t.seed = parseU64Strict(where, v);
                sawSeed = true;
            } else if (k == "start") {
                t.start = parseU64Strict(where, v);
            } else if (k == "end") {
                t.end = parseU64Strict(where, v);
                sawEnd = true;
            } else if (k == "arrivals") {
                if (v == "poisson")
                    t.poisson = true;
                else if (v == "fixed")
                    t.poisson = false;
                else
                    parseFatal(what, no, "'arrivals' must be 'poisson' or "
                               "'fixed', got '" + v + "'");
            } else {
                parseFatal(what, no, "unknown task-class key '" + k +
                           "' (known: name, machine, inter-arrival, "
                           "expected-ops, sla, seed, start, end, "
                           "arrivals)");
            }
        }
    }

    if (isMachine) {
        if (m.name.empty())
            parseFatal(what, headNo, "machine class needs a 'name'");
        if (m.mech.empty()) {
            parseFatal(what, headNo, "machine class '" + m.name +
                       "' needs a 'mech' preset");
        }
        for (const FleetMachineClass& prev : sc.machines) {
            if (prev.name == m.name) {
                parseFatal(what, headNo, "duplicate machine class '" +
                           m.name + "'");
            }
        }
        sc.machines.push_back(std::move(m));
    } else {
        if (t.name.empty())
            parseFatal(what, headNo, "task class needs a 'name'");
        if (t.interArrival == 0) {
            parseFatal(what, headNo, "task class '" + t.name +
                       "' needs an 'inter-arrival'");
        }
        if (t.expectedOps == 0) {
            parseFatal(what, headNo, "task class '" + t.name +
                       "' needs 'expected-ops'");
        }
        if (!sawEnd || t.end <= t.start) {
            parseFatal(what, headNo, "task class '" + t.name +
                       "' needs an 'end' greater than its 'start'");
        }
        if (!sawSeed)
            t.seed = fnv1a(t.name); // distinct default stream per class
        for (const FleetTaskClass& prev : sc.tasks) {
            if (prev.name == t.name) {
                parseFatal(what, headNo, "duplicate task class '" +
                           t.name + "'");
            }
        }
        sc.tasks.push_back(std::move(t));
    }
    return i;
}

} // namespace

Scenario
parseScenarioText(const std::string& text, const std::string& what)
{
    // Pre-strip into (line number, text) pairs so the fleet block parser
    // can consume multiple lines per directive.
    std::vector<ScnLine> lines;
    {
        std::istringstream in(text);
        std::string raw;
        size_t n = 0;
        while (std::getline(in, raw)) {
            ++n;
            std::string s = stripLine(raw);
            if (!s.empty())
                lines.push_back({ n, s });
        }
    }

    Scenario sc;
    bool sawName = false, sawSmt = false, sawOps = false, sawLimit = false;
    size_t i = 0;
    while (i < lines.size()) {
        const size_t lineNo = lines[i].no;
        const std::string& line = lines[i].text;
        std::istringstream ls(line);
        std::string key;
        ls >> key;
        if (key == "machine" || key == "task") {
            i = parseFleetBlock(what, lines, i, sc);
            continue;
        }
        ++i;
        if (key == "name") {
            std::string v, extra;
            if (!(ls >> v) || (ls >> extra))
                parseFatal(what, lineNo, "'name' takes exactly one word");
            if (sawName)
                parseFatal(what, lineNo, "duplicate 'name'");
            sawName = true;
            sc.name = v;
        } else if (key == "mech") {
            // Space- and comma-separated lists, validated (and duplicate-
            // checked) by the same parser --mech/CONSTABLE_MECH use.
            std::string v;
            size_t added = 0;
            std::string where = what + ":" + std::to_string(lineNo);
            while (ls >> v)
                added += appendPresetNames(where, v, sc.mechs);
            if (added == 0)
                parseFatal(what, lineNo,
                           "'mech' needs at least one preset name");
        } else if (key == "smt") {
            std::string v, extra;
            if (!(ls >> v) || (ls >> extra))
                parseFatal(what, lineNo, "'smt' takes exactly 'on' or 'off'");
            if (sawSmt)
                parseFatal(what, lineNo, "duplicate 'smt'");
            sawSmt = true;
            if (v == "on")
                sc.smt = true;
            else if (v == "off")
                sc.smt = false;
            else
                parseFatal(what, lineNo,
                           "'smt' must be 'on' or 'off', got '" + v + "'");
        } else if (key == "trace-ops") {
            std::string v, extra;
            if (!(ls >> v) || (ls >> extra))
                parseFatal(what, lineNo, "'trace-ops' takes one integer");
            if (sawOps)
                parseFatal(what, lineNo, "duplicate 'trace-ops'");
            sawOps = true;
            uint64_t n = parseU64Strict(what + ": trace-ops", v);
            if (n == 0)
                parseFatal(what, lineNo, "'trace-ops' must be >= 1");
            sc.traceOps = static_cast<size_t>(n);
        } else if (key == "suite-limit") {
            std::string v, extra;
            if (!(ls >> v) || (ls >> extra))
                parseFatal(what, lineNo, "'suite-limit' takes one integer");
            if (sawLimit)
                parseFatal(what, lineNo, "duplicate 'suite-limit'");
            sawLimit = true;
            uint64_t n = parseU64Strict(what + ": suite-limit", v);
            if (n == 0)
                parseFatal(what, lineNo, "'suite-limit' must be >= 1");
            sc.suiteLimit = static_cast<size_t>(n);
        } else {
            parseFatal(what, lineNo,
                       "unknown directive '" + key +
                           "' (known: name, mech, smt, trace-ops, "
                           "suite-limit, machine class, task class)");
        }
    }

    if (!sc.machines.empty() || !sc.tasks.empty()) {
        // Fleet validation: presets come from machine classes, so the
        // sweep-style directives make no sense alongside the blocks.
        if (!sc.mechs.empty()) {
            fatal(what + ": top-level 'mech' and machine/task class blocks "
                  "are mutually exclusive (fleet presets come from machine "
                  "classes)");
        }
        if (sawSmt)
            fatal(what + ": 'smt' does not apply to fleet scenarios");
        if (sc.machines.empty())
            fatal(what + ": fleet scenario declares task classes but no "
                  "'machine class' block");
        if (sc.tasks.empty())
            fatal(what + ": fleet scenario declares machine classes but no "
                  "'task class' block");
        for (const FleetTaskClass& t : sc.tasks) {
            if (t.machine.empty())
                continue;
            bool found = false;
            for (const FleetMachineClass& m : sc.machines)
                found = found || m.name == t.machine;
            if (!found) {
                fatal(what + ": task class '" + t.name +
                      "' pins unknown machine class '" + t.machine + "'");
            }
        }
    } else if (sc.mechs.empty()) {
        fatal(what + ": scenario names no mechanisms (add 'mech <preset>'; "
              "known presets: " +
              MechanismRegistry::instance().nameList() + ")");
    }
    return sc;
}

Scenario
loadScenarioFile(const std::string& path)
{
    std::string text;
    if (!readFileText(path, text))
        fatal("cannot read scenario file '" + path + "'");
    return parseScenarioText(text, path);
}

uint64_t
resultFingerprint(const MatrixResult& m)
{
    uint64_t h = 0x5eedf00dull;
    for (const RunResult& r : m.results) {
        auto bytes = serializeRunResult(r);
        h ^= fnv1a(bytes.data(), bytes.size());
        h *= 0x100000001b3ull;
    }
    return h;
}

void
printResultFingerprint(const ExperimentResult& res)
{
    std::printf("result fingerprint: %016llx\n",
                static_cast<unsigned long long>(
                    resultFingerprint(res.matrix())));
}

void
runScenario(const Scenario& sc, ExperimentOptions opts)
{
    if (sc.isFleet()) {
        fatal("scenario '" + sc.name + "' declares a fleet (machine/task "
              "class blocks); run it with constable-serve");
    }
    if (sc.traceOps)
        opts.traceOps = sc.traceOps;
    if (sc.suiteLimit)
        opts.suiteLimit = sc.suiteLimit;

    Suite suite = Suite::prepare(opts, /*inspect=*/true);
    Experiment exp(sc.name, suite, opts);
    for (const std::string& name : sc.mechs)
        exp.addPreset(name);
    ExperimentResult res = sc.smt ? exp.runSmt() : exp.run();

    if (!opts.printsReport())
        return;

    const std::string& base = sc.mechs.front();
    if (sc.mechs.size() > 1) {
        std::vector<std::vector<double>> series;
        std::vector<std::string> names(sc.mechs.begin() + 1,
                                       sc.mechs.end());
        for (const std::string& n : names)
            series.push_back(res.speedups(n, base));
        res.printGeomeans("scenario '" + sc.name + "': speedup over " +
                              base + (sc.smt ? " (SMT2)" : ""),
                          series, names);
    }
    std::printf("cells: %zu (%zu resumed from prior checkpoints)\n",
                res.matrix().results.size(), res.resumedCells());
    printResultFingerprint(res);
}

bool
runNamedSweepIfRequested(const std::string& bench_name,
                         const ExperimentOptions& opts)
{
    if (opts.mechNames.empty() && opts.scenarioFile.empty())
        return false;
    if (!opts.mechNames.empty() && !opts.scenarioFile.empty())
        fatal("--mech and --scenario are mutually exclusive");

    Scenario sc;
    if (!opts.scenarioFile.empty()) {
        sc = loadScenarioFile(opts.scenarioFile);
    } else {
        sc.name = bench_name + "-mech";
        for (const std::string& n : opts.mechNames) {
            MechanismRegistry::instance().get(n); // fatal if unknown
            sc.mechs.push_back(n);
        }
    }
    runScenario(sc, opts);
    return true;
}

} // namespace constable
