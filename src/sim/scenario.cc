#include "sim/scenario.hh"

#include <cctype>
#include <cstdio>
#include <sstream>

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
 * embedded '#' (e.g. a scenario name like "spike#2"); "key value # note"
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

} // namespace

Scenario
parseScenarioText(const std::string& text, const std::string& what)
{
    Scenario sc;
    bool sawName = false, sawSmt = false, sawOps = false, sawLimit = false;
    std::istringstream in(text);
    std::string rawLine;
    size_t lineNo = 0;
    while (std::getline(in, rawLine)) {
        ++lineNo;
        std::string line = stripLine(rawLine);
        if (line.empty())
            continue;
        std::istringstream ls(line);
        std::string key;
        ls >> key;
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
                           "suite-limit)");
        }
    }

    if (sc.mechs.empty()) {
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
