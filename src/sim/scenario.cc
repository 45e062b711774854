#include "sim/scenario.hh"

#include <cstdio>

#include "common/stats.hh"
#include "trace/serialize.hh"

namespace constable {

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

ExperimentResult
runScenario(const Scenario& sc, const Suite& suite,
            const ExperimentOptions& opts, bool merge_only)
{
    Experiment exp("presets", suite, opts);
    for (const std::string& name : sc.mechs)
        exp.addPreset(name);
    if (merge_only)
        return exp.merge(sc.smt);
    return sc.smt ? exp.runSmt() : exp.run();
}

void
printScenarioReport(const Scenario& sc, const ExperimentResult& res)
{
    const std::string& base = sc.mechs.front();
    std::string header = "constable-sweep: speedup over " + base;
    if (sc.mechs.size() > 1 && sc.smt) {
        // SMT rows are trace pairs, which have no category: one overall
        // geomean per mechanism, as Fig 14 prints.
        int nameWidth = seriesNameWidth(sc.mechs);
        std::printf("%s (SMT2, %zu pairs)\n", header.c_str(), res.numRows());
        std::printf("%-*s%12s\n", nameWidth, "config", "GEOMEAN");
        for (auto it = sc.mechs.begin() + 1; it != sc.mechs.end(); ++it) {
            std::printf("%-*s%12.4f\n", nameWidth, it->c_str(),
                        geomean(res.speedups(*it, base)));
        }
    } else if (sc.mechs.size() > 1) {
        std::vector<std::vector<double>> series;
        std::vector<std::string> names(sc.mechs.begin() + 1,
                                       sc.mechs.end());
        for (const std::string& n : names)
            series.push_back(res.speedups(n, base));
        res.printGeomeans(header, series, names);
    }
    std::printf("cells: %zu (%zu resumed from prior checkpoints)\n",
                res.matrix().results.size(), res.resumedCells());
    printResultFingerprint(res);
}

} // namespace constable
