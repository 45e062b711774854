/**
 * @file
 * Reproduces paper Fig 9: (a) SLD can_eliminate updates per rename cycle
 * (paper: 0.28 average; 98.23% of cycles have two or fewer), and (b) the
 * performance change from letting wrong-path instructions update
 * Constable's structures (paper: 0.2% average absolute change; 82 of 90
 * workloads under 1%).
 */

#include <cmath>
#include <cstdio>

#include "sim/experiment.hh"

using namespace constable;

int
main(int argc, char** argv)
{
    auto opts = ExperimentOptions::fromArgs(argc, argv);
    Suite suite = Suite::prepare(opts);

    MechanismConfig noWp = mechFor("constable");
    noWp.constable.wrongPathUpdates = false;

    auto res = Experiment("fig09", suite, opts)
                   .addPreset("constable")
                   .add("noWrongPath", noWp)
                   .run();

    std::vector<double> updates =
        res.statColumn("constable", "sld.updates.perCycle");
    double leTwoSum = 0;
    for (size_t i = 0; i < suite.size(); ++i) {
        const StatSet& s = res.at(i, "constable").stats;
        // Histogram buckets: [0,1) [1,2) [2,3) [3,4) 4+.
        leTwoSum += s.get("sld.updates.hist.0") +
                    s.get("sld.updates.hist.1") +
                    s.get("sld.updates.hist.2");
    }
    res.printBoxWhisker(
        "Fig 9(a): SLD updates per cycle (paper mean: 0.28)", updates);
    std::printf("  cycles with <= 2 updates: %.2f%% (paper: 98.23%%)\n\n",
                100.0 * leTwoSum / static_cast<double>(suite.size()));

    auto relative = res.speedups("noWrongPath", "constable");
    std::vector<double> change;
    unsigned under1pct = 0;
    for (double r : relative) {
        double c = r - 1.0;
        change.push_back(c);
        if (std::abs(c) < 0.01)
            ++under1pct;
    }
    res.printBoxWhisker(
        "Fig 9(b): performance change, correct-path-only updates vs "
        "all-path updates (paper avg: 0.2%)",
        change);
    std::printf("  workloads with <1%% absolute change: %u / %zu "
                "(paper: 82 / 90)\n",
                under1pct, suite.size());
    return 0;
}
