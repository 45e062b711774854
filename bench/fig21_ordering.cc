/**
 * @file
 * Reproduces paper Fig 21 (appendix A.2): (a) fraction of eliminated loads
 * that violate memory ordering (paper avg: 0.09%; <0.5% in 86/90
 * workloads) and (b) the increase in ROB allocations due to the resulting
 * re-executions (paper avg: +0.3%; <1% in 79/90 workloads).
 */

#include <cstdio>

#include "sim/experiment.hh"

using namespace constable;

int
main(int argc, char** argv)
{
    auto opts = ExperimentOptions::fromArgs(argc, argv);
    Suite suite = Suite::prepare(opts);
    auto res = Experiment("fig21", suite, opts)
                   .addPreset("baseline")
                   .addPreset("constable")
                   .run();

    std::vector<double> viol, robInc;
    unsigned under05 = 0, under1 = 0;
    for (size_t i = 0; i < suite.size(); ++i) {
        const StatSet& c = res.at(i, "constable").stats;
        double v = ratio(c.get("ordering.elimViolations"),
                         c.get("loads.eliminated"));
        viol.push_back(v);
        if (v < 0.005)
            ++under05;
        double ri = ratio(c.get("rob.allocs"),
                          res.at(i, "baseline").stats.get("rob.allocs")) -
                    1.0;
        robInc.push_back(ri);
        if (ri < 0.01)
            ++under1;
    }
    res.printBoxWhisker(
        "Fig 21(a): eliminated loads violating ordering "
        "(paper avg: 0.09%)",
        viol);
    std::printf("  workloads under 0.5%%: %u / %zu (paper: 86 / 90)\n\n",
                under05, suite.size());
    res.printBoxWhisker(
        "Fig 21(b): ROB allocation increase (paper avg: +0.3%)", robInc);
    std::printf("  workloads under 1%%: %u / %zu (paper: 79 / 90)\n",
                under1, suite.size());
    return 0;
}
