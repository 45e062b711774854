/**
 * @file
 * Reproduces paper Fig 6: (a) fraction of cycles with at least one load
 * port utilized (paper AVG: 32.7% on baseline+EVES), and (b) the fraction
 * of load-utilized cycles where a global-stable load occupies a port while
 * a non-global-stable load waits (paper AVG: 23.0%).
 */

#include <cstdio>

#include "sim/experiment.hh"

using namespace constable;

int
main(int argc, char** argv)
{
    auto opts = ExperimentOptions::fromArgs(argc, argv);
    Suite suite = Suite::prepare(opts);
    auto res = Experiment("fig06", suite, opts)
                   .addPreset("eves")
                   .run();

    std::vector<std::vector<double>> util(1), cat(3);
    for (size_t i = 0; i < suite.size(); ++i) {
        const StatSet& s = res.at(i, "eves").stats;
        double cycles = s.get("cycles");
        double lu = s.get("cycles.loadUtil");
        util[0].push_back(ratio(lu, cycles));
        double gsWait = s.get("cycles.gsOccupiedWait");
        double gsNoWait = s.get("cycles.gsOccupiedNoWait");
        cat[0].push_back(ratio(gsWait, lu));
        cat[1].push_back(ratio(gsNoWait, lu));
        cat[2].push_back(ratio(lu - gsWait - gsNoWait, lu));
    }

    res.printMeans("Fig 6(a): load-utilized cycle fraction "
                   "(paper AVG: 32.7%)",
                   util, { "load-utilized" });
    std::printf("\n");
    res.printMeans(
        "Fig 6(b): load-utilized cycle categories (paper: 23.0% "
        "gs-occupied-while-waiting)",
        cat,
        { "gs busy, non-gs waits", "gs busy, none waits", "non-gs only" });
    return 0;
}
