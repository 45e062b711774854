/**
 * @file
 * Reproduces paper Fig 18: reduction in (a) reservation-station
 * allocations and (b) L1D accesses with Constable over the baseline.
 * Paper reference: RS allocations -8.8% avg (up to -35.1%); L1D accesses
 * -26.0% avg; Server highest, ISPEC17 lowest.
 */

#include <cstdio>

#include "sim/experiment.hh"

using namespace constable;

int
main(int argc, char** argv)
{
    auto opts = ExperimentOptions::fromArgs(argc, argv);
    Suite suite = Suite::prepare(opts);
    auto res = Experiment("fig18", suite, opts)
                   .addPreset("baseline")
                   .addPreset("constable")
                   .run();

    std::vector<double> rs, l1d;
    for (size_t i = 0; i < suite.size(); ++i) {
        const StatSet& c = res.at(i, "constable").stats;
        const StatSet& b = res.at(i, "baseline").stats;
        rs.push_back(1.0 - ratio(c.get("rs.allocs"), b.get("rs.allocs")));
        double cl = c.get("mem.l1d.reads") + c.get("mem.l1d.writes");
        double bl = b.get("mem.l1d.reads") + b.get("mem.l1d.writes");
        l1d.push_back(1.0 - ratio(cl, bl));
    }
    res.printBoxWhisker(
        "Fig 18(a): RS allocation reduction (paper avg: 8.8%)", rs);
    std::printf("\n");
    res.printBoxWhisker(
        "Fig 18(b): L1D access reduction (paper avg: 26.0%)", l1d);
    return 0;
}
