/**
 * @file
 * Reproduces paper Fig 22 (appendix A.3): the Constable-AMT-I variant
 * (AMT invalidated on every L1D eviction, no CV-bit pinning) against
 * vanilla Constable. Paper reference: speedup 1.051 vs 1.042; coverage
 * 23.5% vs 20.2% — CV-bit pinning is the better design point.
 */

#include <cstdio>

#include "sim/experiment.hh"

using namespace constable;

int
main(int argc, char** argv)
{
    auto opts = ExperimentOptions::fromArgs(argc, argv);
    Suite suite = Suite::prepare(opts);
    auto res = Experiment("fig22", suite, opts)
                   .addPreset("baseline")
                   .addPreset("constable")
                   .addPreset("constable-amt-i")
                   .run();

    auto cov = [&](const std::string& cfg) {
        std::vector<double> out;
        for (size_t i = 0; i < suite.size(); ++i) {
            const StatSet& s = res.at(i, cfg).stats;
            out.push_back(ratio(s.get("loads.eliminated"),
                                s.get("loads.retired")));
        }
        return out;
    };

    res.printGeomeans(
        "Fig 22(a): speedup, CV-bit pinning vs AMT-invalidate-on-evict "
        "(paper: 1.051 vs 1.042)",
        { res.speedups("constable", "baseline"),
          res.speedups("constable-amt-i", "baseline") },
        { "Constable", "Const-AMT-I" });
    std::printf("\n");
    res.printMeans(
        "Fig 22(b): elimination coverage (paper: 23.5% vs 20.2%)",
        { cov("constable"), cov("constable-amt-i") }, { "Constable", "Const-AMT-I" });
    return 0;
}
