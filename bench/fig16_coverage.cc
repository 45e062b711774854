/**
 * @file
 * Reproduces paper Fig 16: load coverage — the fraction of loads either
 * value-predicted (EVES) or eliminated (Constable). Paper reference:
 * EVES 27.3%, Constable 23.5%, EVES+Constable 35.5%, EVES+Ideal 41.6%.
 */

#include "sim/experiment.hh"

using namespace constable;

int
main(int argc, char** argv)
{
    auto opts = ExperimentOptions::fromArgs(argc, argv);
    Suite suite = Suite::prepare(opts);

    auto res =
        Experiment("fig16", suite, opts)
            .addPreset("eves")
            .addPreset("constable")
            .addPreset("eves+constable")
            .addPreset("eves+ideal-constable")
            .run();

    auto coverage = [&](const std::string& cfg) {
        std::vector<double> out;
        for (size_t i = 0; i < suite.size(); ++i) {
            const StatSet& s = res.at(i, cfg).stats;
            out.push_back(ratio(s.get("loads.eliminated") +
                                    s.get("loads.vp"),
                                s.get("loads.retired")));
        }
        return out;
    };

    res.printMeans(
        "Fig 16: load coverage (paper: EVES 27.3%, Constable 23.5%, "
        "E+C 35.5%, E+Ideal 41.6%)",
        { coverage("eves"), coverage("constable"), coverage("eves+constable"),
          coverage("eves+ideal-constable") },
        { "EVES", "Constable", "EVES+Const", "EVES+Ideal" });
    return 0;
}
