/**
 * @file
 * Reproduces paper Fig 3: (a) fraction of dynamic loads that are
 * global-stable, (b) their addressing-mode distribution, (c) their
 * inter-occurrence-distance distribution, (d) distance by addressing mode.
 * Paper reference values: (a) AVG 34.2%; (b) 20% PC-rel / 42.6% stack-rel /
 * 37.4% reg-rel; (c) bimodal with ~31.9% under 50 and ~31.8% over 250.
 */

#include <cstdio>

#include "sim/experiment.hh"

using namespace constable;

int
main(int argc, char** argv)
{
    auto opts = ExperimentOptions::fromArgs(argc, argv);
    Suite suite = Suite::prepare(opts);

    std::vector<std::vector<double>> fracs(1);
    std::vector<std::vector<double>> modes(3);
    std::vector<std::vector<double>> dist(4);
    for (size_t i = 0; i < suite.size(); ++i) {
        const auto& r = suite.inspection(i);
        fracs[0].push_back(r.globalStableFrac());
        modes[0].push_back(r.modeFrac(AddrMode::PcRel));
        modes[1].push_back(r.modeFrac(AddrMode::StackRel));
        modes[2].push_back(r.modeFrac(AddrMode::RegRel));
        for (size_t b = 0; b < 4; ++b)
            dist[b].push_back(r.distanceHist.bucketFrac(b));
    }

    suite.printMeans("Fig 3(a): global-stable fraction of dynamic loads "
                     "(paper AVG: 34.2%)",
                     fracs, { "global-stable" });
    std::printf("\n");
    suite.printMeans("Fig 3(b): addressing-mode distribution of "
                     "global-stable loads (paper: 20/42.6/37.4%)",
                     modes,
                     { "PC-relative", "Stack-relative", "Reg-relative" });
    std::printf("\n");
    suite.printMeans("Fig 3(c): inter-occurrence distance of global-"
                     "stable loads (paper: bimodal, ~32%/32% ends)",
                     dist, { "[0,50)", "[50,100)", "[100,250)", "250+" });

    // Fig 3(d): distance distribution per addressing mode (suite-wide).
    std::printf("\nFig 3(d): distance distribution by addressing mode\n");
    std::printf("%-16s%10s%10s%10s%10s\n", "mode", "[0,50)", "[50,100)",
                "[100,250)", "250+");
    const AddrMode order[3] = { AddrMode::PcRel, AddrMode::StackRel,
                                AddrMode::RegRel };
    for (AddrMode m : order) {
        Histogram agg({ 50, 100, 250 });
        for (size_t i = 0; i < suite.size(); ++i) {
            const auto& h =
                suite.inspection(i).distByMode[static_cast<unsigned>(m)];
            for (size_t b = 0; b < 4; ++b)
                agg.add(b == 0 ? 0 : (b == 1 ? 50 : (b == 2 ? 100 : 250)),
                        h.bucketCount(b));
        }
        std::printf("%-16s", addrModeName(m).c_str());
        for (size_t b = 0; b < 4; ++b)
            std::printf("%9.1f%%", 100.0 * agg.bucketFrac(b));
        std::printf("\n");
    }
    return 0;
}
