/**
 * @file
 * Reproduces paper Fig 17 / §9.3.1: how many global-stable loads Constable
 * actually eliminates at runtime, per addressing mode, plus the loads
 * eliminated that are not global-stable (phase-stable only).
 * Paper reference: 56.4% of global-stable loads eliminated; PC-relative
 * highest (70.2%), register-relative lowest (33.2%); plus 13.5% extra
 * non-global-stable eliminations.
 */

#include <cstdio>

#include "sim/experiment.hh"

using namespace constable;

int
main(int argc, char** argv)
{
    auto opts = ExperimentOptions::fromArgs(argc, argv);
    Suite suite = Suite::prepare(opts);
    auto res = Experiment("fig17", suite, opts)
                   .addPreset("constable")
                   .run();

    std::vector<std::vector<double>> rows(3);
    std::vector<std::vector<double>> perMode(3);
    for (size_t i = 0; i < suite.size(); ++i) {
        const StatSet& s = res.at(i, "constable").stats;
        double gs = s.get("loads.gs");
        rows[0].push_back(ratio(s.get("loads.gsEliminated"), gs));
        rows[1].push_back(ratio(gs - s.get("loads.gsEliminated"), gs));
        rows[2].push_back(ratio(s.get("loads.nonGsEliminated"), gs));

        // Runtime elimination rate by mode, over the inspection totals.
        const auto& insp = suite.inspection(i);
        double dynGs[3] = {
            static_cast<double>(insp.dynGlobalStableByMode[
                static_cast<unsigned>(AddrMode::PcRel)]),
            static_cast<double>(insp.dynGlobalStableByMode[
                static_cast<unsigned>(AddrMode::StackRel)]),
            static_cast<double>(insp.dynGlobalStableByMode[
                static_cast<unsigned>(AddrMode::RegRel)]),
        };
        perMode[0].push_back(ratio(s.get("loads.elim.pcRel"), dynGs[0]));
        perMode[1].push_back(ratio(s.get("loads.elim.stackRel"), dynGs[1]));
        perMode[2].push_back(ratio(s.get("loads.elim.regRel"), dynGs[2]));
    }

    res.printMeans(
        "Fig 17: eliminated fraction of global-stable loads "
        "(paper: 56.4% eliminated; +13.5% extra non-global-stable)",
        rows,
        { "gs eliminated", "gs not eliminated", "non-gs eliminated" });
    std::printf("\n");
    res.printMeans(
        "Fig 17 (by mode): eliminations / dynamic global-stable loads "
        "(paper: PC-rel 70.2%, reg-rel 33.2%)",
        perMode, { "PC-relative", "Stack-relative", "Reg-relative" });
    return 0;
}
