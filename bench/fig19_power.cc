/**
 * @file
 * Reproduces paper Fig 19: core dynamic power of EVES, Constable and
 * EVES+Constable normalized to the baseline, with the OOO and MEU unit
 * breakdowns. Paper reference: Constable -3.4% core power (EVES only
 * -0.2%); RS sub-unit -5.1%; L1D sub-unit -9.1%.
 */

#include <cstdio>

#include "power/power.hh"
#include "sim/experiment.hh"

using namespace constable;

int
main(int argc, char** argv)
{
    auto opts = ExperimentOptions::fromArgs(argc, argv);
    Suite suite = Suite::prepare(opts);
    auto res = Experiment("fig19", suite, opts)
                   .addPreset("baseline")
                   .addPreset("eves")
                   .addPreset("constable")
                   .addPreset("eves+constable")
                   .run();

    struct Agg
    {
        double total = 0, rs = 0, rat = 0, rob = 0, l1d = 0, dtlb = 0,
               fe = 0, eu = 0;
    };
    auto aggregate = [&](const std::string& cfg) {
        Agg a;
        for (size_t i = 0; i < suite.size(); ++i) {
            PowerBreakdown b = computePower(res.at(i, cfg).stats);
            a.total += b.total();
            a.rs += b.oooRs;
            a.rat += b.oooRat;
            a.rob += b.oooRob;
            a.l1d += b.meuL1d;
            a.dtlb += b.meuDtlb;
            a.fe += b.fe;
            a.eu += b.eu;
        }
        return a;
    };

    Agg ab = aggregate("baseline"), ae = aggregate("eves"),
        ac = aggregate("constable"), a2 = aggregate("eves+constable");

    auto row = [&](const char* name, const Agg& a) {
        std::printf("%-12s%10.4f%10.4f%10.4f%10.4f%10.4f%10.4f\n", name,
                    a.total / ab.total, a.fe / ab.fe, a.rs / ab.rs,
                    a.rob / ab.rob, a.l1d / ab.l1d, a.dtlb / ab.dtlb);
    };
    std::printf("Fig 19: core dynamic energy normalized to baseline "
                "(paper: Constable total 0.966, RS 0.949, L1D 0.909)\n");
    std::printf("%-12s%10s%10s%10s%10s%10s%10s\n", "config", "total", "FE",
                "OOO.RS", "OOO.ROB", "MEU.L1D", "MEU.DTLB");
    row("baseline", ab);
    row("EVES", ae);
    row("Constable", ac);
    row("EVES+Const", a2);
    return 0;
}
