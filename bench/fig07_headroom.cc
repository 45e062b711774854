/**
 * @file
 * Reproduces paper Fig 7 (§4.4 headroom study): Ideal Stable LVP, Ideal
 * Stable LVP + data-fetch elimination, 2x load execution width, and Ideal
 * Constable, over the baseline.
 * Paper reference: 1.043 / 1.0669 / 1.088 / 1.091.
 */

#include "sim/experiment.hh"

using namespace constable;

int
main(int argc, char** argv)
{
    auto opts = ExperimentOptions::fromArgs(argc, argv);
    Suite suite = Suite::prepare(opts);

    CoreConfig wide;
    wide.loadPorts *= 2;

    auto res =
        Experiment("fig07", suite, opts)
            .addPreset("baseline")
            .addPreset("ideal-stable-lvp")
            .addPreset("ideal-stable-lvp-nofetch")
            .add("width2", mechFor("baseline"), wide)
            .addPreset("ideal-constable")
            .run();

    res.printGeomeans(
        "Fig 7: headroom over baseline "
        "(paper: LVP 1.043, LVP+noFetch 1.067, 2xWidth 1.088, Ideal 1.091)",
        { res.speedups("ideal-stable-lvp", "baseline"),
          res.speedups("ideal-stable-lvp-nofetch", "baseline"),
          res.speedups("width2", "baseline"),
          res.speedups("ideal-constable", "baseline") },
        { "IdealLVP", "LVP+noFetch", "2xLoadWidth", "IdealConst" });
    return 0;
}
