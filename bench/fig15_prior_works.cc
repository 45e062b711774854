/**
 * @file
 * Reproduces paper Fig 15: Constable vs ELAR and RFP, standalone and
 * combined. Paper reference: ELAR 1.007, RFP 1.0448, Constable 1.051,
 * ELAR+Constable 1.054, RFP+Constable 1.081.
 */

#include "sim/experiment.hh"

using namespace constable;

int
main(int argc, char** argv)
{
    auto opts = ExperimentOptions::fromArgs(argc, argv);
    Suite suite = Suite::prepare(opts);

    auto res = Experiment("fig15", suite, opts)
                   .addPreset("baseline")
                   .addPreset("elar")
                   .addPreset("rfp")
                   .addPreset("constable")
                   .addPreset("elar+constable")
                   .addPreset("rfp+constable")
                   .run();

    res.printGeomeans(
        "Fig 15: Constable vs prior works "
        "(paper: ELAR 1.007, RFP 1.045, Const 1.051, E+C 1.054, R+C 1.081)",
        { res.speedups("elar", "baseline"),
          res.speedups("rfp", "baseline"),
          res.speedups("constable", "baseline"),
          res.speedups("elar+constable", "baseline"),
          res.speedups("rfp+constable", "baseline") },
        { "ELAR", "RFP", "Constable", "ELAR+Const", "RFP+Const" });
    return 0;
}
