/**
 * @file
 * Reproduces paper Fig 11: geomean speedup over the baseline (noSMT) of
 * EVES, Constable, EVES+Constable, and EVES+Ideal Constable.
 * Paper reference: 1.047 / 1.051 / 1.085 / 1.103.
 *
 * Runs as one named-config Experiment on the deterministic batch matrix;
 * --threads=1 (or CONSTABLE_THREADS=1) replays serially with identical
 * numbers, and --checkpoint-dir resumes an interrupted sweep.
 */

#include "sim/experiment.hh"

using namespace constable;

int
main(int argc, char** argv)
{
    auto opts = ExperimentOptions::fromArgs(argc, argv);
    Suite suite = Suite::prepare(opts);

    auto res =
        Experiment("fig11", suite, opts)
            .addPreset("baseline")
            .addPreset("eves")
            .addPreset("constable")
            .addPreset("eves+constable")
            .addPreset("eves+ideal-constable")
            .run();

    res.printGeomeans(
        "Fig 11: speedup over baseline, noSMT "
        "(paper: EVES 1.047, Constable 1.051, E+C 1.085, E+Ideal 1.103)",
        { res.speedups("eves", "baseline"),
          res.speedups("constable", "baseline"),
          res.speedups("eves+constable", "baseline"),
          res.speedups("eves+ideal-constable", "baseline") },
        { "EVES", "Constable", "EVES+Const", "EVES+Ideal" });
    return 0;
}
