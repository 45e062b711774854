/**
 * @file
 * Reproduces paper Fig 14: speedup over the baseline in the 2-way SMT
 * configuration (45 pairs). Paper reference: EVES 1.036, Constable 1.088,
 * EVES+Constable 1.113 — under SMT, Constable's load-resource relief
 * dominates and it clearly outruns EVES.
 *
 * Runs as one named-config SMT Experiment on the deterministic batch
 * matrix; --threads=1 (or CONSTABLE_THREADS=1) replays serially with
 * identical numbers.
 */

#include <cstdio>

#include "sim/experiment.hh"

using namespace constable;

int
main(int argc, char** argv)
{
    auto opts = ExperimentOptions::fromArgs(argc, argv);
    Suite suite = Suite::prepare(opts, /*inspect=*/false);

    auto res = Experiment("fig14", suite, opts)
                   .addPreset("baseline")
                   .addPreset("eves")
                   .addPreset("constable")
                   .addPreset("eves+constable")
                   .runSmt();

    std::printf("Fig 14: SMT2 speedup over baseline, %zu pairs "
                "(paper: EVES 1.036, Constable 1.088, E+C 1.113)\n",
                res.numRows());
    std::printf("%-14s%12s\n", "config", "GEOMEAN");
    std::printf("%-14s%12.4f\n", "EVES",
                geomean(res.speedups("eves", "baseline")));
    std::printf("%-14s%12.4f\n", "Constable",
                geomean(res.speedups("constable", "baseline")));
    std::printf("%-14s%12.4f\n", "EVES+Const",
                geomean(res.speedups("eves+constable", "baseline")));
    return 0;
}
