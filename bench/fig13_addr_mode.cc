/**
 * @file
 * Reproduces paper Fig 13: speedup when Constable eliminates only
 * PC-relative, only stack-relative, or only register-relative loads,
 * against the full mechanism. Paper reference: 1.011 / 1.026 / 1.018,
 * nearly additive to the full 1.051.
 */

#include "sim/experiment.hh"
#include "sim/scenario.hh"

using namespace constable;

int
main(int argc, char** argv)
{
    auto opts = ExperimentOptions::fromArgs(argc, argv);
    Suite suite = Suite::prepare(opts);

    auto res = Experiment("fig13", suite, opts)
                   .addPreset("baseline")
                   .addPreset("constable-pcrel")
                   .addPreset("constable-stackrel")
                   .addPreset("constable-regrel")
                   .addPreset("constable")
                   .run();

    res.printGeomeans(
        "Fig 13: speedup by eliminated addressing mode "
        "(paper: PC 1.011, stack 1.026, reg 1.018, all 1.051)",
        { res.speedups("constable-pcrel", "baseline"),
          res.speedups("constable-stackrel", "baseline"),
          res.speedups("constable-regrel", "baseline"),
          res.speedups("constable", "baseline") },
        { "PC-rel only", "Stack only", "Reg only", "All loads" });
    // Byte-level fingerprint: CI's release-smoke job diffs this line
    // against constable-sweep's run of the same preset list.
    printResultFingerprint(res);
    return 0;
}
