/**
 * @file
 * Reproduces paper Fig 20 (appendix A.1): sensitivity of the baseline and
 * Constable to (a) load execution width 3..6 and (b) pipeline-depth
 * scaling 1..4x. Paper reference: Constable with 3 load units matches a
 * baseline with one extra unit; Constable keeps adding ~3.4-5% at every
 * scaling point.
 *
 * Each sweep is one Experiment whose config names encode the swept value
 * (base-w4, const-d2, ...), so the whole sensitivity study is a single
 * checkpointable matrix per sweep.
 */

#include <cstdio>
#include <string>

#include "sim/experiment.hh"

using namespace constable;

int
main(int argc, char** argv)
{
    auto opts = ExperimentOptions::fromArgs(argc, argv);
    Suite suite = Suite::prepare(opts, /*inspect=*/false);

    Experiment width("fig20a-width", suite, opts);
    for (unsigned w = 3; w <= 6; ++w) {
        CoreConfig core;
        core.loadPorts = w;
        width.add("base-w" + std::to_string(w), mechFor("baseline"), core);
        width.add("const-w" + std::to_string(w), mechFor("constable"), core);
    }
    auto wres = width.run();

    Experiment depth("fig20b-depth", suite, opts);
    for (unsigned d = 1; d <= 4; ++d) {
        CoreConfig core;
        core.depthScale = static_cast<double>(d);
        depth.add("base-d" + std::to_string(d), mechFor("baseline"), core);
        depth.add("const-d" + std::to_string(d), mechFor("constable"), core);
    }
    auto dres = depth.run();

    std::printf("Fig 20(a): load execution width sweep "
                "(speedup over width-3 baseline)\n");
    std::printf("%8s%12s%12s\n", "width", "baseline", "constable");
    for (unsigned w = 3; w <= 6; ++w) {
        std::string ws = std::to_string(w);
        std::printf("%8u%12.4f%12.4f\n", w,
                    geomean(wres.speedups("base-w" + ws, "base-w3")),
                    geomean(wres.speedups("const-w" + ws, "base-w3")));
    }

    std::printf("\nFig 20(b): pipeline depth sweep "
                "(speedup over 1x baseline)\n");
    std::printf("%8s%12s%12s\n", "scale", "baseline", "constable");
    for (unsigned d = 1; d <= 4; ++d) {
        std::string ds = std::to_string(d);
        std::printf("%8u%12.4f%12.4f\n", d,
                    geomean(dres.speedups("base-d" + ds, "base-d1")),
                    geomean(dres.speedups("const-d" + ds, "base-d1")));
    }
    return 0;
}
