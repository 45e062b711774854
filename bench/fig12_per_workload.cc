/**
 * @file
 * Reproduces paper Fig 12: per-workload speedup line graph (sorted by EVES
 * speedup) for EVES, Constable and EVES+Constable. Paper reference:
 * Constable beats EVES on 60 of 90 workloads (by 4.9% on average); EVES
 * wins the remaining 30 (by 9.2%); the combination beats both everywhere.
 *
 * Runs as one named-config Experiment on the deterministic batch matrix;
 * --threads=1 (or CONSTABLE_THREADS=1) replays serially with identical
 * numbers.
 */

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "sim/experiment.hh"

using namespace constable;

int
main(int argc, char** argv)
{
    auto opts = ExperimentOptions::fromArgs(argc, argv);
    Suite suite = Suite::prepare(opts);

    auto res = Experiment("fig12", suite, opts)
                   .addPreset("baseline")
                   .addPreset("eves")
                   .addPreset("constable")
                   .addPreset("eves+constable")
                   .run();

    auto se = res.speedups("eves", "baseline");
    auto sc = res.speedups("constable", "baseline");
    auto sb = res.speedups("eves+constable", "baseline");

    std::vector<size_t> order(suite.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) { return se[a] < se[b]; });

    std::printf("Fig 12: per-workload speedups, sorted by EVES gain\n");
    std::printf("%4s %-34s%10s%10s%10s\n", "#", "workload", "EVES",
                "Constable", "E+C");
    unsigned consWins = 0;
    double consWinMargin = 0, evesWinMargin = 0;
    for (size_t rank = 0; rank < order.size(); ++rank) {
        size_t i = order[rank];
        std::printf("%4zu %-34s%10.3f%10.3f%10.3f\n", rank + 1,
                    suite.spec(i).name.c_str(), se[i], sc[i], sb[i]);
        if (sc[i] >= se[i]) {
            ++consWins;
            consWinMargin += sc[i] / se[i] - 1.0;
        } else {
            evesWinMargin += se[i] / sc[i] - 1.0;
        }
    }
    size_t n = suite.size();
    std::printf("\nConstable wins %u / %zu workloads (avg margin %.1f%%); "
                "EVES wins %zu (avg margin %.1f%%)\n",
                consWins, n,
                consWins ? 100.0 * consWinMargin / consWins : 0.0,
                n - consWins,
                n - consWins ? 100.0 * evesWinMargin / (n - consWins) : 0.0);
    std::printf("(paper: Constable wins 60/90 by 4.9%%; EVES wins 30 by "
                "9.2%%)\n");
    return 0;
}
