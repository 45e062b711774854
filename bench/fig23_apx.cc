/**
 * @file
 * Reproduces paper Fig 23/24 (appendix B): the effect of doubling the
 * architectural registers (Intel APX, 16 -> 32) on dynamic load counts and
 * on the global-stable load population, over the SPEC-like categories.
 * Paper reference: APX removes ~11.7% of dynamic loads but the
 * global-stable fraction stays nearly the same (13.7% -> 14.2%);
 * stack-relative share of global-stable loads drops (21.1% -> 16%) while
 * the PC-relative share is unchanged — compile-time register allocation
 * and Constable are largely orthogonal.
 *
 * Pure offline study: both register-width variants go through
 * Suite::fromSpecs, which generates (or cache-loads) and inspects every
 * trace in parallel through forEachJob.
 */

#include <cstdio>

#include "sim/experiment.hh"

using namespace constable;

int
main(int argc, char** argv)
{
    auto opts = ExperimentOptions::fromArgs(argc, argv);

    auto specs = paperSuite(opts.traceOps);
    std::vector<WorkloadSpec> spec16;
    for (const auto& s : specs) {
        if (s.category == "FSPEC17" || s.category == "ISPEC17")
            spec16.push_back(s);
    }
    if (spec16.size() > opts.suiteLimit)
        spec16.resize(opts.suiteLimit);
    std::vector<WorkloadSpec> spec32 = spec16;
    for (auto& s : spec32) {
        s.name += "/apx";
        s.numArchRegs = 32;
    }

    Suite s16 = Suite::fromSpecs(std::move(spec16), opts);
    Suite s32 = Suite::fromSpecs(std::move(spec32), opts);

    double lr = 0, g16 = 0, g32 = 0, st16 = 0, st32 = 0, p16 = 0, p32 = 0;
    for (size_t i = 0; i < s16.size(); ++i) {
        const auto& i16 = s16.inspection(i);
        const auto& i32 = s32.inspection(i);
        double l16 = static_cast<double>(i16.dynLoads) /
                     static_cast<double>(i16.dynOps);
        double l32 = static_cast<double>(i32.dynLoads) /
                     static_cast<double>(i32.dynOps);
        lr += 1.0 - l32 / l16;
        g16 += i16.globalStableFrac();
        g32 += i32.globalStableFrac();
        st16 += i16.modeFrac(AddrMode::StackRel);
        st32 += i32.modeFrac(AddrMode::StackRel);
        p16 += i16.modeFrac(AddrMode::PcRel);
        p32 += i32.modeFrac(AddrMode::PcRel);
    }
    double n = static_cast<double>(s16.size());
    std::printf("Fig 23: APX (32 architectural registers) study over "
                "%zu SPEC-like traces\n", s16.size());
    std::printf("  dynamic-load reduction with APX: %.1f%% "
                "(paper: 11.7%%)\n", 100.0 * lr / n);
    std::printf("  global-stable fraction: %.1f%% (16 regs) vs %.1f%% "
                "(APX) (paper: 13.7%% vs 14.2%%)\n",
                100.0 * g16 / n, 100.0 * g32 / n);
    std::printf("\nFig 24: global-stable addressing-mode shares\n");
    std::printf("  stack-relative: %.1f%% -> %.1f%% with APX "
                "(paper: 21.1%% -> 16%%)\n",
                100.0 * st16 / n, 100.0 * st32 / n);
    std::printf("  PC-relative:    %.1f%% -> %.1f%% with APX "
                "(paper: 38.3%% -> 38.9%%)\n",
                100.0 * p16 / n, 100.0 * p32 / n);
    return 0;
}
