/**
 * @file
 * The outcome of one simulation run: cycle/instruction totals, per-thread
 * figures, the golden-check verdict, and the full named-stat map. Lives in
 * common/ (not cpu/) because every layer above the core consumes it --
 * trace/serialize.cc checkpoints it and sim/ sweeps aggregate it -- and
 * the layering rule (see tools/constable-lint) forbids those layers'
 * headers from reaching back into cpu/.
 */

#ifndef CONSTABLE_COMMON_RUN_RESULT_HH
#define CONSTABLE_COMMON_RUN_RESULT_HH

#include <array>
#include <cstdint>
#include <string>

#include "common/stats.hh"
#include "common/types.hh"

namespace constable {

/** Outcome of one simulation run. */
struct RunResult
{
    Cycle cycles = 0;
    uint64_t instructions = 0;
    std::array<uint64_t, 2> threadInstructions { 0, 0 };
    std::array<Cycle, 2> threadFinishCycle { 0, 0 };
    bool goldenCheckFailed = false;
    std::string goldenCheckMessage;
    StatSet stats;

    double ipc() const
    {
        return cycles == 0 ? 0.0
                           : static_cast<double>(instructions) /
                                 static_cast<double>(cycles);
    }
};

} // namespace constable

#endif
