#include "common/logging.hh"

// env.hh includes logging.hh (fatal() backs the strict parsers), so the
// CONSTABLE_LOG_LEVEL parse lives here, in a .cc that can see both.
#include "common/env.hh"

namespace constable {
namespace logdetail {

std::atomic<int> logLevel { -1 };

int
logLevelSlow()
{
    // Racing first calls both parse and store the same value; the strict
    // parser fatal()s on anything outside 0..2.
    int v = 2;
    if (auto e = envU64InRange("CONSTABLE_LOG_LEVEL", 0, 2))
        v = static_cast<int>(*e);
    logLevel.store(v, std::memory_order_relaxed);
    return v;
}

} // namespace logdetail
} // namespace constable
