/**
 * @file
 * Invariant-check macros for the simulator's load-bearing data structures.
 *
 * CONSTABLE_ASSERT(cond, msg)  O(1) invariant checks on hot paths (ready
 *                              queue live counts, event-wheel bitmap
 *                              agreement).
 * CONSTABLE_DCHECK(cond, msg)  checks that may cost more than a few
 *                              instructions (ordered-list walks, heap
 *                              property probes).
 *
 * Both compile out in Release (NDEBUG) builds, the only builds perfbench
 * times, so it measures the real simulator; sanitizer CI builds are Debug
 * and run every check. -DCONSTABLE_FORCE_CHECKS re-enables them in any
 * build type. A failed check abort()s (so sanitizers and core dumps
 * capture the state) after printing file:line, the expression, and the
 * message.
 */

#ifndef CONSTABLE_COMMON_CHECK_HH
#define CONSTABLE_COMMON_CHECK_HH

#include <cstdio>
#include <cstdlib>

namespace constable {

[[noreturn]] inline void
checkFailed(const char* file, int line, const char* expr, const char* msg)
{
    std::fprintf(stderr, "%s:%d: invariant check failed: (%s): %s\n",
                 file, line, expr, msg);
    std::abort();
}

} // namespace constable

#if !defined(NDEBUG) || defined(CONSTABLE_FORCE_CHECKS)
#define CONSTABLE_CHECKS_ENABLED 1
#endif

#ifdef CONSTABLE_CHECKS_ENABLED
#define CONSTABLE_ASSERT(cond, msg)                                         \
    ((cond) ? static_cast<void>(0)                                          \
            : constable::checkFailed(__FILE__, __LINE__, #cond, msg))
#define CONSTABLE_DCHECK(cond, msg) CONSTABLE_ASSERT(cond, msg)
#else
// The sizeof keeps the condition type-checked (and its operands "used" for
// warning purposes) without evaluating it at runtime.
#define CONSTABLE_ASSERT(cond, msg)                                         \
    (static_cast<void>(sizeof((cond) ? 1 : 0)))
#define CONSTABLE_DCHECK(cond, msg)                                         \
    (static_cast<void>(sizeof((cond) ? 1 : 0)))
#endif

#endif
