/**
 * @file
 * gem5-style status/error helpers: fatal() for user errors, panic() for
 * model bugs, warn()/inform() for diagnostics.
 *
 * warn() and inform() are gated by CONSTABLE_LOG_LEVEL (strict-parsed,
 * 0..2): 0 silences both, 1 shows warnings only, 2 (the default) shows
 * everything. fatal() and panic() always print — they terminate the
 * process and must never be silenced.
 */

#ifndef CONSTABLE_COMMON_LOGGING_HH
#define CONSTABLE_COMMON_LOGGING_HH

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace constable {

namespace logdetail {

/** Resolved CONSTABLE_LOG_LEVEL; -1 until the first gated call parses it
 *  (in logging.cc, via env.hh — malformed values fatal() there). */
extern std::atomic<int> logLevel;

int logLevelSlow();

inline int
logLevelNow()
{
    int v = logLevel.load(std::memory_order_relaxed);
    return v >= 0 ? v : logLevelSlow();
}

} // namespace logdetail

/** Terminate the process because of a user/configuration error. */
[[noreturn]] inline void
fatal(const std::string& msg)
{
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    std::exit(1);
}

/** Terminate the process because of a simulator bug (invariant violation). */
[[noreturn]] inline void
panic(const std::string& msg)
{
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

/** Non-fatal warning about questionable behaviour (log level >= 1). */
inline void
warn(const std::string& msg)
{
    if (logdetail::logLevelNow() >= 1)
        std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

/** Informational status message (log level >= 2). */
inline void
inform(const std::string& msg)
{
    if (logdetail::logLevelNow() >= 2)
        std::fprintf(stderr, "info: %s\n", msg.c_str());
}

} // namespace constable

#endif
