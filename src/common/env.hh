/**
 * @file
 * Strict parsing for CONSTABLE_* environment variables and numeric CLI
 * flags. Every knob goes through these helpers so a typo
 * (CONSTABLE_THREADS=abc, a stray trailing character, an out-of-range
 * value) terminates with a clear message instead of silently becoming 0
 * and running the sweep with the wrong setting.
 */

#ifndef CONSTABLE_COMMON_ENV_HH
#define CONSTABLE_COMMON_ENV_HH

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "common/logging.hh"

namespace constable {

/**
 * Parse a non-negative base-10 integer from a named source. fatal()s on
 * empty strings, trailing junk, signs, leading zeros, 0x-prefixes, or
 * overflow.
 */
inline uint64_t
parseU64Strict(const std::string& what, const std::string& value)
{
    size_t start = 0;
    while (start < value.size() &&
           std::isspace(static_cast<unsigned char>(value[start])))
        ++start;
    if (start == value.size() || value[start] == '-' || value[start] == '+')
        fatal(what + " must be a non-negative integer, got '" + value + "'");
    // The base is forced to 10: strtoull's base-0 auto-detection would
    // silently parse "010" as octal 8 and "0x10" as hex 16, so anything
    // starting with '0' other than a bare "0" is rejected outright rather
    // than re-based behind the caller's back.
    if (value[start] == '0' && start + 1 < value.size()) {
        fatal(what + " must be a plain base-10 integer (no leading zeros "
              "or 0x prefix), got '" + value + "'");
    }
    errno = 0;
    char* end = nullptr;
    unsigned long long v = std::strtoull(value.c_str() + start, &end, 10);
    if (end == value.c_str() + start || *end != '\0' || errno == ERANGE) {
        fatal(what + " must be a non-negative integer, got '" + value +
              "'");
    }
    return static_cast<uint64_t>(v);
}

/**
 * parseU64Strict plus an inclusive range check, for knobs where an
 * out-of-range value means a misconfigured fleet rather than a big sweep
 * (CONSTABLE_SHARDS=0, a shard id beyond the shard count, a zero lease
 * TTL that would make every lease instantly reclaimable).
 */
inline uint64_t
parseU64InRange(const std::string& what, const std::string& value,
                uint64_t min, uint64_t max)
{
    uint64_t v = parseU64Strict(what, value);
    if (v < min || v > max) {
        fatal(what + " must be in [" + std::to_string(min) + ", " +
              std::to_string(max) + "], got '" + value + "'");
    }
    return v;
}

/**
 * Non-fatal strict decimal parse, for numbers read back from files (cost
 * sidecars, perf recordings) where bad input must be skipped, not kill the
 * process: the whole string, less surrounding whitespace, must be one
 * finite decimal number (std::from_chars: locale-independent, no '+', no
 * hex). Empty strings, trailing junk ("3x"), inf/nan and out-of-range
 * magnitudes yield nullopt, where raw strtod would silently return 0 or
 * the parsable prefix.
 */
inline std::optional<double>
tryParseDouble(const std::string& value)
{
    const char* ws = " \t\n\r\f\v";
    size_t b = value.find_first_not_of(ws);
    if (b == std::string::npos)
        return std::nullopt;
    const char* last = value.data() + value.find_last_not_of(ws) + 1;
    double v = 0.0;
    auto [end, ec] = std::from_chars(value.data() + b, last, v);
    if (ec != std::errc() || end != last || !std::isfinite(v))
        return std::nullopt;
    return v;
}

/**
 * The number after the first `"key":` in flat JSON this program wrote
 * itself (status.json); nullopt when the key is missing or its value is
 * not one tryParseDouble number. Not a JSON reader: no nesting, escapes or
 * whitespace before the ':'.
 */
inline std::optional<double>
flatJsonNumber(const std::string& json, const std::string& key)
{
    std::string needle = "\"" + key + "\":";
    size_t at = json.find(needle);
    if (at == std::string::npos)
        return std::nullopt;
    at += needle.size();
    return tryParseDouble(json.substr(at, json.find_first_of(",}", at) - at));
}

/** An interval for parseDoubleInRange; an open end excludes its bound. */
struct DoubleRange
{
    double lo = 0.0;
    double hi = 0.0;
    bool loOpen = false;
    bool hiOpen = false;

    bool
    contains(double v) const
    {
        return (loOpen ? v > lo : v >= lo) && (hiOpen ? v < hi : v <= hi);
    }

    /** Interval notation, e.g. "[0, 1)". */
    std::string
    str() const
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%c%g, %g%c", loOpen ? '(' : '[',
                      lo, hi, hiOpen ? ')' : ']');
        return buf;
    }
};

/**
 * tryParseDouble for operator-supplied values, plus a range check:
 * fatal()s on malformed input or a value outside @p range, so a
 * percentage typed where a fraction belongs (--max-regression=25) dies
 * instead of quietly disabling a gate.
 */
inline double
parseDoubleInRange(const std::string& what, const std::string& value,
                   const DoubleRange& range)
{
    std::optional<double> v = tryParseDouble(value);
    if (!v)
        fatal(what + " must be a decimal number, got '" + value + "'");
    if (!range.contains(*v)) {
        fatal(what + " must be in " + range.str() + ", got '" + value +
              "'");
    }
    return *v;
}

/** Read an integer env var. Unset -> nullopt; malformed -> fatal(). */
inline std::optional<uint64_t>
envU64(const char* name)
{
    const char* v = std::getenv(name);
    if (!v)
        return std::nullopt;
    return parseU64Strict(name, v);
}

/** envU64 with an inclusive range check (see parseU64InRange). */
inline std::optional<uint64_t>
envU64InRange(const char* name, uint64_t min, uint64_t max)
{
    const char* v = std::getenv(name);
    if (!v)
        return std::nullopt;
    return parseU64InRange(name, v, min, max);
}

/** Read a string env var (empty counts as unset). */
inline std::optional<std::string>
envStr(const char* name)
{
    const char* v = std::getenv(name);
    if (!v || *v == '\0')
        return std::nullopt;
    return std::string(v);
}

} // namespace constable

#endif
