/**
 * @file
 * Lightweight statistics toolkit: counters, histograms, box-and-whisker
 * summaries (used throughout the paper's figures), and geometric means.
 */

#ifndef CONSTABLE_COMMON_STATS_HH
#define CONSTABLE_COMMON_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace constable {

/** Ratio helper that tolerates zero denominators. */
inline double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

/**
 * Geometric mean over the *positive* samples of v. Non-positive samples
 * have no geometric mean — log(0) = -inf collapses the whole mean to 0 and
 * the log of a negative value is NaN — so they are skipped and the mean of
 * the remaining positive subset is returned; 0 when no positive sample
 * remains (including empty input).
 */
double geomean(const std::vector<double>& v);

/** Arithmetic mean (returns 0 for empty). */
double mean(const std::vector<double>& v);

/**
 * Linear-interpolated percentile (p in [0, 1]) of an ascending-sorted
 * sample vector; 0 for empty input. The primitive behind BoxWhisker's
 * quartiles.
 */
double percentileSorted(const std::vector<double>& sorted, double p);

/**
 * Five-number summary used by the paper's box-and-whisker plots
 * (Figs 9, 18, 21): quartiles, 1.5*IQR whiskers, and the mean.
 */
struct BoxWhisker
{
    double min = 0, q1 = 0, median = 0, q3 = 0, max = 0;
    double whiskerLo = 0, whiskerHi = 0;
    double meanVal = 0;
    size_t n = 0;

    /** Compute the summary from raw samples. */
    static BoxWhisker from(std::vector<double> samples);

    /** One-line rendering, e.g. for bench output tables. */
    std::string str() const;
};

/**
 * Fixed-bucket histogram with user-defined upper bin edges; the last bucket
 * is open-ended. Used for inter-occurrence-distance breakdowns (Fig 3c/d)
 * and SLD updates-per-cycle distributions (Fig 9a).
 */
class Histogram
{
  public:
    /** @param edges ascending exclusive upper edges; a final +inf bucket is
     *         appended automatically. */
    explicit Histogram(std::vector<uint64_t> edges);

    /** Record one sample. */
    void add(uint64_t sample, uint64_t weight = 1);

    uint64_t total() const { return totalCount; }
    size_t numBuckets() const { return counts.size(); }
    uint64_t bucketCount(size_t i) const { return counts.at(i); }

    /** Fraction of samples in bucket i (0 if empty histogram). */
    double bucketFrac(size_t i) const;

    /** Human-readable bucket label, e.g. "[50,100)" or "250+". */
    std::string bucketLabel(size_t i) const;

  private:
    std::vector<uint64_t> upperEdges;
    std::vector<uint64_t> counts;
    uint64_t totalCount = 0;
};

/**
 * Named scalar counters grouped per simulation run. The core, memory
 * hierarchy, Constable engine and power model all report through this so
 * benches can diff configurations uniformly.
 *
 * Export-only by design: there is deliberately no string-keyed increment.
 * Per-op/per-cycle paths bump raw integer members on their owning component
 * and publish them exactly once, at the end of a run, through an
 * exportStats()/exportFinalStats() hook -- a string-keyed map update per
 * event is a hash+allocation tax the simulation inner loop must not pay.
 */
class StatSet
{
  public:
    /** Set/overwrite a named value. */
    void set(const std::string& name, double v) { vals[name] = v; }

    /** Read a counter; missing names read as 0. */
    double
    get(const std::string& name) const
    {
        auto it = vals.find(name);
        return it == vals.end() ? 0.0 : it->second;
    }

    bool has(const std::string& name) const { return vals.count(name) > 0; }

    const std::map<std::string, double>& all() const { return vals; }

  private:
    std::map<std::string, double> vals;
};

} // namespace constable

#endif
