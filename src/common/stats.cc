#include "common/stats.hh"

#include <cstdio>

namespace constable {

double
geomean(const std::vector<double>& v)
{
    // Skip non-positive samples (see stats.hh): one zero latency or a
    // negative energy delta must not zero-out / NaN-out the whole mean.
    double acc = 0.0;
    size_t n = 0;
    for (double x : v) {
        if (x > 0.0) {
            acc += std::log(x);
            ++n;
        }
    }
    if (n == 0)
        return 0.0;
    return std::exp(acc / static_cast<double>(n));
}

double
mean(const std::vector<double>& v)
{
    if (v.empty())
        return 0.0;
    double acc = 0.0;
    for (double x : v)
        acc += x;
    return acc / static_cast<double>(v.size());
}

double
percentileSorted(const std::vector<double>& s, double p)
{
    if (s.empty())
        return 0.0;
    if (s.size() == 1)
        return s[0];
    double idx = p * static_cast<double>(s.size() - 1);
    size_t lo = static_cast<size_t>(idx);
    size_t hi = std::min(lo + 1, s.size() - 1);
    double frac = idx - static_cast<double>(lo);
    return s[lo] * (1.0 - frac) + s[hi] * frac;
}

BoxWhisker
BoxWhisker::from(std::vector<double> samples)
{
    BoxWhisker b;
    b.n = samples.size();
    if (samples.empty())
        return b;
    std::sort(samples.begin(), samples.end());
    b.min = samples.front();
    b.max = samples.back();
    b.q1 = percentileSorted(samples, 0.25);
    b.median = percentileSorted(samples, 0.50);
    b.q3 = percentileSorted(samples, 0.75);
    b.meanVal = mean(samples);
    double iqr = b.q3 - b.q1;
    // Whiskers extend to the farthest sample within 1.5*IQR of the box.
    double loLimit = b.q1 - 1.5 * iqr;
    double hiLimit = b.q3 + 1.5 * iqr;
    b.whiskerLo = b.max;
    b.whiskerHi = b.min;
    for (double s : samples) {
        if (s >= loLimit)
            b.whiskerLo = std::min(b.whiskerLo, s);
        if (s <= hiLimit)
            b.whiskerHi = std::max(b.whiskerHi, s);
    }
    return b;
}

std::string
BoxWhisker::str() const
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "min=%.4g wLo=%.4g q1=%.4g med=%.4g q3=%.4g wHi=%.4g "
                  "max=%.4g mean=%.4g n=%zu",
                  min, whiskerLo, q1, median, q3, whiskerHi, max, meanVal, n);
    return buf;
}

Histogram::Histogram(std::vector<uint64_t> edges)
    : upperEdges(std::move(edges)), counts(upperEdges.size() + 1, 0)
{
}

void
Histogram::add(uint64_t sample, uint64_t weight)
{
    size_t i = 0;
    while (i < upperEdges.size() && sample >= upperEdges[i])
        ++i;
    counts[i] += weight;
    totalCount += weight;
}

double
Histogram::bucketFrac(size_t i) const
{
    return totalCount == 0
        ? 0.0
        : static_cast<double>(counts.at(i)) / static_cast<double>(totalCount);
}

std::string
Histogram::bucketLabel(size_t i) const
{
    char buf[64];
    if (i == upperEdges.size()) {
        std::snprintf(buf, sizeof(buf), "%llu+",
                      static_cast<unsigned long long>(
                          upperEdges.empty() ? 0 : upperEdges.back()));
    } else {
        uint64_t lo = i == 0 ? 0 : upperEdges[i - 1];
        std::snprintf(buf, sizeof(buf), "[%llu,%llu)",
                      static_cast<unsigned long long>(lo),
                      static_cast<unsigned long long>(upperEdges[i]));
    }
    return buf;
}

} // namespace constable
