/**
 * @file
 * Statistics the benchmark reports: totals and means of timed samples,
 * medians for per-program rows, and nearest-rank percentiles that
 * refuse to answer from too little data.
 */

#ifndef PLASBENCH_STATS_HPP
#define PLASBENCH_STATS_HPP

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <optional>
#include <vector>

namespace plasbench
{

/** A percentile is reported only when at least this many samples lie
 *  beyond it, so a tail value never rests on a handful of runs. */
inline constexpr size_t kMinSamplesBeyond = 10;

/** Sum of `v`. */
inline double
total(const std::vector<double> &v)
{
    return std::accumulate(v.begin(), v.end(), 0.0);
}

/** Mean of `v`; 0 for an empty sample. */
inline double
mean(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : total(v) / static_cast<double>(v.size());
}

/** Median of `v` (mean of the middle two for an even count); 0 for an
 *  empty sample. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Nearest-rank `p`-th percentile (0 < p < 100). Empty when fewer than
 * kMinSamplesBeyond samples rank above it: a p99 needs 1,000 samples.
 */
inline std::optional<double>
percentile(std::vector<double> v, double p)
{
    size_t n = v.size();
    if (n == 0)
        return std::nullopt;
    auto rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
    rank = std::clamp<size_t>(rank, 1, n);
    if (n - rank < kMinSamplesBeyond)
        return std::nullopt;
    std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
    return v[rank - 1];
}

} // namespace plasbench

#endif // PLASBENCH_STATS_HPP
