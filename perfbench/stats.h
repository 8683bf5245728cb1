// Exact statistics over raw samples. Nothing here reads a binned
// histogram: every percentile is taken from the samples themselves.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample v such that at least a
/// fraction q of the samples are <= v. q in [0, 1]; 0 for no samples.
inline double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

/// Median as the mean of the two middle samples for an even count.
inline double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

/// One timed request: when it was due (ns on the run's clock) and how long
/// it took from then until it completed.
struct TimedSample {
  uint64_t due_ns = 0;
  double latency = 0.0;
};

/// One measurement over the time interval [start_ns, end_ns).
struct Window {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  double value = 0.0;
};

/// The q-percentile of each fixed window of due time. Windows start at
/// `origin_ns` and are `window_ns` wide; a window with fewer than
/// `min_samples` samples (the ragged tail) is skipped.
inline std::vector<Window> WindowPercentiles(
    const std::vector<TimedSample>& samples, uint64_t origin_ns,
    uint64_t window_ns, size_t min_samples, double q) {
  std::vector<Window> out;
  if (samples.empty() || window_ns == 0) return out;
  std::vector<std::vector<double>> windows;
  for (const TimedSample& s : samples) {
    if (s.due_ns < origin_ns) continue;
    const size_t w = static_cast<size_t>((s.due_ns - origin_ns) / window_ns);
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(s.latency);
  }
  for (size_t w = 0; w < windows.size(); ++w) {
    if (windows[w].empty() || windows[w].size() < min_samples) continue;
    Window win;
    win.start_ns = origin_ns + w * window_ns;
    win.end_ns = win.start_ns + window_ns;
    win.value = Percentile(std::move(windows[w]), q);
    out.push_back(win);
  }
  return out;
}

inline double MedianValue(const std::vector<Window>& windows) {
  std::vector<double> values;
  values.reserve(windows.size());
  for (const Window& w : windows) values.push_back(w.value);
  return Median(std::move(values));
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
