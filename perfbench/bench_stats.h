// Arithmetic of the serving benchmark, kept free of clocks and engines so
// bench_stats_test.cc can check it on hand-built inputs: the tail
// percentile rule, span self time, apply lag from a polled counter, and
// peak-RSS parsing.

#ifndef APAN_PERFBENCH_BENCH_STATS_H_
#define APAN_PERFBENCH_BENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace apan {
namespace perfbench {

/// A percentile read off a sample, with the evidence behind it.
struct Percentile {
  double value = 0.0;
  size_t samples = 0;  ///< Sample size the value was read from.
  size_t beyond = 0;   ///< Samples strictly above the value's rank.
};

/// Nearest-rank percentile: the ceil(q * n)-th smallest sample (1-based).
/// `beyond` is n minus that rank — the tail rule asks for beyond >= 10
/// before a percentile is reported as measured.
inline Percentile NearestRank(std::vector<double> values, double q) {
  Percentile out;
  out.samples = values.size();
  if (values.empty()) return out;
  // The epsilon keeps ceil(0.99 * 1000) at 990 despite 0.99 being inexact.
  auto rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size()) - 1e-9));
  rank = std::clamp<size_t>(rank, 1, values.size());
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  out.value = values[rank - 1];
  out.beyond = values.size() - rank;
  return out;
}

/// Whether `p` has at least `min_beyond` samples past it.
inline bool TailSupported(const Percentile& p, size_t min_beyond = 10) {
  return p.samples > 0 && p.beyond >= min_beyond;
}

inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// A percentile taken per window of consecutive samples, reported as the
/// median across windows: one burst of host noise moves one window, not
/// the result. Windows hold `window` samples (a short tail is folded into
/// the last window); fewer samples than one window make a single window.
struct WindowedPercentile {
  double value = 0.0;
  size_t windows = 0;
  Percentile smallest;  ///< The window with the fewest samples.
};

inline WindowedPercentile NearestRankWindowed(const std::vector<double>& values,
                                              double q, size_t window) {
  WindowedPercentile out;
  if (values.empty() || window == 0) return out;
  const size_t windows = std::max<size_t>(1, values.size() / window);
  std::vector<double> per_window;
  for (size_t w = 0; w < windows; ++w) {
    const size_t lo = w * window;
    const size_t hi = w + 1 == windows ? values.size() : lo + window;
    const Percentile p = NearestRank(
        std::vector<double>(values.begin() + static_cast<std::ptrdiff_t>(lo),
                            values.begin() + static_cast<std::ptrdiff_t>(hi)),
        q);
    per_window.push_back(p.value);
    if (w == 0 || p.samples < out.smallest.samples) out.smallest = p;
  }
  out.value = Median(per_window);
  out.windows = windows;
  return out;
}

/// One timed call in the sequential replay. `parent` indexes the span that
/// caused it (-1 for a root); `batch` ties the spans of one batch together.
struct Span {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  int parent = -1;
  int64_t batch = -1;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children are counted once, and a
/// child running past its parent's end is clipped to it).
inline std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[static_cast<size_t>(s.parent)].push_back({s.start_ms, s.end_ms});
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start_ms;
    const double hi = spans[i].end_ms;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double cursor = lo;  // end of the covered prefix so far
    for (const auto& [start, end] : kids) {
      const double a = std::max(start, cursor);
      const double b = std::min(end, hi);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    self[i] = std::max(0.0, (hi - lo) - covered);
  }
  return self;
}

/// Self time summed per span name.
inline std::map<std::string, double> SelfTimeByName(
    const std::vector<Span>& spans) {
  const std::vector<double> self = SelfTimes(spans);
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans.size(); ++i) out[spans[i].name] += self[i];
  return out;
}

/// \brief Apply lag from a polled progress counter. Batch b (0-based, in
/// send order) counts as applied at the first poll, taken at or after b's
/// InferBatch returned, that reads `propagated >= b + 1`. Its lag is that
/// poll's time minus the return time. Polls must come in time order.
class ApplyLagTracker {
 public:
  /// Batch `batch` returned from InferBatch at `t_ms`. Batches are
  /// reported in order 0, 1, 2, ...
  void OnReturn(int64_t batch, double t_ms) {
    if (static_cast<size_t>(batch) >= returned_.size()) {
      returned_.resize(static_cast<size_t>(batch) + 1, -1.0);
    }
    returned_[static_cast<size_t>(batch)] = t_ms;
  }
  /// A poll at `t_ms` read `propagated` fully applied batches.
  void OnPoll(double t_ms, int64_t propagated) {
    while (next_ < returned_.size() &&
           static_cast<int64_t>(next_) < propagated &&
           returned_[next_] >= 0.0 && returned_[next_] <= t_ms) {
      lags_.push_back(t_ms - returned_[next_]);
      ++next_;
    }
  }
  /// Batches whose lag is known, in batch order.
  const std::vector<double>& lags_ms() const { return lags_; }
  /// True once every returned batch has a lag.
  bool Complete() const { return next_ == returned_.size(); }

 private:
  std::vector<double> returned_;  ///< Return time per batch (-1: not yet).
  size_t next_ = 0;               ///< First batch without a lag.
  std::vector<double> lags_;
};

/// Peak resident set size in MiB from the text of /proc/<pid>/status
/// (the `VmHWM:  <n> kB` line). Empty when the line is missing or
/// malformed.
inline std::optional<double> ParsePeakRssMb(std::string_view status) {
  constexpr std::string_view kKey = "VmHWM:";
  size_t pos = 0;
  while (pos < status.size()) {
    size_t eol = status.find('\n', pos);
    if (eol == std::string_view::npos) eol = status.size();
    std::string_view line = status.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.substr(0, kKey.size()) != kKey) continue;
    line.remove_prefix(kKey.size());
    while (!line.empty() && (line.front() == ' ' || line.front() == '\t')) {
      line.remove_prefix(1);
    }
    uint64_t kb = 0;
    size_t digits = 0;
    while (digits < line.size() && line[digits] >= '0' && line[digits] <= '9') {
      kb = kb * 10 + static_cast<uint64_t>(line[digits] - '0');
      ++digits;
    }
    if (digits == 0 || digits > 15) return std::nullopt;
    line.remove_prefix(digits);
    while (!line.empty() && line.front() == ' ') line.remove_prefix(1);
    if (line != "kB") return std::nullopt;
    return static_cast<double>(kb) / 1024.0;
  }
  return std::nullopt;
}

}  // namespace perfbench
}  // namespace apan

#endif  // APAN_PERFBENCH_BENCH_STATS_H_
