// Tail-first search for the visible prefix of a time-sorted adjacency row.
//
// Every neighbor query cuts a node's row at a visibility horizon (events
// before a timestamp, and on a sharded graph also before a stream
// ordinal). Rows only grow at the end and queries come from the stream's
// present, so the horizon almost always sits among the newest entries. A
// whole-row binary search starts in the middle of a row that can be far
// larger than the cache; galloping back from the end first touches only
// the row's hot tail.

#ifndef APAN_GRAPH_VISIBLE_PREFIX_H_
#define APAN_GRAPH_VISIBLE_PREFIX_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace apan {
namespace graph {

/// \brief Index of the first entry of `row` for which `visible` is false,
/// where `visible` holds on a prefix of the row. Returns exactly what
/// std::partition_point (equivalently std::lower_bound on the sort key)
/// returns, but gallops back from the row end by 1, 2, 4, ... entries and
/// binary-searches only the last bracket: O(log k) probes for a horizon k
/// entries from the end.
template <typename T, typename Pred>
size_t TailPartitionPoint(const std::vector<T>& row, Pred visible) {
  // Invariant: every entry at index >= hi is known not visible.
  size_t hi = row.size();
  size_t step = 1;
  while (hi > 0) {
    const size_t probe = hi > step ? hi - step : 0;
    if (visible(row[probe])) {
      return static_cast<size_t>(
          std::partition_point(row.begin() + static_cast<std::ptrdiff_t>(probe + 1),
                               row.begin() + static_cast<std::ptrdiff_t>(hi),
                               visible) -
          row.begin());
    }
    hi = probe;
    step *= 2;
  }
  return 0;
}

/// \brief End of the visible prefix of a row sorted by both `timestamp`
/// and `ordinal` (stream order): entries before `before_time` and, unless
/// `ordinal_limit` is INT64_MAX (no limit), before `ordinal_limit`. Both
/// keys are sorted, so the conjunction is itself a prefix and the result
/// is the min of the two lower_bound cuts.
template <typename Entry>
size_t VisibleEnd(const std::vector<Entry>& row, double before_time,
                  int64_t ordinal_limit) {
  if (ordinal_limit == std::numeric_limits<int64_t>::max()) {
    return TailPartitionPoint(row, [before_time](const Entry& e) {
      return e.timestamp < before_time;
    });
  }
  return TailPartitionPoint(row, [before_time, ordinal_limit](const Entry& e) {
    return e.timestamp < before_time && e.ordinal < ordinal_limit;
  });
}

}  // namespace graph
}  // namespace apan

#endif  // APAN_GRAPH_VISIBLE_PREFIX_H_
