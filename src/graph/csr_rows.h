// Variable-length rows in one block (compressed sparse rows).
//
// The asynchronous link samples many short neighbor lists per batch —
// one per frontier slot, one hop list per record. Holding them as one
// offsets array plus one entries array (instead of a vector per row)
// makes a block a couple of allocations, and a block one thread reuses
// (Clear keeps capacity) allocates nothing once warm.

#ifndef APAN_GRAPH_CSR_ROWS_H_
#define APAN_GRAPH_CSR_ROWS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/temporal_graph.h"

namespace apan {
namespace graph {

/// \brief Row r is entries[offsets[r], offsets[r + 1]).
///
/// Well-formed: offsets is empty (no rows) or starts at 0, never
/// decreases, and ends at entries.size().
template <typename T>
struct CsrRows {
  std::vector<int64_t> offsets;
  std::vector<T> entries;

  size_t rows() const { return offsets.empty() ? 0 : offsets.size() - 1; }

  std::span<const T> Row(size_t r) const {
    return {entries.data() + offsets[r],
            static_cast<size_t>(offsets[r + 1] - offsets[r])};
  }

  /// Closes a row holding every entry appended since the last close.
  void EndRow() {
    if (offsets.empty()) offsets.push_back(0);
    offsets.push_back(static_cast<int64_t>(entries.size()));
  }

  /// Drops every row, keeping capacity.
  void Clear() {
    offsets.clear();
    entries.clear();
  }
};

/// Sampled neighbor lists of many nodes (one row per node).
using NeighborRows = CsrRows<TemporalNeighbor>;

}  // namespace graph
}  // namespace apan

#endif  // APAN_GRAPH_CSR_ROWS_H_
