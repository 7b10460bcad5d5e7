// Flat mail blocks — the unit the asynchronous link moves mail in — and
// the node → row index that builds and merges them.
//
// Mail crosses threads: one worker builds it, another frees it. A heap
// vector per mail would cost an allocation per mail; MailRows keeps a
// whole block in five parallel arrays instead, so a block costs a handful
// of allocations sized once, and a block reused by one thread (Clear
// keeps capacity) stops allocating after its largest batch.

#ifndef APAN_CORE_MAIL_ROWS_H_
#define APAN_CORE_MAIL_ROWS_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/temporal_graph.h"

namespace apan {
namespace core {

/// \brief Rows of (node, time, count, tag, payload[dim]).
///
/// The per-row fields mean, by role:
///   hop-0 mail       time = event time, count = 1, tag = sequence tag;
///   partial ρ sums   time = newest contribution, count = contributions,
///                    tag = 0 (one row per recipient);
///   z(t−) write-back time = event time, count = 1, tag = sequence tag.
/// Well-formed means the four per-row arrays have equal length and
/// payload holds rows() × dim floats (the wire decoder checks exactly
/// that before anything reads a decoded block).
struct MailRows {
  int64_t dim = 0;
  std::vector<graph::NodeId> node;
  std::vector<double> time;
  std::vector<int64_t> count;
  std::vector<int64_t> tag;
  std::vector<float> payload;

  size_t rows() const { return node.size(); }

  /// Drops every row, keeping capacity (and dim).
  void Clear() {
    node.clear();
    time.clear();
    count.clear();
    tag.clear();
    payload.clear();
  }

  void Reserve(size_t rows) {
    node.reserve(rows);
    time.reserve(rows);
    count.reserve(rows);
    tag.reserve(rows);
    payload.reserve(rows * static_cast<size_t>(dim));
  }

  /// Appends a row with a zeroed payload and returns the payload (dim
  /// floats). The pointer is invalidated by the next append.
  float* AppendRow(graph::NodeId n, double t, int64_t c, int64_t g) {
    node.push_back(n);
    time.push_back(t);
    count.push_back(c);
    tag.push_back(g);
    payload.resize(payload.size() + static_cast<size_t>(dim));
    return payload.data() + payload.size() - static_cast<size_t>(dim);
  }

  /// Appends a row with a copy of `values` (dim floats).
  void AppendRow(graph::NodeId n, double t, int64_t c, int64_t g,
                 std::span<const float> values) {
    node.push_back(n);
    time.push_back(t);
    count.push_back(c);
    tag.push_back(g);
    payload.insert(payload.end(), values.begin(), values.end());
  }

  /// Appends row `r` of `other` (another block of the same dim).
  void AppendRowFrom(const MailRows& other, size_t r) {
    AppendRow(other.node[r], other.time[r], other.count[r], other.tag[r],
              other.Row(r));
  }

  std::span<const float> Row(size_t r) const {
    return {payload.data() + r * static_cast<size_t>(dim),
            static_cast<size_t>(dim)};
  }
  std::span<float> MutableRow(size_t r) {
    return {payload.data() + r * static_cast<size_t>(dim),
            static_cast<size_t>(dim)};
  }
};

/// \brief Node → row map for building or merging one block per batch:
/// open addressing with linear probing over power-of-two arrays. Clear
/// forgets every node but keeps capacity, so a map reused by one thread
/// stops allocating once it has seen its largest batch; it starts empty
/// and grows on first use.
class NodeRowIndex {
 public:
  /// Forgets every node, keeping capacity.
  void Clear() {
    std::fill(keys_.begin(), keys_.end(), graph::NodeId{-1});
    size_ = 0;
  }

  /// The row mapped to `node`, mapping it to `row` first if it is new.
  /// \return {mapped row, whether `node` was new}.
  std::pair<uint32_t, bool> Insert(graph::NodeId node, uint32_t row) {
    // Keep the load factor at or below 1/2 so probes stay short.
    if (2 * (size_ + 1) > keys_.size()) Grow();
    const size_t mask = keys_.size() - 1;
    size_t slot = HomeSlot(node, mask);
    while (keys_[slot] != -1) {
      if (keys_[slot] == node) return {rows_[slot], false};
      slot = (slot + 1) & mask;
    }
    keys_[slot] = node;
    rows_[slot] = row;
    ++size_;
    return {row, true};
  }

 private:
  static size_t HomeSlot(graph::NodeId node, size_t mask) {
    return static_cast<size_t>(static_cast<uint64_t>(node) *
                                   0x9E3779B97F4A7C15ULL >>
                               32) &
           mask;
  }

  void Grow() {
    std::vector<graph::NodeId> keys(keys_.empty() ? 64 : 2 * keys_.size(),
                                    graph::NodeId{-1});
    std::vector<uint32_t> rows(keys.size());
    const size_t mask = keys.size() - 1;
    for (size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] == -1) continue;
      size_t slot = HomeSlot(keys_[i], mask);
      while (keys[slot] != -1) slot = (slot + 1) & mask;
      keys[slot] = keys_[i];
      rows[slot] = rows_[i];
    }
    keys_ = std::move(keys);
    rows_ = std::move(rows);
  }

  std::vector<graph::NodeId> keys_;  ///< -1 marks an empty slot.
  std::vector<uint32_t> rows_;
  size_t size_ = 0;
};

}  // namespace core
}  // namespace apan

#endif  // APAN_CORE_MAIL_ROWS_H_
