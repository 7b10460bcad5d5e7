// k-hop temporal neighborhood expansion.
//
// APAN's mail propagator delivers a mail to the k-hop most-recent-sampled
// neighborhood of the two interacting nodes (paper §3.5, N^k_ij); the
// synchronous baselines use the same machinery to build their aggregation
// trees. Sampling never looks at events at or after `before_time` — the
// "no future leakage" invariant checked by the property tests.

#ifndef APAN_GRAPH_SAMPLING_H_
#define APAN_GRAPH_SAMPLING_H_

#include <cstdint>
#include <vector>

#include "graph/csr_rows.h"
#include "graph/temporal_graph.h"

namespace apan {
namespace graph {

/// One sampled node occurrence in a k-hop expansion.
struct HopEntry {
  NodeId node = -1;
  EdgeId via_edge = -1;     ///< Edge that connected it to the previous hop.
  double timestamp = 0.0;   ///< Timestamp of that edge.
  int32_t hop = 0;          ///< 1 = direct neighbor of a seed, etc.
};

/// Per-record k-hop expansions in one block: row r is record r's entries
/// in hop order (what KHopMostRecent returns for it).
using HopRows = CsrRows<HopEntry>;

/// \brief Expands the most-recent-sampled neighborhood of `seeds`.
///
/// Per hop, each frontier node contributes up to `fanout` most-recent
/// neighbors with timestamps strictly before `before_time`. Duplicates are
/// preserved (a node reachable twice appears twice) — mail reduction (ρ)
/// is the deduplicating stage by design.
///
/// \return entries for hops 1..num_hops, in hop order.
std::vector<HopEntry> KHopMostRecent(const TemporalGraph& graph,
                                     const std::vector<NodeId>& seeds,
                                     double before_time, int32_t num_hops,
                                     int64_t fanout);

/// \brief Same expansion with *uniform* historical-neighbor sampling per
/// hop — the GraphSAGE-style alternative the paper compares against
/// most-recent sampling (§3.5). Deterministic given `rng`'s state.
std::vector<HopEntry> KHopUniform(const TemporalGraph& graph,
                                  const std::vector<NodeId>& seeds,
                                  double before_time, int32_t num_hops,
                                  int64_t fanout, Rng* rng);

}  // namespace graph
}  // namespace apan

#endif  // APAN_GRAPH_SAMPLING_H_
