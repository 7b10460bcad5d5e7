// APAN's attention-based encoder (paper §3.3, Figure 4).
//
// Computes the new temporal embedding of a node from its last embedding
// z(t−) and its mailbox M(t):
//
//   M̂(t) = M(t) + P                      (positional encoding, Eq. 2)
//   a    = MultiHead(Q = z(t−) W_Q,
//                    K = M̂ W_K, V = M̂ W_V) + z(t−)   (Eq. 3-4, shortcut)
//   z(t) = MLP(LayerNorm(a))              (Eq. 5 + the MLP that follows)
//
// No graph query happens here — this is the synchronous link.

#ifndef APAN_CORE_ENCODER_H_
#define APAN_CORE_ENCODER_H_

#include <vector>

#include "core/config.h"
#include "core/mailbox.h"
#include "nn/attention.h"
#include "nn/layers.h"
#include "nn/module.h"
#include "nn/time_encoding.h"

namespace apan {
namespace core {

class NodeStateStore;

/// \brief The encoder network. One instance serves every node.
class ApanEncoder : public nn::Module {
 public:
  ApanEncoder(const ApanConfig& config, Rng* rng);

  struct Output {
    /// New embeddings z(t), {batch, dim}.
    tensor::Tensor embeddings;
    /// Detached attention weights {batch, heads, slots}; the per-mail
    /// importance used for interpretability (paper §3.6).
    tensor::Tensor attention;
  };

  /// \param last_embeddings z(t−) as a constant {batch, dim} tensor.
  /// \param mailbox_read time-sorted mails + mask from Mailbox::ReadBatch.
  Output Forward(const tensor::Tensor& last_embeddings,
                 const Mailbox::ReadResult& mailbox_read,
                 Rng* dropout_rng = nullptr) const;

  /// One batch of encoder input as raw rows: what
  /// NodeStateStore::ReadInto or GatherLastEmbeddings + ReadBatch read.
  struct RawInput {
    int64_t batch = 0;
    const float* last = nullptr;         ///< {batch, dim}: z(t−)
    const float* mails = nullptr;        ///< {batch, slots, dim}
    const float* mask = nullptr;         ///< {batch, slots}
    const int64_t* counts = nullptr;     ///< {batch}
    const double* timestamps = nullptr;  ///< {batch, slots}
  };

  /// Reused intermediates of ForwardRaw; grown on first use, never shrunk.
  struct Workspace {
    nn::MultiHeadAttention::Workspace attention;
    std::vector<float> weights;   ///< {batch, heads, slots}
    std::vector<float> attended;  ///< {batch, dim}
    std::vector<float> normed;    ///< {batch, dim}
    std::vector<float> hidden;    ///< {batch, mlp hidden}
  };

  /// \brief The inference forward on raw buffers — the one implementation
  /// behind Forward under NoGradGuard (and so EncodeNodes) and the serving
  /// engine's encode: positional enrichment, absorbed attention, fused
  /// residual + LayerNorm, fused-ReLU MLP, through the dispatched kernels.
  /// The positional encoding lands in `enriched` ({batch, slots, dim}),
  /// which may alias `in.mails` — the engine adds it in place into its
  /// gathered rows. Writes z(t) to `embeddings` ({batch, dim}) and the
  /// attention weights to `attention` ({batch, heads, slots}; null keeps
  /// them in the workspace). The time-kernel positional mode evaluates
  /// Φ(Δt) through the TimeEncoding module (arena tensors under an
  /// ArenaScope). Dropout is inference-inert.
  void ForwardRaw(const RawInput& in, float* enriched, Workspace* ws,
                  float* embeddings, float* attention) const;

  /// \brief Full encoder pass for `nodes` against a caller-supplied state
  /// store: reads the store's mailbox rows + last embeddings, then
  /// Forward. The store must own every node; no graph queries. This is
  /// how a sharded deployment encodes against shard-local state with
  /// replicated weights.
  Output EncodeNodes(const NodeStateStore& store,
                     const std::vector<graph::NodeId>& nodes,
                     Rng* dropout_rng = nullptr) const;

  int64_t dim() const { return dim_; }
  int64_t slots() const { return slots_; }

  /// \brief Times this thread rebuilt the learned-position id table
  /// (thread-local counter). The table depends only on (batch, slots),
  /// so repeated encodes at one batch size must rebuild it exactly once —
  /// the regression tests assert the counter stays flat.
  static int64_t position_ids_rebuilds();

 private:
  /// Inference mode (NoGradGuard active): ForwardRaw with the enriched
  /// mails and both outputs in arena tensors.
  Output ForwardInference(const tensor::Tensor& last_embeddings,
                          const Mailbox::ReadResult& mailbox_read) const;

  int64_t dim_;
  int64_t slots_;
  float dropout_;
  PositionalMode positional_mode_;
  nn::EmbeddingTable positional_;      // {slots, dim} (kLearnedPosition)
  nn::TimeEncoding time_positional_;   // Φ(Δt) (kTimeKernel, §3.6)
  nn::MultiHeadAttention attention_;
  nn::LayerNorm layer_norm_;
  nn::Mlp mlp_;
};

}  // namespace core
}  // namespace apan

#endif  // APAN_CORE_ENCODER_H_
