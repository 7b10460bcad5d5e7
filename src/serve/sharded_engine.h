// The serving engine — the paper's Figure 2(b) deployment (synchronous
// encode + decode, asynchronous propagate + append) scaled out across a
// node partition (paper §3.6: "APAN can be deployed on distributed
// streaming systems ... mails may arrive out of order", which the mailbox
// absorbs by keeping each node's slots time-sorted at write). With
// num_shards = 1 it is exactly the paper's single-worker deployment.
//
// A shared graph::NodePartition index (canonical hash by default, or a
// locality-aware index via Options::partition) splits the node space into
// N shards. Each shard exclusively owns its nodes' mutable state — a
// core::NodeStateStore holding its mailbox slice and z(t−) rows — AND
// its slice of the temporal graph (graph::ShardedTemporalGraph: the
// owned nodes' adjacency rows plus the event-log entries the shard
// homes). The model
// itself is touched only through the const core::ApanWeights view (the
// weights are replicated, the state is partitioned): the engine never
// locks or writes a byte of ApanModel's mutable state while running, so
// the model's default store stays empty and Shard::state_mu guards
// genuinely shard-private memory — no false sharing on the synchronous
// link. Each shard has a bounded inbox of batch jobs and runs one
// propagation worker. The division of labour per batch:
//
//   Synchronous link (InferBatch, what the caller waits for)
//     · the batch is validated whole before anything mutates (node and
//       edge ids in range, timestamps finite and non-decreasing);
//     · the batch's unique nodes are split by owner shard and encoded
//       concurrently on a thread pool — each encode touches only its
//       shard's rows, under that shard's state lock;
//     · link scores are decoded on the calling thread and returned.
//
//   Asynchronous link (per-shard workers, off the latency path)
//     · a worker starting batch b first appends the batch's events to its
//       own graph slice — a shard-local append that advances the shard's
//       watermark to b+1. There is no global epoch gate: shards run ahead
//       of each other freely, because every slice read is versioned by
//       global event ordinal, so sampling batch b always sees exactly the
//       events of batches 0..b-1 no matter how far any slice has advanced;
//     · every event is homed on its source endpoint's shard; the home
//       shard computes the event's mail (φ) and drives its k-hop fan-out
//       (N). Each hop's frontier is grouped by owner shard; the home shard
//       reads every owner's slice itself — waiting, under that slice's
//       lock, until the owner has appended batch b-1, then sampling all of
//       the owner's frontier nodes in one lock acquisition. Slot order
//       (the frontier's record-major position) restores the exact
//       monolithic expansion order;
//     · each resulting mail row and z(t−) write-back is *routed* to its
//       recipient's owner shard inside a ShardPartial message (flat
//       core::MailRows blocks). Cross-shard mail therefore arrives
//       interleaved with other shards' traffic — out of order by
//       construction;
//     · a recipient shard reassembles a batch once partials from all N
//       shards have arrived, then applies state updates and mail to its
//       rows in global event order (sequence tags), restoring exactly the
//       per-node delivery order of a sequential replay of the stream.
//
// Transport plane: every ShardMessage crosses shards through a pluggable
// serve::Transport (Options::transport) — synchronous in-process delivery
// by default, or a Unix-domain-socket lane per shard pair carrying
// serve/wire.h frames. The engine assumes only at-least-once delivery
// with no ordering: sequence tags reconstruct every order that matters,
// and duplicated deliveries are dropped by (batch, sender) tag. Mail and
// node state cross shard boundaries only as ShardPartial messages; the
// graph slices are the one plane read across shards in shared memory
// (under each slice's lock), as the synchronous link reads every shard's
// store under its state lock (docs/serving.md).
//
// Determinism: because neighborhood expansion, per-node delivery order and
// ρ-reduction are reconstructed exactly, the final mailbox timestamps and
// counts after Flush() are bitwise-identical to a thread-free sequential
// replay of the same stream (EncodeNodes + ScoreLinkLogits +
// ProcessBatchPostInference per batch); mail *payloads* agree up to
// floating-point summation order across shards, and bitwise at one shard.
// tests/serve_sharded_test.cc asserts both, and
// tests/serve_transport_test.cc re-asserts it over a socket transport and
// under injected delay/reorder/duplication faults.
//
// Progress: batch-job inboxes are bounded (back-pressure on the caller),
// but shard-to-shard messages are unbounded and no message handler ever
// blocks, so two shards flooding each other cannot deadlock. The only
// wait on the asynchronous link is a worker expanding batch b waiting for
// a foreign owner to append batch b-1 — and every owner does that first
// in its own job b-1, without waiting on anyone. By induction on the
// lowest in-flight batch m: every job below m has finished, so every
// slice has appended m-1, so no expansion of batch m waits, so m
// finishes. The slice lock is a leaf: released while waiting, and never
// held while another lock is taken.

#ifndef APAN_SERVE_SHARDED_ENGINE_H_
#define APAN_SERVE_SHARDED_ENGINE_H_

#include <atomic>
#include <deque>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/apan_model.h"
#include "core/node_state_store.h"
#include "graph/sharded_temporal_graph.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/shard_message.h"
#include "serve/snapshot.h"
#include "serve/transport.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace apan {
namespace serve {

/// What InferBatch does when a shard's inbox is at Options::queue_capacity.
enum class OverflowPolicy {
  kBlock,       ///< Wait for space (back-pressure; default).
  kDropNewest,  ///< Refuse the incoming batch whole; its mail is lost.
};

/// \brief Runs one ApanModel behind an N-shard partition of the node
/// space: per-shard mailbox/memory/graph-slice ownership, per-shard
/// propagation workers, cross-shard mail routing over a pluggable
/// transport.
class ShardedEngine {
 public:
  struct Options {
    int num_shards = 4;
    /// Shared node-ownership index for ALL partitioned planes (engine
    /// routing, graph slices, state stores). Null means the canonical hash
    /// (graph::NodePartition::BuildDefault). Pass a
    /// NodePartition::BuildLocality index — built from a warmup prefix or
    /// a prior epoch's events — to keep k-hop propagation shard-local.
    /// Must cover exactly the model's node count with `num_shards` shards
    /// (CHECK-enforced). Determinism is partition-independent: replay
    /// tags make delivery order irrelevant, so every suite passes under
    /// any ownership map.
    std::shared_ptr<const graph::NodePartition> partition;
    /// Maximum in-flight batches per shard before InferBatch applies the
    /// overflow policy.
    size_t queue_capacity = 256;
    /// kBlock waits for space. kDropNewest drops the *incoming* batch
    /// whole: a partially enqueued batch would wedge the cross-shard
    /// reassembly barrier.
    OverflowPolicy overflow = OverflowPolicy::kBlock;
    /// Threads encoding shard slices on the synchronous link; 0 means one
    /// per shard.
    size_t encode_threads = 0;
    /// Builds the shard-to-shard message transport; null means
    /// InProcessTransport (the pre-transport deque semantics).
    TransportFactory transport;
    /// Metrics land here; null means the engine owns a private registry
    /// (reachable via registry()). Sharing one registry across engines
    /// accumulates counts across them — benches pass null per run.
    obs::Registry* registry = nullptr;
    /// Stage-level histograms, queue gauges and trace spans. Counters
    /// (the stats() substrate) are always on — they are single relaxed
    /// adds and strictly cheaper than the mutexed fields they replaced.
    /// fig10 runs each config with this off and on to price the
    /// difference (the <2% overhead contract in docs/observability.md).
    bool stage_metrics = true;
  };

  /// `model` must outlive the engine and must not be used concurrently by
  /// other threads while the engine is running. Requires
  /// PropagationSampling::kMostRecent (kUniform draws from a shared RNG,
  /// which shard-concurrent sampling would race on). The model is put in
  /// eval mode once here; afterwards the engine accesses it const-only
  /// (core::ApanWeights): served state lands in the engine's own
  /// per-shard NodeStateStores and graph slices, NOT in model->graph(),
  /// model->mailbox() or model->state_store(), which all stay empty.
  ShardedEngine(core::ApanModel* model, Options options);
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  struct InferenceResult {
    /// P(edge) per event, from the link decoder.
    std::vector<float> scores;
    /// Wall-clock milliseconds of the synchronous path for this batch.
    double sync_millis = 0.0;
  };

  /// \brief Scores a batch of interactions on the synchronous link
  /// (shard-parallel encoding) and enqueues the per-shard asynchronous
  /// work. Concurrent callers are serialized.
  ///
  /// Ingress contract, checked over the whole batch before anything
  /// mutates: every src/dst is a node id in [0, num_nodes); every edge id
  /// the asynchronous link resolves — the event's own id, or its global
  /// ordinal when negative — indexes the model's edge features; every
  /// timestamp is finite and no earlier than the one before it, within the
  /// batch and across batches (ResetState rewinds the bound, RestoreShard
  /// adopts the restored slice's newest time).
  /// \return InvalidArgument (counted in Stats::batches_invalid, engine
  ///   unchanged) for an empty batch or one breaking the contract;
  ///   Cancelled after Shutdown.
  Result<InferenceResult> InferBatch(const std::vector<graph::Event>& events)
      APAN_EXCLUDES(infer_mu_, flush_mu_);

  /// Blocks until every accepted batch has been sampled, routed, and
  /// applied on every shard.
  void Flush() APAN_EXCLUDES(flush_mu_);

  /// Drains all accepted work AND the transport (a socket lane can hold
  /// frames a deque never could), then stops the workers (idempotent;
  /// also called by the destructor). Shutdown never loses accepted mail.
  void Shutdown() APAN_EXCLUDES(shutdown_mu_, infer_mu_, flush_mu_);

  /// \brief Resets all streaming state between epochs, mirroring
  /// ApanModel::ResetState for the sharded layout: flushes accepted work,
  /// then routes a reset through every shard's worker that zeroes its
  /// NodeStateStore, empties its graph slice, and rewinds its merge
  /// cursor; batch/ordinal numbering restarts at 0. After it returns
  /// the engine reproduces a fresh engine bitwise on the same stream.
  /// Stats and latency recorders stay cumulative. Callers must not run
  /// InferBatch concurrently. CHECK-enforced: the transport must report
  /// exactly_once() (inproc and uds do — their lanes are provably empty
  /// after the internal flush); a duplicating transport could re-deliver
  /// a pre-reset frame whose replay tag the reset rewound, so the engine
  /// aborts instead of corrupting silently. No-op after Shutdown.
  void ResetState() APAN_EXCLUDES(infer_mu_, flush_mu_);

  /// \brief Writes shard `shard`'s full recovery image — its
  /// NodeStateStore (mailbox planes + z(t−) rows), its graph slice, and
  /// all replay/dedup state, plus the engine's batch/ordinal numbering —
  /// crash-atomically to `path` (serve/snapshot.h format). Flushes
  /// accepted work first, then runs the capture as a control job on the
  /// shard's own worker thread (the ResetState pattern), so every
  /// worker-confined field is read by the one thread allowed to touch it.
  /// Restoring the snapshot and replaying the event stream from its batch
  /// watermark reproduces the never-crashed mailbox bitwise. Safe under
  /// any transport: capture only reads, so a late re-delivered frame is
  /// dropped by the same tags the snapshot preserves.
  Status SnapshotShard(int shard, const std::string& path)
      APAN_EXCLUDES(infer_mu_, flush_mu_);

  /// \brief Restores shard `shard` from a snapshot written by
  /// SnapshotShard: decodes + validates the file against this engine's
  /// topology (shard id, shard count, node count, mailbox/state geometry),
  /// then installs it via a control job on the shard's worker and adopts
  /// the snapshot's batch/ordinal numbering (all shards of one recovery
  /// set carry the same quiesced numbering, so per-shard adoption is
  /// idempotent across the set). A corrupt, truncated or mismatched
  /// snapshot returns a non-OK Status with the engine unchanged.
  /// Requires an exactly-once transport, for the same reason ResetState
  /// does: restore rewinds replay watermarks, and a duplicating transport
  /// could re-deliver a pre-restore frame the rewound tags would accept.
  Status RestoreShard(int shard, const std::string& path)
      APAN_EXCLUDES(infer_mu_, flush_mu_);

  /// \brief Marks a shard down (or back up) for graceful degradation.
  /// While a shard is down the engine keeps serving from the healthy
  /// shards instead of blocking on the dead one: batches' records homed
  /// to it are shed (counted in Stats::events_shed), partials routed to
  /// it are shed before the transport (Stats::sends_shed), its merge
  /// contribution is synthesized empty so healthy shards' reassembly
  /// barriers still complete, and k-hop frontiers it owns sample empty
  /// (stale-neighborhood degradation). Scores keep flowing — encoded
  /// against the down shard's frozen state. Flushes in-flight work before
  /// flipping the flag, so the transition lands at a batch boundary.
  /// \return InvalidArgument for a shard outside [0, num_shards);
  ///   FailedPrecondition after Shutdown, or when marking up a shard that
  ///   missed batches (its slice watermark or merge cursor is behind the
  ///   engine's next batch — ResetState or RestoreShard it first). The
  ///   engine is unchanged on any error.
  Status SetShardDown(int shard, bool down)
      APAN_EXCLUDES(infer_mu_, flush_mu_);

  struct Stats {
    int64_t batches_ingested = 0;
    /// Batches refused by InferBatch's ingress check (InvalidArgument).
    int64_t batches_invalid = 0;
    /// Batches fully applied on every shard.
    int64_t batches_propagated = 0;
    /// Batches refused whole by a drop overflow policy (their records are
    /// also counted in mails_dropped). The accounting identity is
    /// batches_ingested == batches attempted − batches_rejected.
    int64_t batches_rejected = 0;
    /// MailDeliveries routed shard→shard (hop-0 plus reduced).
    int64_t mails_routed = 0;
    /// Subset of mails_routed whose sender and owner shards differ.
    int64_t mails_cross_shard = 0;
    /// Interaction records dropped whole by the overflow policy.
    int64_t mails_dropped = 0;
    /// Foreign graph-slice reads: one per (hop, foreign owner) an
    /// expansion sampled from.
    int64_t frontier_requests = 0;
    /// Frontier nodes sampled from foreign slices.
    int64_t frontier_nodes_forwarded = 0;
    /// Messages dropped as transport re-deliveries (by replay tag). Zero
    /// under an exactly-once transport; positive under FaultyTransport.
    int64_t duplicates_dropped = 0;
    /// Interaction records homed to a down shard and shed whole while it
    /// was down (SetShardDown). Zero in any run with no shard down.
    int64_t events_shed = 0;
    /// Partials shed before the transport — from or to a down shard, or
    /// refused by the transport after its lane-level recovery
    /// (reconnect/backoff) gave up. Zero in a healthy run.
    int64_t sends_shed = 0;
  };
  Stats stats() const;

  /// The node-ownership index shared by every partitioned plane.
  const graph::NodePartition& router() const { return *partition_; }
  /// The transport the engine is running over ("inproc", "uds", ...).
  const char* transport_name() const { return transport_->name(); }
  /// The engine-owned shard-local graph slices (quiescent inspection:
  /// call after Flush).
  const graph::ShardedTemporalGraph& sharded_graph() const { return graph_; }
  /// One shard's mutable node state — its mailbox slice + z(t−) rows
  /// (quiescent inspection: call after Flush). Stitching the per-shard
  /// stores by router() ownership reconstructs the monolithic state.
  /// Analysis opt-out: the store pointee is guarded by Shard::state_mu,
  /// but this accessor's contract is quiescence (post-Flush, no batch in
  /// flight), not a lock — taking state_mu here would hand the caller an
  /// unprotected reference anyway.
  const core::NodeStateStore& state_store(int shard) const
      APAN_NO_THREAD_SAFETY_ANALYSIS {
    return *shards_[static_cast<size_t>(shard)]->store;
  }
  /// Latency of the synchronous path per batch (what the user waits for).
  const obs::Histogram& sync_latency() const { return *ins_.stage_sync; }
  /// Latency of per-shard batch application (merge + mailbox append).
  const obs::Histogram& async_latency() const { return *ins_.stage_merge; }
  /// The registry this engine's metrics live in (Options::registry, or
  /// the engine-owned default). Scrape after Flush for exact totals.
  obs::Registry* registry() const { return registry_; }

 private:
  /// Shared per-batch bookkeeping for the in-process job path: what every
  /// shard needs to append its own slice of the batch. (The apply barrier
  /// lives in apply_remaining_, keyed by batch — ShardPartials cross the
  /// transport and cannot carry pointers.)
  struct BatchContext {
    int64_t batch = 0;
    /// Global index of events[0] in the accepted stream; sampling for
    /// this batch reads slices as-of this ordinal (events of batches
    /// 0..batch-1 only).
    int64_t base_ordinal = 0;
    std::vector<graph::Event> events;
  };

  /// A batch's home-events slice for one shard. Jobs stay in-process
  /// (they carry the caller's encoder output); only ShardMessages travel
  /// the transport.
  struct BatchJob {
    std::shared_ptr<BatchContext> ctx;
    /// The home events with their global batch positions and one flat
    /// z block (z_src, z_dst rows per event).
    core::RecordRows records;
    /// Control jobs run on the owning worker instead of propagating a
    /// batch: kReset clears the shard (ResetState), kSnapshot captures it
    /// to `snapshot_path`, kRestore installs `restore` into it, and
    /// kCheckCaughtUp fails unless the shard has appended and merged
    /// every batch below `next_batch` (SetShardDown's mark-up check).
    /// Routing them through the inbox keeps the worker-confined merge
    /// state (pending partials, merge cursor) single-threaded.
    enum class Op { kBatch, kReset, kSnapshot, kRestore, kCheckCaughtUp };
    Op op = Op::kBatch;
    std::string snapshot_path;  ///< kSnapshot: destination file.
    /// kSnapshot, kCheckCaughtUp: engine numbering captured under
    /// infer_mu_ at submit time (the worker cannot read it without an
    /// ACQUIRED_AFTER violation).
    int64_t next_batch = 0;
    int64_t next_ordinal = 0;
    /// kRestore: the decoded, topology-validated snapshot to install.
    std::shared_ptr<const snapshot::ShardSnapshot> restore;
    /// Control-job outcome, written by the worker before it decrements
    /// inflight_ under flush_mu_ — the same lock the submitting caller
    /// waits on, so the write is ordered before the caller's read.
    Status* control_status = nullptr;
  };

  /// A worker's per-batch scratch, one set per stage. Every buffer is
  /// cleared, never freed, between batches, and starts empty — the
  /// constructor allocates nothing; buffers grow on first use.
  struct ExpandScratch {
    struct Slot {
      uint32_t record;
      graph::NodeId node;
    };
    std::vector<Slot> slots;       ///< This hop's frontier, record-major.
    std::vector<Slot> next_slots;  ///< The next hop's frontier.
    /// This hop's slots grouped by owner, owners in rotation from this
    /// shard: group r (owner (shard + r) % N) is
    /// queries[group_begin[r], group_begin[r + 1]).
    std::vector<graph::ShardedTemporalGraph::SampleQuery> queries;
    std::vector<size_t> group_begin;
    /// Per slot: its row of `samples` (its position in `queries`).
    std::vector<uint32_t> slot_row;
    graph::NeighborRows samples;  ///< One row per query.
    /// Hop entries in expansion (hop-major) order and their records,
    /// regrouped record-major into `hops` once the last hop is in.
    std::vector<graph::HopEntry> staged;
    std::vector<uint32_t> staged_record;
    std::vector<int64_t> cursor;  ///< Counting-sort cursor.
    graph::HopRows hops;
  };
  struct PropagateScratch {
    core::NodeRowIndex rho;  ///< The ρ accumulator's recipient index.
    core::MailRows hop0;
    core::MailRows partial;
    std::vector<int> route_owner;    ///< Owner shard per routed row.
    std::vector<size_t> route_rows;  ///< Per destination × section.
  };
  struct MergeScratch {
    /// One row of one received part.
    struct Ref {
      int64_t key;  ///< Sequence tag (unused for partial sums).
      uint32_t part;
      uint32_t row;
    };
    std::vector<Ref> refs;    ///< Write-backs then hop-0 mail, by tag.
    std::vector<Ref> merged;  ///< One partial-sum row per recipient.
    core::NodeRowIndex index;  ///< Recipient → entry of `merged`.
  };

  /// A shard's encode-task scratch on the synchronous link: its slice of
  /// the batch's unique nodes, their state read and the forward's
  /// buffers. Only the shard's encode task touches it, and that task runs
  /// at most once per batch under infer_mu_ and is joined before
  /// InferBatch returns. Starts empty and grows on first use.
  struct EncodeScratch {
    std::vector<graph::NodeId> nodes;
    /// Row of nodes[0] in SyncScratch::embeddings (the shard's rows are
    /// contiguous there).
    size_t first_row = 0;
    core::StateRead read;
    core::ApanEncoder::Workspace forward;
  };

  /// The caller's per-batch buffers on the synchronous link, reused
  /// across batches (cleared, never freed; empty until the first batch).
  struct SyncScratch {
    core::NodeRowIndex index;  ///< Node → its first-appearance number.
    std::vector<graph::NodeId> unique_nodes;  ///< First-appearance order.
    /// Per unique node (first-appearance number): its embeddings row.
    std::vector<uint32_t> row_of;
    /// Per event: the embeddings row of its src / dst.
    std::vector<int64_t> src_rows;
    std::vector<int64_t> dst_rows;
    /// {unique nodes, dim}, grouped by owner shard in shard order.
    std::vector<float> embeddings;
    std::vector<int> active;  ///< Shards with nodes to encode.
    std::vector<std::future<void>> encodes;
    std::vector<size_t> homed;  ///< Records per home shard.
    std::vector<char> down;     ///< Down flags read once per batch.
    /// Per shard: the batch's job, records packaged in place.
    std::vector<BatchJob> jobs;
  };

  struct Shard {
    /// Guards the *pointee* of `store` between the encode pool
    /// (synchronous link) and this shard's worker (batch application).
    /// The pointer itself is set once at construction and never reseated.
    util::Mutex state_mu;
    /// This shard's mutable node state: its mailbox slice + z(t−) rows,
    /// dense over the nodes the partition assigns to it. Exclusively owned —
    /// no other shard (and not the model) ever touches these bytes.
    std::unique_ptr<core::NodeStateStore> store APAN_PT_GUARDED_BY(state_mu);

    /// Inbox lock. Jobs are bounded by Options::queue_capacity (client
    /// back-pressure); messages are unbounded (see the progress note
    /// above).
    /// Lock order: a worker or caller holding `mu` never acquires another
    /// shard's `mu`, `state_mu`, or any engine mutex — inbox critical
    /// sections are push/pop only.
    util::Mutex mu;
    util::CondVar cv;
    std::deque<BatchJob> jobs APAN_GUARDED_BY(mu);
    std::deque<ShardPartial> mail APAN_GUARDED_BY(mu);
    size_t jobs_in_flight APAN_GUARDED_BY(mu) = 0;  ///< Queued + running.
    bool closed APAN_GUARDED_BY(mu) = false;

    /// Worker-local per-batch reassembly (worker thread only).
    std::map<int64_t, std::vector<ShardPartial>> pending;
    int64_t next_merge = 0;

    /// Per-stage scratch (worker thread only; see ExpandScratch).
    ExpandScratch expand;
    PropagateScratch propagate;
    MergeScratch merge;

    EncodeScratch encode;  ///< This shard's encode task only.

    std::thread worker;
  };

  /// InferBatch's ingress check (see its contract): one pass over the
  /// batch, no allocation unless it fails.
  Status ValidateBatch(const std::vector<graph::Event>& events) const
      APAN_REQUIRES(infer_mu_);
  void WorkerLoop(int shard_id) APAN_EXCLUDES(flush_mu_);
  void ProcessJob(int shard_id, BatchJob job) APAN_EXCLUDES(flush_mu_);
  /// Worker-side half of ResetState: runs on the shard's own thread so
  /// the worker-confined merge state stays thread-local.
  void ResetShardLocal(int shard_id);
  /// Worker-side halves of SnapshotShard / RestoreShard / SetShardDown's
  /// mark-up check (same pattern).
  Status SnapshotShardLocal(int shard_id, const BatchJob& job);
  Status RestoreShardLocal(int shard_id, const BatchJob& job);
  Status CheckCaughtUpLocal(int shard_id, const BatchJob& job);
  /// Shared control-job submission: Flush, push one job to `shard`'s
  /// worker, wait for it, return the Status the worker wrote. Held
  /// infer_mu_ keeps InferBatch (and other control callers) out for the
  /// whole round trip.
  Status RunControlJob(int shard, BatchJob job)
      APAN_REQUIRES(infer_mu_) APAN_EXCLUDES(flush_mu_);
  void OnMail(int shard_id, ShardPartial partial) APAN_EXCLUDES(flush_mu_);
  void ApplyMergedBatch(int shard_id, std::vector<ShardPartial> parts)
      APAN_EXCLUDES(flush_mu_);
  /// Routes the job's z(t−) write-backs and the shard's propagate
  /// scratch (hop-0 mail, partial sums) to the recipients' owners: one
  /// ShardPartial per shard, empty ones included.
  void RouteMail(int from_shard, const BatchJob& job);
  /// Hands one partial to the transport (which delivers it through
  /// EnqueueMessage, possibly on another thread, possibly more than
  /// once). A partial from or to a down shard is shed before the
  /// transport, and one the transport refuses even after its own lane
  /// recovery marks the recipient down; either way the recipient's
  /// application leg is retired so Flush cannot wedge on a merge that
  /// will never happen. Worker thread only.
  void SendPartial(int from_shard, int to_shard, ShardPartial partial)
      APAN_EXCLUDES(flush_mu_);
  /// Retires `shard`'s application leg of `batch`: erases the shard from
  /// the batch's apply_remaining_ set and decrements inflight_. A leg
  /// already retired is a no-op — its partial was shed and a held
  /// duplicate merged anyway, or the reverse. `merged` (the leg ran, not
  /// shed) counts a completed batch in Stats::batches_propagated.
  void RetireApplyLeg(int shard, int64_t batch, bool merged)
      APAN_EXCLUDES(flush_mu_);
  /// Transport delivery handler: pushes onto the target shard's inbox.
  void EnqueueMessage(int to_shard, ShardMessage message);
  void CountDuplicateDropped(int shard_id);

  /// k-hop expansion for a job's records against the sharded graph
  /// as-of the job's batch: each hop's frontier is sampled slice by
  /// slice, owner by owner (graph::ShardedTemporalGraph::SampleAsOf
  /// waits for a foreign owner's watermark). The result is the shard's
  /// expand.hops (one row per record, in the monolithic per-record
  /// KHopMostRecent order).
  void ExpandKHop(int shard_id, const BatchJob& job);

  /// Const-only while running: weights are read through model_->weights();
  /// all mutable serve state lives in the per-shard stores above.
  const core::ApanModel* model_;
  Options options_;
  /// The ONE ownership index of this engine, shared by engine routing,
  /// the graph slices and every per-shard NodeStateStore (element-identical
  /// maps, stored once — ~8 bytes/node saved vs per-plane copies).
  /// Options::partition, or the canonical hash when none was given.
  /// Declared before graph_, which consumes it at construction.
  std::shared_ptr<const graph::NodePartition> partition_;
  graph::ShardedTemporalGraph graph_;
  std::unique_ptr<Transport> transport_;
  ThreadPool encode_pool_;
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Per-shard down flags (SetShardDown), sized num_shards at
  /// construction and never resized. Atomics because the readers span
  /// lock domains — InferBatch under infer_mu_, SendPartial and
  /// ExpandKHop on worker threads under no engine lock — and the flag
  /// only flips at a flushed quiescent point (or to down on a dead
  /// lane), so relaxed reads suffice.
  std::vector<std::atomic<bool>> shard_down_;

  /// Serializes Shutdown callers end-to-end. Outermost engine lock:
  /// Shutdown holds it while taking infer_mu_ (and, via Flush, flush_mu_).
  util::Mutex shutdown_mu_;
  bool joined_ APAN_GUARDED_BY(shutdown_mu_) = false;

  /// Serializes InferBatch callers (stream-order contract) and guards the
  /// shutdown flag + batch/ordinal sequencing.
  util::Mutex infer_mu_ APAN_ACQUIRED_AFTER(shutdown_mu_);
  bool shutdown_ APAN_GUARDED_BY(infer_mu_) = false;
  int64_t next_batch_ APAN_GUARDED_BY(infer_mu_) = 0;
  int64_t next_ordinal_ APAN_GUARDED_BY(infer_mu_) = 0;  ///< Events accepted.
  /// Newest timestamp ingested so far: InferBatch's lower bound on the
  /// next batch's times, and exactly every slice's latest_timestamp (each
  /// slice records every ingested event's time, owned or not).
  double last_timestamp_ APAN_GUARDED_BY(infer_mu_) =
      -std::numeric_limits<double>::infinity();
  SyncScratch sync_ APAN_GUARDED_BY(infer_mu_);
  /// False until the first accepted batch. Gates RestoreShard under a
  /// duplicating transport: restoring a virgin engine rewinds nothing, so
  /// there is no pre-restore frame a rewound replay tag could re-accept —
  /// which is how a fresh engine rejoins from snapshots even when its
  /// transport cannot promise exactly-once.
  bool ingested_since_start_ APAN_GUARDED_BY(infer_mu_) = false;

  /// Outstanding work legs for Flush: each accepted batch contributes
  /// num_shards sampling legs + num_shards application legs. Innermost
  /// engine lock (see the ACQUIRED_AFTER chain).
  mutable util::Mutex flush_mu_ APAN_ACQUIRED_AFTER(infer_mu_);
  util::CondVar flush_cv_;
  int64_t inflight_ APAN_GUARDED_BY(flush_mu_) = 0;
  /// Apply barrier per in-flight batch: the exact set of shards yet to
  /// merge it; the last shard to leave the set completes the batch. A set
  /// (not a count) so that shedding a partial destined to a dead peer can
  /// retire precisely the legs that were counted at ingest — a batch
  /// ingested while a shard was already down never put that shard in its
  /// set, so double-compensation is structurally impossible.
  std::map<int64_t, std::set<int>> apply_remaining_ APAN_GUARDED_BY(flush_mu_);

  /// Metric handles, resolved once at construction (the registry owns the
  /// metrics; handles are stable and lock-free). Counters are the stats()
  /// substrate — the old mutexed Stats fields migrated here, one cell per
  /// shard where the writer is per-shard. Stage histograms and queue
  /// gauges are live only when Options::stage_metrics is set.
  struct Instruments {
    obs::Counter* batches_ingested = nullptr;   ///< 1 cell (caller thread)
    obs::Counter* batches_propagated = nullptr;  ///< cell = completing shard
    obs::Counter* batches_rejected = nullptr;   ///< 1 cell
    obs::Counter* batches_invalid = nullptr;    ///< 1 cell (caller thread)
    obs::Counter* mails_routed = nullptr;       ///< cell = sender shard
    obs::Counter* mails_cross_shard = nullptr;  ///< cell = sender shard
    obs::Counter* mails_dropped = nullptr;      ///< 1 cell
    obs::Counter* frontier_requests = nullptr;  ///< cell = requester shard
    obs::Counter* frontier_nodes_forwarded = nullptr;
    obs::Counter* duplicates_dropped = nullptr;  ///< cell = dropping shard
    obs::Counter* events_homed = nullptr;        ///< cell = home shard
    obs::Counter* events_shed = nullptr;         ///< cell = down home shard
    obs::Counter* sends_shed = nullptr;          ///< cell = destination
    obs::Gauge* job_depth = nullptr;        ///< per-shard inbox depth
    obs::Gauge* job_highwater = nullptr;
    obs::Gauge* mail_depth = nullptr;
    obs::Gauge* mail_highwater = nullptr;
    obs::Histogram* stage_sync = nullptr;   ///< cell 0 (always recorded)
    obs::Histogram* stage_merge = nullptr;  ///< per-shard (always recorded)
    obs::Histogram* stage_encode = nullptr;
    obs::Histogram* stage_append = nullptr;
    obs::Histogram* stage_sample = nullptr;
    obs::Histogram* stage_frontier_wait = nullptr;
    obs::Histogram* stage_propagate = nullptr;
    obs::Histogram* stage_route = nullptr;
    obs::Histogram* stage_idle = nullptr;
    obs::Histogram* stage_finalize = nullptr;
  };
  std::unique_ptr<obs::Registry> owned_registry_;
  obs::Registry* registry_ = nullptr;
  Instruments ins_;
  bool stage_metrics_ = true;
};

}  // namespace serve
}  // namespace apan

#endif  // APAN_SERVE_SHARDED_ENGINE_H_
