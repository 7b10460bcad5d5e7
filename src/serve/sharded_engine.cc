#include "serve/sharded_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "tensor/arena.h"
#include "tensor/ops.h"

namespace apan {
namespace serve {

using core::MailPropagator;

ShardedEngine::ShardedEngine(core::ApanModel* model, Options options)
    : model_(model),
      options_(options),
      partition_(options.partition != nullptr
                     ? options.partition
                     : graph::NodePartition::BuildDefault(
                           model != nullptr ? model->config().num_nodes : 1,
                           options.num_shards)),
      graph_(partition_),
      transport_(options_.transport ? options_.transport()
                                    : std::make_unique<InProcessTransport>()),
      encode_pool_(options.encode_threads > 0
                       ? options.encode_threads
                       : static_cast<size_t>(options.num_shards)),
      shard_down_(static_cast<size_t>(options.num_shards)) {
  APAN_CHECK(model != nullptr);
  APAN_CHECK_MSG(partition_->num_shards == options_.num_shards &&
                     partition_->num_nodes() == model->config().num_nodes,
                 "Options::partition must cover the model's node space with "
                 "Options::num_shards shards");
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
  // Resolve metric handles once. Per-shard writers get one cell per
  // shard; transport lanes get one cell per directed (from, to) pair.
  stage_metrics_ = options_.stage_metrics;
  if (options_.registry != nullptr) {
    registry_ = options_.registry;
  } else {
    owned_registry_ = std::make_unique<obs::Registry>();
    registry_ = owned_registry_.get();
  }
  const int ns = options_.num_shards;
  ins_.batches_ingested = registry_->GetCounter("serve.batches_ingested");
  ins_.batches_propagated =
      registry_->GetCounter("serve.batches_propagated", ns);
  ins_.batches_rejected = registry_->GetCounter("serve.batches_rejected");
  ins_.batches_invalid = registry_->GetCounter("serve.batches_invalid");
  ins_.mails_routed = registry_->GetCounter("serve.mails_routed", ns);
  ins_.mails_cross_shard =
      registry_->GetCounter("serve.mails_cross_shard", ns);
  ins_.mails_dropped = registry_->GetCounter("serve.mails_dropped");
  ins_.frontier_requests =
      registry_->GetCounter("serve.frontier_requests", ns);
  ins_.frontier_nodes_forwarded =
      registry_->GetCounter("serve.frontier_nodes_forwarded", ns);
  ins_.duplicates_dropped =
      registry_->GetCounter("serve.duplicates_dropped", ns);
  ins_.events_homed = registry_->GetCounter("serve.events_homed", ns);
  ins_.events_shed = registry_->GetCounter("serve.events_shed", ns);
  ins_.sends_shed = registry_->GetCounter("serve.sends_shed", ns);
  ins_.job_depth = registry_->GetGauge("serve.job_queue_depth", ns);
  ins_.job_highwater = registry_->GetGauge("serve.job_queue_highwater", ns);
  ins_.mail_depth = registry_->GetGauge("serve.mail_queue_depth", ns);
  ins_.mail_highwater =
      registry_->GetGauge("serve.mail_queue_highwater", ns);
  ins_.stage_sync = registry_->GetHistogram("stage.sync");
  ins_.stage_merge = registry_->GetHistogram("stage.merge", ns);
  ins_.stage_encode = registry_->GetHistogram("stage.encode", ns);
  ins_.stage_append = registry_->GetHistogram("stage.append", ns);
  ins_.stage_sample = registry_->GetHistogram("stage.sample", ns);
  ins_.stage_frontier_wait =
      registry_->GetHistogram("stage.frontier_wait", ns);
  ins_.stage_frontier_serve =
      registry_->GetHistogram("stage.frontier_serve", ns);
  ins_.stage_propagate = registry_->GetHistogram("stage.propagate", ns);
  ins_.stage_route = registry_->GetHistogram("stage.route", ns);
  ins_.stage_idle = registry_->GetHistogram("stage.idle", ns);
  ins_.stage_finalize = registry_->GetHistogram("stage.finalize", ns);
  APAN_CHECK_MSG(
      model->config().sampling == core::PropagationSampling::kMostRecent,
      "ShardedEngine requires kMostRecent sampling: kUniform draws from a "
      "shared RNG, which shard-concurrent sampling would race on");
  // The one and only model mutation: eval mode, before the engine runs.
  // From here on the model is weights-only to the engine (const access);
  // every mutable byte the engine serves lives in the per-shard stores.
  model->SetTraining(false);
  // Partition the node space into disjoint per-shard state stores. The
  // ownership index is partition_ — the SAME instance the graph slices
  // reference — so owner + local row per node is stored once for the
  // whole engine; per-store or per-plane copies would scale index memory
  // O(num_shards * num_nodes).
  const core::ApanConfig& config = model->config();
  shards_.reserve(static_cast<size_t>(options_.num_shards));
  for (int s = 0; s < options_.num_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->store = std::make_unique<core::NodeStateStore>(
        partition_, s, config.mailbox_slots, config.embedding_dim);
    shard->accepted_request.assign(
        static_cast<size_t>(options_.num_shards), ExpansionKey{-1, 0});
    shard->outbound.resize(static_cast<size_t>(options_.num_shards));
    shards_.push_back(std::move(shard));
  }
  // Per-lane transport accounting: one counter cell per directed
  // (from, to) shard pair, attributed inside the transport itself (only
  // it knows frame sizes and syscall counts).
  TransportMetrics tmetrics;
  tmetrics.num_shards = ns;
  tmetrics.frames = registry_->GetCounter("transport.frames", ns * ns);
  tmetrics.bytes = registry_->GetCounter("transport.bytes", ns * ns);
  tmetrics.syscalls = registry_->GetCounter("transport.syscalls", ns * ns);
  tmetrics.lane_reconnects =
      registry_->GetCounter("transport.lane_reconnects", ns * ns);
  tmetrics.send_failures =
      registry_->GetCounter("transport.send_failures", ns * ns);
  transport_->SetMetrics(tmetrics);
  // The transport comes up before the workers: a worker's very first
  // expansion may Send.
  const Status transport_up = transport_->Start(
      options_.num_shards, [this](int to_shard, ShardMessage message) {
        EnqueueMessage(to_shard, std::move(message));
      });
  APAN_CHECK_MSG(transport_up.ok(), transport_up.ToString());
  for (int s = 0; s < options_.num_shards; ++s) {
    shards_[static_cast<size_t>(s)]->worker =
        std::thread([this, s] { WorkerLoop(s); });
  }
}

ShardedEngine::~ShardedEngine() { Shutdown(); }

Status ShardedEngine::ValidateBatch(
    const std::vector<graph::Event>& events) const {
  if (events.empty()) {
    return Status::InvalidArgument("InferBatch on empty batch");
  }
  const int64_t num_nodes = partition_->num_nodes();
  const int64_t num_edges = model_->features().num_edges();
  double previous = last_timestamp_;
  for (size_t i = 0; i < events.size(); ++i) {
    const graph::Event& e = events[i];
    if (e.src < 0 || e.src >= num_nodes || e.dst < 0 || e.dst >= num_nodes) {
      return Status::InvalidArgument(internal::StrCat(
          "event ", i, ": endpoints ", e.src, " -> ", e.dst,
          " outside [0, ", num_nodes, ")"));
    }
    // The asynchronous link reads the feature row of the id the graph
    // stores: the event's own, or its global ordinal when negative.
    const int64_t edge =
        e.edge_id >= 0 ? e.edge_id
                       : next_ordinal_ + static_cast<int64_t>(i);
    if (edge >= num_edges) {
      return Status::InvalidArgument(internal::StrCat(
          "event ", i, ": edge id ", edge, " outside [0, ", num_edges, ")"));
    }
    if (!std::isfinite(e.timestamp) || e.timestamp < previous) {
      return Status::InvalidArgument(internal::StrCat(
          "event ", i, ": timestamp ", e.timestamp,
          " is not finite or precedes ", previous));
    }
    previous = e.timestamp;
  }
  return Status::OK();
}

Result<ShardedEngine::InferenceResult> ShardedEngine::InferBatch(
    const std::vector<graph::Event>& events) {
  util::MutexLock infer_lock(infer_mu_);
  if (shutdown_) return Status::Cancelled("engine is shut down");
  if (Status valid = ValidateBatch(events); !valid.ok()) {
    ins_.batches_invalid->Add(1);
    return valid;
  }

  InferenceResult result;
  Stopwatch watch;
  const int num_shards = options_.num_shards;
  const int64_t d = model_->config().embedding_dim;
  // Per home shard: its records in one flat block (events, batch
  // positions, z rows), handed to the shard's job below.
  std::vector<core::RecordRows> home_blocks(static_cast<size_t>(num_shards));
  {
    // ---- Synchronous link: shard-parallel encoding over local state. ----
    APAN_TRACE_SPAN("sync");
    tensor::NoGradGuard no_grad;
    // Caller-thread arena for the decode leg below (gathers, link
    // scoring); each encode task opens its own pool-thread scope. Arena
    // tensors never cross threads — tasks copy rows into `emb`.
    tensor::ArenaScope arena_scope;

    // Deduplicate nodes: each node's embedding is generated once per batch
    // (paper §3.2), then split the unique set by owner shard.
    std::vector<graph::NodeId> unique_nodes;
    std::unordered_map<graph::NodeId, size_t> index_of;
    auto intern = [&](graph::NodeId v) {
      auto [it, inserted] = index_of.try_emplace(v, unique_nodes.size());
      if (inserted) unique_nodes.push_back(v);
      return it->second;
    };
    std::vector<int64_t> src_rows, dst_rows;
    src_rows.reserve(events.size());
    dst_rows.reserve(events.size());
    for (const auto& e : events) {
      src_rows.push_back(static_cast<int64_t>(intern(e.src)));
      dst_rows.push_back(static_cast<int64_t>(intern(e.dst)));
    }

    // Split the unique set by owner shard, remembering each row's index
    // in the first-appearance order so tasks can scatter results.
    std::vector<std::vector<graph::NodeId>> shard_nodes(
        static_cast<size_t>(num_shards));
    std::vector<std::vector<size_t>> shard_unique(
        static_cast<size_t>(num_shards));
    for (size_t u = 0; u < unique_nodes.size(); ++u) {
      const int s = partition_->ShardOf(unique_nodes[u]);
      shard_nodes[static_cast<size_t>(s)].push_back(unique_nodes[u]);
      shard_unique[static_cast<size_t>(s)].push_back(u);
    }

    // Encode each shard's slice concurrently against that shard's own
    // state store — replicated weights over partitioned state, so the
    // only cache lines an encode touches are the shard's private rows.
    // Each task copies its rows straight into the shared flat matrix
    // (disjoint offsets) and drops its tensors before returning: encode
    // intermediates live and die on the pool thread that owns the arena.
    std::vector<float> emb(unique_nodes.size() * static_cast<size_t>(d));
    const auto encode_shard = [this, d, &shard_nodes, &shard_unique,
                               &emb](int s) {
      tensor::NoGradGuard task_no_grad;
      // Pool threads open their own per-batch arena; on the caller thread
      // this nests the already-open batch arena, which is a no-op.
      tensor::ArenaScope task_arena;
      APAN_TRACE_SPAN("encode");
      Stopwatch encode_watch;
      const auto& nodes = shard_nodes[static_cast<size_t>(s)];
      const auto& unique_rows = shard_unique[static_cast<size_t>(s)];
      // Only the reads hold the state lock: both return copies, so the
      // forward pass runs unlocked and a worker's merge into this shard's
      // store waits for the gather alone, not for the attention.
      tensor::Tensor last;
      core::Mailbox::ReadResult read;
      {
        Shard& shard = *shards_[static_cast<size_t>(s)];
        util::MutexLock state_lock(shard.state_mu);
        last = shard.store->GatherLastEmbeddings(nodes);
        read = shard.store->ReadBatch(nodes);
      }
      const core::ApanEncoder::Output out =
          model_->weights().Encode(last, read);
      const float* rows = out.embeddings.data();
      for (size_t r = 0; r < nodes.size(); ++r) {
        std::copy_n(rows + static_cast<int64_t>(r) * d, d,
                    emb.data() + unique_rows[r] * static_cast<size_t>(d));
      }
      if (stage_metrics_) {
        ins_.stage_encode->Record(s, encode_watch.ElapsedMillis());
      }
    };
    // The caller thread encodes one slice itself instead of submitting
    // them all and blocking: at 1 shard the synchronous path pays zero
    // pool handoffs (a handoff per batch was a 10x p99 wakeup tail), and
    // at N shards the caller overlaps its slice with the pool's N-1.
    std::vector<int> active_shards;
    for (int s = 0; s < num_shards; ++s) {
      if (!shard_nodes[static_cast<size_t>(s)].empty()) {
        active_shards.push_back(s);
      }
    }
    std::vector<std::future<void>> futures;
    for (size_t i = 0; i + 1 < active_shards.size(); ++i) {
      const int s = active_shards[i];
      futures.push_back(encode_pool_.Submit([&encode_shard, s] {
        encode_shard(s);
      }));
    }
    if (!active_shards.empty()) encode_shard(active_shards.back());
    for (auto& f : futures) f.get();

    tensor::Tensor embeddings = tensor::Tensor::FromVector(
        {static_cast<int64_t>(unique_nodes.size()), d}, std::move(emb));
    tensor::Tensor z_src = tensor::GatherRows(embeddings, src_rows);
    tensor::Tensor z_dst = tensor::GatherRows(embeddings, dst_rows);
    tensor::Tensor logits = model_->ScoreLinkLogits(z_src, z_dst);
    tensor::Tensor probs = tensor::Sigmoid(logits);
    result.scores.assign(probs.data(), probs.data() + probs.numel());

    // Package the asynchronous work while we still hold the embeddings:
    // every record is homed on its source endpoint's shard, and each
    // shard's block is sized once.
    std::vector<size_t> homed_count(static_cast<size_t>(num_shards), 0);
    for (const graph::Event& e : events) {
      ++homed_count[static_cast<size_t>(partition_->ShardOf(e.src))];
    }
    for (int s = 0; s < num_shards; ++s) {
      const size_t n = homed_count[static_cast<size_t>(s)];
      core::RecordRows& block = home_blocks[static_cast<size_t>(s)];
      block.events.reserve(n);
      block.event_index.reserve(n);
      block.z.reserve(2 * n * static_cast<size_t>(d));
    }
    const float* flat = embeddings.data();
    for (size_t i = 0; i < events.size(); ++i) {
      core::RecordRows& block =
          home_blocks[static_cast<size_t>(partition_->ShardOf(events[i].src))];
      block.events.push_back(events[i]);
      // φ reads the feature row of the id the graph slices store.
      if (events[i].edge_id < 0) {
        block.events.back().edge_id =
            next_ordinal_ + static_cast<int64_t>(i);
      }
      block.event_index.push_back(static_cast<int64_t>(i));
      const float* zs = flat + src_rows[i] * d;
      const float* zd = flat + dst_rows[i] * d;
      block.z.insert(block.z.end(), zs, zs + d);
      block.z.insert(block.z.end(), zd, zd + d);
    }
  }
  result.sync_millis = watch.ElapsedMillis();
  ins_.stage_sync->Record(result.sync_millis);

  // ---- Hand off to the asynchronous link. ----
  if (options_.overflow == OverflowPolicy::kBlock) {
    for (auto& shard : shards_) {
      util::MutexLock lock(shard->mu);
      while (shard->jobs_in_flight >= options_.queue_capacity) {
        shard->cv.Wait(shard->mu);
      }
    }
  } else {
    // A batch is dropped whole: enqueueing it on a subset of shards would
    // leave the reassembly barrier waiting forever. The inference result
    // stays valid — the mail is simply lost, as in an overloaded broker.
    bool any_full = false;
    for (auto& shard : shards_) {
      util::MutexLock lock(shard->mu);
      any_full |= shard->jobs_in_flight >= options_.queue_capacity;
    }
    if (any_full) {
      ins_.batches_rejected->Add(1);
      ins_.mails_dropped->Add(static_cast<int64_t>(events.size()));
      return result;
    }
  }

  auto ctx = std::make_shared<BatchContext>();
  ctx->batch = next_batch_++;
  ctx->base_ordinal = next_ordinal_;
  next_ordinal_ += static_cast<int64_t>(events.size());
  ctx->events = events;
  last_timestamp_ = events.back().timestamp;
  ingested_since_start_ = true;

  // Graceful degradation (SetShardDown): records homed to a down shard
  // are shed whole, its sampling/application legs are never counted, and
  // its merge contribution to every healthy shard is synthesized empty —
  // so the reassembly barriers complete and Flush never blocks on the
  // dead shard. The flags only flip at flushed batch boundaries
  // (SetShardDown / lane failure between batches), so one read per batch
  // is a consistent view.
  std::vector<char> down(static_cast<size_t>(num_shards), 0);
  int up_count = 0;
  for (int s = 0; s < num_shards; ++s) {
    down[static_cast<size_t>(s)] =
        shard_down_[static_cast<size_t>(s)].load(std::memory_order_relaxed)
            ? 1
            : 0;
    up_count += down[static_cast<size_t>(s)] == 0 ? 1 : 0;
  }

  std::vector<BatchJob> jobs(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    jobs[static_cast<size_t>(s)].ctx = ctx;
    jobs[static_cast<size_t>(s)].records =
        std::move(home_blocks[static_cast<size_t>(s)]);
  }
  for (int s = 0; s < num_shards; ++s) {
    const auto homed = jobs[static_cast<size_t>(s)].records.size();
    if (homed == 0) continue;
    if (down[static_cast<size_t>(s)] != 0) {
      ins_.events_shed->Add(s, static_cast<int64_t>(homed));
    } else {
      ins_.events_homed->Add(s, static_cast<int64_t>(homed));
    }
  }

  ins_.batches_ingested->Add(1);
  if (up_count == 0) return result;  // every shard down: fully shed

  {
    std::set<int> up;
    for (int s = 0; s < num_shards; ++s) {
      if (down[static_cast<size_t>(s)] == 0) up.insert(s);
    }
    util::MutexLock lock(flush_mu_);
    inflight_ += 2 * static_cast<int64_t>(up_count);
    apply_remaining_.emplace(ctx->batch, std::move(up));
  }
  for (int s = 0; s < num_shards; ++s) {
    if (down[static_cast<size_t>(s)] != 0) {
      // The dead shard will never route its partials; stand in for it
      // with empty ones so every healthy shard's sender-count barrier
      // still completes. Delivered straight to the inboxes — the dead
      // peer's lanes may be dead too.
      for (int t = 0; t < num_shards; ++t) {
        if (down[static_cast<size_t>(t)] != 0) continue;
        ShardPartial empty;
        empty.batch = ctx->batch;
        empty.from_shard = s;
        EnqueueMessage(t, ShardMessage(std::move(empty)));
      }
      continue;
    }
    Shard& shard = *shards_[static_cast<size_t>(s)];
    int64_t depth = 0;
    {
      util::MutexLock lock(shard.mu);
      ++shard.jobs_in_flight;
      shard.jobs.push_back(std::move(jobs[static_cast<size_t>(s)]));
      depth = static_cast<int64_t>(shard.jobs.size());
      shard.cv.NotifyAll();
    }
    if (stage_metrics_) {
      ins_.job_depth->Set(s, depth);
      ins_.job_highwater->UpdateMax(s, depth);
    }
  }
  return result;
}

void ShardedEngine::WorkerLoop(int shard_id) {
  Shard& shard = *shards_[static_cast<size_t>(shard_id)];
  std::deque<ShardMessage> mail_run;
  while (true) {
    BatchJob job;
    enum { kNone, kMessages, kJob } next = kNone;
    int64_t jobs_left = -1;
    {
      util::MutexLock lock(shard.mu);
      // Explicit predicate loops (not a lambda passed to the wait): the
      // thread-safety analysis cannot see guarded reads inside a closure.
      if (!shard.closed && shard.mail.empty() && shard.jobs.empty()) {
        // Only time the wait when the worker actually blocks: on the
        // busy path (work already queued) the clock reads themselves
        // would be the dominant cost of a meaningless ~0 sample.
        if (stage_metrics_) {
          Stopwatch idle_watch;
          while (!shard.closed && shard.mail.empty() && shard.jobs.empty()) {
            shard.cv.Wait(shard.mu);
          }
          ins_.stage_idle->Record(shard_id, idle_watch.ElapsedMillis());
        } else {
          while (!shard.closed && shard.mail.empty() && shard.jobs.empty()) {
            shard.cv.Wait(shard.mu);
          }
        }
      }
      // Messages first: applying a finished batch or answering a frontier
      // request is cheap and unblocks other shards; jobs do the expensive
      // sampling. The whole queued run is taken at once: no message
      // handler ever blocks on a peer, so every response and partial the
      // run buffers rides ONE coalesced frame per peer at the end of the
      // run instead of one frame per handled message.
      if (!shard.mail.empty()) {
        mail_run.swap(shard.mail);
        next = kMessages;
      } else if (!shard.jobs.empty()) {
        job = std::move(shard.jobs.front());
        shard.jobs.pop_front();
        jobs_left = static_cast<int64_t>(shard.jobs.size());
        next = kJob;
      } else {
        return;  // closed and fully drained
      }
    }
    // Depth gauges refresh outside the lock (see EnqueueMessage).
    if (stage_metrics_) {
      if (next == kMessages) ins_.mail_depth->Set(shard_id, 0);
      if (jobs_left >= 0) ins_.job_depth->Set(shard_id, jobs_left);
    }
    if (next == kMessages) {
      for (ShardMessage& message : mail_run) {
        DispatchMessage(shard_id, std::move(message));
      }
      mail_run.clear();
      // The handlers may have buffered frontier responses; the requesters
      // are blocked on them, and this worker may idle-wait next iteration.
      FlushOutbound(shard_id);
    } else {
      ProcessJob(shard_id, std::move(job));
    }
  }
}

void ShardedEngine::DispatchMessage(int shard_id, ShardMessage message) {
  if (auto* partial = std::get_if<ShardPartial>(&message)) {
    OnMail(shard_id, std::move(*partial));
  } else if (auto* request = std::get_if<FrontierRequest>(&message)) {
    HandleFrontierRequest(shard_id, std::move(*request));
  } else {
    // Responses are consumed inside WaitForFrontierResponses before the
    // requesting expansion returns, so one reaching the main loop is
    // either a transport re-delivery of an already-completed wait
    // (dropped by tag) or a protocol violation.
    const auto& response = std::get<FrontierResponse>(message);
    Shard& shard = *shards_[static_cast<size_t>(shard_id)];
    APAN_CHECK_MSG(
        ExpansionKey(response.batch, response.hop) <= shard.last_wait,
        "frontier response with no expansion awaiting it");
    CountDuplicateDropped(shard_id);
  }
}

void ShardedEngine::ProcessJob(int shard_id, BatchJob job) {
  if (job.op != BatchJob::Op::kBatch) {
    Status status;
    switch (job.op) {
      case BatchJob::Op::kReset:
        ResetShardLocal(shard_id);
        break;
      case BatchJob::Op::kSnapshot:
        status = SnapshotShardLocal(shard_id, job);
        break;
      case BatchJob::Op::kRestore:
        status = RestoreShardLocal(shard_id, job);
        break;
      case BatchJob::Op::kBatch:
        break;
    }
    Shard& shard = *shards_[static_cast<size_t>(shard_id)];
    {
      util::MutexLock lock(shard.mu);
      --shard.jobs_in_flight;
      shard.cv.NotifyAll();
    }
    util::MutexLock lock(flush_mu_);
    // The outcome is handed back under flush_mu_ — the same lock the
    // submitting caller's wait releases/reacquires — so the write is
    // ordered before the caller's post-wait read.
    if (job.control_status != nullptr) {
      *job.control_status = std::move(status);
    }
    if (--inflight_ == 0) flush_cv_.NotifyAll();
    return;
  }
  const int64_t batch = job.ctx->batch;
  // Shard-local append replaces the old bulk-synchronous epoch gate: the
  // worker first absorbs the batch's events into its own graph slice
  // (advancing the per-shard watermark), and every slice read below is
  // versioned by the batch's base ordinal — sampling sees exactly the
  // events of batches 0..b-1 no matter how far ahead any shard has run.
  {
    APAN_TRACE_SPAN("append");
    Stopwatch append_watch;
    const Status append = graph_.AppendBatchSlice(
        shard_id, batch, job.ctx->events, job.ctx->base_ordinal);
    APAN_CHECK_MSG(append.ok(), append.ToString());
    if (stage_metrics_) {
      ins_.stage_append->Record(shard_id, append_watch.ElapsedMillis());
    }
  }
  // The append may unblock foreign expansions waiting on this slice
  // (their answers self-report as stage.frontier_serve).
  ServeDeferredRequests(shard_id);

  // φ + N over this shard's home events; hops whose frontier nodes are
  // owned elsewhere are forwarded to their owner shards. Propagation is
  // plain float math over the worker's reused buffers; the scope makes
  // any tensor op a future propagator grows draw from this worker's pool.
  // Arena tensors are thread-confined: anything that enters a
  // ShardPartial (read by OTHER shards' workers) must be copied into
  // plain buffers, never handed over as a pooled tensor.
  Shard& shard = *shards_[static_cast<size_t>(shard_id)];
  std::optional<tensor::ArenaScope> arena_scope;
  arena_scope.emplace();
  ExpandKHop(shard_id, job);
  {
    APAN_TRACE_SPAN("propagate");
    Stopwatch propagate_watch;
    model_->propagator().ComputePartialRows(
        job.records, shard.expand.hops, &shard.propagate.rho,
        &shard.propagate.hop0, &shard.propagate.partial);
    if (stage_metrics_) {
      ins_.stage_propagate->Record(shard_id,
                                   propagate_watch.ElapsedMillis());
    }
  }
  RouteMail(shard_id, job);

  APAN_TRACE_SPAN("finalize");
  Stopwatch finalize_watch;
  arena_scope.reset();
  job.records = core::RecordRows();
  job.ctx.reset();
  {
    util::MutexLock lock(shard.mu);
    --shard.jobs_in_flight;
    shard.cv.NotifyAll();  // wake back-pressured InferBatch callers
  }
  if (stage_metrics_) {
    // Recorded before the flush notify so a scrape gated on Flush() sees
    // every stage sample of the batches it waited for.
    ins_.stage_finalize->Record(shard_id, finalize_watch.ElapsedMillis());
  }
  {
    util::MutexLock lock(flush_mu_);
    if (--inflight_ == 0) flush_cv_.NotifyAll();
  }
}

void ShardedEngine::ExpandKHop(int shard_id, const BatchJob& job) {
  APAN_TRACE_SPAN("expand");
  Stopwatch expand_watch;
  ExpandScratch& x = shards_[static_cast<size_t>(shard_id)]->expand;
  x.hops.Clear();
  const int32_t num_hops = model_->config().propagation_hops;
  const int64_t fanout = model_->config().sampled_neighbors;
  const size_t num_records = job.records.size();
  if (num_hops <= 0 || num_records == 0) return;
  double wait_ms = 0.0;  // inside WaitForFrontierResponses, excluded below
  const int num_shards = options_.num_shards;
  const int64_t ordinal_limit = job.ctx->base_ordinal;
  const std::vector<graph::Event>& events = job.records.events;

  // The hop-1 frontier is every record's seeds {src, dst}. A hop's
  // frontier is its slots in record-major order; the slot id is the
  // sequence tag that fixes the reassembled expansion order to exactly
  // the monolithic per-record KHopExpand sequence.
  x.slots.clear();
  for (size_t i = 0; i < num_records; ++i) {
    x.slots.push_back({static_cast<uint32_t>(i), events[i].src});
    x.slots.push_back({static_cast<uint32_t>(i), events[i].dst});
  }
  x.staged.clear();
  x.staged_record.clear();
  x.requests.resize(static_cast<size_t>(num_shards));
  int64_t requests_sent = 0;
  int64_t nodes_forwarded = 0;
  for (int32_t hop = 1; hop <= num_hops && !x.slots.empty(); ++hop) {
    const size_t num_slots = x.slots.size();
    x.sample_span.assign(num_slots, {0, 0});
    x.samples.clear();
    x.local_slots.clear();
    x.slot_owner.resize(num_slots);
    x.awaiting_from.assign(static_cast<size_t>(num_shards), 0);
    std::vector<size_t>& asked = x.asked;
    asked.assign(static_cast<size_t>(num_shards), 0);
    for (size_t s = 0; s < num_slots; ++s) {
      const int owner = graph_.OwnerOf(x.slots[s].node);
      x.slot_owner[s] = owner;
      if (owner == shard_id) {
        x.local_slots.push_back(s);
      } else if (!shard_down_[static_cast<size_t>(owner)].load(
                     std::memory_order_relaxed)) {
        ++asked[static_cast<size_t>(owner)];
      }
      // A frontier owned by a down shard samples empty — never ask a
      // dead peer and wait forever on its answer; its span stays empty.
    }
    for (int target = 0; target < num_shards; ++target) {
      x.requests[static_cast<size_t>(target)].items.reserve(
          asked[static_cast<size_t>(target)]);
    }
    for (size_t s = 0; s < num_slots; ++s) {
      const int owner = x.slot_owner[s];
      if (owner == shard_id || asked[static_cast<size_t>(owner)] == 0) {
        continue;  // local, or owned by a down shard
      }
      const double t = events[x.slots[s].record].timestamp;
      x.requests[static_cast<size_t>(owner)].items.push_back(
          {static_cast<int64_t>(s), x.slots[s].node, t});
    }

    // Requests go out before any local sampling so foreign owners work on
    // their slots while this shard works on its own — hop latency is
    // max(local, remote), not local + remote.
    int awaiting = 0;
    for (int target = 0; target < num_shards; ++target) {
      FrontierRequest& request = x.requests[static_cast<size_t>(target)];
      if (request.items.empty()) continue;
      nodes_forwarded += static_cast<int64_t>(request.items.size());
      ++requests_sent;
      request.batch = job.ctx->batch;
      request.hop = hop;
      request.from_shard = shard_id;
      request.ordinal_limit = ordinal_limit;
      request.fanout = fanout;
      BufferMessage(shard_id, target, ShardMessage(std::move(request)));
      request = FrontierRequest();
      x.awaiting_from[static_cast<size_t>(target)] = 1;
      ++awaiting;
    }
    // One coalesced frame per peer: this hop's request rides together
    // with any response ServeDeferredRequests buffered after the append.
    // Flushed before local sampling so foreign owners overlap with it.
    FlushOutbound(shard_id);
    for (const size_t s : x.local_slots) {
      const auto begin = static_cast<int64_t>(x.samples.size());
      graph_.AppendMostRecentNeighborsAsOf(
          x.slots[s].node, events[x.slots[s].record].timestamp, fanout,
          ordinal_limit, &x.samples);
      x.sample_span[s] = {begin, static_cast<int64_t>(x.samples.size())};
    }
    if (awaiting > 0) {
      wait_ms += WaitForFrontierResponses(shard_id, job.ctx->batch, hop);
    }

    // Reassemble in slot order and build the next frontier.
    x.next_slots.clear();
    for (size_t s = 0; s < num_slots; ++s) {
      const uint32_t record = x.slots[s].record;
      const auto [begin, end] = x.sample_span[s];
      for (int64_t k = begin; k < end; ++k) {
        const graph::TemporalNeighbor& n = x.samples[static_cast<size_t>(k)];
        x.staged.push_back({n.node, n.edge_id, n.timestamp, hop});
        x.staged_record.push_back(record);
        x.next_slots.push_back({record, n.node});
      }
    }
    std::swap(x.slots, x.next_slots);
  }

  // Regroup the hop-major entries record-major (a stable counting sort):
  // each record's row is then its hop-1 entries, then hop 2, ... — the
  // order ρ sums in.
  x.hops.offsets.assign(num_records + 1, 0);
  for (const uint32_t record : x.staged_record) {
    ++x.hops.offsets[record + 1];
  }
  for (size_t r = 0; r < num_records; ++r) {
    x.hops.offsets[r + 1] += x.hops.offsets[r];
  }
  x.cursor.assign(x.hops.offsets.begin(), x.hops.offsets.end() - 1);
  x.hops.entries.resize(x.staged.size());
  for (size_t k = 0; k < x.staged.size(); ++k) {
    x.hops.entries[static_cast<size_t>(x.cursor[x.staged_record[k]]++)] =
        x.staged[k];
  }

  if (requests_sent > 0) {
    ins_.frontier_requests->Add(shard_id, requests_sent);
    ins_.frontier_nodes_forwarded->Add(shard_id, nodes_forwarded);
  }
  if (stage_metrics_) {
    // stage.sample is this shard's own expansion work; the time spent
    // blocked on foreign owners is stage.frontier_wait (recorded inside
    // the wait, net of interleaved message handling).
    ins_.stage_sample->Record(
        shard_id, std::max(0.0, expand_watch.ElapsedMillis() - wait_ms));
  }
}

double ShardedEngine::WaitForFrontierResponses(int shard_id, int64_t batch,
                                               int32_t hop) {
  APAN_TRACE_SPAN("frontier_wait");
  Stopwatch wait_watch;
  double nested_ms = 0.0;  // interleaved message handling, not waiting
  Shard& shard = *shards_[static_cast<size_t>(shard_id)];
  ExpandScratch& x = shard.expand;
  std::vector<char>& awaiting_from = x.awaiting_from;
  const ExpansionKey current(batch, hop);
  int awaiting = 0;
  for (const char pending : awaiting_from) awaiting += pending != 0;
  while (awaiting > 0) {
    ShardMessage message;
    bool have_message = false;
    int64_t mail_left = 0;
    {
      util::MutexLock lock(shard.mu);
      while (shard.mail.empty()) {
        // Timed wait: a peer can be marked down mid-wait (SetShardDown
        // or a lane failure on another worker), and no inbox signal
        // accompanies the flag flip — its answer is never coming, so
        // the wait must notice on its own and degrade (empty sample).
        shard.cv.WaitFor(shard.mu, std::chrono::milliseconds(10));
        for (size_t p = 0; p < awaiting_from.size(); ++p) {
          if (awaiting_from[p] != 0 &&
              shard_down_[p].load(std::memory_order_relaxed)) {
            awaiting_from[p] = 0;
            --awaiting;
          }
        }
        if (shard_down_[static_cast<size_t>(shard_id)].load(
                std::memory_order_relaxed)) {
          // This shard itself was marked down mid-wait: its requests (or
          // the answers) were shed in transit. Abandon every outstanding
          // slot and finish the job degraded.
          for (size_t p = 0; p < awaiting_from.size(); ++p) {
            if (awaiting_from[p] != 0) {
              awaiting_from[p] = 0;
              --awaiting;
            }
          }
        }
        if (awaiting == 0) break;
      }
      if (!shard.mail.empty()) {
        message = std::move(shard.mail.front());
        shard.mail.pop_front();
        mail_left = static_cast<int64_t>(shard.mail.size());
        have_message = true;
      }
    }
    if (!have_message) continue;  // awaiting re-checked by the loop head
    if (stage_metrics_) {
      ins_.mail_depth->Set(shard_id, mail_left);
    }
    if (auto* response = std::get_if<FrontierResponse>(&message)) {
      const ExpansionKey key(response->batch, response->hop);
      if (key == current) {
        char& pending = awaiting_from[static_cast<size_t>(
            response->from_shard)];
        if (pending == 0) {
          // Transport re-delivery of a responder we already consumed.
          CountDuplicateDropped(shard_id);
          continue;
        }
        pending = 0;
        APAN_CHECK_MSG(response->neighbors.rows() == response->slots.size(),
                       "frontier response with mismatched slot/neighbor rows");
        for (size_t i = 0; i < response->slots.size(); ++i) {
          const int64_t slot = response->slots[i];
          APAN_CHECK_MSG(
              slot >= 0 && static_cast<size_t>(slot) < x.sample_span.size(),
              "frontier response slot outside the requested expansion");
          const std::span<const graph::TemporalNeighbor> row =
              response->neighbors.Row(i);
          const auto begin = static_cast<int64_t>(x.samples.size());
          x.samples.insert(x.samples.end(), row.begin(), row.end());
          x.sample_span[static_cast<size_t>(slot)] = {
              begin, static_cast<int64_t>(x.samples.size())};
        }
        --awaiting;
      } else {
        // A response for a later expansion cannot exist (its request has
        // not been sent); an earlier key is a re-delivered duplicate.
        APAN_CHECK_MSG(key < current,
                       "frontier response for a future expansion");
        CountDuplicateDropped(shard_id);
      }
    } else {
      // Serving requests (and applying finished batches) while blocked is
      // what keeps the frontier protocol deadlock-free: the shard at the
      // minimum outstanding batch can always be answered by everyone.
      // Their cost is the handled stage's (merge / frontier_serve), not
      // this wait's — subtract it so the stage decomposition stays
      // disjoint.
      Stopwatch nested_watch;
      DispatchMessage(shard_id, std::move(message));
      // A nested handler may have buffered a response its requester is
      // blocked on — nothing may stay buffered while this worker waits.
      FlushOutbound(shard_id);
      nested_ms += nested_watch.ElapsedMillis();
    }
  }
  shard.last_wait = current;
  const double total_ms = wait_watch.ElapsedMillis();
  if (stage_metrics_) {
    ins_.stage_frontier_wait->Record(shard_id,
                                     std::max(0.0, total_ms - nested_ms));
  }
  return total_ms;
}

void ShardedEngine::HandleFrontierRequest(int shard_id,
                                          FrontierRequest request) {
  Shard& shard = *shards_[static_cast<size_t>(shard_id)];
  // Replay protection: a requester has at most one request outstanding
  // per owner, at strictly increasing (batch, hop) — anything at or below
  // the accepted watermark is a transport re-delivery (it was already
  // answered or deferred, else the requester could not have progressed).
  ExpansionKey& watermark =
      shard.accepted_request[static_cast<size_t>(request.from_shard)];
  const ExpansionKey key(request.batch, request.hop);
  if (key <= watermark) {
    CountDuplicateDropped(shard_id);
    return;
  }
  watermark = key;
  if (graph_.watermark(shard_id) < request.batch) {
    // This slice has not absorbed batches 0..request.batch-1 yet; answer
    // after the append that advances the watermark far enough.
    shard.deferred_requests.push_back(std::move(request));
    return;
  }
  AnswerFrontierRequest(shard_id, request);
}

void ShardedEngine::AnswerFrontierRequest(int shard_id,
                                          const FrontierRequest& request) {
  APAN_TRACE_SPAN("frontier_answer");
  Stopwatch serve_watch;
  FrontierResponse response;
  response.batch = request.batch;
  response.hop = request.hop;
  response.from_shard = shard_id;
  // Sampled into the worker's reused buffer, then copied into the
  // message at its exact size: the message crosses threads and is freed
  // by the requester, so it gets one allocation per array.
  graph::NeighborRows& answer = shards_[static_cast<size_t>(shard_id)]->answer;
  answer.Clear();
  response.slots.reserve(request.items.size());
  for (const FrontierItem& item : request.items) {
    response.slots.push_back(item.slot);
    graph_.AppendMostRecentNeighborsAsOf(item.node, item.before_time,
                                         request.fanout,
                                         request.ordinal_limit,
                                         &answer.entries);
    answer.EndRow();
  }
  response.neighbors.offsets.assign(answer.offsets.begin(),
                                    answer.offsets.end());
  response.neighbors.entries.assign(answer.entries.begin(),
                                    answer.entries.end());
  // Buffered, not sent: the caller's context owns the flush point (after
  // a dispatched message, or coalesced with the next hop's requests).
  BufferMessage(shard_id, request.from_shard,
                ShardMessage(std::move(response)));
  if (stage_metrics_) {
    ins_.stage_frontier_serve->Record(shard_id, serve_watch.ElapsedMillis());
  }
}

void ShardedEngine::ServeDeferredRequests(int shard_id) {
  Shard& shard = *shards_[static_cast<size_t>(shard_id)];
  if (shard.deferred_requests.empty()) return;
  const int64_t watermark = graph_.watermark(shard_id);
  std::vector<FrontierRequest> still_deferred;
  for (FrontierRequest& request : shard.deferred_requests) {
    if (request.batch <= watermark) {
      AnswerFrontierRequest(shard_id, request);
    } else {
      still_deferred.push_back(std::move(request));
    }
  }
  shard.deferred_requests = std::move(still_deferred);
}

void ShardedEngine::BufferMessage(int from_shard, int to_shard,
                                  ShardMessage message) {
  shards_[static_cast<size_t>(from_shard)]
      ->outbound[static_cast<size_t>(to_shard)]
      .push_back(std::move(message));
}

void ShardedEngine::FlushOutbound(int from_shard) {
  Shard& shard = *shards_[static_cast<size_t>(from_shard)];
  const bool self_down =
      shard_down_[static_cast<size_t>(from_shard)].load(
          std::memory_order_relaxed);
  for (size_t to = 0; to < shard.outbound.size(); ++to) {
    std::vector<ShardMessage>& run = shard.outbound[to];
    if (run.empty()) continue;
    const int to_shard = static_cast<int>(to);
    if (self_down ||
        shard_down_[to].load(std::memory_order_relaxed)) {
      // Degraded path: runs to (or from) a down shard are shed before
      // they touch the transport. Any ShardPartial in the run belongs to
      // a batch that counted the peer's application leg at ingest (a
      // batch ingested after the peer went down never buffers a partial
      // to it — its apply set excludes the peer), so retire those legs
      // here or Flush wedges on a merge that will never happen.
      std::vector<int64_t> partial_batches;
      for (const ShardMessage& message : run) {
        if (const auto* partial = std::get_if<ShardPartial>(&message)) {
          partial_batches.push_back(partial->batch);
        }
      }
      ins_.sends_shed->Add(to_shard, static_cast<int64_t>(run.size()));
      run = std::vector<ShardMessage>();
      // Compensate the DESTINATION's legs in both directions: a peer
      // missing this shard's partial can never reach its sender-count
      // barrier, so its application leg is as dead as one whose own
      // partial was lost.
      CompensateLostPartials(to_shard, partial_batches);
      continue;
    }
    // Remember which batches' partials ride this run BEFORE the move:
    // if the transport refuses the frame even after its own lane
    // recovery (reconnect + backoff), those batches' application legs
    // on the peer must be compensated, and the messages are gone.
    std::vector<int64_t> partial_batches;
    for (const ShardMessage& message : run) {
      if (const auto* partial = std::get_if<ShardPartial>(&message)) {
        partial_batches.push_back(partial->batch);
      }
    }
    const int64_t run_size = static_cast<int64_t>(run.size());
    // One coalesced frame per peer — on a serializing transport this is
    // where N same-destination messages become one syscall.
    const Status sent = transport_->SendBatch(
        from_shard, to_shard, std::move(run));
    run = std::vector<ShardMessage>();
    if (sent.ok()) continue;
    // The lane is dead beyond repair: mark the peer down so subsequent
    // traffic sheds cheaply, count what was lost, and keep serving the
    // healthy shards instead of aborting the process.
    ins_.sends_shed->Add(to_shard, run_size);
    shard_down_[to].store(true, std::memory_order_relaxed);
    CompensateLostPartials(to_shard, partial_batches);
  }
}

void ShardedEngine::CompensateLostPartials(
    int to_shard, const std::vector<int64_t>& batches) {
  if (batches.empty()) return;
  util::MutexLock lock(flush_mu_);
  bool retired = false;
  for (const int64_t batch : batches) {
    auto remaining = apply_remaining_.find(batch);
    if (remaining == apply_remaining_.end()) continue;
    // erase() doubles as the dedupe: a second shed partial for the same
    // (batch, peer) — another sender's, or a duplicate — finds the leg
    // already retired and is a no-op.
    if (remaining->second.erase(to_shard) == 0) continue;
    if (remaining->second.empty()) apply_remaining_.erase(remaining);
    --inflight_;
    retired = true;
  }
  if (retired && inflight_ == 0) flush_cv_.NotifyAll();
}

void ShardedEngine::EnqueueMessage(int to_shard, ShardMessage message) {
  // The transport is a pluggable extension point and (over a socket) the
  // message crossed a deserialization boundary, so shard ids are validated
  // before they index anything: wire.cc's "no UB" guarantee covers frame
  // structure, this covers field ranges. A violation is a broken transport
  // or peer — abort with a message, like the reader-thread decode checks.
  const auto valid_shard = [this](int shard) {
    return shard >= 0 && shard < options_.num_shards;
  };
  APAN_CHECK_MSG(valid_shard(to_shard),
                 "transport delivered a message to an out-of-range shard");
  int from_shard = -1;
  if (const auto* partial = std::get_if<ShardPartial>(&message)) {
    from_shard = partial->from_shard;
  } else if (const auto* request = std::get_if<FrontierRequest>(&message)) {
    from_shard = request->from_shard;
  } else {
    from_shard = std::get<FrontierResponse>(message).from_shard;
  }
  APAN_CHECK_MSG(valid_shard(from_shard),
                 "transport delivered a message with an out-of-range sender");
  Shard& target = *shards_[static_cast<size_t>(to_shard)];
  int64_t depth = 0;
  {
    util::MutexLock lock(target.mu);
    target.mail.push_back(std::move(message));
    depth = static_cast<int64_t>(target.mail.size());
    target.cv.NotifyAll();
  }
  // Gauge updates happen after the unlock: lengthening the mail critical
  // section is the one way a relaxed-atomic metric could contend with the
  // serving path itself.
  if (stage_metrics_) {
    ins_.mail_depth->Set(to_shard, depth);
    ins_.mail_highwater->UpdateMax(to_shard, depth);
  }
}

void ShardedEngine::CountDuplicateDropped(int shard_id) {
  ins_.duplicates_dropped->Add(shard_id, 1);
}

void ShardedEngine::RouteMail(int from_shard, const BatchJob& job) {
  APAN_TRACE_SPAN("route");
  Stopwatch route_watch;
  const int num_shards = options_.num_shards;
  const int64_t d = model_->config().embedding_dim;
  PropagateScratch& scratch =
      shards_[static_cast<size_t>(from_shard)]->propagate;
  const core::MailRows& hop0 = scratch.hop0;
  const core::MailRows& partial = scratch.partial;
  const core::RecordRows& records = job.records;

  // Owners first (one partition lookup per row), then each
  // destination's rows are counted so every block is sized once.
  enum Section { kState, kHop0, kPartial, kSections };
  std::vector<int>& owner = scratch.route_owner;
  owner.clear();
  for (const graph::Event& e : records.events) {
    owner.push_back(partition_->ShardOf(e.src));
    owner.push_back(partition_->ShardOf(e.dst));
  }
  for (const graph::NodeId node : hop0.node) {
    owner.push_back(partition_->ShardOf(node));
  }
  for (const graph::NodeId node : partial.node) {
    owner.push_back(partition_->ShardOf(node));
  }
  const size_t hop0_at = 2 * records.size();
  const size_t partial_at = hop0_at + hop0.rows();
  std::vector<size_t>& rows = scratch.route_rows;
  rows.assign(static_cast<size_t>(num_shards * kSections), 0);
  for (size_t i = 0; i < owner.size(); ++i) {
    const Section section =
        i < hop0_at ? kState : (i < partial_at ? kHop0 : kPartial);
    ++rows[static_cast<size_t>(owner[i] * kSections + section)];
  }
  std::vector<ShardPartial> outbound(static_cast<size_t>(num_shards));
  for (int t = 0; t < num_shards; ++t) {
    const size_t* count = &rows[static_cast<size_t>(t * kSections)];
    ShardPartial& out = outbound[static_cast<size_t>(t)];
    out.batch = job.ctx->batch;
    out.from_shard = from_shard;
    out.rows.dim = d;
    out.rows.Reserve(count[kState] + count[kHop0] + count[kPartial]);
    out.num_state_updates = static_cast<int64_t>(count[kState]);
    out.num_hop0 = static_cast<int64_t>(count[kHop0]);
  }

  // Sections are appended in order, so each block comes out as
  // [write-backs | hop-0 mail | partial sums]. z(t−) write-backs go to
  // each endpoint's owner; sequence tags let the owner replay them in
  // global event order (later events win).
  const std::span<const float> z = records.z;
  const auto row_of = [&z, d](size_t r) {
    return z.subspan(r * static_cast<size_t>(d), static_cast<size_t>(d));
  };
  for (size_t i = 0; i < records.size(); ++i) {
    const graph::Event& e = records.events[i];
    const int64_t seq = 2 * records.event_index[i];
    outbound[static_cast<size_t>(owner[2 * i])].rows.AppendRow(
        e.src, e.timestamp, 1, seq, row_of(2 * i));
    outbound[static_cast<size_t>(owner[2 * i + 1])].rows.AppendRow(
        e.dst, e.timestamp, 1, seq + 1, row_of(2 * i + 1));
  }
  for (size_t r = 0; r < hop0.rows(); ++r) {
    outbound[static_cast<size_t>(owner[hop0_at + r])].rows.AppendRowFrom(hop0,
                                                                        r);
  }
  for (size_t r = 0; r < partial.rows(); ++r) {
    outbound[static_cast<size_t>(owner[partial_at + r])].rows.AppendRowFrom(
        partial, r);
  }

  int64_t routed = 0;
  int64_t cross_shard = 0;
  for (int t = 0; t < num_shards; ++t) {
    ShardPartial& out = outbound[static_cast<size_t>(t)];
    const auto mails =
        static_cast<int64_t>(out.rows.rows()) - out.num_state_updates;
    routed += mails;
    if (t != from_shard) cross_shard += mails;
    BufferMessage(from_shard, t, ShardMessage(std::move(out)));
  }
  // Covers the partials just buffered AND any response still waiting from
  // an expansion-free path (0 hops / empty record set).
  FlushOutbound(from_shard);
  ins_.mails_routed->Add(from_shard, routed);
  ins_.mails_cross_shard->Add(from_shard, cross_shard);
  if (stage_metrics_) {
    ins_.stage_route->Record(from_shard, route_watch.ElapsedMillis());
  }
}

void ShardedEngine::OnMail(int shard_id, ShardPartial partial) {
  Shard& shard = *shards_[static_cast<size_t>(shard_id)];
  // Replay protection: a partial for an already-merged batch, or from a
  // sender already represented in the pending set, is a transport
  // re-delivery — applying it twice would double mail and wedge the
  // sender-count completion barrier.
  if (partial.batch < shard.next_merge) {
    CountDuplicateDropped(shard_id);
    return;
  }
  std::vector<ShardPartial>& parts = shard.pending[partial.batch];
  for (const ShardPartial& existing : parts) {
    if (existing.from_shard == partial.from_shard) {
      CountDuplicateDropped(shard_id);
      return;
    }
  }
  parts.push_back(std::move(partial));
  // Batches complete in order: every sender emits its partials in batch
  // order, so once all senders reported for next_merge, every earlier
  // batch has already been merged.
  while (true) {
    auto it = shard.pending.find(shard.next_merge);
    if (it == shard.pending.end() ||
        static_cast<int>(it->second.size()) != options_.num_shards) {
      break;
    }
    std::vector<ShardPartial> merged = std::move(it->second);
    shard.pending.erase(it);
    ApplyMergedBatch(shard_id, std::move(merged));
    ++shard.next_merge;
  }
}

void ShardedEngine::ApplyMergedBatch(int shard_id,
                                     std::vector<ShardPartial> parts) {
  APAN_TRACE_SPAN("merge");
  Stopwatch watch;
  Shard& shard = *shards_[static_cast<size_t>(shard_id)];
  // Deterministic merge order: contributions sorted by sender shard.
  std::sort(parts.begin(), parts.end(),
            [](const ShardPartial& a, const ShardPartial& b) {
              return a.from_shard < b.from_shard;
            });
  const int64_t batch = parts.front().batch;
  const int64_t d = model_->config().embedding_dim;
  for (const ShardPartial& part : parts) {
    APAN_CHECK_MSG(part.num_state_updates >= 0 && part.num_hop0 >= 0 &&
                       part.num_state_updates + part.num_hop0 <=
                           static_cast<int64_t>(part.rows.rows()),
                   "shard partial sections do not fit its rows");
    APAN_CHECK_MSG(part.rows.rows() == 0 || part.rows.dim == d,
                   "shard partial rows have the wrong dimension");
  }

  // z(t−) write-backs and hop-0 mail replay in global event order
  // (sequence tags) — exactly the per-node delivery order of the
  // single-worker path.
  using Ref = MergeScratch::Ref;
  MergeScratch& scratch = shard.merge;
  std::vector<Ref>& refs = scratch.refs;
  refs.clear();
  const auto add_by_tag = [&parts, &refs](bool hop0) {
    const size_t first = refs.size();
    for (size_t p = 0; p < parts.size(); ++p) {
      const ShardPartial& part = parts[p];
      const auto begin = static_cast<size_t>(hop0 ? part.num_state_updates : 0);
      const auto end = static_cast<size_t>(
          part.num_state_updates + (hop0 ? part.num_hop0 : 0));
      for (size_t r = begin; r < end; ++r) {
        refs.push_back({part.rows.tag[r], static_cast<uint32_t>(p),
                        static_cast<uint32_t>(r)});
      }
    }
    std::sort(refs.begin() + static_cast<std::ptrdiff_t>(first), refs.end(),
              [](const Ref& a, const Ref& b) {
                return std::tie(a.key, a.part, a.row) <
                       std::tie(b.key, b.part, b.row);
              });
    return first;
  };
  add_by_tag(false);
  const size_t hop0_begin = add_by_tag(true);

  // ρ across the whole batch: each recipient's partial sums fold into its
  // first row in place, in sender order, then finalize to one reduced
  // mail per recipient. (Delivery order across recipients never affects
  // state, so no sort is needed.)
  std::vector<Ref>& merged = scratch.merged;
  merged.clear();
  scratch.index.Clear();
  for (size_t p = 0; p < parts.size(); ++p) {
    const core::MailRows& rows = parts[p].rows;
    for (auto r = static_cast<size_t>(parts[p].num_state_updates +
                                      parts[p].num_hop0);
         r < rows.rows(); ++r) {
      const auto [at, first] = scratch.index.Insert(
          rows.node[r], static_cast<uint32_t>(merged.size()));
      if (first) {
        merged.push_back(
            {0, static_cast<uint32_t>(p), static_cast<uint32_t>(r)});
        continue;
      }
      const Ref lead = merged[at];
      core::MailRows& into = parts[lead.part].rows;
      const std::span<float> sum = into.MutableRow(lead.row);
      const std::span<const float> add = rows.Row(r);
      for (size_t k = 0; k < sum.size(); ++k) sum[k] += add[k];
      into.time[lead.row] = std::max(into.time[lead.row], rows.time[r]);
      into.count[lead.row] += rows.count[r];
    }
  }
  for (const Ref& lead : merged) {
    core::MailRows& rows = parts[lead.part].rows;
    MailPropagator::FinalizeSum(rows.MutableRow(lead.row),
                                rows.count[lead.row]);
  }

  {
    // Everything this batch touches is the owner shard's private store:
    // routed state updates and mail land in shard-local memory, never in
    // the model or another shard's rows.
    util::MutexLock state_lock(shard.state_mu);
    for (size_t i = 0; i < hop0_begin; ++i) {
      const core::MailRows& rows = parts[refs[i].part].rows;
      shard.store->SetLastEmbedding(rows.node[refs[i].row],
                                    rows.Row(refs[i].row));
    }
    // Hop-0 mail first, then the reduced mail: each node's deliveries in
    // exactly the single-worker order.
    for (size_t i = hop0_begin; i < refs.size(); ++i) {
      const core::MailRows& rows = parts[refs[i].part].rows;
      const size_t r = refs[i].row;
      shard.store->DeliverMail(rows.node[r], rows.Row(r), rows.time[r]);
    }
    for (const Ref& lead : merged) {
      const core::MailRows& rows = parts[lead.part].rows;
      shard.store->DeliverMail(rows.node[lead.row], rows.Row(lead.row),
                               rows.time[lead.row]);
    }
  }
  ins_.stage_merge->Record(shard_id, watch.ElapsedMillis());

  util::MutexLock lock(flush_mu_);
  auto remaining = apply_remaining_.find(batch);
  // A missing barrier (or a leg already retired) means the shed
  // compensation beat a late merge here: an at-least-once transport
  // delivered a held duplicate of a partial whose original was shed when
  // the peer went down. The merge's writes are idempotent against the
  // degraded outcome, but the leg was already accounted for — counting
  // it again would drive inflight_ negative and corrupt Flush.
  if (remaining == apply_remaining_.end() ||
      remaining->second.erase(shard_id) == 0) {
    return;
  }
  if (remaining->second.empty()) {
    apply_remaining_.erase(remaining);
    ins_.batches_propagated->Add(shard_id, 1);
  }
  if (--inflight_ == 0) flush_cv_.NotifyAll();
}

void ShardedEngine::Flush() {
  util::MutexLock lock(flush_mu_);
  while (inflight_ != 0) flush_cv_.Wait(flush_mu_);
}

void ShardedEngine::ResetShardLocal(int shard_id) {
  Shard& shard = *shards_[static_cast<size_t>(shard_id)];
  {
    // The encode pool also reads the store (though ResetState's infer
    // lock means no encode can be running); keep the lock discipline.
    util::MutexLock state_lock(shard.state_mu);
    shard.store->Reset();
  }
  graph_.ResetSlice(shard_id);
  // Worker-confined replay state, reset on the worker's own thread:
  // batch numbering restarts at 0, so the merge cursor and the frontier
  // watermarks must rewind with it.
  shard.pending.clear();
  shard.next_merge = 0;
  shard.deferred_requests.clear();
  shard.accepted_request.assign(static_cast<size_t>(options_.num_shards),
                                ExpansionKey{-1, 0});
  shard.last_wait = ExpansionKey{-1, 0};
}

Status ShardedEngine::SnapshotShardLocal(int shard_id, const BatchJob& job) {
  Shard& shard = *shards_[static_cast<size_t>(shard_id)];
  // Flush proved every batch below the watermark merged everywhere, so a
  // non-empty pending map means replay tags and the watermark disagree —
  // refuse to capture an image that could not replay to a unique state.
  if (!shard.pending.empty()) {
    return Status::FailedPrecondition(internal::StrCat(
        "shard ", shard_id, " has ", shard.pending.size(),
        " unmerged partial sets at a flushed point"));
  }
  snapshot::ShardSnapshot snap;
  snap.shard = shard_id;
  snap.num_shards = options_.num_shards;
  snap.num_nodes = static_cast<int64_t>(partition_->owner_of.size());
  snap.next_batch = job.snap_next_batch;
  snap.next_ordinal = job.snap_next_ordinal;
  {
    // The capture only reads, but the encode pool reads these rows too;
    // same discipline as every other store access.
    util::MutexLock state_lock(shard.state_mu);
    const core::Mailbox& mailbox = shard.store->mailbox();
    snap.owned_nodes = mailbox.num_nodes();
    snap.mailbox_slots = mailbox.slots();
    snap.mail_dim = mailbox.dim();
    snap.state_dim = shard.store->dim();
    const auto data = mailbox.raw_data();
    snap.mailbox_data.assign(data.begin(), data.end());
    const auto timestamps = mailbox.raw_timestamps();
    snap.mailbox_timestamps.assign(timestamps.begin(), timestamps.end());
    const auto head = mailbox.raw_head();
    snap.mailbox_head.assign(head.begin(), head.end());
    const auto count = mailbox.raw_count();
    snap.mailbox_count.assign(count.begin(), count.end());
    const auto order = mailbox.raw_order();
    snap.mailbox_order.assign(order.begin(), order.end());
    const auto z = shard.store->raw_state();
    snap.z_rows.assign(z.begin(), z.end());
  }
  snap.slice = graph_.ExportSlice(shard_id);
  snap.next_merge = shard.next_merge;
  snap.accepted_request = shard.accepted_request;
  snap.last_wait_batch = shard.last_wait.first;
  snap.last_wait_hop = shard.last_wait.second;
  return snapshot::WriteShardSnapshot(snap, job.snapshot_path);
}

Status ShardedEngine::RestoreShardLocal(int shard_id, const BatchJob& job) {
  Shard& shard = *shards_[static_cast<size_t>(shard_id)];
  const snapshot::ShardSnapshot& snap = *job.restore;
  {
    util::MutexLock state_lock(shard.state_mu);
    core::Mailbox& mailbox = shard.store->mailbox();
    // Both installers validate fully before mutating, so a failure here
    // leaves the pre-restore state intact; the geometry was already
    // matched against the engine's topology in RestoreShard, which makes
    // a RestoreRawState size failure after a RestoreRaw success
    // impossible (both derive from the same owned/dim image fields).
    APAN_RETURN_NOT_OK(mailbox.RestoreRaw(
        snap.mailbox_data, snap.mailbox_timestamps, snap.mailbox_head,
        snap.mailbox_count, snap.mailbox_order));
    APAN_RETURN_NOT_OK(shard.store->RestoreRawState(snap.z_rows));
  }
  APAN_RETURN_NOT_OK(graph_.RestoreSlice(shard_id, snap.slice));
  // Replay/dedup state, rewound to the image's flushed point: pending and
  // deferred are structurally empty there (Flush settled every barrier),
  // and the watermarks resume exactly where the capture stood.
  shard.pending.clear();
  shard.next_merge = snap.next_merge;
  shard.deferred_requests.clear();
  shard.accepted_request.assign(snap.accepted_request.begin(),
                                snap.accepted_request.end());
  shard.last_wait = ExpansionKey{snap.last_wait_batch, snap.last_wait_hop};
  return Status::OK();
}

void ShardedEngine::ResetState() {
  // Holding infer_mu_ end-to-end serializes against InferBatch: no new
  // batch can interleave with the reset, and batch/ordinal sequencing
  // below is rewound under the same lock that advances it.
  util::MutexLock infer_lock(infer_mu_);
  if (shutdown_) return;
  // Enforced, not just documented: rewinding the replay watermarks under
  // a duplicating transport would let a re-delivered pre-reset frame be
  // accepted as new-epoch state — silent corruption, so abort loudly.
  APAN_CHECK_MSG(transport_->exactly_once(),
                 "ResetState requires an exactly-once transport: a rewound "
                 "replay watermark cannot drop a pre-reset re-delivery");
  // Settle everything accepted so far. After this, every inbox and every
  // exactly-once transport lane is empty (Flush proves all application
  // legs ran, and legs are only reachable via delivered messages).
  Flush();
  // Route the reset through each shard's worker so the worker-confined
  // state (merge cursor, frontier watermarks, graph slice) is only ever
  // touched by its own thread.
  {
    util::MutexLock lock(flush_mu_);
    inflight_ += options_.num_shards;
  }
  for (int s = 0; s < options_.num_shards; ++s) {
    Shard& shard = *shards_[static_cast<size_t>(s)];
    BatchJob job;
    job.op = BatchJob::Op::kReset;
    util::MutexLock lock(shard.mu);
    ++shard.jobs_in_flight;
    shard.jobs.push_back(std::move(job));
    shard.cv.NotifyAll();
  }
  {
    util::MutexLock lock(flush_mu_);
    while (inflight_ != 0) flush_cv_.Wait(flush_mu_);
  }
  next_batch_ = 0;
  next_ordinal_ = 0;
  last_timestamp_ = -std::numeric_limits<double>::infinity();
  ingested_since_start_ = false;
}

Status ShardedEngine::RunControlJob(int shard, BatchJob job) {
  // Settle everything accepted so far: control jobs observe (or install)
  // a quiescent shard, and Flush proves every application leg ran.
  Flush();
  Status status;
  job.control_status = &status;
  {
    util::MutexLock lock(flush_mu_);
    ++inflight_;
  }
  Shard& target = *shards_[static_cast<size_t>(shard)];
  {
    util::MutexLock lock(target.mu);
    ++target.jobs_in_flight;
    target.jobs.push_back(std::move(job));
    target.cv.NotifyAll();
  }
  {
    // The worker writes `status` under flush_mu_ before its decrement, so
    // observing inflight_ == 0 under the same lock orders the read.
    util::MutexLock lock(flush_mu_);
    while (inflight_ != 0) flush_cv_.Wait(flush_mu_);
  }
  return status;
}

Status ShardedEngine::SnapshotShard(int shard, const std::string& path) {
  util::MutexLock infer_lock(infer_mu_);
  if (shutdown_) {
    return Status::FailedPrecondition("SnapshotShard after Shutdown");
  }
  if (shard < 0 || shard >= options_.num_shards) {
    return Status::InvalidArgument(internal::StrCat(
        "SnapshotShard: shard ", shard, " out of range [0, ",
        options_.num_shards, ")"));
  }
  BatchJob job;
  job.op = BatchJob::Op::kSnapshot;
  job.snapshot_path = path;
  // The engine-level numbering is captured under infer_mu_ — the lock
  // that advances it — and rides into the image so a restored engine
  // resumes the batch/ordinal sequence exactly where this one stood.
  job.snap_next_batch = next_batch_;
  job.snap_next_ordinal = next_ordinal_;
  return RunControlJob(shard, std::move(job));
}

Status ShardedEngine::RestoreShard(int shard, const std::string& path) {
  util::MutexLock infer_lock(infer_mu_);
  if (shutdown_) {
    return Status::FailedPrecondition("RestoreShard after Shutdown");
  }
  if (shard < 0 || shard >= options_.num_shards) {
    return Status::InvalidArgument(internal::StrCat(
        "RestoreShard: shard ", shard, " out of range [0, ",
        options_.num_shards, ")"));
  }
  // Same hazard ResetState aborts on, surfaced as Status here: rewinding
  // replay watermarks under an at-least-once transport would let a held
  // pre-restore re-delivery land in the restored epoch as fresh state. A
  // virgin engine is exempt — nothing was ever sent, so there is nothing
  // to re-deliver — which is exactly the crash-rejoin shape: a fresh
  // process restores every shard, then replays the tail.
  if (!transport_->exactly_once() && ingested_since_start_) {
    return Status::FailedPrecondition(
        "RestoreShard on an engine that has already ingested under an "
        "at-least-once transport: a held re-delivery could be accepted by "
        "the rewound replay watermarks; restore into a fresh engine");
  }
  auto snap_or = snapshot::ReadShardSnapshot(path);
  if (!snap_or.ok()) return snap_or.status();
  auto snap = std::make_shared<const snapshot::ShardSnapshot>(
      std::move(*snap_or));
  // Topology validation before anything mutates: the image must match
  // this engine, this shard, and this partition exactly.
  if (snap->shard != shard) {
    return Status::InvalidArgument(internal::StrCat(
        "snapshot is for shard ", snap->shard, ", not shard ", shard));
  }
  if (snap->num_shards != options_.num_shards) {
    return Status::InvalidArgument(internal::StrCat(
        "snapshot taken under ", snap->num_shards, " shards; engine has ",
        options_.num_shards));
  }
  const auto& config = model_->config();
  if (snap->num_nodes != config.num_nodes ||
      snap->mailbox_slots != config.mailbox_slots ||
      snap->mail_dim != config.embedding_dim ||
      snap->state_dim != config.embedding_dim) {
    return Status::InvalidArgument(internal::StrCat(
        "snapshot geometry (nodes=", snap->num_nodes,
        ", slots=", snap->mailbox_slots, ", mail_dim=", snap->mail_dim,
        ", state_dim=", snap->state_dim,
        ") does not match the engine's model config"));
  }
  const int64_t owned =
      partition_->owned_count[static_cast<size_t>(shard)];
  if (snap->owned_nodes != owned) {
    return Status::InvalidArgument(internal::StrCat(
        "snapshot owns ", snap->owned_nodes, " nodes; shard ", shard,
        " owns ", owned, " under this partition"));
  }
  const int64_t restored_batch = snap->next_batch;
  const int64_t restored_ordinal = snap->next_ordinal;
  const double restored_timestamp = snap->slice.latest_timestamp;
  BatchJob job;
  job.op = BatchJob::Op::kRestore;
  job.restore = std::move(snap);
  APAN_RETURN_NOT_OK(RunControlJob(shard, std::move(job)));
  // Adopt the image's numbering. Restoring a consistent set (one image
  // per shard, all captured at the same flushed point) writes the same
  // values num_shards times — idempotent; the caller then replays events
  // from this batch watermark to catch up to the present.
  next_batch_ = restored_batch;
  next_ordinal_ = restored_ordinal;
  last_timestamp_ = restored_timestamp;
  return Status::OK();
}

void ShardedEngine::SetShardDown(int shard, bool down) {
  util::MutexLock infer_lock(infer_mu_);
  if (shutdown_) return;
  APAN_CHECK_MSG(shard >= 0 && shard < options_.num_shards,
                 "SetShardDown: shard id out of range");
  // Flush first so the flag flips at a quiescent point: no in-flight
  // batch straddles the transition, so every batch sees one consistent
  // up/down view at ingest. (Marking a shard up again without a restore
  // or reset is only sound if it never missed a batch — its slice
  // watermark must match the engine's numbering.)
  Flush();
  shard_down_[static_cast<size_t>(shard)].store(down,
                                                std::memory_order_relaxed);
}

void ShardedEngine::Shutdown() {
  util::MutexLock shutdown_lock(shutdown_mu_);
  if (joined_) return;
  {
    util::MutexLock lock(infer_mu_);
    shutdown_ = true;
  }
  // Drain everything first — shutting down never loses accepted mail.
  Flush();
  // Then drain the transport *before* the workers go away: a socket lane
  // (or a fault decorator's delay buffer) can still hold frames after
  // Flush — necessarily re-deliveries, since Flush proved every batch
  // applied — and the workers must stay alive to receive and drop them;
  // stopping the transport also guarantees no delivery callback runs
  // into a dead engine.
  transport_->Stop();
  for (auto& shard : shards_) {
    util::MutexLock lock(shard->mu);
    shard->closed = true;
    shard->cv.NotifyAll();
  }
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
  joined_ = true;
}

ShardedEngine::Stats ShardedEngine::stats() const {
  // A facade over the registry counters (the mutexed Stats fields these
  // summed were migrated to per-shard counter cells). Relaxed sums: exact
  // after Flush, near-point-in-time while running — same contract the
  // callers already had, minus the flush_mu_ contention.
  Stats s;
  s.batches_ingested = ins_.batches_ingested->Value();
  s.batches_propagated = ins_.batches_propagated->Value();
  s.batches_rejected = ins_.batches_rejected->Value();
  s.batches_invalid = ins_.batches_invalid->Value();
  s.mails_routed = ins_.mails_routed->Value();
  s.mails_cross_shard = ins_.mails_cross_shard->Value();
  s.mails_dropped = ins_.mails_dropped->Value();
  s.frontier_requests = ins_.frontier_requests->Value();
  s.frontier_nodes_forwarded = ins_.frontier_nodes_forwarded->Value();
  s.duplicates_dropped = ins_.duplicates_dropped->Value();
  s.events_shed = ins_.events_shed->Value();
  s.sends_shed = ins_.sends_shed->Value();
  return s;
}

}  // namespace serve
}  // namespace apan
