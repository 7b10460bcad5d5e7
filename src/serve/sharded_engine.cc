#include "serve/sharded_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <span>
#include <tuple>
#include <utility>

#include "tensor/arena.h"

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
  // The transport comes up before the workers: a worker's very first job
  // may Send.
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
  const auto d = static_cast<size_t>(model_->config().embedding_dim);
  SyncScratch& sync = sync_;
  if (sync.jobs.empty()) sync.jobs.resize(static_cast<size_t>(num_shards));
  {
    // ---- Synchronous link: shard-parallel encoding over local state. ----
    // Every buffer below is reused from the previous batch: once warm,
    // the caller allocates only the result's scores, the pool handoffs
    // and the records that move to the workers.
    APAN_TRACE_SPAN("sync");

    // Deduplicate nodes: each node's embedding is generated once per batch
    // (paper §3.2). src/dst rows hold first-appearance numbers until the
    // unique set is split by owner shard below.
    sync.index.Clear();
    sync.unique_nodes.clear();
    sync.src_rows.resize(events.size());
    sync.dst_rows.resize(events.size());
    const auto intern = [&sync](graph::NodeId v) {
      const auto [u, inserted] = sync.index.Insert(
          v, static_cast<uint32_t>(sync.unique_nodes.size()));
      if (inserted) sync.unique_nodes.push_back(v);
      return static_cast<int64_t>(u);
    };
    for (size_t i = 0; i < events.size(); ++i) {
      sync.src_rows[i] = intern(events[i].src);
      sync.dst_rows[i] = intern(events[i].dst);
    }

    // Split the unique set by owner shard. Each shard's rows sit
    // contiguously in `embeddings`, in shard order, so its encode writes
    // one block and nothing is scattered afterwards.
    const size_t unique = sync.unique_nodes.size();
    for (auto& shard : shards_) shard->encode.nodes.clear();
    sync.row_of.resize(unique);
    for (size_t u = 0; u < unique; ++u) {
      const graph::NodeId v = sync.unique_nodes[u];
      auto& nodes =
          shards_[static_cast<size_t>(partition_->ShardOf(v))]->encode.nodes;
      sync.row_of[u] = static_cast<uint32_t>(nodes.size());
      nodes.push_back(v);
    }
    sync.active.clear();
    size_t first_row = 0;
    for (int s = 0; s < num_shards; ++s) {
      EncodeScratch& scratch = shards_[static_cast<size_t>(s)]->encode;
      scratch.first_row = first_row;
      first_row += scratch.nodes.size();
      if (!scratch.nodes.empty()) sync.active.push_back(s);
    }
    for (size_t u = 0; u < unique; ++u) {
      const int s = partition_->ShardOf(sync.unique_nodes[u]);
      sync.row_of[u] += static_cast<uint32_t>(
          shards_[static_cast<size_t>(s)]->encode.first_row);
    }
    for (size_t i = 0; i < events.size(); ++i) {
      sync.src_rows[i] = sync.row_of[static_cast<size_t>(sync.src_rows[i])];
      sync.dst_rows[i] = sync.row_of[static_cast<size_t>(sync.dst_rows[i])];
    }
    if (sync.embeddings.size() < unique * d) {
      sync.embeddings.resize(unique * d);
    }

    // Encode each shard's slice concurrently against that shard's own
    // state store — replicated weights over partitioned state, so the
    // only cache lines an encode touches are the shard's private rows and
    // its own block of `embeddings`.
    float* const embeddings = sync.embeddings.data();
    const auto encode_shard = [this, d, embeddings](int s) {
      // The time-kernel positional mode evaluates Φ(Δt) as a tensor: no
      // autograd, and an arena per pool thread.
      tensor::NoGradGuard task_no_grad;
      tensor::ArenaScope task_arena;
      APAN_TRACE_SPAN("encode");
      Stopwatch encode_watch;
      Shard& shard = *shards_[static_cast<size_t>(s)];
      EncodeScratch& scratch = shard.encode;
      // Only the read holds the state lock: it copies into the scratch,
      // so the forward pass runs unlocked and a worker's merge into this
      // shard's store waits for the gather alone, not for the attention.
      {
        util::MutexLock state_lock(shard.state_mu);
        shard.store->ReadInto(scratch.nodes, &scratch.read);
      }
      model_->weights().EncodeRead(&scratch.read, &scratch.forward,
                                   embeddings + scratch.first_row * d);
      if (stage_metrics_) {
        ins_.stage_encode->Record(s, encode_watch.ElapsedMillis());
      }
    };
    // The caller thread encodes one slice itself instead of submitting
    // them all and blocking: at 1 shard the synchronous path pays zero
    // pool handoffs (a handoff per batch was a 10x p99 wakeup tail), and
    // at N shards the caller overlaps its slice with the pool's N-1.
    sync.encodes.clear();
    for (size_t i = 0; i + 1 < sync.active.size(); ++i) {
      const int s = sync.active[i];
      sync.encodes.push_back(encode_pool_.Submit([&encode_shard, s] {
        encode_shard(s);
      }));
    }
    if (!sync.active.empty()) encode_shard(sync.active.back());
    for (auto& f : sync.encodes) f.get();

    // Decode straight from the embedding rows (no gathered tensors).
    result.scores.resize(events.size());
    model_->weights().ScoreLinks(embeddings, sync.src_rows, sync.dst_rows,
                                 result.scores.data());

    // Package the asynchronous work while we still hold the embeddings:
    // every record is homed on its source endpoint's shard, and each
    // shard's block is sized once.
    sync.homed.assign(static_cast<size_t>(num_shards), 0);
    for (const graph::Event& e : events) {
      ++sync.homed[static_cast<size_t>(partition_->ShardOf(e.src))];
    }
    for (int s = 0; s < num_shards; ++s) {
      const size_t n = sync.homed[static_cast<size_t>(s)];
      BatchJob& job = sync.jobs[static_cast<size_t>(s)];
      job = BatchJob{};  // a dropped batch left its records behind
      job.records.events.reserve(n);
      job.records.event_index.reserve(n);
      job.records.z.reserve(2 * n * d);
    }
    for (size_t i = 0; i < events.size(); ++i) {
      core::RecordRows& block =
          sync.jobs[static_cast<size_t>(partition_->ShardOf(events[i].src))]
              .records;
      block.events.push_back(events[i]);
      // φ reads the feature row of the id the graph slices store.
      if (events[i].edge_id < 0) {
        block.events.back().edge_id =
            next_ordinal_ + static_cast<int64_t>(i);
      }
      block.event_index.push_back(static_cast<int64_t>(i));
      const float* zs = embeddings + sync.src_rows[i] * static_cast<int64_t>(d);
      const float* zd = embeddings + sync.dst_rows[i] * static_cast<int64_t>(d);
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
  std::vector<char>& down = sync.down;
  down.resize(static_cast<size_t>(num_shards));
  int up_count = 0;
  for (int s = 0; s < num_shards; ++s) {
    down[static_cast<size_t>(s)] =
        shard_down_[static_cast<size_t>(s)].load(std::memory_order_relaxed)
            ? 1
            : 0;
    up_count += down[static_cast<size_t>(s)] == 0 ? 1 : 0;
  }

  std::vector<BatchJob>& jobs = sync.jobs;
  for (int s = 0; s < num_shards; ++s) {
    jobs[static_cast<size_t>(s)].ctx = ctx;
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
        EnqueueMessage(t, std::move(empty));
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
  std::deque<ShardPartial> mail_run;
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
      // Messages first: applying a finished batch is cheap and frees its
      // partials; jobs do the expensive sampling. The whole queued run is
      // taken at once (one lock round trip): no message handler blocks.
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
      for (ShardPartial& partial : mail_run) {
        OnMail(shard_id, std::move(partial));
      }
      mail_run.clear();
    } else {
      ProcessJob(shard_id, std::move(job));
    }
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
      case BatchJob::Op::kCheckCaughtUp:
        status = CheckCaughtUpLocal(shard_id, job);
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
  // The append comes before anything that can wait: foreign expansions
  // of batch b+1 wait for exactly this watermark (the progress argument
  // in the header).
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

  // φ + N over this shard's home events. Propagation is plain float math
  // over the worker's reused buffers; no tensor is allocated here.
  Shard& shard = *shards_[static_cast<size_t>(shard_id)];
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
  const int num_shards = options_.num_shards;
  const int64_t batch = job.ctx->batch;
  const int64_t ordinal_limit = job.ctx->base_ordinal;
  const std::vector<graph::Event>& events = job.records.events;
  double wait_ms = 0.0;  // blocked on foreign watermarks, excluded below
  int64_t foreign_reads = 0;
  int64_t foreign_nodes = 0;

  // The hop-1 frontier is every record's seeds {src, dst}. A hop's
  // frontier is its slots in record-major order; slot order is what fixes
  // the reassembled expansion order to exactly the monolithic per-record
  // KHopExpand sequence.
  x.slots.clear();
  for (size_t i = 0; i < num_records; ++i) {
    x.slots.push_back({static_cast<uint32_t>(i), events[i].src});
    x.slots.push_back({static_cast<uint32_t>(i), events[i].dst});
  }
  x.staged.clear();
  x.staged_record.clear();
  for (int32_t hop = 1; hop <= num_hops && !x.slots.empty(); ++hop) {
    // Group the slots by owner with a counting sort keyed by the owner's
    // rotation rank from this shard, so the own slice (which never waits)
    // is read first. A slot's sampled row is its position in the groups.
    const size_t num_slots = x.slots.size();
    x.slot_row.resize(num_slots);
    x.group_begin.assign(static_cast<size_t>(num_shards) + 1, 0);
    for (size_t s = 0; s < num_slots; ++s) {
      const int owner = graph_.OwnerOf(x.slots[s].node);
      const auto rank = static_cast<uint32_t>(
          (owner - shard_id + num_shards) % num_shards);
      x.slot_row[s] = rank;
      ++x.group_begin[rank + 1];
    }
    for (int r = 0; r < num_shards; ++r) {
      x.group_begin[static_cast<size_t>(r) + 1] +=
          x.group_begin[static_cast<size_t>(r)];
    }
    x.cursor.assign(x.group_begin.begin(), x.group_begin.end() - 1);
    x.queries.resize(num_slots);
    for (size_t s = 0; s < num_slots; ++s) {
      const auto row = static_cast<uint32_t>(x.cursor[x.slot_row[s]]++);
      x.slot_row[s] = row;
      x.queries[row] = {x.slots[s].node,
                        events[x.slots[s].record].timestamp};
    }

    // One slice read per owner: SampleAsOf waits until the owner has
    // appended batch b-1, then samples all of its slots under one lock
    // acquisition. Frontiers owned by a down shard sample empty, checked
    // before any wait — a down owner's watermark never advances.
    x.samples.Clear();
    for (int r = 0; r < num_shards; ++r) {
      const size_t begin = x.group_begin[static_cast<size_t>(r)];
      const size_t end = x.group_begin[static_cast<size_t>(r) + 1];
      if (begin == end) continue;
      const int owner = (shard_id + r) % num_shards;
      if (owner != shard_id &&
          shard_down_[static_cast<size_t>(owner)].load(
              std::memory_order_relaxed)) {
        for (size_t q = begin; q < end; ++q) x.samples.EndRow();
        continue;
      }
      wait_ms += graph_.SampleAsOf(
          owner, batch,
          std::span(x.queries).subspan(begin, end - begin), fanout,
          ordinal_limit, &x.samples);
      if (owner != shard_id) {
        ++foreign_reads;
        foreign_nodes += static_cast<int64_t>(end - begin);
      }
    }

    // Reassemble in slot order and build the next frontier.
    x.next_slots.clear();
    for (size_t s = 0; s < num_slots; ++s) {
      const uint32_t record = x.slots[s].record;
      for (const graph::TemporalNeighbor& n : x.samples.Row(x.slot_row[s])) {
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

  if (foreign_reads > 0) {
    ins_.frontier_requests->Add(shard_id, foreign_reads);
    ins_.frontier_nodes_forwarded->Add(shard_id, foreign_nodes);
  }
  if (stage_metrics_) {
    // stage.sample is this shard's own expansion work; the time blocked
    // on foreign watermarks is stage.frontier_wait.
    if (foreign_reads > 0) {
      ins_.stage_frontier_wait->Record(shard_id, wait_ms);
    }
    ins_.stage_sample->Record(
        shard_id, std::max(0.0, expand_watch.ElapsedMillis() - wait_ms));
  }
}

void ShardedEngine::SendPartial(int from_shard, int to_shard,
                                ShardPartial partial) {
  const int64_t batch = partial.batch;
  const bool shed =
      shard_down_[static_cast<size_t>(from_shard)].load(
          std::memory_order_relaxed) ||
      shard_down_[static_cast<size_t>(to_shard)].load(
          std::memory_order_relaxed);
  if (!shed) {
    if (transport_->Send(from_shard, to_shard, std::move(partial)).ok()) {
      return;
    }
    // The lane is dead beyond repair: mark the peer down so subsequent
    // traffic sheds cheaply, and keep serving the healthy shards instead
    // of aborting the process.
    shard_down_[static_cast<size_t>(to_shard)].store(
        true, std::memory_order_relaxed);
  }
  // Degraded path. Without this partial the recipient can never reach
  // its sender-count barrier, so if the batch counted the recipient's
  // application leg at ingest, retire it here or Flush wedges. (A batch
  // ingested while the recipient was already down never counted it; the
  // retire is then a no-op.)
  ins_.sends_shed->Add(to_shard, 1);
  RetireApplyLeg(to_shard, batch, /*merged=*/false);
}

void ShardedEngine::RetireApplyLeg(int shard, int64_t batch, bool merged) {
  util::MutexLock lock(flush_mu_);
  auto remaining = apply_remaining_.find(batch);
  // erase() doubles as the dedupe: a second retirement of the same
  // (batch, shard) — another sender's shed partial, or a held duplicate
  // merging after the shed — finds the leg already retired.
  if (remaining == apply_remaining_.end() ||
      remaining->second.erase(shard) == 0) {
    return;
  }
  if (remaining->second.empty()) {
    apply_remaining_.erase(remaining);
    // Counted under flush_mu_, before the notify, so a caller gated on
    // Flush() sees it.
    if (merged) ins_.batches_propagated->Add(shard, 1);
  }
  if (--inflight_ == 0) flush_cv_.NotifyAll();
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
  APAN_CHECK_MSG(valid_shard(message.from_shard),
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
    SendPartial(from_shard, t, std::move(out));
  }
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
  // A leg already retired means the shed compensation beat a late merge
  // here: an at-least-once transport delivered a held duplicate of a
  // partial whose original was shed when the peer went down. The merge's
  // writes are idempotent against the degraded outcome, and the retire
  // is a no-op.
  RetireApplyLeg(shard_id, batch, /*merged=*/true);
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
  // batch numbering restarts at 0, so the merge cursor rewinds with it.
  shard.pending.clear();
  shard.next_merge = 0;
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
  snap.next_batch = job.next_batch;
  snap.next_ordinal = job.next_ordinal;
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
  // Replay/dedup state, rewound to the image's flushed point: pending is
  // structurally empty there (Flush settled every barrier), and the merge
  // cursor resumes exactly where the capture stood.
  shard.pending.clear();
  shard.next_merge = snap.next_merge;
  return Status::OK();
}

Status ShardedEngine::CheckCaughtUpLocal(int shard_id, const BatchJob& job) {
  const int64_t watermark = graph_.watermark(shard_id);
  const int64_t next_merge = shards_[static_cast<size_t>(shard_id)]->next_merge;
  if (watermark < job.next_batch || next_merge < job.next_batch) {
    return Status::FailedPrecondition(internal::StrCat(
        "shard ", shard_id, " missed batches: slice watermark ", watermark,
        ", merge cursor ", next_merge, ", engine's next batch ",
        job.next_batch, " (ResetState or RestoreShard it first)"));
  }
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
  // merge state is only ever touched by its own thread.
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
  job.next_batch = next_batch_;
  job.next_ordinal = next_ordinal_;
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

Status ShardedEngine::SetShardDown(int shard, bool down) {
  util::MutexLock infer_lock(infer_mu_);
  if (shutdown_) {
    return Status::FailedPrecondition("SetShardDown after Shutdown");
  }
  if (shard < 0 || shard >= options_.num_shards) {
    return Status::InvalidArgument(internal::StrCat(
        "SetShardDown: shard ", shard, " out of range [0, ",
        options_.num_shards, ")"));
  }
  // Marking a shard up is only sound if it never missed a batch: a
  // foreign expansion of batch b waits for its watermark to reach b, and
  // its next append must be exactly the engine's next batch. The check
  // runs on the shard's worker (the merge cursor is worker-confined) and
  // flushes first, like every control job.
  if (!down) {
    BatchJob job;
    job.op = BatchJob::Op::kCheckCaughtUp;
    job.next_batch = next_batch_;
    APAN_RETURN_NOT_OK(RunControlJob(shard, std::move(job)));
  }
  // Flush first so the flag flips at a quiescent point: no in-flight
  // batch straddles the transition, so every batch sees one consistent
  // up/down view at ingest.
  Flush();
  shard_down_[static_cast<size_t>(shard)].store(down,
                                                std::memory_order_relaxed);
  return Status::OK();
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
