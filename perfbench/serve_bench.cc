// Serving benchmark: one workload of the sharded engine per run.
//
//   serve_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// A single generator thread drives serve::ShardedEngine over the inproc
// transport with a synthetic stream drawn from --seed. Every run first
// checks the engine against the sequential oracle (perfbench/replay.h)
// on a warm-up prefix, then measures:
//
//   open loop   batches sent on a fixed schedule at the workload's rate;
//               score latency is timed from each batch's due time, apply
//               lag from its InferBatch return until stats() reports it
//               propagated (polled while the generator waits);
//   saturated   batches sent back to back, each window ending at Flush.
//
// --trace 0 prints the end-to-end metrics (stage metrics off); those in
// the result line are CPU times, the wall-clock ones are printed beside
// them. --trace 1 prints the per-layer metrics: core/graph rows from a span-traced
// sequential replay of the same stream, serve rows from an engine run
// with stage metrics on, and the tracing overhead against an untraced
// twin. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// perfbench/README.md documents the workloads and metrics.

#include <sys/prctl.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/apan_model.h"
#include "data/synthetic.h"
#include "graph/node_partition.h"
#include "obs/metrics.h"
#include "perfbench/bench_stats.h"
#include "perfbench/replay.h"
#include "serve/sharded_engine.h"
#include "tensor/kernels.h"

namespace apan {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point origin) {
  return std::chrono::duration<double, std::milli>(Clock::now() - origin)
      .count();
}

/// CPU time of the calling thread or of the whole process, in ms. The
/// kernel leaves out time the hypervisor stole from a vCPU, so these
/// clocks measure the program's work where wall time also measures the
/// host's other tenants.
double CpuMs(clockid_t clock) {
  timespec t{};
  clock_gettime(clock, &t);
  return 1e3 * static_cast<double>(t.tv_sec) +
         1e-6 * static_cast<double>(t.tv_nsec);
}
double ThreadCpuMs() { return CpuMs(CLOCK_THREAD_CPUTIME_ID); }
double ProcessCpuMs() { return CpuMs(CLOCK_PROCESS_CPUTIME_ID); }

// ---- Workloads --------------------------------------------------------------

struct Workload {
  const char* name;
  int shards;
  int32_t hops;
  bool locality;       ///< Locality partition from the warm-up prefix.
  size_t batch;
  data::SyntheticConfig stream;  ///< Base stream, tiled in time.
  int64_t warmup_events;
  int64_t check_batches;  ///< Warm-up batches flushed one by one.
  double open_rate;       ///< Open-loop events/s (absolute).
  double sized_rate;      ///< Events/s that sizes the saturated phase.
};

// Rates are absolute and fixed. open_rate is a third to a half of the
// saturated events/s this benchmark measured on a 4-vCPU Xeon VM (AVX2,
// GCC 12.2): paper_x1 134k-226k, fanout_x2 22k-31k, microbatch_x2
// 28k-110k, the low ends while the host stole up to 27% of vCPU time.
// The margin keeps host contention from pushing the open loop past
// saturation, where latency would measure run length instead. sized_rate
// turns --seconds into a fixed amount of saturated work: a faster engine
// finishes it sooner instead of doing more of it, so the event count,
// and with it the graph's memory, depends only on the seed and --seconds.
std::vector<Workload> Workloads() {
  std::vector<Workload> out;
  {
    // The paper's single-worker deployment; state fits in L2.
    data::SyntheticConfig c = data::SyntheticConfig::WikipediaLike();
    out.push_back({"paper_x1", 1, 1, false, 200, c, 15000, 20, 70000.0,
                   120000.0});
  }
  {
    // ~200k-node general graph, 2 hops: state + graph exceed L3. Batches
    // of 20, not 200: at 200 the open loop sends ~60 batches/s, one p99
    // window per run, and p99 spread 1.5-7.7 ms across seeds on a quiet
    // host; at 20 it gets six windows.
    data::SyntheticConfig c = data::SyntheticConfig::AlipayLike();
    c.num_users = 200000;
    c.num_events = 200000;
    out.push_back({"fanout_x2", 2, 2, true, 20, c, 50000, 50, 8000.0,
                   16000.0});
  }
  {
    // Dense reddit-like stream in fraud-scoring micro-batches.
    data::SyntheticConfig c = data::SyntheticConfig::RedditLike();
    out.push_back({"microbatch_x2", 2, 1, false, 20, c, 10000, 50, 20000.0,
                   50000.0});
  }
  return out;
}

/// The base stream repeated end to end, each pass shifted past the
/// previous one in time so timestamps never decrease. Edge ids repeat,
/// so the feature store stays the base stream's size.
class TiledStream {
 public:
  explicit TiledStream(data::Dataset base) : base_(std::move(base)) {
    period_ = base_.events.back().timestamp + 1.0;
  }
  std::vector<graph::Event> Batch(int64_t first, size_t count) const {
    std::vector<graph::Event> out(count);
    const auto n = static_cast<int64_t>(base_.events.size());
    for (size_t i = 0; i < count; ++i) {
      const int64_t k = first + static_cast<int64_t>(i);
      graph::Event e = base_.events[static_cast<size_t>(k % n)];
      e.timestamp += static_cast<double>(k / n) * period_;
      out[i] = e;
    }
    return out;
  }
  const data::Dataset& base() const { return base_; }

 private:
  data::Dataset base_;
  double period_ = 0.0;
};

// ---- Host -------------------------------------------------------------------

struct Host {
  int nproc = 0;
  std::string isa;
  int thread_budget = 0;  ///< Generator + shard workers + encode pool.
};

size_t EncodeThreads(const Workload& w) {
  return static_cast<size_t>(std::max(1, w.shards - 1));
}

Host DescribeHost(const Workload& w) {
  Host h;
  h.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  h.isa = tensor::kernels::IsaName(tensor::kernels::ActiveIsa());
  h.thread_budget = 1 + w.shards + static_cast<int>(EncodeThreads(w));
  return h;
}

std::optional<double> PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::stringstream text;
  text << in.rdbuf();
  return ParsePeakRssMb(text.str());
}

/// Non-idle and stolen vCPU ticks so far, from the first line of
/// /proc/stat ("cpu user nice system idle iowait irq softirq steal ...").
struct CpuTicks {
  uint64_t busy = 0;   ///< user + nice + system + irq + softirq + steal
  uint64_t steal = 0;
};
CpuTicks ReadCpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t f[8] = {};
  in >> cpu;
  for (uint64_t& v : f) in >> v;
  CpuTicks t;
  if (in && cpu == "cpu") {
    t.busy = f[0] + f[1] + f[2] + f[5] + f[6] + f[7];
    t.steal = f[7];
  }
  return t;
}

/// Share of the busy vCPU time between `a` and `b` that the hypervisor
/// took away. Printed with every run: latency tails on a shared host move
/// with it.
void PrintSteal(const CpuTicks& a, const CpuTicks& b) {
  const uint64_t busy = b.busy - a.busy;
  std::printf("host steal during measurement: %.1f%% of busy vCPU time\n",
              busy > 0 ? 100.0 * static_cast<double>(b.steal - a.steal) /
                             static_cast<double>(busy)
                       : 0.0);
}

/// Open-loop batches per percentile window: p99 of 1,100 samples has 11
/// beyond it, above the ten the tail rule asks for.
constexpr size_t kLatencyWindow = 1100;

// ---- Result line ------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  /// A metric of the result line, also printed by name and unit.
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    metrics_.push_back({name, value, unit});
    Print(name, value, unit, note);
  }
  /// Printed beside the metrics but left out of the result line.
  static void Print(const std::string& name, double value,
                    const std::string& unit, const std::string& note = "") {
    std::printf("metric %-34s %.6g %s%s%s\n", name.c_str(), value,
                unit.c_str(), note.empty() ? "" : "  ", note.c_str());
  }
  /// Open-loop percentiles: the median over windows of kLatencyWindow
  /// batches, with the smallest window's sample count and tail.
  void AddPercentile(const std::string& name, const std::vector<double>& values,
                     double q, const std::string& unit) {
    const WindowedPercentile p = Windowed(name, values, q);
    Add(name, p.value, unit, Note(p));
  }
  /// The same, printed beside the metrics but left out of the result line.
  void PrintPercentile(const std::string& name,
                       const std::vector<double>& values, double q,
                       const std::string& unit) {
    const WindowedPercentile p = Windowed(name, values, q);
    Print(name, p.value, unit, Note(p));
  }
  void Fail(const std::string& why) {
    correct_ = false;
    std::printf("CHECK FAILED: %s\n", why.c_str());
  }
  void PrintJson(int64_t attempted, int64_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct_ ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value
                                                        : 0.0;
      std::snprintf(value, sizeof(value), "%.17g", v);
      if (i > 0) out += ", ";
      out += "\"" + metrics_[i].name + "\": {\"value\": " + value +
             ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
  }

 private:
  WindowedPercentile Windowed(const std::string& name,
                              const std::vector<double>& values, double q) {
    const WindowedPercentile p = NearestRankWindowed(values, q, kLatencyWindow);
    if (q >= 0.99 && !TailSupported(p.smallest)) Fail(name + ": tail too thin");
    return p;
  }
  static std::string Note(const WindowedPercentile& p) {
    char note[128];
    std::snprintf(note, sizeof(note),
                  "(median of %zu windows; n>=%zu, %zu beyond, per window)",
                  p.windows, p.smallest.samples, p.smallest.beyond);
    return note;
  }

  std::vector<Metric> metrics_;
  bool correct_ = true;
};

// ---- Engine set-up ----------------------------------------------------------

core::ApanConfig ModelConfig(const Workload& w, const data::Dataset& base) {
  core::ApanConfig config;
  config.num_nodes = base.num_nodes;
  config.embedding_dim = base.feature_dim();
  config.propagation_hops = w.hops;
  config.dropout = 0.0f;
  return config;
}

constexpr uint64_t kModelSeed = 2021;

struct Deployment {
  std::unique_ptr<core::ApanModel> model;
  std::unique_ptr<serve::ShardedEngine> engine;
};

struct SetupTimes {
  std::vector<double> setup_s;      ///< Wall time.
  std::vector<double> setup_cpu_s;  ///< CPU time of the set-up thread.
  std::vector<double> partition_s;
};

/// Builds model + partition + engine; times it into `times`.
Deployment SetUp(const Workload& w, const TiledStream& stream,
                 const std::vector<graph::Event>& warmup, bool stage_metrics,
                 SetupTimes* times) {
  const core::ApanConfig config = ModelConfig(w, stream.base());
  const double cpu_start = ThreadCpuMs();
  const Clock::time_point start = Clock::now();
  Deployment d;
  d.model = std::make_unique<core::ApanModel>(
      config, &stream.base().features, kModelSeed);
  const Clock::time_point part_start = Clock::now();
  serve::ShardedEngine::Options options;
  options.num_shards = w.shards;
  options.partition =
      w.locality ? graph::NodePartition::BuildLocality(config.num_nodes,
                                                        w.shards, warmup)
                 : graph::NodePartition::BuildDefault(config.num_nodes,
                                                      w.shards);
  const double part_ms = MsSince(part_start);
  options.encode_threads = EncodeThreads(w);
  options.stage_metrics = stage_metrics;
  d.engine = std::make_unique<serve::ShardedEngine>(d.model.get(), options);
  times->setup_s.push_back(MsSince(start) / 1000.0);
  times->setup_cpu_s.push_back((ThreadCpuMs() - cpu_start) / 1000.0);
  times->partition_s.push_back(part_ms / 1000.0);
  return d;
}

/// Sets up repeatedly (at least 5 times, until ~0.5 s spent, at most 200)
/// and keeps the last deployment; set-up time is reported as the median.
Deployment SetUpRepeated(const Workload& w, const TiledStream& stream,
                         const std::vector<graph::Event>& warmup,
                         bool stage_metrics, SetupTimes* times) {
  const Clock::time_point start = Clock::now();
  Deployment d;
  for (int rep = 0; rep < 200; ++rep) {
    d = Deployment{};  // release the previous engine before the next
    d = SetUp(w, stream, warmup, stage_metrics, times);
    if (rep >= 4 && MsSince(start) > 500.0) break;
  }
  return d;
}

// ---- Oracle and output check ------------------------------------------------

struct OracleResult {
  std::vector<std::vector<float>> check_scores;  ///< First check_batches.
  std::vector<int64_t> valid_count;              ///< Per node, after warm-up.
  std::vector<double> newest;
  double wall_ms = 0.0;
  std::vector<Span> spans;  ///< Traced replays only.
  ReplayCounts counts;
};

OracleResult RunOracle(const Workload& w, const TiledStream& stream,
                       bool traced) {
  OracleResult out;
  SequentialReplay replay(ModelConfig(w, stream.base()),
                          &stream.base().features, kModelSeed);
  SpanRecorder recorder;
  const Clock::time_point start = Clock::now();
  const int64_t batches = w.warmup_events / static_cast<int64_t>(w.batch);
  for (int64_t b = 0; b < batches; ++b) {
    const auto events = stream.Batch(b * static_cast<int64_t>(w.batch), w.batch);
    std::vector<float> scores = traced ? replay.StepTraced(events, &recorder)
                                       : replay.StepComposed(events);
    if (b < w.check_batches) out.check_scores.push_back(std::move(scores));
  }
  out.wall_ms = MsSince(start);
  const core::Mailbox& mailbox = replay.model().mailbox();
  const int64_t n = replay.model().config().num_nodes;
  out.valid_count.resize(static_cast<size_t>(n));
  out.newest.resize(static_cast<size_t>(n));
  for (graph::NodeId v = 0; v < n; ++v) {
    out.valid_count[static_cast<size_t>(v)] = mailbox.ValidCount(v);
    out.newest[static_cast<size_t>(v)] = mailbox.NewestTimestamp(v);
  }
  out.spans = recorder.spans();
  out.counts = replay.counts();
  return out;
}

/// Largest score gap the check accepts. The engine encodes each shard's
/// slice of a batch separately, the oracle the whole batch at once, so
/// rows can round differently: the gap measured 0 at one shard and
/// 1.8e-7 (a rounding step of a probability) at two.
constexpr double kScoreTolerance = 1e-5;

struct Counters {
  int64_t attempted = 0;
  int64_t failed = 0;
};

/// One InferBatch with failure accounting: a non-OK status, a wrong score
/// count, or a score outside [0, 1] fails the batch.
bool Infer(serve::ShardedEngine& engine, const std::vector<graph::Event>& batch,
           Counters* counters, std::vector<float>* scores = nullptr) {
  ++counters->attempted;
  auto result = engine.InferBatch(batch);
  bool ok = result.ok() && result->scores.size() == batch.size();
  if (ok) {
    for (float s : result->scores) ok = ok && s >= 0.0f && s <= 1.0f;
    if (scores != nullptr) *scores = std::move(result->scores);
  }
  if (!ok) ++counters->failed;
  return ok;
}

/// Warm-up prefix with the output check: the first check_batches are
/// flushed one by one and their scores compared with the oracle; the rest
/// run free; after the final Flush every node's stitched mailbox count
/// and newest timestamp must equal the oracle's.
void WarmUpAndCheck(const Workload& w, const TiledStream& stream,
                    serve::ShardedEngine& engine, const OracleResult& oracle,
                    Counters* counters, Report* report) {
  const int64_t batches = w.warmup_events / static_cast<int64_t>(w.batch);
  const Clock::time_point start = Clock::now();
  double max_gap = 0.0;
  for (int64_t b = 0; b < batches; ++b) {
    const auto events = stream.Batch(b * static_cast<int64_t>(w.batch), w.batch);
    std::vector<float> scores;
    if (!Infer(engine, events, counters, &scores)) continue;
    if (b < w.check_batches) {
      engine.Flush();
      const auto& want = oracle.check_scores[static_cast<size_t>(b)];
      for (size_t i = 0; i < scores.size(); ++i) {
        max_gap = std::max(max_gap,
                           std::abs(static_cast<double>(scores[i]) - want[i]));
      }
    }
  }
  engine.Flush();
  std::printf("phase warm-up: %lld events in %.2f s\n",
              (long long)w.warmup_events, MsSince(start) / 1000.0);
  std::printf("check scores: %lld flushed batches, max |engine - oracle| = %.3g"
              " (tolerance %.0e)\n",
              (long long)w.check_batches, max_gap, kScoreTolerance);
  if (!(max_gap <= kScoreTolerance)) report->Fail("scores differ from oracle");

  int64_t mismatched = 0;
  int64_t nonempty = 0;
  const auto n = static_cast<int64_t>(oracle.valid_count.size());
  for (graph::NodeId v = 0; v < n; ++v) {
    const core::NodeStateStore& store =
        engine.state_store(engine.router().ShardOf(v));
    const int64_t count = store.ValidCount(v);
    nonempty += count > 0 ? 1 : 0;
    const bool same =
        count == oracle.valid_count[static_cast<size_t>(v)] &&
        (count == 0 ||
         store.NewestTimestamp(v) == oracle.newest[static_cast<size_t>(v)]);
    mismatched += same ? 0 : 1;
  }
  std::printf("check mailbox: %lld nodes (%lld hold mail), %lld mismatched "
              "count/newest timestamp\n",
              (long long)n, (long long)nonempty, (long long)mismatched);
  if (mismatched != 0 || nonempty == 0) {
    report->Fail("stitched mailbox differs from oracle");
  }
}

// ---- Open loop --------------------------------------------------------------

struct OpenLoopResult {
  std::vector<double> score_ms;      ///< Return − due time.
  std::vector<double> infer_ms;      ///< InferBatch call duration.
  std::vector<double> infer_cpu_ms;  ///< Caller's CPU time inside the call.
  std::vector<double> call_wait_ms;  ///< Call start − due time.
  std::vector<double> late_ms;       ///< Start − when the generator was free.
  std::vector<double> backlog;       ///< Ingested − propagated at each send.
  std::vector<double> lag_ms;        ///< Return − applied (polled).
  int64_t events = 0;
  double wall_ms = 0.0;
};

/// Poll period while the generator sleeps, and the spin window before a
/// due time. The generator's timer slack is cut to 1 us so a sleep ends
/// close to its request.
constexpr int kPollUs = 50;
constexpr double kSpinMs = 0.2;

/// Sends `num_batches` on the workload's open-loop schedule. Between sends
/// the generator polls stats().batches_propagated to time each batch's
/// apply lag.
OpenLoopResult RunOpenLoop(const Workload& w, const TiledStream& stream,
                           serve::ShardedEngine& engine, int64_t first_event,
                           int64_t num_batches, Counters* counters) {
  OpenLoopResult out;
  const double interval_ms = 1000.0 * static_cast<double>(w.batch) / w.open_rate;
  const int64_t base = engine.stats().batches_propagated;
  ApplyLagTracker lag;
  std::vector<std::vector<graph::Event>> batches;
  batches.reserve(static_cast<size_t>(num_batches));
  for (int64_t b = 0; b < num_batches; ++b) {
    batches.push_back(stream.Batch(first_event + b * static_cast<int64_t>(w.batch),
                                   w.batch));
  }
  prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
  const Clock::time_point origin = Clock::now();
  const double lead_ms = 1.0;
  double free_ms = 0.0;  // when the generator could next send
  for (int64_t b = 0; b < num_batches; ++b) {
    const double due = lead_ms + static_cast<double>(b) * interval_ms;
    // Every poll reads the counter before the clock, so a batch is never
    // credited as applied before the counter showed it.
    serve::ShardedEngine::Stats stats = engine.stats();
    double now = MsSince(origin);
    lag.OnPoll(now, stats.batches_propagated - base);
    while (now < due) {
      // Sleep while the due time is far, so the generator leaves its core
      // to the engine; spin through the last kSpinMs to send on time.
      if (due - now > kSpinMs) {
        std::this_thread::sleep_for(std::chrono::microseconds(kPollUs));
      }
      stats = engine.stats();
      now = MsSince(origin);
      lag.OnPoll(now, stats.batches_propagated - base);
    }
    const double start = now;
    out.late_ms.push_back(start - std::max(due, free_ms));
    out.backlog.push_back(
        static_cast<double>(stats.batches_ingested - stats.batches_propagated));
    const double cpu_start = ThreadCpuMs();
    Infer(engine, batches[static_cast<size_t>(b)], counters);
    out.infer_cpu_ms.push_back(ThreadCpuMs() - cpu_start);
    const double ret = MsSince(origin);
    out.score_ms.push_back(ret - due);
    out.infer_ms.push_back(ret - start);
    out.call_wait_ms.push_back(start - due);
    lag.OnReturn(b, ret);
    free_ms = ret;
    out.events += static_cast<int64_t>(w.batch);
  }
  // Drain: keep polling until every batch's lag is known.
  const double deadline = MsSince(origin) + 60000.0;
  while (!lag.Complete() && MsSince(origin) < deadline) {
    const int64_t propagated = engine.stats().batches_propagated - base;
    lag.OnPoll(MsSince(origin), propagated);
  }
  out.lag_ms = lag.lags_ms();
  engine.Flush();
  out.wall_ms = MsSince(origin);
  return out;
}

// ---- Saturated --------------------------------------------------------------

/// One saturated window: `batches` sent back to back from `first_event`,
/// timed until Flush returns.
struct Window {
  double events_per_s = 0.0;
  double cpu_us_per_event = 0.0;  ///< Process CPU time, all threads.
  double flush_ms = 0.0;
  int64_t events = 0;
};

Window RunWindow(const Workload& w, const TiledStream& stream,
                 serve::ShardedEngine& engine, int64_t first_event,
                 int64_t batches, Counters* counters) {
  std::vector<std::vector<graph::Event>> inputs;
  for (int64_t b = 0; b < batches; ++b) {
    inputs.push_back(
        stream.Batch(first_event + b * static_cast<int64_t>(w.batch), w.batch));
  }
  Window out;
  const double cpu_start = ProcessCpuMs();
  const Clock::time_point start = Clock::now();
  for (const auto& batch : inputs) Infer(engine, batch, counters);
  const Clock::time_point flush = Clock::now();
  engine.Flush();
  out.flush_ms = MsSince(flush);
  out.events = batches * static_cast<int64_t>(w.batch);
  out.events_per_s = static_cast<double>(out.events) / (MsSince(start) / 1000.0);
  out.cpu_us_per_event =
      1000.0 * (ProcessCpuMs() - cpu_start) / static_cast<double>(out.events);
  return out;
}

struct SaturatedResult {
  std::vector<double> window_eps;
  std::vector<double> window_cpu_us;  ///< CPU us per event, per window.
  std::vector<double> flush_ms;
  double wall_ms = 0.0;  ///< Whole phase, input building included.
  int64_t events = 0;
};

SaturatedResult RunSaturated(const Workload& w, const TiledStream& stream,
                             serve::ShardedEngine& engine, int64_t first_event,
                             int windows, int64_t batches_per_window,
                             Counters* counters) {
  SaturatedResult out;
  const Clock::time_point start = Clock::now();
  for (int win = 0; win < windows; ++win) {
    const Window r = RunWindow(w, stream, engine, first_event + out.events,
                               batches_per_window, counters);
    out.window_eps.push_back(r.events_per_s);
    out.window_cpu_us.push_back(r.cpu_us_per_event);
    out.flush_ms.push_back(r.flush_ms);
    out.events += r.events;
  }
  out.wall_ms = MsSince(start);
  return out;
}

void PrintPhases(const OpenLoopResult& open, const SaturatedResult& sat) {
  std::printf("phase open loop: %zu batches, %lld events in %.2f s\n",
              open.score_ms.size(), (long long)open.events, open.wall_ms / 1000.0);
  std::printf("phase saturated: %zu windows, %lld events in %.2f s\n",
              sat.window_eps.size(), (long long)sat.events, sat.wall_ms / 1000.0);
}

/// Writes the replay's spans as Chrome trace_event JSON (one complete
/// event per span; batch and parent ride in args).
void WriteSpans(const std::vector<Span>& spans, const std::string& dir,
                const char* workload, uint64_t seed) {
  const std::string path = dir + "/spans_" + workload + "_" +
                           std::to_string(seed) + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::printf("spans: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"traceEvents\": [");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"batch\": %lld, \"parent\": %d}}",
                 i == 0 ? "" : ",", s.name.c_str(), s.start_ms * 1000.0,
                 (s.end_ms - s.start_ms) * 1000.0, (long long)s.batch, s.parent);
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
  std::printf("spans: %zu written to %s\n", spans.size(), path.c_str());
}

// ---- Run plans --------------------------------------------------------------

struct Plan {
  int64_t open_batches = 0;
  int saturated_windows = 0;
  int64_t window_batches = 0;
};

/// Splits --seconds: 60% open loop, 40% saturated (sized at sized_rate).
/// The open loop never has fewer than one latency window of batches.
Plan MakePlan(const Workload& w, double seconds) {
  Plan p;
  const auto b = static_cast<double>(w.batch);
  p.open_batches = std::max<int64_t>(
      kLatencyWindow, static_cast<int64_t>(0.6 * seconds * w.open_rate / b));
  p.saturated_windows = 30;
  p.window_batches = std::max<int64_t>(
      20, static_cast<int64_t>(0.4 * seconds * w.sized_rate / b /
                               p.saturated_windows));
  return p;
}

/// What both kinds of run share: the stream, its warm-up prefix, the
/// phase plan, and the oracle's view of the warm-up.
struct RunContext {
  const Workload& w;
  const TiledStream& stream;
  const std::vector<graph::Event>& warmup;
  const Plan& plan;
  const OracleResult& oracle;
  Report& report;
  Counters& counters;
};

/// --trace 0: end-to-end metrics, stage metrics off.
void MeasureEndToEnd(const RunContext& ctx) {
  const Workload& w = ctx.w;
  const TiledStream& stream = ctx.stream;
  const Plan& plan = ctx.plan;
  Report& report = ctx.report;
  Counters& counters = ctx.counters;
  const int64_t open_first = w.warmup_events;
  const int64_t saturated_first =
      open_first + plan.open_batches * static_cast<int64_t>(w.batch);
  SetupTimes times;
  Deployment d = SetUpRepeated(w, stream, ctx.warmup, false, &times);
  WarmUpAndCheck(w, stream, *d.engine, ctx.oracle, &counters, &report);
  const CpuTicks ticks = ReadCpuTicks();
  const OpenLoopResult open = RunOpenLoop(w, stream, *d.engine, open_first,
                                          plan.open_batches, &counters);
  const SaturatedResult sat =
      RunSaturated(w, stream, *d.engine, saturated_first,
                   plan.saturated_windows, plan.window_batches, &counters);
  PrintPhases(open, sat);
  PrintSteal(ticks, ReadCpuTicks());
  counters.failed += d.engine->stats().batches_rejected;
  const std::optional<double> rss = PeakRssMb();
  if (!rss.has_value()) report.Fail("no VmHWM line in /proc/self/status");
  d = Deployment{};

  // The result line holds CPU times, which leave out what the host's other
  // tenants take; the wall-clock figures below them move with the host's
  // load (see README).
  char note[96];
  std::snprintf(note, sizeof(note), "(median of %zu windows, %lld events)",
                sat.window_cpu_us.size(), (long long)sat.events);
  report.Add("cpu_us_per_event", Median(sat.window_cpu_us), "us", note);
  report.AddPercentile("infer_cpu_p50_ms", open.infer_cpu_ms, 0.50, "ms");
  std::snprintf(note, sizeof(note), "(set-up thread CPU, median of %zu set-ups)",
                times.setup_cpu_s.size());
  report.Add("setup_s", Median(times.setup_cpu_s), "s", note);
  report.Add("peak_rss_mb", rss.value_or(0.0), "MB");
  // Printed, not bounded: wall-clock throughput, latency and lag track the
  // host's steal (see README), and failed_frac is 0 on a healthy engine,
  // so it rides the result line as attempted/failed.
  std::printf("printed only, not in the result line:\n");
  std::snprintf(note, sizeof(note), "(median of %zu windows)",
                sat.window_eps.size());
  Report::Print("events_per_s", Median(sat.window_eps), "1/s", note);
  report.PrintPercentile("score_p50_ms", open.score_ms, 0.50, "ms");
  report.PrintPercentile("apply_lag_p50_ms", open.lag_ms, 0.50, "ms");
  report.PrintPercentile("score_p99_ms", open.score_ms, 0.99, "ms");
  report.PrintPercentile("apply_lag_p99_ms", open.lag_ms, 0.99, "ms");
  std::snprintf(note, sizeof(note), "(%lld of %lld batches)",
                (long long)counters.failed, (long long)counters.attempted);
  Report::Print("failed_frac",
                static_cast<double>(counters.failed) /
                    static_cast<double>(std::max<int64_t>(1, counters.attempted)),
                "1", note);
  report.PrintPercentile("bench.generator_late_p99_ms", open.late_ms, 0.99,
                         "ms");
  Report::Print("setup_wall_s", Median(times.setup_s), "s",
                "(median of the same set-ups)");
  if (open.lag_ms.size() != open.score_ms.size()) {
    report.Fail("apply lag not observed for every open-loop batch");
  }
}

/// --trace 1: per-layer metrics. core/graph rows come from the self time
/// of each layer span in the traced oracle replay; serve rows from an
/// engine with stage metrics on.
void MeasureLayers(const RunContext& ctx) {
  const Workload& w = ctx.w;
  const TiledStream& stream = ctx.stream;
  const Plan& plan = ctx.plan;
  const OracleResult& oracle = ctx.oracle;
  const std::vector<graph::Event>& warmup = ctx.warmup;
  Report& report = ctx.report;
  Counters& counters = ctx.counters;
  const auto layers = SelfTimeByName(oracle.spans);
  const ReplayCounts& rc = oracle.counts;
  const double nb = static_cast<double>(std::max<int64_t>(1, rc.batches));
  const double ne = static_cast<double>(std::max<int64_t>(1, rc.events));
  auto layer_ms = [&](const char* name) {
    auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second;
  };
  double covered_ms = 0.0;
  for (const auto& [name, self_ms] : layers) {
    if (name != "oracle.batch") covered_ms += self_ms;
  }

  // Tracing overhead: an untraced twin and the traced engine, both warmed
  // on the same prefix, run the same saturated windows in alternation, so
  // a change in host load lands on both sides.
  SetupTimes times;
  Deployment d = SetUpRepeated(w, stream, warmup, true, &times);
  WarmUpAndCheck(w, stream, *d.engine, oracle, &counters, &report);
  const CpuTicks ticks = ReadCpuTicks();
  int64_t next = w.warmup_events;
  std::vector<double> untraced_eps;
  std::vector<double> traced_eps;
  {
    SetupTimes twin_times;
    Deployment twin = SetUp(w, stream, warmup, false, &twin_times);
    WarmUpAndCheck(w, stream, *twin.engine, oracle, &counters, &report);
    for (int win = 0; win < plan.saturated_windows; ++win) {
      untraced_eps.push_back(RunWindow(w, stream, *twin.engine, next,
                                       plan.window_batches, &counters)
                                 .events_per_s);
      const Window traced = RunWindow(w, stream, *d.engine, next,
                                      plan.window_batches, &counters);
      traced_eps.push_back(traced.events_per_s);
      next += traced.events;
    }
    counters.failed += twin.engine->stats().batches_rejected;
  }

  // Serve rows from the traced engine alone. One settling batch first
  // closes the workers' idle wait from the alternating phase, so the
  // stage deltas below cover only this phase.
  Infer(*d.engine, stream.Batch(next, w.batch), &counters);
  d.engine->Flush();
  next += static_cast<int64_t>(w.batch);
  const obs::Registry::Snapshot before = d.engine->registry()->Scrape();
  const SaturatedResult sat =
      RunSaturated(w, stream, *d.engine, next, plan.saturated_windows,
                   plan.window_batches, &counters);
  const obs::Registry::Snapshot after = d.engine->registry()->Scrape();
  next += sat.events;
  const OpenLoopResult open = RunOpenLoop(w, stream, *d.engine, next,
                                          plan.open_batches, &counters);
  PrintPhases(open, sat);
  PrintSteal(ticks, ReadCpuTicks());
  const serve::ShardedEngine::Stats stats = d.engine->stats();
  counters.failed += stats.batches_rejected;

  report.Add("core.state.read_ms", layer_ms("core.state.read") / nb, "ms",
             "(per batch)");
  report.Add("core.state.read_mb_per_s",
             static_cast<double>(rc.read_bytes) / (1024.0 * 1024.0) /
                 (layer_ms("core.state.read") / 1000.0),
             "MB/s", "(bytes from tensor shapes)");
  report.Add("core.encoder.forward_ms", layer_ms("core.encoder.forward") / nb,
             "ms", "(per batch)");
  report.Add("core.encoder.nodes_per_batch",
             static_cast<double>(rc.unique_nodes) / nb, "count");
  report.Add("core.encoder.unique_frac",
             static_cast<double>(rc.unique_nodes) / (2.0 * ne), "1");
  report.Add("core.decoder.score_ms", layer_ms("core.decoder.score") / nb,
             "ms", "(per batch)");
  report.Add("core.state.write_ms", layer_ms("core.state.write") / nb, "ms",
             "(per batch)");
  report.Add("graph.sample_ms", layer_ms("graph.sample") / nb, "ms",
             "(per batch)");
  report.Add("graph.sample.entries_per_event",
             static_cast<double>(rc.hop_entries) / ne, "count");
  report.Add("core.propagate_ms", layer_ms("core.propagate") / nb, "ms",
             "(per batch)");
  report.Add("core.propagate.deliveries_per_event",
             static_cast<double>(rc.deliveries) / ne, "count");
  report.Add("core.state.deliver_ms", layer_ms("core.state.deliver") / nb,
             "ms", "(per batch)");
  report.Add("graph.append_ms", layer_ms("graph.append") / nb, "ms",
             "(per batch)");
  report.Add("graph.partition_build_s", Median(times.partition_s), "s",
             w.locality ? "(BuildLocality over the warm-up prefix)"
                        : "(BuildDefault hash)");

  report.AddPercentile("serve.infer_ms_p50", open.infer_ms, 0.50, "ms");
  report.AddPercentile("serve.infer_ms_p99", open.infer_ms, 0.99, "ms");
  report.AddPercentile("serve.call_wait_ms_p99", open.call_wait_ms, 0.99, "ms");
  report.AddPercentile("serve.score_ms_p99", open.score_ms, 0.99, "ms");
  report.AddPercentile("serve.apply_lag_ms_p50", open.lag_ms, 0.50, "ms");
  report.AddPercentile("serve.apply_lag_ms_p99", open.lag_ms, 0.99, "ms");
  report.AddPercentile("serve.backlog_batches_p50", open.backlog, 0.50, "count");
  report.AddPercentile("serve.backlog_batches_p99", open.backlog, 0.99, "count");
  report.Add("serve.flush_ms", Median(sat.flush_ms), "ms",
             "(median over saturated windows)");
  const double batches_ingested =
      static_cast<double>(std::max<int64_t>(1, stats.batches_ingested));
  report.Add("serve.cross_shard_frac",
             stats.mails_routed > 0
                 ? static_cast<double>(stats.mails_cross_shard) /
                       static_cast<double>(stats.mails_routed)
                 : 0.0,
             "1");
  report.Add("serve.frontier_requests_per_batch",
             static_cast<double>(stats.frontier_requests) / batches_ingested,
             "count");
  report.Add("serve.frontier_nodes_per_batch",
             static_cast<double>(stats.frontier_nodes_forwarded) /
                 batches_ingested,
             "count");

  // Worker stages over the saturated phase: deltas of the stage.*
  // histograms' totals, as a share of shards x phase wall time.
  const double worker_ms = static_cast<double>(w.shards) * sat.wall_ms;
  double stage_sum = 0.0;
  for (const char* stage : {"append", "sample", "frontier_wait",
                            "frontier_serve", "propagate", "route", "merge",
                            "finalize", "idle"}) {
    const std::string key = std::string("stage.") + stage;
    const auto* a = after.FindHistogram(key);
    const auto* b = before.FindHistogram(key);
    const double ms = (a != nullptr ? a->total_ms : 0.0) -
                      (b != nullptr ? b->total_ms : 0.0);
    stage_sum += ms;
    report.Add("serve.stage." + std::string(stage) + "_pct",
               100.0 * ms / worker_ms, "%");
  }
  const auto* encode = after.FindHistogram("stage.encode");
  report.Add("serve.stage.encode_ms_p50", encode != nullptr ? encode->p50 : 0.0,
             "ms");
  report.Add("serve.stage_coverage_pct", 100.0 * stage_sum / worker_ms, "%");

  report.Add("oracle.events_per_s", ne / (oracle.wall_ms / 1000.0), "1/s",
             "(sequential traced replay of the warm-up prefix)");
  report.Add("oracle.coverage_pct", 100.0 * covered_ms / oracle.wall_ms, "%",
             "(layer self time over replay wall time)");
  report.Add("obs.trace_overhead_pct",
             100.0 * (Median(untraced_eps) - Median(traced_eps)) /
                 Median(untraced_eps),
             "%", "(stage metrics on vs off, alternating saturated windows)");
  report.AddPercentile("bench.generator_late_p99_ms", open.late_ms, 0.99, "ms");
}


int RunWorkload(const Workload& w, uint64_t seed, double seconds, bool trace,
                const std::string& spans_dir) {
  const Host host = DescribeHost(w);
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n", w.name,
              (unsigned long long)seed, seconds, trace ? 1 : 0);
  std::printf("host nproc=%d isa=%s compiler=\"%s\" build=%s apan_tracing=%d "
              "threads=%d (generator 1 + workers %d + encode pool %zu)\n",
              host.nproc, host.isa.c_str(), PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE, APAN_TRACING_ENABLED, host.thread_budget,
              w.shards, EncodeThreads(w));
  if (host.thread_budget > host.nproc) {
    std::fprintf(stderr, "thread budget %d exceeds nproc %d\n",
                 host.thread_budget, host.nproc);
    return 3;
  }

  data::SyntheticConfig stream_config = w.stream;
  stream_config.seed = seed;
  auto base = data::GenerateSynthetic(stream_config);
  if (!base.ok()) {
    std::fprintf(stderr, "%s\n", base.status().ToString().c_str());
    return 3;
  }
  const TiledStream stream(std::move(*base));
  const std::vector<graph::Event> warmup =
      stream.Batch(0, static_cast<size_t>(w.warmup_events));
  std::printf("stream %s: %lld nodes, %zu base events, batch %zu, hops %d, "
              "%d shard(s), %s partition, inproc transport\n",
              stream.base().name.c_str(), (long long)stream.base().num_nodes,
              stream.base().events.size(), w.batch, w.hops, w.shards,
              w.locality ? "locality" : "hash");

  Report report;
  Counters counters;
  const Plan plan = MakePlan(w, seconds);

  // The oracle's model is released before any engine is built.
  OracleResult oracle = RunOracle(w, stream, trace);
  std::printf("phase oracle: %lld events in %.2f s\n",
              (long long)oracle.counts.events, oracle.wall_ms / 1000.0);

  const RunContext ctx{w, stream, warmup, plan, oracle, report, counters};
  if (trace) {
    MeasureLayers(ctx);
    if (!spans_dir.empty()) WriteSpans(oracle.spans, spans_dir, w.name, seed);
  } else {
    MeasureEndToEnd(ctx);
  }
  report.PrintJson(counters.attempted, counters.failed);
  return 0;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <paper_x1|fanout_x2|microbatch_x2> "
               "--seed <n> --seconds <s> --trace <0|1> [--spans-dir <dir>]\n",
               argv0);
  return 2;
}

}  // namespace
}  // namespace perfbench
}  // namespace apan

int main(int argc, char** argv) {
  using namespace apan::perfbench;
  std::string workload;
  std::string spans_dir;
  long long seed = -1;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload" || flag == "--spans-dir") {
      (flag == "--workload" ? workload : spans_dir) = value;
      continue;
    }
    if (flag == "--seed") {
      seed = std::strtoll(value, &end, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      trace = static_cast<int>(std::strtol(value, &end, 10));
    } else {
      return Usage(argv[0]);
    }
    if (end == value || *end != '\0') return Usage(argv[0]);
  }
  if (argc % 2 != 1 || seed < 0 || !(seconds > 0.0) || seconds > 600.0 ||
      (trace != 0 && trace != 1)) {
    return Usage(argv[0]);
  }
  for (const Workload& w : Workloads()) {
    if (workload == w.name) {
      return RunWorkload(w, static_cast<uint64_t>(seed), seconds, trace == 1,
                         spans_dir);
    }
  }
  return Usage(argv[0]);
}
