// End-to-end benchmark of the switch experiment, one workload per process.
//
// Closed loop: one experiment at a time (build_scenario -> Engine ->
// set_sources -> run -> destroy), the next starting only after the previous
// engine is gone.  A round runs the workload's trials (one experiment per
// trial seed, derived from --seed) back to back, and rounds repeat while one
// more fits in --seconds.  Host metrics are medians over untraced rounds of
// the per-experiment mean; simulated metrics pool the trials of a round and
// are exact for a seed, which the benchmark checks on every round.  With
// --trace 1 rounds alternate untraced / traced: traced ones wrap the strategy
// in a timing decorator and supply the per-layer metrics, and the difference
// of the two medians is the tracing overhead.
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// A failed correctness check is printed as "CHECK FAILED [name]" on stderr
// and makes the process exit with status 1.
//
//   perfbench --workload backlog-switch --seed 1 --seconds 30 --trace 0
//   perfbench --workload caughtup-cdn --smoke --trace 1   # tiny N
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "experiments/config.hpp"
#include "experiments/scenario.hpp"
#include "stream/engine.hpp"
#include "util/flags.hpp"
#include "util/meminfo.hpp"
#include "util/stats.hpp"

namespace {

using gs::exp::Config;
using gs::stream::EngineStats;
using gs::stream::SwitchMetrics;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// User + system CPU of the whole process (all threads).
double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double median(const std::vector<double>& values) {
  return gs::util::percentile(values, 0.5);
}

// ------------------------------------------------------------ workloads ---

/// One benchmark workload: the trial configs of a round (trial i of seed s
/// runs with seed s * trials + i) and what its checks expect.  Why each
/// workload exists is recorded in perfbench/README.md.  Peer counts are below
/// the paper-scale sizes so that a run repeats its round at least three
/// times; the pooled trials keep >= 21 switch samples beyond the p99.
struct Workload {
  std::vector<Config> trials;
  /// Every tracked peer alive at the end must finish S1 and prepare S2.
  bool expect_no_failures = true;
  /// Lanes the run may keep busy (pool.lane_util denominator).
  std::size_t lanes = 1;
};

std::optional<Workload> make_workload(const std::string& name, std::uint64_t seed, bool smoke) {
  std::size_t trials = 1;
  std::size_t nodes = 0;
  std::function<Config(std::size_t, std::uint64_t)> make;
  Workload w;
  if (name == "backlog-switch") {
    // The paper's stable phase: every peer carries a Q0 backlog of old-stream
    // segments, so planning (candidate build + strategy) dominates.
    trials = 3;
    nodes = 1500;
    make = [](std::size_t n, std::uint64_t s) {
      return Config::paper_static(n, gs::exp::AlgorithmKind::kFast, s);
    };
  } else if (name == "churn-sharded") {
    // 5% leave + 5% join per period on the sharded parallel core: the only
    // workload whose commit wave, delivery drain and thread pool do work.
    trials = 3;
    nodes = 2800;
    make = [](std::size_t n, std::uint64_t s) {
      Config c = Config::paper_dynamic(n, gs::exp::AlgorithmKind::kFast, s);
      c.enable_parallel_shards(4);
      c.engine.tick_shard_size = 256;
      return c;
    };
    w.lanes = std::min<std::size_t>(4, std::max(1u, std::thread::hardware_concurrency()));
    w.expect_no_failures = false;
  } else if (name == "caughtup-cdn") {
    // A caught-up swarm (no backlog), CDN assist at its defaults and a flash
    // crowd of N/5 joins: light planning, so delivery and the event plane
    // carry the run; the only workload on the CDN plane.  One experiment's
    // resident set (~390 MB) exceeds a 300 MiB last-level cache.
    trials = 2;
    nodes = 8000;
    make = [](std::size_t n, std::uint64_t s) {
      Config c = Config::paper_static(n, gs::exp::AlgorithmKind::kFast, s);
      c.engine.sparse_fill = 1.0;
      c.engine.stable_backlog_scale = 0.0;
      c.engine.base_lag_segments = 0.0;
      c.enable_cdn_assist();
      c.enable_flash_crowd(n / 5);
      return c;
    };
  } else {
    return std::nullopt;
  }
  if (smoke) nodes = 300;
  for (std::size_t i = 0; i < trials; ++i) w.trials.push_back(make(nodes, seed * trials + i));
  return w;
}

// ------------------------------------------------------ traced strategy ---

/// Times every SchedulerStrategy::schedule call of the wrapped strategy.
/// Plan lanes call it concurrently, so counters are striped per thread and
/// updated with relaxed atomics; it forwards arguments and results
/// untouched and draws no randomness, so a traced run is bit-identical to
/// an untraced one (the benchmark checks this).
class ScheduleTracer final : public gs::stream::SchedulerStrategy {
 public:
  explicit ScheduleTracer(std::shared_ptr<gs::stream::SchedulerStrategy> inner)
      : inner_(std::move(inner)), stripes_(std::make_unique<Stripe[]>(kStripes)) {}

  [[nodiscard]] std::string_view name() const noexcept override { return inner_->name(); }

  [[nodiscard]] std::vector<gs::stream::ScheduledRequest> schedule(
      const gs::stream::ScheduleContext& ctx,
      std::vector<gs::stream::CandidateSegment>& candidates) override {
    const std::size_t offered = candidates.size();
    const Clock::time_point start = Clock::now();
    std::vector<gs::stream::ScheduledRequest> requests = inner_->schedule(ctx, candidates);
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start).count());
    Stripe& s = stripes_[stripe_index()];
    s.calls.fetch_add(1, std::memory_order_relaxed);
    s.busy_ns.fetch_add(ns, std::memory_order_relaxed);
    s.candidates.fetch_add(offered, std::memory_order_relaxed);
    s.requests.fetch_add(requests.size(), std::memory_order_relaxed);
    s.histogram[bucket_of(ns)].fetch_add(1, std::memory_order_relaxed);
    return requests;
  }

  struct Summary {
    std::uint64_t calls = 0;
    double busy_s = 0.0;
    double us_p50 = 0.0;
    double us_p99 = 0.0;
    double candidates_per_call = 0.0;
    double requests_per_call = 0.0;
  };

  /// Call only after the engine has stopped calling schedule().
  [[nodiscard]] Summary summary() const {
    std::uint64_t busy_ns = 0;
    std::uint64_t candidates = 0;
    std::uint64_t requests = 0;
    std::vector<std::uint64_t> merged(kBuckets, 0);
    Summary out;
    for (std::size_t i = 0; i < kStripes; ++i) {
      const Stripe& s = stripes_[i];
      out.calls += s.calls.load(std::memory_order_relaxed);
      busy_ns += s.busy_ns.load(std::memory_order_relaxed);
      candidates += s.candidates.load(std::memory_order_relaxed);
      requests += s.requests.load(std::memory_order_relaxed);
      for (std::size_t b = 0; b < kBuckets; ++b) {
        merged[b] += s.histogram[b].load(std::memory_order_relaxed);
      }
    }
    out.busy_s = static_cast<double>(busy_ns) * 1e-9;
    if (out.calls == 0) return out;
    const auto calls = static_cast<double>(out.calls);
    out.candidates_per_call = static_cast<double>(candidates) / calls;
    out.requests_per_call = static_cast<double>(requests) / calls;
    out.us_p50 = quantile_ns(merged, out.calls, 0.50) * 1e-3;
    out.us_p99 = quantile_ns(merged, out.calls, 0.99) * 1e-3;
    return out;
  }

 private:
  // Log-linear histogram: exact below 16 ns, then 16 sub-buckets per
  // power of two (~6% resolution) up to 2^64 ns.
  static constexpr std::size_t kSub = 16;
  static constexpr std::size_t kBuckets = 61 * kSub;
  static constexpr std::size_t kStripes = 16;

  struct alignas(64) Stripe {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> busy_ns{0};
    std::atomic<std::uint64_t> candidates{0};
    std::atomic<std::uint64_t> requests{0};
    std::array<std::atomic<std::uint64_t>, kBuckets> histogram{};
  };

  static std::size_t bucket_of(std::uint64_t ns) {
    if (ns < kSub) return static_cast<std::size_t>(ns);
    const auto exponent = static_cast<std::size_t>(std::bit_width(ns) - 1);  // >= 4
    const auto sub = static_cast<std::size_t>((ns >> (exponent - 4)) & (kSub - 1));
    return (exponent - 3) * kSub + sub;
  }

  /// Midpoint of the bucket holding the q-quantile (nearest rank).
  static double quantile_ns(const std::vector<std::uint64_t>& hist, std::uint64_t count,
                            double q) {
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count))));
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < hist.size(); ++b) {
      seen += hist[b];
      if (seen < rank) continue;
      if (b < kSub) return static_cast<double>(b);
      const std::size_t exponent = b / kSub + 3;
      const double width = std::ldexp(1.0, static_cast<int>(exponent) - 4);
      return static_cast<double>(kSub + b % kSub) * width + 0.5 * width;
    }
    return 0.0;
  }

  static std::size_t stripe_index() {
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t slot =
        next.fetch_add(1, std::memory_order_relaxed) % kStripes;
    return slot;
  }

  std::shared_ptr<gs::stream::SchedulerStrategy> inner_;
  std::unique_ptr<Stripe[]> stripes_;
};

// ----------------------------------------------------------- experiment ---

struct Experiment {
  // Host times (seconds).
  double build_s = 0.0;     ///< experiments.build_scenario
  double ctor_s = 0.0;      ///< stream.engine_ctor (+ set_sources)
  double run_call_s = 0.0;  ///< stream.run
  double teardown_s = 0.0;  ///< stream.teardown
  double cpu_s = 0.0;       ///< process CPU over run + teardown
  [[nodiscard]] double setup_s() const { return build_s + ctor_s; }
  [[nodiscard]] double run_s() const { return run_call_s + teardown_s; }

  std::vector<SwitchMetrics> metrics;
  EngineStats stats;
  std::uint64_t map_bits = 0;
  std::uint64_t request_bits = 0;
  std::uint64_t data_bits = 0;
  std::uint64_t membership_bits = 0;
  std::size_t attempts = 0;  ///< tracked peers alive at the end
  std::size_t failures = 0;  ///< of those, not finished S1 and prepared S2
  std::optional<ScheduleTracer::Summary> trace;
};

struct Setup {
  gs::exp::BuiltScenario scenario;
  std::unique_ptr<gs::stream::Engine> engine;
  double build_s = 0.0;
  double ctor_s = 0.0;
};

Setup set_up(const Config& config, std::shared_ptr<gs::stream::SchedulerStrategy> strategy) {
  Setup s;
  const Clock::time_point t0 = Clock::now();
  s.scenario = gs::exp::build_scenario(config);
  const Clock::time_point t1 = Clock::now();
  // Same wiring as exp::make_engine, split so each span is timed.
  gs::stream::EngineConfig engine_config = config.engine;
  engine_config.membership_degree = config.neighbor_target;
  engine_config.seed = config.seed;
  s.engine = std::make_unique<gs::stream::Engine>(std::move(s.scenario.graph),
                                                  std::move(s.scenario.latency),
                                                  engine_config, std::move(strategy));
  s.engine->set_sources(std::move(s.scenario.sources), config.switch_times);
  const Clock::time_point t2 = Clock::now();
  s.build_s = seconds_between(t0, t1);
  s.ctor_s = seconds_between(t1, t2);
  return s;
}

/// Set-up alone (no run); the engine is destroyed untimed.
double setup_only(const Config& config) {
  const Setup s = set_up(config, gs::exp::make_strategy(config));
  return s.build_s + s.ctor_s;
}

Experiment run_experiment(const Config& config, bool traced) {
  std::shared_ptr<gs::stream::SchedulerStrategy> strategy = gs::exp::make_strategy(config);
  std::shared_ptr<ScheduleTracer> tracer;
  if (traced) {
    tracer = std::make_shared<ScheduleTracer>(std::move(strategy));
    strategy = tracer;
  }
  Setup s = set_up(config, std::move(strategy));
  Experiment e;
  e.build_s = s.build_s;
  e.ctor_s = s.ctor_s;

  double cpu0 = process_cpu_seconds();
  Clock::time_point t0 = Clock::now();
  e.metrics = s.engine->run();
  e.run_call_s = seconds_between(t0, Clock::now());
  e.cpu_s = process_cpu_seconds() - cpu0;

  const gs::stream::Engine& engine = *s.engine;
  e.stats = engine.stats();
  e.map_bits = engine.overhead().buffer_map_bits();
  e.request_bits = engine.overhead().request_bits();
  e.data_bits = engine.overhead().data_bits();
  e.membership_bits = engine.overhead().membership_bits();
  for (std::size_t v = 0; v < engine.peer_count(); ++v) {
    const gs::stream::PeerNode& p = engine.peer(static_cast<gs::net::NodeId>(v));
    if (!p.tracked() || !p.alive()) continue;
    ++e.attempts;
    if (!(p.sw_finished() && p.sw_prepared())) ++e.failures;
  }

  cpu0 = process_cpu_seconds();
  t0 = Clock::now();
  s.engine.reset();
  e.teardown_s = seconds_between(t0, Clock::now());
  e.cpu_s += process_cpu_seconds() - cpu0;
  if (tracer) e.trace = tracer->summary();
  return e;
}

// -------------------------------------------------------------- metrics ---

/// One round: the workload's trials run back to back, all traced or not.
struct Round {
  std::vector<Experiment> trials;

  /// Per-experiment means of the host times.
  [[nodiscard]] double run_s() const {
    double sum = 0.0;
    for (const Experiment& e : trials) sum += e.run_s();
    return sum / static_cast<double>(trials.size());
  }
  [[nodiscard]] double cpu_s() const {
    double sum = 0.0;
    for (const Experiment& e : trials) sum += e.cpu_s;
    return sum / static_cast<double>(trials.size());
  }
};

struct SimMetrics {
  double switch_p50_s = 0.0;
  double switch_p99_s = 0.0;
  double finish_p50_s = 0.0;
  double overhead_ratio = 0.0;  ///< mean over the trials
  double success_frac = 0.0;
  std::size_t samples = 0;      ///< prepared peers behind the switch percentiles
  std::size_t beyond_p99 = 0;   ///< of those, strictly slower than p99
};

/// Switch metrics of the round's first switch, pooled over its trials.
SimMetrics sim_metrics(const Round& round) {
  std::vector<double> prepared;
  std::vector<double> finished;
  std::size_t attempts = 0;
  std::size_t failures = 0;
  SimMetrics m;
  for (const Experiment& e : round.trials) {
    const SwitchMetrics& first = e.metrics.front();
    prepared.insert(prepared.end(), first.prepared_times.begin(), first.prepared_times.end());
    finished.insert(finished.end(), first.finish_times.begin(), first.finish_times.end());
    m.overhead_ratio += first.overhead_ratio / static_cast<double>(round.trials.size());
    attempts += e.attempts;
    failures += e.failures;
  }
  m.switch_p50_s = gs::util::percentile(prepared, 0.50);
  m.switch_p99_s = gs::util::percentile(prepared, 0.99);
  m.finish_p50_s = gs::util::percentile(finished, 0.50);
  m.success_frac = attempts == 0 ? 0.0
                                 : 1.0 - static_cast<double>(failures) /
                                             static_cast<double>(attempts);
  m.samples = prepared.size();
  m.beyond_p99 = static_cast<std::size_t>(std::count_if(
      prepared.begin(), prepared.end(), [&](double t) { return t > m.switch_p99_s; }));
  return m;
}

/// Everything a fixed seed determines: the switch metrics and the
/// EngineStats counters that are invariant under mechanism and shard count
/// (the set stream_determinism_test compares) plus plan/probe/event counts.
std::vector<double> fingerprint(const Experiment& e) {
  std::vector<double> f;
  for (const SwitchMetrics& m : e.metrics) {
    for (const std::size_t n : {m.tracked, m.finished_s1, m.prepared_s2, m.censored_finish,
                                m.censored_prepare}) {
      f.push_back(static_cast<double>(n));
    }
    f.insert(f.end(), m.finish_times.begin(), m.finish_times.end());
    f.insert(f.end(), m.prepared_times.begin(), m.prepared_times.end());
    f.push_back(m.overhead_ratio);
    f.push_back(m.control_ratio);
  }
  const EngineStats& s = e.stats;
  for (const std::uint64_t n :
       {s.segments_generated, s.segments_delivered, s.segments_pushed, s.requests_issued,
        s.requests_rejected, s.duplicates, std::uint64_t{s.joins}, std::uint64_t{s.leaves},
        s.old_stream_requests, s.new_stream_requests, s.split_ticks, s.events_popped,
        s.availability_probes, s.plans_built, s.plans_gated, std::uint64_t{s.flash_joins},
        s.cdn_segments_served, s.cdn_bytes_served, s.cdn_requests_rejected,
        std::uint64_t{s.cdn_assisted_switches}, std::uint64_t{s.cdn_handoffs}, s.cdn_pauses,
        s.cdn_resumes, s.peer_state_bytes, e.map_bits, e.request_bits, e.data_bits,
        e.membership_bits, std::uint64_t{e.attempts}, std::uint64_t{e.failures}}) {
    f.push_back(static_cast<double>(n));
  }
  f.push_back(s.cdn_mean_assist_s);
  return f;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double as_double(std::uint64_t n) { return static_cast<double>(n); }

/// Per-layer metrics of one traced experiment.
std::vector<Metric> per_layer_metrics(const Experiment& t, std::size_t lanes) {
  const EngineStats& s = t.stats;
  const ScheduleTracer::Summary& core = *t.trace;
  const double lane_s = t.run_s() * static_cast<double>(lanes);
  const double plans = as_double(s.plans_built + s.plans_gated);
  return {
      {"core.schedule_calls", as_double(core.calls), "count"},
      {"core.schedule_cpu_s", core.busy_s, "s"},
      {"core.schedule_us_p50", core.us_p50, "us"},
      {"core.schedule_us_p99", core.us_p99, "us"},
      {"core.candidates_per_call", core.candidates_per_call, "count"},
      {"core.requests_per_call", core.requests_per_call, "count"},
      {"plan.built", as_double(s.plans_built), "count"},
      {"plan.gated", as_double(s.plans_gated), "count"},
      {"plan.gate_hit", ratio(as_double(s.plans_gated), plans), "ratio"},
      {"plan.probes", as_double(s.availability_probes), "count"},
      {"plan.probes_per_plan", ratio(as_double(s.availability_probes), as_double(s.plans_built)),
       "count"},
      {"avail.index_updates", as_double(s.index_updates), "count"},
      {"avail.updates_per_delivery",
       ratio(as_double(s.index_updates), as_double(s.segments_delivered)), "count"},
      {"commit.replanned", as_double(s.replanned_ticks), "count"},
      {"commit.replan_ratio", ratio(as_double(s.replanned_ticks), as_double(s.planned_ticks)),
       "ratio"},
      {"commit.fixups", as_double(s.commit_conflict_fixups), "count"},
      {"commit.colour_classes", as_double(s.commit_colour_classes), "count"},
      {"commit.parallel_commits", as_double(s.parallel_commits), "count"},
      {"sweeps.parallel", as_double(s.parallel_sweeps), "count"},
      {"sweeps.superbatch", as_double(s.superbatch_sweeps), "count"},
      {"pool.lanes", static_cast<double>(lanes), "count"},
      {"pool.lane_util", ratio(t.cpu_s, lane_s), "ratio"},
      {"pool.idle_lane_s", std::max(0.0, lane_s - t.cpu_s), "s"},
      {"sim.events_popped", as_double(s.events_popped), "count"},
      {"sim.events_wheeled", as_double(s.events_wheeled), "count"},
      {"sim.cross_shard_events", as_double(s.cross_shard_events), "count"},
      {"sim.delivery_batches", as_double(s.delivery_batches), "count"},
      {"sim.host_us_per_event", ratio(t.run_s() * 1e6, as_double(s.events_popped)), "us"},
      {"xfer.requests", as_double(s.requests_issued), "count"},
      {"xfer.rejected", as_double(s.requests_rejected), "count"},
      {"xfer.delivered", as_double(s.segments_delivered), "count"},
      {"xfer.duplicates", as_double(s.duplicates), "count"},
      {"xfer.useful_ratio",
       ratio(as_double(s.segments_delivered), as_double(s.segments_delivered + s.duplicates)),
       "ratio"},
      {"gossip.map_mbit", as_double(t.map_bits) * 1e-6, "Mbit"},
      {"gossip.request_mbit", as_double(t.request_bits) * 1e-6, "Mbit"},
      {"gossip.data_mbit", as_double(t.data_bits) * 1e-6, "Mbit"},
      {"gossip.membership_mbit", as_double(t.membership_bits) * 1e-6, "Mbit"},
      {"gossip.full_map_adverts", as_double(s.full_map_adverts), "count"},
      {"gossip.delta_adverts", as_double(s.delta_adverts), "count"},
      {"membership.joins", as_double(s.joins), "count"},
      {"membership.leaves", as_double(s.leaves), "count"},
      {"mem.bytes_per_peer", s.bytes_per_peer, "B"},
      {"mem.peer_state_mb", as_double(s.peer_state_bytes) * 1e-6, "MB"},
      {"arena.chunks", as_double(s.arena_chunks), "count"},
      {"arena.steady_chunks", as_double(s.arena_steady_chunks), "count"},
      {"cdn.segments", as_double(s.cdn_segments_served), "count"},
      {"cdn.rejected", as_double(s.cdn_requests_rejected), "count"},
      {"cdn.assisted", as_double(s.cdn_assisted_switches), "count"},
      {"cdn.handoffs", as_double(s.cdn_handoffs), "count"},
      {"cdn.mean_assist_s", s.cdn_mean_assist_s, "sim_s"},
      {"cdn.mib", as_double(s.cdn_bytes_served) / (1024.0 * 1024.0), "MiB"},
      {"span.build_scenario_s", t.build_s, "s"},
      {"span.engine_ctor_s", t.ctor_s, "s"},
      {"span.run_s", t.run_call_s, "s"},
      {"span.run_self_s",
       std::max(0.0, t.run_call_s - core.busy_s / static_cast<double>(lanes)), "s"},
      {"stream.teardown_s", t.teardown_s, "s"},
  };
}

// --------------------------------------------------------------- checks ---

class Checks {
 public:
  void require(bool ok, const char* name, const std::string& detail) {
    if (ok) return;
    ok_ = false;
    std::fprintf(stderr, "CHECK FAILED [%s]: %s\n", name, detail.c_str());
  }
  [[nodiscard]] bool ok() const { return ok_; }

 private:
  bool ok_ = true;
};

void check_experiment(Checks& checks, const Workload& w, const Experiment& e) {
  checks.require(!e.metrics.empty() && !e.metrics.front().prepared_times.empty(),
                 "switch_measured", "the experiment reported no prepared peer");
  if (!checks.ok()) return;
  for (const SwitchMetrics& m : e.metrics) {
    checks.require(m.prepared_s2 + m.censored_prepare == m.tracked, "switch_accounting",
                   "switch " + std::to_string(m.switch_index) + ": prepared_s2 " +
                       std::to_string(m.prepared_s2) + " + censored_prepare " +
                       std::to_string(m.censored_prepare) + " != tracked " +
                       std::to_string(m.tracked));
  }
  checks.require(e.attempts > 0, "switch_attempts", "no tracked peer alive at the end");
  if (w.expect_no_failures) {
    checks.require(e.failures == 0, "no_switch_failures",
                   std::to_string(e.failures) + " of " + std::to_string(e.attempts) +
                       " tracked peers did not finish S1 and prepare S2");
  }
  // Each workload keeps the property it was chosen for.
  const gs::stream::EngineConfig& ec = w.trials.front().engine;
  if (ec.parallel_shards > 0) {
    checks.require(e.stats.parallel_sweeps > 0, "workload_sharded", "no parallel sweep ran");
  }
  if (ec.cdn_assist) {
    checks.require(e.stats.cdn_segments_served > 0, "workload_cdn", "the CDN served nothing");
    checks.require(e.stats.flash_joins == ec.flash_crowd_joins, "workload_flash_crowd",
                   std::to_string(e.stats.flash_joins) + " flash joins, expected " +
                       std::to_string(ec.flash_crowd_joins));
  }
}

// --------------------------------------------------------------- output ---

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-28s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// A failed check fails every attempt; the result carries no metrics.
int report_failure(std::size_t attempted) {
  print_result(false, std::max<std::size_t>(attempted, 1), std::max<std::size_t>(attempted, 1),
               {});
  return 1;
}

int run(const gs::util::Flags& flags) {
  const std::string name = flags.get("workload");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const double seconds = flags.get_double("seconds");
  const bool traced_mode = flags.get_int("trace") != 0;
  const bool smoke = flags.get_bool("smoke");
  const bool corrupt = flags.get_bool("corrupt");

  const std::optional<Workload> workload = make_workload(name, seed, smoke);
  if (!workload) {
    std::fprintf(stderr, "perfbench: unknown workload '%s' (backlog-switch | churn-sharded | "
                         "caughtup-cdn)\n", name.c_str());
    return 2;
  }
  const Workload& w = *workload;
  std::printf("# provenance {\"workload\": \"%s\", \"seed\": %llu, \"trials\": %zu, "
              "\"nodes\": %zu, \"nproc\": %u, \"cpu\": \"%s\", \"compiler\": \"%s\", "
              "\"build_type\": \"%s\", \"revision\": \"%s\"}\n",
              name.c_str(), static_cast<unsigned long long>(seed), w.trials.size(),
              w.trials.front().node_count, std::thread::hardware_concurrency(),
              json_escape(cpu_model()).c_str(), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
              json_escape(flags.get("revision")).c_str());

  // Rounds start while one more still fits in --seconds (judged by the
  // median round so far), with a floor so every median has at least three
  // rounds (two untraced + one traced when tracing).
  const std::size_t min_untraced = smoke ? 1 : (traced_mode ? 2 : 3);
  const std::size_t min_traced = traced_mode ? 1 : 0;
  std::vector<Round> untraced;
  std::vector<Round> traced;
  std::vector<double> round_wall_s;
  std::vector<double> setup_samples;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const double elapsed = seconds_between(start, Clock::now());
    const bool fits = round_wall_s.empty() || elapsed + median(round_wall_s) <= seconds;
    if (!fits && untraced.size() >= min_untraced && traced.size() >= min_traced) break;
    const bool trace_this = traced_mode && i % 2 == 1;
    Round round;
    for (const Config& config : w.trials) {
      // An extra set-up sample per experiment: build_scenario + Engine +
      // set_sources, the engine destroyed untimed.
      setup_samples.push_back(setup_only(config));
      round.trials.push_back(run_experiment(config, trace_this));
      const Experiment& e = round.trials.back();
      setup_samples.push_back(e.setup_s());
      std::fprintf(stderr,
                   "perfbench: %s round %zu%s trial %zu: setup %.4fs run %.4fs "
                   "(teardown %.4fs) cpu %.4fs\n",
                   name.c_str(), i, trace_this ? " traced" : "", round.trials.size() - 1,
                   e.setup_s(), e.run_s(), e.teardown_s, e.cpu_s);
    }
    round_wall_s.push_back(seconds_between(start, Clock::now()) - elapsed);
    (trace_this ? traced : untraced).push_back(std::move(round));
  }

  if (corrupt) {
    // Self-test of the checks: a result that lost one prepared peer.
    ++untraced.front().trials.front().metrics.front().prepared_s2;
  }

  Checks checks;
  std::vector<std::vector<double>> reference;
  for (const Experiment& e : untraced.front().trials) reference.push_back(fingerprint(e));
  std::size_t attempted = 0;
  std::size_t failed = 0;
  for (const std::vector<Round>* set : {&untraced, &traced}) {
    for (const Round& round : *set) {
      for (std::size_t t = 0; t < round.trials.size(); ++t) {
        const Experiment& e = round.trials[t];
        check_experiment(checks, w, e);
        checks.require(fingerprint(e) == reference[t], "deterministic_repeat",
                       std::string(e.trace ? "a traced" : "an untraced") + " run of trial " +
                           std::to_string(t) +
                           " differs from its first run in a simulated metric or "
                           "deterministic counter");
        attempted += e.attempts;
        failed += e.failures;
      }
    }
  }
  if (!checks.ok()) return report_failure(attempted);
  const SimMetrics sim = sim_metrics(untraced.front());
  if (!smoke) {
    checks.require(sim.beyond_p99 >= 21, "p99_tail_samples",
                   std::to_string(sim.beyond_p99) + " samples beyond p99 (need >= 21)");
  }
  if (!checks.ok()) return report_failure(attempted);

  std::vector<double> run_s;
  std::vector<double> cpu_s;
  for (const Round& round : untraced) {
    run_s.push_back(round.run_s());
    cpu_s.push_back(round.cpu_s());
  }
  std::vector<Metric> metrics;
  if (!traced_mode) {
    metrics = {
        {"setup_s", median(setup_samples), "s"},
        {"run_s", median(run_s), "s"},
        {"cpu_s", median(cpu_s), "s"},
        {"peak_rss_mb", static_cast<double>(gs::util::peak_rss_bytes()) * 1e-6, "MB"},
        {"switch_p50_s", sim.switch_p50_s, "sim_s"},
        {"switch_p99_s", sim.switch_p99_s, "sim_s"},
        {"finish_p50_s", sim.finish_p50_s, "sim_s"},
        {"overhead_ratio", sim.overhead_ratio, "ratio"},
        {"switch_success_frac", sim.success_frac, "ratio"},
    };
  } else {
    // Each per-layer value: mean over a traced round's trials, median over
    // the traced rounds.
    std::vector<std::vector<double>> per_round;
    for (const Round& round : traced) {
      std::vector<double> mean;
      for (const Experiment& e : round.trials) {
        metrics = per_layer_metrics(e, w.lanes);
        mean.resize(metrics.size(), 0.0);
        for (std::size_t k = 0; k < metrics.size(); ++k) {
          mean[k] += metrics[k].value / static_cast<double>(round.trials.size());
        }
      }
      per_round.push_back(std::move(mean));
    }
    for (std::size_t k = 0; k < metrics.size(); ++k) {
      std::vector<double> values;
      for (const std::vector<double>& mean : per_round) values.push_back(mean[k]);
      metrics[k].value = median(values);
    }
    std::vector<double> traced_run_s;
    for (const Round& round : traced) traced_run_s.push_back(round.run_s());
    const double traced_median = median(traced_run_s);
    const double untraced_median = median(run_s);
    metrics.insert(metrics.end(),
                   {{"switch.samples", static_cast<double>(sim.samples), "count"},
                    {"switch.beyond_p99", static_cast<double>(sim.beyond_p99), "count"},
                    {"trace.run_s", traced_median, "s"},
                    {"trace.untraced_run_s", untraced_median, "s"},
                    {"trace.overhead_s", traced_median - untraced_median, "s"}});
  }
  std::printf("# %s: %zu untraced + %zu traced rounds of %zu trial(s) in %.2fs, switch "
              "samples %zu (%zu beyond p99)\n",
              name.c_str(), untraced.size(), traced.size(), w.trials.size(),
              seconds_between(start, Clock::now()), sim.samples, sim.beyond_p99);
  print_result(true, attempted, failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  gs::util::Flags flags;
  flags.define("workload", "backlog-switch", "backlog-switch | churn-sharded | caughtup-cdn");
  flags.define_int("seed", 1, "workload seed (held-out check seed: 7)");
  flags.define_double("seconds", 30.0, "measure for this long (closed loop)");
  flags.define_int("trace", 0, "1 = per-layer metrics from traced repetitions");
  flags.define_bool("smoke", false, "tiny-N run of the same workload (self-test)");
  flags.define_bool("corrupt", false, "corrupt one result to exercise the checks (self-test)");
  flags.define("revision", "unknown", "source revision recorded in the provenance line");
  try {
    if (!flags.parse(argc, argv)) return 0;
    return run(flags);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 2;
  }
}
