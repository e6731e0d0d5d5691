#pragma once
/// \file bench.hpp
/// \brief Shared pieces of the end-to-end benchmark (bench_e2e).
///
/// The benchmark drives each workload through the public entry points the
/// `v2d` driver uses — core::Simulation construction + drive_step for
/// single-session workloads, farm::FarmScheduler::run for the farm — and
/// reports end-to-end metrics.  A separate traced run records spans
/// (name, start, end, parent) around calls into each layer's public
/// functions, from which the per-layer metrics are taken.  Nothing here
/// instruments the library itself.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "support/task_graph.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- tracing -------------------------------------------------------------------

/// One recorded span.  `parent` is the id of the enclosing span (-1 for a
/// root); `arg` tags repeated calls (call-site index, thread count), -1
/// when unused.
struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;
  int arg = -1;
};

/// In-memory span recorder; written out once, when the run ends.  Spans
/// are opened and closed on the benchmark's driving thread only.  When
/// disabled, begin()/end() record nothing.
class Tracer {
public:
  explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  void set_enabled(bool on) { enabled_ = on; }

  int begin(const std::string& name, int parent = -1, int arg = -1);
  void end(int id);
  /// A span with explicit endpoints (farm job completions are observed
  /// after the fact, from the batch start to the completion callback).
  int add(const std::string& name, Clock::time_point start,
          Clock::time_point end, int parent, int arg = -1);

  void write_json(const std::string& path) const;

private:
  bool enabled_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
};

/// Times `fn` inside a span named `name`; returns the elapsed seconds
/// (measured even when the tracer is disabled).
template <typename Fn>
double timed(Tracer& tr, const std::string& name, int parent, int arg,
             Fn&& fn) {
  const int id = tr.begin(name, parent, arg);
  const auto t0 = Clock::now();
  fn();
  const auto t1 = Clock::now();
  tr.end(id);
  return seconds_between(t0, t1);
}

// --- statistics ----------------------------------------------------------------

double median(std::vector<double> v);
/// Mean of `v` without its lowest and highest floor(frac * n) values.
double trimmed_mean(std::vector<double> v, double frac);
/// The tail latency: the highest percentile, at most `cap`, with at least
/// `beyond` samples above it (nearest rank).  `pct` receives the
/// percentile used.  With too few samples, the maximum.
double tail(std::vector<double> v, std::size_t beyond, double cap,
            double* pct);

// --- layer counters -------------------------------------------------------------

/// Public snapshot counters taken around a timed region; the deltas are
/// the layer counts of that region.
struct Counters {
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
  v2d::task_graph::SchedStats sched;

  static Counters now();
  Counters since(const Counters& earlier) const;
  Counters& operator+=(const Counters& o);
};

/// Simulated per-run tallies read from the session ledgers (profile 0).
struct LedgerTally {
  std::uint64_t flops = 0;
  std::uint64_t bytes = 0;       ///< computed from array sizes, not measured
  std::uint64_t halo_msgs = 0;
  std::uint64_t halo_bytes = 0;

  LedgerTally& operator+=(const LedgerTally& o) {
    flops += o.flops;
    bytes += o.bytes;
    halo_msgs += o.halo_msgs;
    halo_bytes += o.halo_bytes;
    return *this;
  }
};

// --- results -------------------------------------------------------------------

/// What one measured loop (a run of whole episodes) produced.
struct LoopResult {
  /// Scenario steps per host second after set-up, one per episode.
  std::vector<double> episode_rate;
  std::uint64_t steps = 0;             ///< scenario steps driven
  std::vector<double> op_ms;           ///< per-operation latency
  std::vector<double> cold_ms;         ///< sessions: each episode's first step
  std::vector<double> setup_s;         ///< one sample per set-up
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;   ///< first few failure messages
  Counters counters;                   ///< deltas over the whole loop
  LedgerTally ledger;                  ///< summed over the loop
  std::uint64_t iterations = 0;        ///< BiCGSTAB iterations, all steps
  std::uint64_t episodes = 0;
  /// Host counts that must repeat exactly in every episode; a mismatch
  /// is recorded as a failure.
  std::map<std::string, std::uint64_t> repeat_counts;
  // farm only
  std::uint64_t waves = 0;
  std::uint64_t retries = 0;
  std::uint64_t price_hits = 0;
  std::uint64_t price_misses = 0;
  std::uint64_t ws_created = 0;
  std::uint64_t ws_reused = 0;
  double busy_s = 0.0;      ///< host seconds inside FarmScheduler::run
  double callback_s = 0.0;  ///< of which in the harness's on_job_complete

  /// The 10%-trimmed mean of the episode rates.  A shared host switches
  /// between speed regimes every few seconds: a median jumps with the
  /// regime that held most episodes, and a pooled rate follows the few
  /// episodes a stalled thread held up; the trimmed mean does neither.
  double steps_per_s() const { return trimmed_mean(episode_rate, 0.1); }
  void fail(const std::string& why, std::uint64_t ops);
  /// Compare an episode's deterministic host counts with the first
  /// episode's.
  void check_repeat(const std::map<std::string, std::uint64_t>& counts,
                    std::uint64_t ops);
};

/// Metrics as printed: name -> (value, unit).
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

}  // namespace perfbench
