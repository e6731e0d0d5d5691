/// \file main.cpp
/// \brief bench_e2e: end-to-end scenario throughput through the V2D driver's
/// public entry points, with a traced per-layer split.
///
///   bench_e2e --workload pulse-tiles --seed 1 --seconds 20 --trace 0
///             --pins perfbench/pins.txt --out-dir .bench_build/out
///
/// --trace 0 measures the end-to-end metrics.  --trace 1 measures the
/// workload untraced, traced and at 1 host thread, then
/// probes each layer's public call on the workload's shapes, and reports
/// the per-layer metrics (the spans are written to the out dir).  The
/// last stdout line is one JSON object:
///   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
/// preceded by a {"provenance": {..}} line.  Exit status is 1 when any
/// operation failed (a throw, a non-converged solve or a pin mismatch).
///
/// --record-pins prints the pin lines of one episode of a session
/// workload instead (for regenerating perfbench/pins.txt after a
/// deliberate change of the pinned outputs).

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <filesystem>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "probes.hpp"
#include "report.hpp"
#include "support/error.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
namespace fs = std::filesystem;

/// The tail is the highest percentile with at least kTailBeyond samples
/// beyond it, capped at kTailCap.  A run of a few seconds' worth of
/// operations has a tail near p90 anyway; the cap keeps a long run of
/// short operations from ranking the host's rare stalls instead.
constexpr std::size_t kTailBeyond = 10;
constexpr double kTailCap = 90.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string pins_path;
  std::string out_dir = ".";
  bool record_pins = false;
};

const char* kUsage =
    "usage: bench_e2e --workload NAME --seed N --seconds S --trace 0|1\n"
    "                 --pins FILE [--out-dir DIR] [--record-pins]\n";

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--record-pins") {
      a.record_pins = true;
      continue;
    }
    if (i + 1 >= argc) throw v2d::Error("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
      if (!(a.seconds > 0.0)) throw v2d::Error("--seconds must be > 0");
    } else if (key == "--trace") {
      if (val != "0" && val != "1") throw v2d::Error("--trace takes 0 or 1");
      a.trace = val == "1";
    } else if (key == "--pins") {
      a.pins_path = val;
    } else if (key == "--out-dir") {
      a.out_dir = val;
    } else {
      throw v2d::Error("unknown option " + key);
    }
  }
  if (!have_workload) throw v2d::Error("--workload is required");
  return a;
}

/// A scratch directory removed on every exit path.
struct TmpDir {
  explicit TmpDir(fs::path p) : path(std::move(p)) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TmpDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  TmpDir(const TmpDir&) = delete;
  TmpDir& operator=(const TmpDir&) = delete;
  fs::path path;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Heap bytes one session of `cfg` holds once constructed: the arrays its
/// steps sweep, i.e. its working set.
double session_heap_mib(const v2d::core::RunConfig& cfg) {
  auto heap = [] {
    const struct mallinfo2 mi = mallinfo2();
    return static_cast<double>(mi.uordblks + mi.hblkhd);
  };
  const double before = heap();
  v2d::core::Simulation sim(cfg);
  return (heap() - before) / (1024.0 * 1024.0);
}

/// Pins glibc's heap thresholds.  By default the first free of a large
/// mmapped block raises the mmap and trim thresholds, and whether that
/// happens in a run depends on which thread frees what first.  A process
/// that never raises them maps and faults in every session's large arrays
/// afresh at each set-up, which doubled sedov-ckpt's setup_s in some runs.
/// Fixed thresholds keep freed arrays in the heap, the state most runs
/// reach by themselves, so set-up times the program's construction work
/// rather than the allocator's history.
void pin_heap_thresholds() {
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
}

int record_pins(const Workload& w, const std::string& tmp_dir) {
  v2d::core::RunConfig cfg = w.cfg;
  if (cfg.checkpoint_every > 0)
    cfg.checkpoint_path = tmp_dir + "/" + w.name + ".h5l";
  v2d::core::Simulation sim(cfg);
  long iterations = 0;
  while (!sim.finished()) iterations += sim.drive_step().total_iterations();
  sim.finalize_checkpoints();
  for (const auto& [key, value] : pins_of(capture(sim), iterations))
    std::cout << w.name << ' ' << key << ' ' << value << '\n';
  return 0;
}

void add_e2e(Metrics& m, const LoopResult& r, double rss_mb, double* tail_pct) {
  m["steps_per_s"] = {r.steps_per_s(), "1/s"};
  m["op_p50_ms"] = {median(r.op_ms), "ms"};
  m["op_tail_ms"] = {tail(r.op_ms, kTailBeyond, kTailCap, tail_pct), "ms"};
  m["setup_s"] = {median(r.setup_s), "s"};
  m["peak_rss_mb"] = {rss_mb, "MB"};
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void add_layers(Metrics& m, const Workload& w, const LoopResult& a,
                const LoopResult& traced, const LoopResult& other,
                double ref_iters_per_step) {
  const double steps = static_cast<double>(a.steps);
  auto per_step = [&](double v) { return ratio(v, steps); };
  const Counters& c = a.counters;

  m["rad.iters_per_step"] = {
      w.farm ? ref_iters_per_step : per_step(static_cast<double>(a.iterations)),
      "count"};
  m["linalg.bytes_computed_per_step"] = {
      per_step(static_cast<double>(a.ledger.bytes)), "B"};
  const double lookups = static_cast<double>(c.memo_hits + c.memo_misses);
  m["vla.memo_lookups_per_step"] = {per_step(lookups), "count"};
  m["vla.memo_hit_ratio"] = {ratio(static_cast<double>(c.memo_hits), lookups),
                             "ratio"};
  m["mpisim.price_memo_hit_ratio"] = {
      ratio(static_cast<double>(a.price_hits),
            static_cast<double>(a.price_hits + a.price_misses)),
      "ratio"};
  m["mpisim.halo_msgs_per_step"] = {
      per_step(static_cast<double>(a.ledger.halo_msgs)), "count"};
  m["mpisim.halo_bytes_per_step"] = {
      per_step(static_cast<double>(a.ledger.halo_bytes)), "B"};
  m["support.tasks_per_step"] = {per_step(static_cast<double>(c.sched.tasks)),
                                 "count"};
  m["support.steals_per_step"] = {
      per_step(static_cast<double>(c.sched.steals)), "count"};
  m["support.overlap_ratio"] = {c.sched.overlap_ratio(), "ratio"};
  m["support.affinity_ratio"] = {c.sched.affinity_ratio(), "ratio"};
  // Every workload runs at 4 host threads; `other` ran at 1.
  m["support.speedup_4t_over_1t"] = {
      ratio(a.steps_per_s(), other.steps_per_s()), "x"};
  const double episodes = static_cast<double>(a.episodes);
  m["farm.waves"] = {ratio(static_cast<double>(a.waves), episodes), "count"};
  m["farm.retries"] = {ratio(static_cast<double>(a.retries), episodes),
                       "count"};
  m["farm.workspace_reuse_ratio"] = {
      ratio(static_cast<double>(a.ws_reused),
            static_cast<double>(a.ws_created + a.ws_reused)),
      "ratio"};

  m["trace.overhead_pct"] = {
      100.0 * ratio(a.steps_per_s() - traced.steps_per_s(), a.steps_per_s()),
      "%"};
}

std::string config_summary(const v2d::core::RunConfig& c) {
  std::ostringstream os;
  os << "--problem " << c.problem << " --nx1 " << c.nx1 << " --nx2 " << c.nx2
     << " --ns " << c.ns << " --nprx1 " << c.nprx1 << " --nprx2 " << c.nprx2
     << " --steps " << c.steps << " --host-threads " << c.host_threads
     << " --host-sched " << c.host_sched << " --fuse " << c.fuse
     << " --vector-bits " << c.vector_bits << " --vla-exec " << c.vla_exec;
  if (c.checkpoint_every > 0)
    os << " --checkpoint-every " << c.checkpoint_every;
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "bench_e2e: " << e.what() << '\n' << kUsage;
    return 2;
  }

  try {
    pin_heap_thresholds();
    const Workload w = find_workload(args.workload);
    fs::create_directories(args.out_dir);
    const TmpDir tmp(fs::path(args.out_dir) /
                     ("tmp-" + w.name + "-" + std::to_string(getpid())));
    const std::string tmp_dir = tmp.path.string();
    if (args.record_pins) {
      if (w.farm) throw v2d::Error("farm-mix pins come from solo runs");
      return record_pins(w, tmp_dir);
    }

    // Inputs: the session workloads are fixed configurations (their pins
    // are exact per decomposition); the farm's job lists come from --seed.
    Pins pins;
    FarmInputs farm;
    v2d::core::RunConfig probe_cfg = w.cfg;
    if (w.farm) {
      farm = farm_inputs(args.seed, kFarmLanes);
      const auto jobs = parse_jobs(farm.lists[0]);
      probe_cfg = jobs[farm_probe_job(jobs)].cfg;
      probe_cfg.host_threads = kFarmLanes;
    } else {
      pins = load_pins(args.pins_path, w.name);
      if (pins.empty())
        throw v2d::Error("no pins for workload '" + w.name + "' in '" +
                         args.pins_path + "' (--record-pins prints them)");
    }

    Tracer tr(false);
    const int threads = w.cfg.host_threads;
    auto loop = [&](double seconds, int host_threads) {
      return w.farm ? run_farm(args.seed, farm, seconds, host_threads, tr, -1)
                    : run_sessions(w, pins, seconds, host_threads, tmp_dir,
                                   tr, -1);
    };

    Metrics metrics;
    std::vector<const LoopResult*> loops;
    LoopResult main_loop, traced, other;
    double tail_pct = 0.0;
    if (!args.trace) {
      main_loop = loop(args.seconds, threads);
      add_e2e(metrics, main_loop, peak_rss_mb(), &tail_pct);
      loops = {&main_loop};
    } else {
      // Untraced, traced, then at the other thread count; the probes
      // follow, on a fresh session of the workload's configuration.
      main_loop = loop(0.4 * args.seconds, threads);
      tr.set_enabled(true);
      traced = loop(0.4 * args.seconds, threads);
      tr.set_enabled(false);
      other = loop(0.2 * args.seconds, 1);
      tr.set_enabled(true);
      run_probes(probe_cfg, tmp_dir, tr, metrics);
      add_layers(metrics, w, main_loop, traced, other,
                 ratio(static_cast<double>(farm.ref_iterations),
                       static_cast<double>(farm.ref_steps)));
      tr.write_json((fs::path(args.out_dir) /
                     ("trace-" + w.name + "-seed" +
                      std::to_string(args.seed) + ".json"))
                        .string());
      loops = {&main_loop, &traced, &other};
    }

    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::string> failures;
    for (const LoopResult* r : loops) {
      attempted += r->attempted;
      failed += r->failed;
      failures.insert(failures.end(), r->failures.begin(), r->failures.end());
    }

    const double llc = static_cast<double>(sysconf(_SC_LEVEL3_CACHE_SIZE));
    const double ws_mb =
        session_heap_mib(probe_cfg) * (w.farm ? kFarmMaxConcurrent : 1);
    std::ostringstream prov;
    prov << "{\"provenance\": {\"workload\": " << json_string(w.name)
         << ", \"seed\": " << args.seed
         << ", \"seconds\": " << json_number(args.seconds)
         << ", \"trace\": " << (args.trace ? 1 : 0)
         << ", \"nproc\": " << std::thread::hardware_concurrency()
         << ", \"llc_mib\": " << json_number(llc / (1024.0 * 1024.0))
         << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
         << ", \"cxx_flags\": " << json_string(PERFBENCH_CXX_FLAGS)
         << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
         << ", \"config\": "
         << json_string(w.farm ? "farm-mix: " + std::to_string(kFarmLists) +
                                     " job lists in turn, " +
                                     std::to_string(kFarmLanes) +
                                     " lanes, max_concurrent " +
                                     std::to_string(kFarmMaxConcurrent)
                               : config_summary(w.cfg))
         << ", \"working_set_mib\": " << json_number(ws_mb)
         << ", \"working_set_over_llc\": "
         << json_number(llc > 0 ? ws_mb * 1024.0 * 1024.0 / llc : 0.0)
         << ", \"episodes\": " << main_loop.episodes
         << ", \"op_samples\": " << main_loop.op_ms.size()
         << ", \"op_tail_percentile\": " << json_number(tail_pct);
    if (w.farm) {
      // Host time the completion callback held the farm's driving thread.
      prov << ", \"callback_share\": "
           << json_number(ratio(main_loop.callback_s, main_loop.busy_s));
    } else {
      // The cold-memo first step of each episode against the rest.
      double cold = 0.0, all = 0.0;
      for (double v : main_loop.cold_ms) cold += v;
      for (double v : main_loop.op_ms) all += v;
      prov << ", \"cold_step_ms\": " << json_number(median(main_loop.cold_ms))
           << ", \"cold_step_share\": " << json_number(ratio(cold, all));
    }
    prov << ", \"attempted\": " << attempted << ", \"failed\": " << failed
         << ", \"failed_frac\": "
         << json_number(ratio(static_cast<double>(failed),
                              static_cast<double>(attempted)))
         << ", \"failures\": [";
    for (std::size_t i = 0; i < failures.size(); ++i)
      prov << (i ? ", " : "") << json_string(failures[i]);
    prov << "], \"farm_job_lists\": [";
    for (std::size_t l = 0; l < farm.lists.size(); ++l) {
      prov << (l ? ", [" : "[");
      for (std::size_t i = 0; i < farm.lists[l].size(); ++i)
        prov << (i ? ", " : "") << json_string(farm.lists[l][i]);
      prov << "]";
    }
    prov << "]}}";
    std::cout << prov.str() << '\n';

    std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
              << ", \"attempted\": " << attempted << ", \"failed\": " << failed
              << ", \"metrics\": " << metrics_json(metrics) << "}"
              << std::endl;
    return failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "bench_e2e: " << e.what() << '\n';
    return 1;
  }
}
