#include "workloads.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <utility>

#include "farm/job_file.hpp"
#include "report.hpp"
#include "support/error.hpp"

namespace perfbench {

using v2d::core::RunConfig;
using v2d::core::Simulation;

namespace {

/// FNV-1a over the bit patterns of the global field: any change in any
/// zone, however small, changes the checksum.
std::string field_checksum(const std::vector<double>& values) {
  std::uint64_t h = 1469598103934665603ull;
  for (double v : values) {
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// Host counts of one episode that are fixed by the workload alone:
/// count-memo probes (hits + misses; a concurrent duplicate miss may move
/// one between the two) and the task-graph's executed and chained tasks.
/// Steals and home-lane hits depend on timing and are not included.
std::map<std::string, std::uint64_t> deterministic_counts(
    const Counters& d) {
  return {{"memo_lookups", d.memo_hits + d.memo_misses},
          {"graph_tasks", d.sched.tasks},
          {"graph_chained_tasks", d.sched.chained_tasks}};
}

}  // namespace

// --- workloads ------------------------------------------------------------------

Workload find_workload(const std::string& name) {
  Workload w;
  w.name = name;
  RunConfig& c = w.cfg;
  // Session episodes are 20 steps, the run length of the rank-parallel
  // measurement in ROADMAP.md; v2d's default of 100 steps would make one
  // pulse-tiles episode longer than a whole benchmark run.
  if (name == "pulse-tiles") {
    c.nx1 = 256;
    c.nx2 = 128;
    c.nprx1 = 4;
    c.nprx2 = 4;
    c.host_threads = 4;
    c.host_sched = "graph";
    c.fuse = "plan";
    c.steps = 20;
  } else if (name == "sedov-ckpt") {
    c.problem = "sedov-radhydro";
    c.nx1 = 256;
    c.nx2 = 128;
    c.nprx1 = 2;
    c.nprx2 = 2;
    c.host_threads = 4;
    c.steps = 20;
    c.checkpoint_every = 5;
  } else if (name == "farm-mix") {
    w.farm = true;
    c.host_threads = kFarmLanes;
  } else {
    throw v2d::Error("unknown workload '" + name + "'");
  }
  return w;
}

std::vector<std::string> farm_job_lines(std::uint64_t seed, int list) {
  // The work content and queue order are fixed, so every seed costs about
  // the same and admission waves mix the same work: each problem at a big
  // and a small grid, each shape queued twice so the shared count and
  // price memos and the workspace pool have identical sessions to share,
  // in four rounds of one job per problem (two big, two small).  A job's
  // completion time depends mostly on what is queued ahead of it, so a
  // seeded order would make the latency metrics measure the seed.  The
  // seed draws what varies between real job lists at nearly equal cost:
  // each shape's vector length, compiler subset and fuse mode, from
  // balanced multisets.
  struct Shape {
    const char* problem;
    int nx1, nx2, steps;
  };
  static const Shape kShapes[] = {
      // shape 2p is problem p's big grid, 2p + 1 its small one
      {"gaussian-pulse", 128, 64, 3},    {"gaussian-pulse", 64, 64, 3},
      {"hotspot-absorber", 96, 48, 3},   {"hotspot-absorber", 48, 48, 4},
      {"sedov-radhydro", 128, 64, 4},    {"sedov-radhydro", 64, 64, 4},
      {"two-species-relax", 96, 48, 3},  {"two-species-relax", 48, 48, 4},
  };
  constexpr int kProblems = 4;
  constexpr int kShapesN = 2 * kProblems;

  std::seed_seq seq{static_cast<std::uint32_t>(seed),
                    static_cast<std::uint32_t>(seed >> 32),
                    static_cast<std::uint32_t>(list)};
  std::mt19937_64 rng(seq);
  auto shuffle = [&rng](auto& v) {
    for (std::size_t i = v.size() - 1; i > 0; --i)
      std::swap(v[i], v[rng() % (i + 1)]);
  };
  std::vector<std::string> compilers = {
      "cray",    "cray",    "cray,gnu",         "cray,gnu",
      "fujitsu", "fujitsu", "cray,fujitsu,gnu", "cray,fujitsu,gnu"};
  std::vector<unsigned> bits = {128, 128, 256, 256, 256, 512, 512, 512};
  shuffle(compilers);
  shuffle(bits);
  // Each problem fuses exactly one of its shapes: the big one for two
  // problems, the small one for the other two.
  std::vector<int> big_fused = {1, 1, 0, 0};
  shuffle(big_fused);

  std::vector<std::string> args(kShapesN);
  for (int sh = 0; sh < kShapesN; ++sh) {
    const Shape& d = kShapes[sh];
    const bool big = sh % 2 == 0;
    std::ostringstream os;
    os << "--problem " << d.problem << " --nx1 " << d.nx1 << " --nx2 "
       << d.nx2 << " --steps " << d.steps << " --vector-bits " << bits[sh]
       << " --compilers " << compilers[sh] << " --fuse "
       << (big == (big_fused[sh / 2] == 1) ? "plan" : "off");
    args[sh] = os.str();
  }

  // Round r queues problem p's shape 2p + (p + r) % 2, so every shape
  // lands in exactly two rounds (its copies "a" and "b").
  std::vector<int> copies(kShapesN, 0);
  std::vector<std::string> lines;
  for (int r = 0; r < 4; ++r) {
    for (int p = 0; p < kProblems; ++p) {
      const int sh = 2 * p + (p + r) % 2;
      const char copy = copies[sh]++ == 0 ? 'a' : 'b';
      lines.push_back("s" + std::to_string(sh) + copy + ": " + args[sh]);
    }
  }
  return lines;
}

std::size_t farm_probe_job(const std::vector<v2d::farm::FarmJob>& jobs) {
  // The first copy of shape 0 (gaussian-pulse at its big grid): the same
  // problem and grid under every seed, so per-layer numbers compare.
  for (std::size_t i = 0; i < jobs.size(); ++i)
    if (jobs[i].name == "s0a") return i;
  throw v2d::Error("farm job list has no probe job");
}

// --- pins -----------------------------------------------------------------------

Pins load_pins(const std::string& path, const std::string& workload) {
  std::ifstream in(path);
  if (!in) throw v2d::Error("cannot read pins file '" + path + "'");
  Pins out;
  std::string line;
  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string w, key, value;
    if (!(ls >> w >> key >> value)) continue;
    if (w == workload) out[key] = value;
  }
  return out;
}

SessionOutputs capture(Simulation& sim) {
  SessionOutputs out;
  out.steps = sim.steps_taken();
  out.analytic_error = sim.analytic_error();
  for (std::size_t k = 0; k < sim.exec().nprofiles(); ++k)
    out.clocks.push_back(sim.elapsed(k));
  out.field = sim.radiation().field().gather_global();
  const v2d::sim::CostLedger led = sim.exec().merged_ledger(0);
  out.ledger.flops = led.total_flops();
  out.ledger.bytes = led.total_bytes();
  for (const auto& [name, rc] : led.regions()) {
    if (name.rfind("mpi_halo", 0) != 0) continue;
    out.ledger.halo_msgs += rc.comm_messages;
    out.ledger.halo_bytes += rc.comm_bytes;
  }
  return out;
}

Pins pins_of(const SessionOutputs& out, long iterations) {
  Pins p;
  p["steps"] = std::to_string(out.steps);
  p["analytic_error"] = exact(out.analytic_error);
  if (iterations >= 0) p["iterations"] = std::to_string(iterations);
  for (std::size_t k = 0; k < out.clocks.size(); ++k)
    p["clock." + std::to_string(k)] = exact(out.clocks[k]);
  p["field_fnv"] = field_checksum(out.field);
  p["ledger_flops"] = std::to_string(out.ledger.flops);
  p["ledger_bytes"] = std::to_string(out.ledger.bytes);
  p["halo_msgs"] = std::to_string(out.ledger.halo_msgs);
  p["halo_bytes"] = std::to_string(out.ledger.halo_bytes);
  return p;
}

std::string pin_mismatch(const Pins& got, const Pins& want) {
  for (const auto& [key, value] : want) {
    auto it = got.find(key);
    if (it == got.end()) return key + " missing";
    if (it->second != value)
      return key + " = " + it->second + ", pinned " + value;
  }
  for (const auto& [key, value] : got)
    if (want.find(key) == want.end()) return key + " has no pin";
  return "";
}

// --- session loop ---------------------------------------------------------------

LoopResult run_sessions(const Workload& w, const Pins& pins, double seconds,
                        int host_threads, const std::string& tmp_dir,
                        Tracer& tr, int parent) {
  RunConfig cfg = w.cfg;
  cfg.host_threads = host_threads;
  if (cfg.checkpoint_every > 0)
    cfg.checkpoint_path = tmp_dir + "/" + w.name + ".h5l";
  const std::uint64_t ops = static_cast<std::uint64_t>(cfg.steps);

  LoopResult res;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  do {
    const int ep = tr.begin("episode", parent);
    ++res.episodes;
    res.attempted += ops;
    const Counters ep0 = Counters::now();
    std::unique_ptr<Simulation> sim;
    try {
      res.setup_s.push_back(timed(tr, "core.setup", ep, -1, [&] {
        sim = std::make_unique<Simulation>(cfg);
      }));
    } catch (const std::exception& e) {
      res.fail(std::string("set-up: ") + e.what(), ops);
      tr.end(ep);
      continue;
    }

    long iterations = 0;
    std::uint64_t done = 0;
    const auto busy0 = Clock::now();
    try {
      for (std::uint64_t k = 0; k < ops; ++k) {
        const double s = timed(tr, "core.step", ep, static_cast<int>(k), [&] {
          iterations += sim->drive_step().total_iterations();
        });
        res.op_ms.push_back(s * 1e3);
        if (k == 0) res.cold_ms.push_back(s * 1e3);
        ++done;
      }
      timed(tr, "io.finalize", ep, -1, [&] { sim->finalize_checkpoints(); });
    } catch (const std::exception& e) {
      res.fail(std::string("step: ") + e.what(), ops - done);
    }
    const double busy = seconds_between(busy0, Clock::now());
    res.episode_rate.push_back(static_cast<double>(done) / busy);
    res.steps += done;
    res.iterations += static_cast<std::uint64_t>(iterations);

    // The layer counts cover episodes only, not the extra set-ups below.
    const Counters counts = Counters::now().since(ep0);
    res.counters += counts;
    const SessionOutputs out = capture(*sim);
    if (done == ops) {
      const std::string bad = pin_mismatch(pins_of(out, iterations), pins);
      if (!bad.empty()) res.fail("pin mismatch: " + bad, ops);
      res.check_repeat(deterministic_counts(counts), ops);
    }
    res.ledger += out.ledger;
    sim.reset();
    const int extra = static_cast<int>(std::ceil(busy / kSetupEvery)) - 1;
    for (int r = 0; r < extra; ++r) {
      res.setup_s.push_back(timed(tr, "core.setup", ep, -1, [&] {
        sim = std::make_unique<Simulation>(cfg);
      }));
      sim.reset();
    }
    tr.end(ep);
  } while (Clock::now() < deadline);
  return res;
}

// --- farm loop ------------------------------------------------------------------

std::vector<v2d::farm::FarmJob> parse_jobs(
    const std::vector<std::string>& lines) {
  std::vector<v2d::farm::FarmJob> jobs;
  jobs.reserve(lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i)
    jobs.push_back(
        v2d::farm::parse_job_line(lines[i], "job-" + std::to_string(i + 1)));
  return jobs;
}

FarmInputs farm_inputs(std::uint64_t seed, int host_threads) {
  struct Solo {
    Pins pins;
    long iterations = 0;
    int steps = 0;
  };
  // Identical configurations (the two copies of a shape, and repeats
  // across lists) share one solo run; the text after the job name is the
  // configuration.
  std::map<std::string, Solo> by_config;
  FarmInputs in;
  for (int list = 0; list < kFarmLists; ++list) {
    in.lists.push_back(farm_job_lines(seed, list));
    std::vector<Pins>& refs = in.refs.emplace_back();
    for (const auto& line : in.lists.back()) {
      auto [it, fresh] = by_config.try_emplace(line.substr(line.find(':')));
      Solo& solo = it->second;
      if (fresh) {
        RunConfig cfg = v2d::farm::parse_job_line(line, "ref").cfg;
        cfg.host_threads = host_threads;
        Simulation sim(cfg);
        while (!sim.finished())
          solo.iterations += sim.drive_step().total_iterations();
        sim.finalize_checkpoints();
        solo.pins = pins_of(capture(sim), -1);
        solo.steps = cfg.steps;
      }
      refs.push_back(solo.pins);
      in.ref_iterations += static_cast<std::uint64_t>(solo.iterations);
      in.ref_steps += static_cast<std::uint64_t>(solo.steps);
    }
  }
  return in;
}

LoopResult run_farm(std::uint64_t seed, const FarmInputs& in, double seconds,
                    int host_threads, Tracer& tr, int parent) {
  LoopResult res;
  const Counters loop0 = Counters::now();
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  do {
    const int list = static_cast<int>(res.episodes % in.lists.size());
    const std::vector<Pins>& refs = in.refs[static_cast<std::size_t>(list)];
    const int batch = tr.begin("farm.batch", parent, list);
    ++res.episodes;
    const Counters ep0 = Counters::now();

    std::vector<Clock::time_point> completed;
    std::vector<SessionOutputs> got;
    std::unique_ptr<v2d::farm::FarmScheduler> sched;
    std::size_t njobs = 0;
    res.setup_s.push_back(timed(tr, "farm.setup", batch, -1, [&] {
      std::vector<v2d::farm::FarmJob> jobs =
          parse_jobs(farm_job_lines(seed, list));
      njobs = jobs.size();
      v2d::farm::FarmOptions opt;
      opt.host_threads = host_threads;
      opt.max_concurrent = kFarmMaxConcurrent;
      // The farm calls this between waves on the driving thread, so it
      // only stamps the completion and copies the outputs out; checksums
      // and comparisons wait until run() returns.
      opt.on_job_complete = [&](std::size_t i, Simulation& sim) {
        const auto now = Clock::now();
        completed[i] = now;
        got[i] = capture(sim);
        res.callback_s += seconds_between(now, Clock::now());
      };
      sched = std::make_unique<v2d::farm::FarmScheduler>(std::move(opt));
      for (auto& job : jobs) sched->add(std::move(job));
    }));
    completed.assign(njobs, Clock::time_point{});
    got.assign(njobs, SessionOutputs{});
    res.attempted += njobs;

    const int run_span = tr.begin("farm.run", batch);
    const auto t0 = Clock::now();
    v2d::farm::FarmSummary sum;
    try {
      sum = sched->run();
    } catch (const std::exception& e) {
      res.fail(std::string("farm run: ") + e.what(), njobs);
      tr.end(run_span);
      tr.end(batch);
      continue;
    }
    const auto t1 = Clock::now();
    tr.end(run_span);
    res.busy_s += seconds_between(t0, t1);
    res.episode_rate.push_back(static_cast<double>(sum.scenario_steps) /
                               seconds_between(t0, t1));
    res.steps += sum.scenario_steps;

    for (std::size_t i = 0; i < njobs; ++i) {
      const v2d::farm::JobResult& r = sum.jobs[i];
      if (!r.error.empty()) {
        res.fail("job " + r.name + ": " + r.error, 1);
        res.op_ms.push_back(seconds_between(t0, t1) * 1e3);
        continue;
      }
      tr.add("farm.job", t0, completed[i], run_span, static_cast<int>(i));
      res.op_ms.push_back(seconds_between(t0, completed[i]) * 1e3);
      res.ledger += got[i].ledger;
      const std::string bad = pin_mismatch(pins_of(got[i], -1), refs.at(i));
      if (!bad.empty()) res.fail("job " + r.name + " vs solo: " + bad, 1);
    }
    res.waves += sum.waves;
    res.retries += sum.retries;
    res.price_hits += sum.price_hits;
    res.price_misses += sum.price_misses;
    res.ws_created += sum.workspaces_created;
    res.ws_reused += sum.workspaces_reused;

    std::map<std::string, std::uint64_t> counts =
        deterministic_counts(Counters::now().since(ep0));
    counts["price_lookups"] = sum.price_hits + sum.price_misses;
    counts["waves"] = sum.waves;
    counts["workspace_acquires"] =
        sum.workspaces_created + sum.workspaces_reused;
    std::map<std::string, std::uint64_t> keyed;
    for (const auto& [key, value] : counts)
      keyed["list" + std::to_string(list) + "." + key] = value;
    res.check_repeat(keyed, njobs);
    tr.end(batch);
  } while (Clock::now() < deadline || res.episodes % in.lists.size() != 0);
  res.counters = Counters::now().since(loop0);
  return res;
}

}  // namespace perfbench
