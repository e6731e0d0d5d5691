#pragma once
/// \file workloads.hpp
/// \brief The benchmark's workloads, their output pins and measured loops.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/v2d.hpp"
#include "farm/farm.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  bool farm = false;
  /// Session workloads: the configuration of one episode (cfg.steps is
  /// the episode length).  Farm: unused beyond host_threads.
  v2d::core::RunConfig cfg;
};

/// Looks a workload up by name; throws v2d::Error for an unknown name.
Workload find_workload(const std::string& name);

/// Job lists one farm-mix run cycles through, batch after batch.  The run
/// averages over several seeded lists so its figures do not hinge on one
/// list's draws.
constexpr int kFarmLists = 8;

/// Job list `list` (0 <= list < kFarmLists) of `seed`, as `v2d --farm`
/// job-file lines.
std::vector<std::string> farm_job_lines(std::uint64_t seed, int list);
/// Parses job-file lines with the farm's own parser.
std::vector<v2d::farm::FarmJob> parse_jobs(
    const std::vector<std::string>& lines);
/// Index of the job the traced run probes layers on.
std::size_t farm_probe_job(const std::vector<v2d::farm::FarmJob>& jobs);

/// Exact output pins: key -> value printed with every significant digit.
using Pins = std::map<std::string, std::string>;

/// Reads `path` (lines "workload key value"; '#' starts a comment) and
/// returns the pins of `workload`.  Throws v2d::Error when the file cannot
/// be read.
Pins load_pins(const std::string& path, const std::string& workload);

/// The raw outputs of a finished session, copied out so that checksums
/// and comparisons can run outside every timed region.
struct SessionOutputs {
  int steps = 0;
  double analytic_error = 0.0;
  std::vector<double> clocks;  ///< simulated clock of every profile
  std::vector<double> field;   ///< the global radiation field
  LedgerTally ledger;          ///< tallies of the profile-0 ledgers
};
SessionOutputs capture(v2d::core::Simulation& sim);

/// The pins of a finished session: correctness number, simulated clock of
/// every profile, a checksum of the final radiation field and the
/// simulated ledger tallies.  `iterations` < 0 leaves the iteration pin
/// out (the farm does not expose per-step solver statistics).
Pins pins_of(const SessionOutputs& out, long iterations);

/// First differing key of `got` against `want`, or "" when they match.
std::string pin_mismatch(const Pins& got, const Pins& want);

/// A session loop takes one set-up sample per kSetupEvery seconds of
/// stepping: each episode's own set-up, plus extra set-ups right after
/// the episode when it ran longer.  So setup_s rests on about as many
/// samples, spread over the whole run, however long the episodes are.
constexpr double kSetupEvery = 0.5;

/// Drives whole episodes (construct, drive every step, finalize) of a
/// session workload until `seconds` have passed (at least one episode),
/// checking each episode's pins, with extra set-ups between episodes (see
/// kSetupEvery).  `host_threads` overrides the workload's thread count.
/// Spans go to `tr` under `parent`.
LoopResult run_sessions(const Workload& w, const Pins& pins, double seconds,
                        int host_threads, const std::string& tmp_dir,
                        Tracer& tr, int parent);

/// The seed's job lists plus the solo pins of every job in them: the farm
/// must reproduce each job's pins exactly.
struct FarmInputs {
  std::vector<std::vector<std::string>> lists;
  std::vector<std::vector<Pins>> refs;  ///< [list][job]
  std::uint64_t ref_iterations = 0;     ///< solo BiCGSTAB iterations, all jobs
  std::uint64_t ref_steps = 0;          ///< solo steps, all jobs
};
/// Builds the job lists and runs every distinct job once, solo.
FarmInputs farm_inputs(std::uint64_t seed, int host_threads);

/// Runs the job lists through FarmScheduler, one batch per list in turn,
/// in whole cycles over the lists until `seconds` have passed (at least
/// one cycle), so every list weighs the same in the run's figures.
LoopResult run_farm(std::uint64_t seed, const FarmInputs& in, double seconds,
                    int host_threads, Tracer& tr, int parent);

/// Farm lanes and resident sessions of farm-mix.
constexpr int kFarmLanes = 4;
constexpr int kFarmMaxConcurrent = 4;

}  // namespace perfbench
