#pragma once
/// \file probes.hpp
/// \brief Per-layer probes of the traced run.
///
/// A probe times one layer's public call on the workload's own shapes —
/// its grid, decomposition, vector length and exec context — in spans
/// under a "probe" root.  The library is not instrumented: each probe
/// calls the layer directly from the benchmark, on a probe session built
/// from the workload's configuration after the measured loops.

#include <string>

#include "bench.hpp"
#include "core/config.hpp"

namespace perfbench {

/// Runs every layer probe for `cfg` and adds the probe-timed per-layer
/// metrics, core.step_ms and core.step_unattributed_ms to `out`.  Files
/// go to `tmp_dir`.
void run_probes(v2d::core::RunConfig cfg, const std::string& tmp_dir,
                Tracer& tr, Metrics& out);

}  // namespace perfbench
