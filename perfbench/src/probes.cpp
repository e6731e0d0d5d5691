#include "probes.hpp"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "core/session_shared.hpp"
#include "core/v2d.hpp"
#include "hydro/euler.hpp"
#include "hydro/setups.hpp"
#include "linalg/dist_vector.hpp"
#include "linalg/kernel_counts.hpp"
#include "linalg/kernels_native.hpp"
#include "mpisim/price_memo.hpp"
#include "vla/vla.hpp"

namespace perfbench {

namespace {

using v2d::linalg::KernelShape;

/// Times `fn` in `batches` spans named `name`, each running enough calls
/// to last about `batch_s` (calibrated on one warm-up call; the span's
/// arg is the call count).  Returns the median per-call seconds.
template <typename Fn>
double per_call(Tracer& tr, const std::string& name, int parent, Fn&& fn,
                double batch_s, int batches) {
  const auto c0 = Clock::now();
  fn();
  const double one = std::max(seconds_between(c0, Clock::now()), 1e-9);
  const int calls =
      static_cast<int>(std::clamp(batch_s / one, 1.0, double(1 << 22)));
  std::vector<double> per;
  for (int b = 0; b < batches; ++b) {
    const double s = timed(tr, name, parent, calls, [&] {
      for (int i = 0; i < calls; ++i) fn();
    });
    per.push_back(s / calls);
  }
  return median(per);
}

/// The row kernels the solvers call most, at one tile-row length.
const KernelShape kProbeShapes[] = {KernelShape::StencilRow,
                                    KernelShape::Dprod, KernelShape::Daxpy,
                                    KernelShape::Copy,  KernelShape::Xpby,
                                    KernelShape::Hadamard};

/// ns per count-memo lookup (record_analytic, the call every row-level
/// kernel makes) from `threads` threads on forks of one context family.
double memo_lookup_ns(Tracer& tr, int parent, unsigned bits,
                      std::uint64_t n, int threads) {
  constexpr int kLookups = 200000;
  constexpr int kBatches = 5;
  v2d::vla::Context proto(v2d::vla::VectorArch(bits),
                          v2d::vla::VlaExecMode::Native);
  for (KernelShape s : kProbeShapes) v2d::linalg::record_analytic(proto, s, n);

  auto lookups = [n](v2d::vla::Context& ctx) {
    for (int i = 0; i < kLookups; ++i)
      v2d::linalg::record_analytic(
          ctx, kProbeShapes[static_cast<std::size_t>(i) % std::size(kProbeShapes)],
          n);
  };
  std::vector<double> per;
  for (int b = 0; b < kBatches; ++b) {
    std::vector<double> thread_s(static_cast<std::size_t>(threads), 0.0);
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    const int id = tr.begin("vla.memo_lookups", parent, threads);
    {
      std::vector<std::thread> pool;
      for (int t = 0; t < threads; ++t)
        pool.emplace_back([&, t] {
          v2d::vla::Context ctx = proto.fork();
          ready.fetch_add(1);
          while (!go.load()) std::this_thread::yield();
          const auto t0 = Clock::now();
          lookups(ctx);
          thread_s[static_cast<std::size_t>(t)] =
              seconds_between(t0, Clock::now());
        });
      while (ready.load() < threads) std::this_thread::yield();
      go.store(true);
      for (auto& th : pool) th.join();
    }
    tr.end(id);
    per.push_back(*std::max_element(thread_s.begin(), thread_s.end()) /
                  kLookups * 1e9);
  }
  return median(per);
}

}  // namespace

void run_probes(v2d::core::RunConfig cfg, const std::string& tmp_dir,
                Tracer& tr, Metrics& out) {
  using v2d::core::Simulation;
  cfg.checkpoint_path = tmp_dir + "/probe-cadence.h5l";
  const int root = tr.begin("probe");

  Simulation ps(cfg);
  v2d::linalg::ExecContext& ctx = ps.context();
  // Whole drive_steps alternate with the radiation layer's own step call
  // on the same session, so both see adjacent states of one trajectory
  // and the dt the workload really solves at (CFL-limited on
  // sedov-radhydro).  core.step minus rad.step (and the hydro probes
  // below) is the step time no layer span covers.
  double dt = 0.0;
  std::vector<double> step_ms, rad_ms;
  for (int k = 0; k < 3; ++k) {
    const double t0 = ps.time();
    step_ms.push_back(
        1e3 * timed(tr, "core.step", root, k, [&] { ps.drive_step(); }));
    dt = ps.time() - t0;
    rad_ms.push_back(1e3 * timed(tr, "rad.step", root, k, [&] {
      ps.stepper().step(ctx, ps.radiation(), dt);
    }));
  }
  out["core.step_ms"] = {median(step_ms), "ms"};
  double unattributed = median(step_ms) - median(rad_ms);

  // --- rad: the three BiCGSTAB call sites -----------------------------------
  for (int site = 0; site < 3; ++site) {
    std::vector<double> ms;
    for (int r = 0; r < 3; ++r)
      ms.push_back(1e3 * timed(tr, "rad.solve_site", root, site, [&] {
        ps.stepper().solve_site(ctx, ps.radiation(), dt, site);
      }));
    out["rad.solve_ms.site" + std::to_string(site + 1)] = {median(ms), "ms"};
  }

  // --- linalg: the ganged dot and native kernels on rank 0's tile -----------
  {
    v2d::linalg::DistVector a(ps.grid(), ps.decomp(), cfg.ns);
    v2d::linalg::DistVector b(ps.grid(), ps.decomp(), cfg.ns);
    a.copy_from(ctx, ps.radiation());
    b.copy_from(ctx, ps.radiation());
    const v2d::linalg::DistVector::DotPair pairs[] = {{&a, &b}, {&b, &b}};
    volatile double sink = 0.0;
    const double s = per_call(tr, "linalg.dot_ganged", root, [&] {
      sink = sink + v2d::linalg::DistVector::dot_ganged(ctx, pairs)[0];
    }, 0.02, 5);
    out["linalg.dot_ganged_us"] = {s * 1e6, "us"};
  }
  const v2d::grid::TileExtent ext = ps.decomp().extent(0);
  const std::size_t ni = static_cast<std::size_t>(ext.ni);
  const std::size_t rows = static_cast<std::size_t>(ext.nj) * cfg.ns;
  const unsigned vl = ctx.vctx.lanes();
  {
    const std::size_t stride = ni + 2;
    std::vector<double> x((rows + 2) * stride, 1.0), y(rows * ni, 0.5);
    std::vector<double> coef(5 * rows * ni);
    for (std::size_t i = 0; i < coef.size(); ++i)
      coef[i] = 0.2 + 1e-6 * static_cast<double>(i % 97);
    auto c = [&](std::size_t k, std::size_t row) {
      return coef.data() + (k * rows + row) * ni;
    };
    auto xr = [&](std::size_t row) { return x.data() + row * stride + 1; };
    volatile double sink = 0.0;
    const double matvec = per_call(tr, "linalg.matvec", root, [&] {
      for (std::size_t r = 0; r < rows; ++r)
        v2d::linalg::native::stencil_row(c(0, r), c(1, r), c(2, r), c(3, r),
                                         c(4, r), xr(r + 1), xr(r), xr(r + 2),
                                         y.data() + r * ni, ni);
    }, 0.02, 5);
    const double dprod = per_call(tr, "linalg.dprod", root, [&] {
      double acc = 0.0;
      for (std::size_t r = 0; r < rows; ++r)
        acc += v2d::linalg::native::dprod(xr(r + 1), y.data() + r * ni, ni,
                                          vl);
      sink = sink + acc;
    }, 0.02, 5);
    const double daxpy = per_call(tr, "linalg.daxpy", root, [&] {
      for (std::size_t r = 0; r < rows; ++r)
        v2d::linalg::native::daxpy(1e-9, xr(r + 1), y.data() + r * ni, ni);
    }, 0.02, 5);
    out["linalg.matvec_us"] = {matvec * 1e6, "us"};
    out["linalg.dprod_us"] = {dprod * 1e6, "us"};
    out["linalg.daxpy_us"] = {daxpy * 1e6, "us"};
  }

  // --- vla: count-memo lookups from 1 and 4 threads -------------------------
  out["vla.memo_lookup_ns.t1"] = {
      memo_lookup_ns(tr, root, cfg.vector_bits, ni, 1), "ns"};
  out["vla.memo_lookup_ns.t4"] = {
      memo_lookup_ns(tr, root, cfg.vector_bits, ni, 4), "ns"};

  // --- mpisim: warm same-shape price lookups ---------------------------------
  {
    v2d::mpisim::PriceMemo memo;
    const auto& cost = ps.exec().cost_model();
    const auto& profile = ps.exec().profile(0);
    const std::uint64_t ws = ps.radiation().working_set(0, 3);
    std::vector<v2d::sim::KernelCounts> counts;
    for (KernelShape s : kProbeShapes)
      counts.push_back(v2d::linalg::analytic_counts(s, ni * ext.nj, vl));
    std::size_t i = 0;
    volatile double sink = 0.0;
    const double s = per_call(tr, "mpisim.price", root, [&] {
      const auto& k = counts[i++ % counts.size()];
      sink = sink + memo.price(cost, profile,
                               v2d::compiler::KernelFamily::Matvec, k, ws, 1)
                        .total_cycles();
    }, 0.01, 5);
    out["mpisim.price_us"] = {s * 1e6, "us"};
  }

  // --- grid: host halo exchange of the radiation field ----------------------
  {
    const double s = per_call(tr, "grid.exchange_ghosts", root, [&] {
      (void)ps.radiation().field().exchange_ghosts();
    }, 0.01, 5);
    out["grid.halo_exchange_us"] = {s * 1e6, "us"};
  }

  // --- hydro: HLL step and CFL reduction on the workload's decomposition ----
  {
    const v2d::hydro::GammaLawEos eos(5.0 / 3.0);
    v2d::hydro::HydroState gas(ps.grid(), ps.decomp());
    v2d::hydro::setup_sedov(gas, eos, 1.0, 0.08);
    v2d::hydro::HydroSolver solver(ps.grid(), ps.decomp(), eos,
                                   v2d::hydro::HydroBc::Reflecting, 0.3);
    volatile double sink = 0.0;
    const double cfl = per_call(tr, "hydro.cfl_dt", root, [&] {
      sink = sink + solver.cfl_dt(ctx, gas);
    }, 0.01, 5);
    const double hdt = solver.cfl_dt(ctx, gas);
    std::vector<double> ms;
    for (int r = 0; r < 5; ++r)
      ms.push_back(1e3 * timed(tr, "hydro.step", root, -1,
                               [&] { solver.step(ctx, gas, hdt); }));
    out["hydro.cfl_dt_us"] = {cfl * 1e6, "us"};
    out["hydro.step_ms"] = {median(ms), "ms"};
    if (cfg.problem == "sedov-radhydro")
      unattributed -= median(ms) + cfl * 1e3;
  }

  // --- io: one h5lite checkpoint of the session ------------------------------
  {
    const std::string path = tmp_dir + "/probe.h5l";
    std::vector<double> ms;
    for (int r = 0; r < 3; ++r)
      ms.push_back(1e3 * timed(tr, "io.checkpoint", root, -1,
                               [&] { ps.checkpoint(path); }));
    out["io.checkpoint_ms"] = {median(ms), "ms"};
    out["io.checkpoint_mb"] = {
        static_cast<double>(std::filesystem::file_size(path)) / 1e6, "MB"};
  }

  // --- farm: a session's set-up against a shared runtime ---------------------
  {
    v2d::core::SessionShared shared;
    std::vector<double> ms;
    for (int r = 0; r < 3; ++r) {
      std::unique_ptr<Simulation> s;
      ms.push_back(1e3 * timed(tr, "farm.session_setup", root, -1, [&] {
        s = std::make_unique<Simulation>(cfg, v2d::sim::MachineSpec::a64fx(),
                                         &shared);
      }));
    }
    out["farm.session_setup_ms"] = {median(ms), "ms"};
  }
  out["core.step_unattributed_ms"] = {unattributed, "ms"};
  tr.end(root);
}

}  // namespace perfbench
