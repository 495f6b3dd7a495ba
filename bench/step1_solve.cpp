// Step-1 solve bench (google-benchmark): DSE Step 1 over every subsystem of
// a decomposition (IEEE-118, WECC and the 32-subsystem 10k tier), one
// LocalEstimator::run_step1 after another with direct LDLt solves. Each
// estimator keeps its own SolverCache across iterations, as the DSE
// driver's per-subsystem caches do, so symbolic plans are analyzed
// once and the timed loop is the steady-state numeric work. The
// deterministic Gauss-Newton iteration counts and subsystem ("lanes") counts
// are exported as counters and gated in CI (tools/bench_gate.py promotes
// gn_iters / lanes counters to enforced).
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/local_estimator.hpp"
#include "decomp/decomposition.hpp"
#include "decomp/sensitivity.hpp"
#include "estimation/solver_cache.hpp"
#include "grid/dc_powerflow.hpp"
#include "grid/meas_generator.hpp"
#include "grid/powerflow.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

using namespace gridse;

/// One decomposed case with ready-to-solve measurements: the Step-1 inputs
/// of every subsystem.
struct CaseFixture {
  io::GeneratedCase generated;
  decomp::Decomposition d;
  grid::MeasurementSet meas;
};

/// The true state the measurements are drawn from: an AC power flow, or at
/// the 10k tier, where the AC power flow's dense Jacobian takes minutes and
/// gigabytes, the DC angles with every bus at its voltage setpoint.
grid::GridState truth_state(const grid::Network& net, bool ac) {
  if (ac) return grid::solve_power_flow(net).state;
  const auto dc = grid::solve_dc_power_flow(net);
  GRIDSE_CHECK_MSG(dc.has_value(), "bench: DC power flow is singular");
  grid::GridState state(net.num_buses());
  state.theta = dc->theta;
  for (grid::BusIndex b = 0; b < net.num_buses(); ++b) {
    state.vm[static_cast<std::size_t>(b)] = net.bus(b).v_setpoint;
  }
  return state;
}

CaseFixture make_fixture(const std::string& tier, bool ac_truth,
                         std::uint64_t seed) {
  CaseFixture fx{bench::load_case(tier), {}, {}};
  fx.d = decomp::decompose(fx.generated.kase.network,
                           fx.generated.subsystem_of_bus);
  decomp::analyze_sensitivity(fx.generated.kase.network, fx.d, {});
  const grid::GridState truth =
      truth_state(fx.generated.kase.network, ac_truth);
  grid::MeasurementPlan plan;
  for (const decomp::Subsystem& s : fx.d.subsystems) {
    plan.pmu_buses.push_back(s.buses.front());
  }
  grid::MeasurementGenerator gen(fx.generated.kase.network, plan);
  Rng rng(seed);
  fx.meas = gen.generate(truth, rng);
  return fx;
}

const CaseFixture& fixture118() {
  static const CaseFixture fx = make_fixture("ieee118", true, 7);
  return fx;
}

const CaseFixture& fixture_wecc() {
  static const CaseFixture fx = make_fixture("wecc37", true, 7);
  return fx;
}

const CaseFixture& fixture10k() {
  static const CaseFixture fx = make_fixture("10k", false, 7);
  return fx;
}

core::LocalEstimatorOptions ldlt_options() {
  core::LocalEstimatorOptions opts;
  opts.wls.solver = estimation::LinearSolver::kLdlt;
  return opts;
}

/// Per-subsystem run_step1, one estimator after another.
void bench_sequential(benchmark::State& state, const CaseFixture& fx) {
  std::vector<std::unique_ptr<core::LocalEstimator>> ests;
  for (int s = 0; s < fx.d.num_subsystems(); ++s) {
    core::LocalEstimatorOptions opts = ldlt_options();
    opts.wls.cache = std::make_shared<estimation::SolverCache>();
    ests.push_back(std::make_unique<core::LocalEstimator>(
        fx.generated.kase.network, fx.d, s, opts));
  }
  int gn_iters = 0;
  for (auto _ : state) {
    gn_iters = 0;
    for (auto& est : ests) {
      const core::LocalSolveInfo info = est->run_step1(fx.meas);
      gn_iters += info.gauss_newton_iterations;
      benchmark::DoNotOptimize(info.objective);
    }
  }
  state.counters["gn_iters"] = gn_iters;
  state.counters["lanes"] = static_cast<double>(ests.size());
}

void BM_Step1Sequential118(benchmark::State& s) {
  bench_sequential(s, fixture118());
}
void BM_Step1SequentialWecc(benchmark::State& s) {
  bench_sequential(s, fixture_wecc());
}
void BM_Step1Sequential10k(benchmark::State& s) {
  bench_sequential(s, fixture10k());
}

BENCHMARK(BM_Step1Sequential118)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Step1SequentialWecc)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Step1Sequential10k)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
