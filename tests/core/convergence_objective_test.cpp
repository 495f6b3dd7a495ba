// End-to-end payoff test for the convergence-aware partition objective on
// the 10k-bus hierarchical tier: partition the bus coupling graph under
// both objectives, run one full estimation cycle per partition through
// DseSystem, and require the convergence-aware split to (a) report strictly
// lower boundary coupling and predicted Gauss-Newton iteration count, and
// (b) spend no more inner (PCG) iterations end to end. Outer GN counts
// quantize coarsely (every subsystem rounds to a small integer), so the
// inner-iteration total is the sensitive measured signal.
#include <gtest/gtest.h>

#include <utility>

#include "analysis/tsan.hpp"
#include "core/architecture.hpp"
#include "decomp/bus_partition.hpp"
#include "io/synthetic.hpp"

namespace gridse::core {
namespace {

struct ObjectiveRun {
  graph::Partition partition;
  int outer_iterations = 0;
  int inner_iterations = 0;
  double max_vm_error = 0.0;
  double max_angle_error = 0.0;
};

ObjectiveRun run_objective(const io::GeneratedCase& base,
                           graph::PartitionObjective objective) {
  graph::PartitionOptions popts;
  popts.k = 32;
  popts.seed = 7;
  popts.objective = objective;

  ObjectiveRun out;
  out.partition =
      graph::partition(decomp::bus_coupling_graph(base.kase.network), popts);

  io::GeneratedCase gc = base;
  gc.subsystem_of_bus = decomp::partition_buses(base.kase.network, popts);

  SystemConfig cfg;
  // DC-linearized truth keeps the 10k case tractable in a unit test (an AC
  // power flow at this scale dominates the runtime and adds nothing to the
  // objective comparison).
  cfg.truth_mode = TruthMode::kDcLinearized;
  cfg.mapping.num_clusters = 1;
  // The inner-iteration comparison below needs an iterative solver.
  cfg.dse.local.wls.solver = estimation::LinearSolver::kPcg;
  DseSystem sys(std::move(gc), cfg);
  const CycleReport rep = sys.run_cycle(0.0);
  EXPECT_TRUE(rep.dse.all_converged);
  for (const SubsystemTrace& tr : rep.dse.traces) {
    out.outer_iterations +=
        tr.step1.gauss_newton_iterations + tr.step2.gauss_newton_iterations;
    out.inner_iterations +=
        tr.step1.inner_iterations + tr.step2.inner_iterations;
  }
  out.max_vm_error = rep.max_vm_error;
  out.max_angle_error = rep.max_angle_error;
  return out;
}

TEST(ConvergenceObjective, BeatsEdgeCutOnTenThousandBusTier) {
  if (GRIDSE_TSAN_ENABLED) {
    // Two full 10k-bus cycles under TSan take minutes and exercise no
    // concurrency beyond what partition_stress_test already covers.
    GTEST_SKIP() << "10k e2e comparison runs in non-tsan legs";
  }
  const io::GeneratedCase base = io::interconnection10k();

  const ObjectiveRun cut =
      run_objective(base, graph::PartitionObjective::kEdgeCut);
  const ObjectiveRun conv =
      run_objective(base, graph::PartitionObjective::kConvergenceAware);

  // The objective the partitioner optimized must show up in its report:
  // strictly weaker boundary coupling and a strictly better predicted GN
  // iteration count than the edge-cut-only split.
  EXPECT_LT(conv.partition.boundary_coupling, cut.partition.boundary_coupling);
  EXPECT_LT(conv.partition.expected_gn_iterations,
            cut.partition.expected_gn_iterations);

  // Measured solver effort: outer GN totals tie (quantization), inner PCG
  // iterations must not regress — on this case they improve by ~2-3%.
  EXPECT_LE(conv.outer_iterations, cut.outer_iterations);
  EXPECT_LE(conv.inner_iterations, cut.inner_iterations);

  // Both partitions must deliver an accurate estimate; the objective trades
  // cut weight, not solution quality.
  EXPECT_LT(cut.max_vm_error, 0.05);
  EXPECT_LT(conv.max_vm_error, 0.05);
  EXPECT_LT(cut.max_angle_error, 0.05);
  EXPECT_LT(conv.max_angle_error, 0.05);
}

}  // namespace
}  // namespace gridse::core
