#pragma once

// The traced run: builds each frame from the same public calls
// DseSystem::run_cycle makes (truth solve, measurement synthesis, topology
// mask and anchors, cluster mapping and redistribution planning, world
// construction, DseDriver::run inside world.run), with a span around each
// call. Plus the kernel probes that re-time each subsystem's Step-1 model
// and gain outside the frame.

#include <memory>
#include <optional>
#include <vector>

#include "core/architecture.hpp"
#include "spans.hpp"

namespace framebench {

using namespace gridse;  // NOLINT(google-build-using-namespace)

/// What one composed frame produced.
struct ComposedFrame {
  grid::GridState estimate;
  bool converged = false;
  bool degraded = false;
  double max_vm_error = 0.0;
  /// DseResult of every rank (index = rank).
  std::vector<core::DseResult> ranks;
  std::size_t redistribution_moves = 0;
  int events_applied = 0;
  bool repartitioned = false;
  /// Span id of the frame's root span.
  int frame_span = -1;
};

class FrameComposer {
 public:
  FrameComposer(io::GeneratedCase generated, core::SystemConfig config);

  /// One frame at anchor `time_sec`, recorded under `frame` in `rec`.
  ComposedFrame run_frame(double time_sec, SpanRecorder& rec,
                          std::int64_t frame);

  [[nodiscard]] const grid::Network& network() const {
    return generated_.kase.network;
  }
  [[nodiscard]] const decomp::Decomposition& decomposition() const {
    return decomposition_;
  }
  [[nodiscard]] const grid::MeasurementSet& last_measurements() const {
    return last_measurements_;
  }
  [[nodiscard]] const core::SystemConfig& config() const { return config_; }

 private:
  void react_to_topology(const std::vector<std::size_t>& changed,
                         const grid::IslandReport& islands, SpanRecorder& rec,
                         int parent, std::int64_t frame,
                         ComposedFrame& out);
  [[nodiscard]] double decomposition_score() const;
  [[nodiscard]] grid::GridState truth(const grid::Network& network,
                                      const grid::IslandReport* islands) const;

  io::GeneratedCase generated_;
  core::SystemConfig config_;
  decomp::Decomposition decomposition_;
  grid::GridState true_state_;
  std::unique_ptr<grid::MeasurementGenerator> generator_;
  Rng rng_;
  grid::MeasurementSet last_measurements_;
  std::optional<std::vector<graph::PartId>> previous_assignment_;
  std::unique_ptr<grid::LiveTopology> live_topology_;
  std::unique_ptr<fault::TopologyReplayHarness> replay_;
  grid::GridState last_estimate_;
  std::vector<char> bus_energized_prev_;
  double partition_baseline_score_ = 0.0;
  std::int64_t cycle_index_ = 0;
};

/// Kernel timings of one frame, summed over subsystems.
struct KernelProbe {
  double extract_s = 0.0;     ///< LocalEstimator construction
  double filter_s = 0.0;      ///< SubsystemModel::filter on the global set
  double h_eval_s = 0.0;      ///< evaluate × (Step-1 GN iterations + 1)
  double jacobian_s = 0.0;    ///< jacobian × Step-1 GN iterations
  double assemble_s = 0.0;    ///< NormalAssembler::assemble, once
  double ic0_build_s = 0.0;   ///< Ic0Preconditioner over the lower plan
  double pcg_s = 0.0;         ///< sparse::pcg to the WLS inner tolerance
  double ldlt_factor_s = 0.0; ///< plan-driven numeric LDLᵀ
  double ldlt_solve_s = 0.0;
  double gain_nnz = 0.0;
  double gain_dim = 0.0;
  double factor_nnz = 0.0;  ///< strict lower triangle of L
  double pcg_iters = 0.0;
};

/// Max ÷ median of the program-reported Step-1 seconds per subsystem
/// (LocalSolveInfo::seconds over every rank's traces).
double step1_straggler_ratio(const ComposedFrame& frame);

/// Re-time every subsystem's Step-1 kernels on the frame's measurements at
/// the frame's combined estimate. `frame.ranks` supplies the per-subsystem
/// Step-1 iteration counts.
KernelProbe probe_kernels(const FrameComposer& composer,
                          const ComposedFrame& frame);

/// Seconds one event-driven repartition takes on the composer's live
/// network and decomposition: the calls DseSystem makes when the
/// decomposition score crosses the repartition threshold
/// (decomp::partition_buses into the current subsystem count, decompose,
/// analyze_sensitivity), run on copies outside the frame.
double probe_repartition(const FrameComposer& composer);

}  // namespace framebench
