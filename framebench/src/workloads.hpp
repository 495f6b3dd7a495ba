#pragma once

// The benchmark's three workloads and the seeded inputs each one feeds the
// program. Everything seeded that the program receives is derived here from
// the one workload seed; the program never sees that seed itself, only the
// config and replay plan generated from it.

#include <cstdint>
#include <string>

#include "core/architecture.hpp"
#include "io/synthetic.hpp"

namespace framebench {

using namespace gridse;  // NOLINT(google-build-using-namespace)

struct WorkloadSpec {
  std::string name;
  int clusters = 3;
  core::Transport transport = core::Transport::kInproc;
  core::TruthMode truth = core::TruthMode::kDcLinearized;
  /// Bus-level convergence-aware partition into this many subsystems (0 =
  /// keep the generator's own decomposition).
  int partition_k = 0;
  /// Seeded topology replay for the whole run.
  bool replay = false;
  /// Exact per-cycle figures (bytes, iterations, events) are averaged over
  /// this many warm frames, so they repeat on a seed whatever the run length.
  int fixed_frames = 10;
  /// Frames at the end of the fixed window whose accuracy is checked
  /// against the centralized WLS (solved after the loop).
  int ratio_frames = 10;
  /// Idle time after each frame returns, before the next starts. Each
  /// cycle rebuilds its socket world, and every closed connection sits in
  /// TIME_WAIT for a minute; without a pause, back-to-back runs fill the
  /// loopback ephemeral port range and connect() slows every later cycle
  /// by up to 2x — a property of how many runs came before, not of the
  /// code. Excluded from all timings.
  double think_seconds = 0.0;
  /// Traced frames whose kernels are re-timed by the probes.
  int probe_frames = 5;
  /// Output-check bounds: max |V| error vs truth (p.u.) on every converged
  /// frame — the bound the repository's system tests use, doubled under
  /// topology replay — and DSE ÷ centralized max |V| error on the checked
  /// frames.
  double vm_error_bound = 0.05;
  double vm_ratio_bound = 6.0;
  /// Rounds per run. Each round sets up a fresh system `setup_reps` times
  /// and runs a closed loop of --seconds / rounds on the last one; setup
  /// times, first cycles and warm cycles are pooled over the rounds. On a
  /// shared host the setup and cold-cycle cost of a round falls in one of
  /// two modes (~3.1 or ~4.4 ms setup on frames-118-medici), so many short
  /// rounds average the modes where a few long ones would not.
  int rounds = 1;
  /// Setup repetitions per round.
  int setup_reps = 3;
};

/// Look up a workload by name; throws std::invalid_argument when unknown.
WorkloadSpec workload_by_name(const std::string& name);

/// Seed-derived input streams (splitmix64 over distinct tags), so each is
/// independent and reproducible. The case itself is the repository's
/// pinned tier case (the generators' default seeds): across workload seeds
/// a different case moved the exact metrics by up to 15 % (quartile spread
/// of exchange bytes on 10 seeds), more than the bounds allow.
struct Seeds {
  std::uint64_t noise = 1;   ///< SystemConfig::seed, the measurement noise
  std::uint64_t replay = 1;  ///< topology replay arcs
  double load_phase = 0.0;   ///< radians
};
Seeds derive_seeds(std::uint64_t workload_seed);

/// Frame anchor of frame `i` (seconds): one SCADA frame every 2 s.
double frame_time(std::size_t i);

/// One prepared set of inputs plus how long each preparation stage took.
struct Inputs {
  io::GeneratedCase generated;
  core::SystemConfig config;
  double case_seconds = 0.0;       ///< io: case generation
  double partition_seconds = 0.0;  ///< graph: partition_buses (0 if none)
};

/// Generate the case (and partition it when the workload asks), and build
/// the system config: clusters, transport, truth, load profile, noise seed
/// and, for replay workloads, the inline topology plan.
Inputs make_inputs(const WorkloadSpec& spec, const Seeds& seeds);

/// The replay plan's events as scheduled: back-to-back outage → split →
/// hold → merge → restore arcs from TopologyReplayPlan::generate, covering
/// cycles 1..`horizon`.
fault::TopologyReplayPlan make_replay_plan(const grid::Network& network,
                                           std::uint64_t seed,
                                           std::int64_t horizon);

}  // namespace framebench
