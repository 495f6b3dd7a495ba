#include "workloads.hpp"

#include <chrono>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "decomp/bus_partition.hpp"
#include "fault/topology_replay.hpp"
#include "graph/partitioner.hpp"
#include "stats.hpp"

namespace framebench {
namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// The 10k tier's partition seed, as the repository's scale bench uses.
constexpr std::uint64_t kPartitionSeed = 7;

/// Cycles the replay plan covers; the closed loop never runs past it.
constexpr std::int64_t kReplayHorizon = 4000;

}  // namespace

WorkloadSpec workload_by_name(const std::string& name) {
  WorkloadSpec w;
  w.name = name;
  if (name == "track-10k") {
    w.clusters = 4;
    w.transport = core::Transport::kInproc;
    w.truth = core::TruthMode::kDcLinearized;
    w.partition_k = 32;
    w.fixed_frames = 6;
    w.ratio_frames = 3;
    w.probe_frames = 2;
    w.setup_reps = 5;
  } else if (name == "frames-118-medici") {
    w.clusters = 3;
    w.transport = core::Transport::kMedici;
    w.truth = core::TruthMode::kAcPowerFlow;
    w.fixed_frames = 40;
    w.ratio_frames = 40;
    w.think_seconds = 0.04;
    w.probe_frames = 10;
    w.rounds = 12;
    w.setup_reps = 8;
  } else if (name == "replay-wecc37-tcp") {
    w.clusters = 3;
    w.transport = core::Transport::kTcp;
    w.truth = core::TruthMode::kDcLinearized;
    w.replay = true;
    w.fixed_frames = 40;
    w.ratio_frames = 40;
    // A bus split can leave a neighbour's |V| barely observed until the
    // merge: on such frames the centralized WLS errs by ~0.04 p.u. and the
    // DSE by up to ~0.065 (ratio ~1.6, as on healthy frames).
    w.vm_error_bound = 0.1;
    w.probe_frames = 10;
    w.rounds = 6;
    w.setup_reps = 5;
  } else {
    throw std::invalid_argument("unknown workload \"" + name + "\"");
  }
  return w;
}

Seeds derive_seeds(std::uint64_t workload_seed) {
  Seeds s;
  s.noise = splitmix64(workload_seed ^ 0x0015eull);
  s.replay = splitmix64(workload_seed ^ 0x2e91a7ull);
  s.load_phase = 2.0 * std::numbers::pi *
                 static_cast<double>(splitmix64(workload_seed ^ 0x10adull) %
                                     1000000ull) /
                 1e6;
  return s;
}

double frame_time(std::size_t i) { return 2.0 * static_cast<double>(i); }

fault::TopologyReplayPlan make_replay_plan(const grid::Network& network,
                                           std::uint64_t seed,
                                           std::int64_t horizon) {
  fault::TopologyReplayPlan plan;
  plan.seed = seed;
  fault::ReplayScenarioOptions options;
  options.start_cycle = 1;
  std::uint64_t arc_seed = seed;
  while (options.start_cycle <= horizon) {
    arc_seed = splitmix64(arc_seed);
    const fault::TopologyReplayPlan arc =
        fault::TopologyReplayPlan::generate(network, arc_seed, options);
    if (arc.events.empty()) {
      break;
    }
    for (const fault::ScheduledTopologyEvent& e : arc.events) {
      if (e.cycle <= horizon) {
        plan.events.push_back(e);
      }
    }
    // One quiet frame on the restored base topology between arcs.
    options.start_cycle = arc.last_cycle() + 2;
  }
  return plan;
}

Inputs make_inputs(const WorkloadSpec& spec, const Seeds& seeds) {
  Inputs in;
  auto t0 = Clock::now();
  if (spec.name == "track-10k") {
    in.generated = io::interconnection10k();
  } else if (spec.name == "frames-118-medici") {
    in.generated = io::ieee118_dse();
  } else {
    in.generated = io::wecc37();
  }
  in.case_seconds = since(t0);

  if (spec.partition_k > 0) {
    t0 = Clock::now();
    graph::PartitionOptions popts;
    popts.k = static_cast<graph::PartId>(spec.partition_k);
    popts.seed = kPartitionSeed;
    popts.objective = graph::PartitionObjective::kConvergenceAware;
    in.generated.subsystem_of_bus =
        decomp::partition_buses(in.generated.kase.network, popts);
    in.partition_seconds = since(t0);
  }

  core::SystemConfig& cfg = in.config;
  cfg.mapping.num_clusters = spec.clusters;
  cfg.dse.workers_per_cluster = 1;
  cfg.transport = spec.transport;
  cfg.truth_mode = spec.truth;
  cfg.seed = seeds.noise;
  // A slow ±6% swing with a seeded phase: every frame re-solves the truth
  // at a new operating point (a 4-minute period at one frame per 2 s).
  const double phase = seeds.load_phase;
  cfg.load_profile = [phase](double t) {
    return 1.0 + 0.06 * std::sin(2.0 * std::numbers::pi * t / 240.0 + phase);
  };
  if (spec.replay) {
    cfg.topology.plan =
        make_replay_plan(in.generated.kase.network, seeds.replay,
                         kReplayHorizon)
            .to_json();
  }
  return in;
}

}  // namespace framebench
