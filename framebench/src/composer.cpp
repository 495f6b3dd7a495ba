#include "composer.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>

#include "core/dse_driver.hpp"
#include "core/local_estimator.hpp"
#include "decomp/bus_partition.hpp"
#include "graph/partitioner.hpp"
#include "grid/dc_powerflow.hpp"
#include "grid/meas_model.hpp"
#include "grid/powerflow.hpp"
#include "medici/medici_comm.hpp"
#include "runtime/inproc_comm.hpp"
#include "runtime/tcp_comm.hpp"
#include "sparse/cg.hpp"
#include "sparse/ldlt.hpp"
#include "sparse/normal_equations.hpp"
#include "sparse/preconditioner.hpp"
#include "sparse/symbolic_plan.hpp"
#include "sparse/vector_ops.hpp"
#include "stats.hpp"
#include "util/error.hpp"

namespace framebench {
namespace {

/// DseSystem's DC-linearized truth: DC angles plus setpoint-anchored
/// magnitudes with the seed's jitter on PQ buses (dead buses at 0 when an
/// island report is given).
grid::GridState dc_truth(const grid::Network& network,
                         const std::vector<double>& theta,
                         const grid::IslandReport* islands,
                         std::uint64_t seed) {
  grid::GridState state(network.num_buses());
  state.theta = theta;
  Rng jitter(seed ^ 0xdc0ull);
  for (grid::BusIndex b = 0; b < network.num_buses(); ++b) {
    const grid::Bus& bus = network.bus(b);
    const double vm = bus.type == grid::BusType::kPQ
                          ? 1.0 + jitter.uniform(-0.02, 0.02)
                          : bus.v_setpoint;
    state.vm[static_cast<std::size_t>(b)] =
        islands == nullptr || islands->bus_energized(b) ? vm : 0.0;
  }
  return state;
}

}  // namespace

FrameComposer::FrameComposer(io::GeneratedCase generated,
                             core::SystemConfig config)
    : generated_(std::move(generated)),
      config_(std::move(config)),
      decomposition_(decomp::decompose(generated_.kase.network,
                                       generated_.subsystem_of_bus)),
      rng_(config_.seed) {
  // The same option resolution DseSystem's constructor performs.
  config_.resilience = runtime::with_env_overrides(config_.resilience);
  if (config_.dse.exchange_deadline.count() == 0) {
    config_.dse.exchange_deadline = config_.resilience.exchange_deadline;
  }
  config_.dse.degraded_step2 =
      config_.dse.degraded_step2 && config_.resilience.degraded_step2;
  config_.telemetry = runtime::with_env_overrides(config_.telemetry);
  if (!config_.dse.slo.any()) {
    config_.dse.slo = config_.telemetry.slo;
  }
  if (config_.dse.plan_registry == nullptr) {
    config_.dse.plan_registry = std::make_shared<core::PlanRegistry>();
  }
  decomp::analyze_sensitivity(generated_.kase.network, decomposition_,
                              config_.sensitivity);
  true_state_ = truth(generated_.kase.network, nullptr);
  last_estimate_ = true_state_;
  bus_energized_prev_.assign(
      static_cast<std::size_t>(generated_.kase.network.num_buses()), 1);
  config_.topology = runtime::with_env_overrides(config_.topology);
  if (!config_.topology.plan.empty()) {
    live_topology_ =
        std::make_unique<grid::LiveTopology>(generated_.kase.network);
    partition_baseline_score_ = decomposition_score();
    replay_ = std::make_unique<fault::TopologyReplayHarness>(
        fault::TopologyReplayPlan::parse(config_.topology.plan));
  }
  if (config_.plan.pmu_buses.empty()) {
    for (const decomp::Subsystem& s : decomposition_.subsystems) {
      config_.plan.pmu_buses.push_back(
          *std::min_element(s.buses.begin(), s.buses.end()));
    }
  }
  generator_ = std::make_unique<grid::MeasurementGenerator>(
      generated_.kase.network, config_.plan);
}

grid::GridState FrameComposer::truth(const grid::Network& network,
                                     const grid::IslandReport* islands) const {
  if (islands != nullptr) {
    return dc_truth(network,
                    grid::solve_dc_power_flow_islands(network, *islands).theta,
                    islands, config_.seed);
  }
  if (config_.truth_mode == core::TruthMode::kAcPowerFlow) {
    const grid::PowerFlowResult pf = grid::solve_power_flow(network);
    if (!pf.converged) {
      throw ConvergenceFailure("framebench: AC truth did not converge");
    }
    return pf.state;
  }
  const std::optional<grid::DcPowerFlow> dc =
      grid::solve_dc_power_flow(network);
  if (!dc) {
    throw ConvergenceFailure("framebench: DC truth is singular");
  }
  return dc_truth(network, dc->theta, nullptr, config_.seed);
}

double FrameComposer::decomposition_score() const {
  const graph::WeightedGraph g =
      decomp::bus_coupling_graph(generated_.kase.network);
  std::vector<graph::PartId> assignment;
  assignment.reserve(generated_.subsystem_of_bus.size());
  for (const int s : generated_.subsystem_of_bus) {
    assignment.push_back(static_cast<graph::PartId>(s));
  }
  const auto m = static_cast<graph::PartId>(decomposition_.subsystems.size());
  return graph::evaluate_partition(g, std::move(assignment), m)
      .expected_gn_iterations;
}

void FrameComposer::react_to_topology(const std::vector<std::size_t>& changed,
                                      const grid::IslandReport& islands,
                                      SpanRecorder& rec, int parent,
                                      std::int64_t frame, ComposedFrame& out) {
  const grid::Network& network = generated_.kase.network;
  const auto n = static_cast<std::size_t>(network.num_buses());
  const auto m = static_cast<int>(decomposition_.subsystems.size());
  std::vector<char> touched(static_cast<std::size_t>(m), 0);
  for (const std::size_t bi : changed) {
    const grid::Branch& br = network.branch(bi);
    touched[static_cast<std::size_t>(
        generated_.subsystem_of_bus[static_cast<std::size_t>(br.from)])] = 1;
    touched[static_cast<std::size_t>(
        generated_.subsystem_of_bus[static_cast<std::size_t>(br.to)])] = 1;
  }
  for (std::size_t b = 0; b < n; ++b) {
    const char live =
        islands.bus_energized(static_cast<grid::BusIndex>(b)) ? 1 : 0;
    if (live != bus_energized_prev_[b]) {
      touched[static_cast<std::size_t>(generated_.subsystem_of_bus[b])] = 1;
      bus_energized_prev_[b] = live;
    }
  }
  if (std::none_of(touched.begin(), touched.end(),
                   [](char t) { return t != 0; })) {
    return;
  }
  const double score = decomposition_score();
  const double threshold = config_.topology.repartition_threshold;
  if (threshold > 0.0 && partition_baseline_score_ > 0.0 &&
      score > threshold * partition_baseline_score_) {
    ScopedSpan span(rec, "graph.repartition", parent, frame);
    graph::PartitionOptions options;
    options.seed = config_.seed;
    options.objective = graph::PartitionObjective::kConvergenceAware;
    int k = m;
    if (config_.topology.k_min > 0 && config_.topology.k_max > 0) {
      const auto k_lo = static_cast<graph::PartId>(
          std::max(config_.topology.k_min, config_.mapping.num_clusters));
      const auto k_hi = static_cast<graph::PartId>(
          std::max(config_.topology.k_max, static_cast<int>(k_lo)));
      k = static_cast<int>(
          graph::choose_parts(decomp::bus_coupling_graph(network), options,
                              k_lo, k_hi)
              .k);
    }
    options.k = static_cast<graph::PartId>(k);
    std::vector<int> assignment = decomp::partition_buses(network, options);
    decomposition_ = decomp::decompose(network, assignment);
    generated_.subsystem_of_bus = std::move(assignment);
    decomp::analyze_sensitivity(network, decomposition_, config_.sensitivity);
    config_.dse.plan_registry->invalidate_all();
    previous_assignment_.reset();
    partition_baseline_score_ = decomposition_score();
    out.repartitioned = true;
  } else {
    for (int s = 0; s < m; ++s) {
      if (touched[static_cast<std::size_t>(s)] != 0) {
        config_.dse.plan_registry->invalidate(s);
      }
    }
  }
}

ComposedFrame FrameComposer::run_frame(double time_sec, SpanRecorder& rec,
                                       std::int64_t frame) {
  ComposedFrame out;
  ScopedSpan frame_span(rec, "frame", -1, frame);
  out.frame_span = frame_span.id();
  const int root = frame_span.id();

  // 3a. Topology: apply this frame's replay batch, islands, react.
  std::optional<grid::IslandReport> islands;
  if (live_topology_ != nullptr) {
    ScopedSpan span(rec, "grid.topology", root, frame);
    std::vector<std::size_t> changed;
    if (replay_ != nullptr) {
      const std::size_t before = replay_->events_applied();
      changed = replay_->apply_cycle(cycle_index_, *live_topology_);
      out.events_applied =
          static_cast<int>(replay_->events_applied() - before);
    }
    if (!changed.empty()) {
      generator_->sync_ybus(live_topology_->ybus());
    }
    islands = live_topology_->islands();
    react_to_topology(changed, *islands, rec, span.id(), frame, out);
  }

  // 1. Truth solve at the frame's load level (kept as is when neither the
  // load nor the topology moves).
  if (islands || config_.load_profile) {
    ScopedSpan span(rec, "grid.truth", root, frame);
    grid::Network scaled = generated_.kase.network;
    if (config_.load_profile) {
      scaled.scale_loads(config_.load_profile(time_sec));
    }
    true_state_ = truth(scaled, islands ? &*islands : nullptr);
  }

  // 2. Measurement synthesis.
  {
    ScopedSpan span(rec, "grid.synthesis", root, frame);
    last_measurements_ = generator_->generate(true_state_, rng_, time_sec);
  }

  // 3b. De-energization mask and anchors.
  if (live_topology_ != nullptr) {
    ScopedSpan span(rec, "grid.topology", root, frame);
    grid::MaskedMeasurements masked = grid::mask_measurements(
        generated_.kase.network, *islands, last_measurements_);
    grid::AnchorOptions anchor_options;
    anchor_options.angle_sigma = config_.topology.anchor_angle_sigma;
    anchor_options.dead_sigma = config_.topology.dead_pin_sigma;
    grid::append_anchor_measurements(
        generated_.kase.network, *islands, generated_.subsystem_of_bus,
        last_estimate_, masked.active, anchor_options);
    last_measurements_ = std::move(masked.active);
  }

  // 4. Mapping and redistribution planning.
  const int k = config_.mapping.num_clusters;
  mapping::MappingResult map1;
  mapping::MappingResult map2;
  {
    ScopedSpan span(rec, "mapping.map", root, frame);
    mapping::ClusterMapper mapper(decomposition_, config_.mapping,
                                  config_.weight_model);
    map1 = mapper.map_before_step1(
        time_sec, previous_assignment_ ? &*previous_assignment_ : nullptr);
    map2 = mapper.map_before_step2(time_sec, map1.partition.assignment);
    out.redistribution_moves =
        mapping::plan_redistribution(decomposition_, map1.partition.assignment,
                                     map2.partition.assignment)
            .moves.size();
    previous_assignment_ = map2.partition.assignment;
  }

  // 5–6. World construction, then DseDriver::run on every rank.
  const core::DseDriver driver(generated_.kase.network, decomposition_,
                               config_.dse);
  out.ranks.resize(static_cast<std::size_t>(k));
  std::mutex results_mutex;
  int run_span = -1;
  const auto body = [&](runtime::Communicator& comm) {
    const int id =
        comm.rank() == 0 ? rec.open("core.driver", run_span, frame) : -1;
    core::DseResult r =
        driver.run(comm, last_measurements_, map1.partition.assignment,
                   map2.partition.assignment, nullptr);
    if (id >= 0) {
      rec.close(id);
    }
    const std::lock_guard<std::mutex> lock(results_mutex);
    out.ranks[static_cast<std::size_t>(comm.rank())] = std::move(r);
  };
  const auto drive = [&](auto make_world) {
    const int setup = rec.open("runtime.world_setup", root, frame);
    auto world = make_world();
    rec.close(setup);
    {
      ScopedSpan span(rec, "runtime.world_run", root, frame);
      run_span = span.id();
      world->run(body);
    }
    const int teardown = rec.open("runtime.world_setup", root, frame);
    world.reset();
    rec.close(teardown);
  };
  switch (config_.transport) {
    case core::Transport::kInproc:
      drive([&] { return std::make_unique<runtime::InprocWorld>(k); });
      break;
    case core::Transport::kTcp:
      drive([&] {
        return std::make_unique<runtime::TcpWorld>(k, config_.resilience);
      });
      break;
    case core::Transport::kMedici:
      drive([&] {
        return std::make_unique<medici::MediciWorld>(
            k, medici::TransportMode::kViaMiddleware, medici::unshaped_model(),
            medici::unshaped_model(), config_.resilience);
      });
      break;
    case core::Transport::kMediciDirect:
      drive([&] {
        return std::make_unique<medici::MediciWorld>(
            k, medici::TransportMode::kDirectTcp, medici::medici_relay_model(),
            medici::unshaped_model(), config_.resilience);
      });
      break;
  }

  {
    const core::DseResult& r0 = out.ranks.front();
    out.estimate = r0.state;
    out.converged = r0.all_converged;
    out.degraded = r0.degraded_mode();
    out.max_vm_error = grid::max_vm_error(r0.state, true_state_);
    if (r0.state.vm.size() ==
        static_cast<std::size_t>(generated_.kase.network.num_buses())) {
      last_estimate_ = r0.state;
    }
  }
  ++cycle_index_;
  return out;
}

double step1_straggler_ratio(const ComposedFrame& frame) {
  std::vector<double> seconds;
  for (const core::DseResult& r : frame.ranks) {
    for (const core::SubsystemTrace& t : r.traces) {
      seconds.push_back(t.step1.seconds);
    }
  }
  const double med = median(seconds);
  return med > 0.0 ? max_of(seconds) / med : 0.0;
}

KernelProbe probe_kernels(const FrameComposer& composer,
                          const ComposedFrame& frame) {
  KernelProbe p;
  const grid::Network& network = composer.network();
  const decomp::Decomposition& d = composer.decomposition();
  const grid::MeasurementSet& global = composer.last_measurements();
  const estimation::WlsOptions& wls = composer.config().dse.local.wls;

  std::vector<int> iterations(d.subsystems.size(), 1);
  for (const core::DseResult& r : frame.ranks) {
    for (const core::SubsystemTrace& t : r.traces) {
      iterations[static_cast<std::size_t>(t.subsystem)] =
          std::max(1, t.step1.gauss_newton_iterations);
    }
  }

  for (std::size_t s = 0; s < d.subsystems.size(); ++s) {
    auto t0 = Clock::now();
    const core::LocalEstimator est(network, d, static_cast<int>(s),
                                   composer.config().dse.local);
    p.extract_s += since(t0);
    const decomp::SubsystemModel& local = est.local_model();
    t0 = Clock::now();
    const grid::MeasurementSet set = local.filter(global, network);
    p.filter_s += since(t0);

    // LocalEstimator's reference rule: the global slack when this
    // subsystem owns it, else the first own PMU angle.
    grid::BusIndex ref = 0;
    const auto slack = local.local_of_global.find(network.slack_bus());
    if (slack != local.local_of_global.end() &&
        local.own[static_cast<std::size_t>(slack->second)]) {
      ref = slack->second;
    } else {
      for (const grid::Measurement& m : set.items) {
        if (m.type == grid::MeasType::kVAngle &&
            local.own[static_cast<std::size_t>(m.bus)]) {
          ref = m.bus;
          break;
        }
      }
    }
    const grid::MeasurementModel model(
        local.network, grid::StateIndex(local.network.num_buses(), ref));
    const grid::GridState state = local.gather_state(frame.estimate);
    const int iters = iterations[s];

    std::vector<double> h;
    for (int i = 0; i <= iters; ++i) {
      t0 = Clock::now();
      h = model.evaluate(set, state);
      p.h_eval_s += since(t0);
    }
    sparse::Csr jac;
    for (int i = 0; i < iters; ++i) {
      t0 = Clock::now();
      jac = model.jacobian(set, state);
      p.jacobian_s += since(t0);
    }

    const std::vector<double> weights = set.weights();
    const std::vector<double> r = sparse::subtract(set.values(), h);
    const sparse::NormalAssembler assembler =
        sparse::NormalAssembler::analyze(jac);
    t0 = Clock::now();
    const sparse::Csr gain = assembler.assemble(jac, weights, wls.regularization);
    p.assemble_s += since(t0);
    const std::vector<double> rhs = sparse::normal_rhs(jac, weights, r);
    p.gain_nnz += static_cast<double>(gain.nnz());
    p.gain_dim += static_cast<double>(gain.rows());

    const sparse::SymbolicPlan lower =
        sparse::SymbolicPlan::analyze(gain, /*use_ordering=*/false);
    t0 = Clock::now();
    const sparse::Ic0Preconditioner ic0(gain, lower);
    p.ic0_build_s += since(t0);
    std::vector<double> dx(rhs.size(), 0.0);
    sparse::CgOptions cg;
    cg.tolerance = wls.cg_tolerance;
    t0 = Clock::now();
    const sparse::CgReport rep = sparse::pcg(gain, rhs, dx, ic0, cg);
    p.pcg_s += since(t0);
    p.pcg_iters += rep.iterations;

    const auto ordered = std::make_shared<const sparse::SymbolicPlan>(
        sparse::SymbolicPlan::analyze(gain, /*use_ordering=*/true));
    p.factor_nnz += static_cast<double>(ordered->factor_nnz());
    sparse::SparseLdlt ldlt;
    t0 = Clock::now();
    ldlt.factorize(gain, ordered);
    p.ldlt_factor_s += since(t0);
    t0 = Clock::now();
    const std::vector<double> x = ldlt.solve(rhs);
    p.ldlt_solve_s += since(t0);
    if (x.size() != rhs.size()) {
      throw std::runtime_error("framebench: LDLT probe returned a bad size");
    }
  }
  return p;
}

double probe_repartition(const FrameComposer& composer) {
  const grid::Network& network = composer.network();
  const auto t0 = Clock::now();
  graph::PartitionOptions options;
  options.seed = composer.config().seed;
  options.objective = graph::PartitionObjective::kConvergenceAware;
  options.k =
      static_cast<graph::PartId>(composer.decomposition().subsystems.size());
  const std::vector<int> assignment =
      decomp::partition_buses(network, options);
  decomp::Decomposition d = decomp::decompose(network, assignment);
  decomp::analyze_sensitivity(network, d, composer.config().sensitivity);
  return since(t0);
}

}  // namespace framebench
