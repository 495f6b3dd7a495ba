// framebench: closed-loop frame-cycle benchmark of the GridSE distributed
// state estimator.
//
//   framebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 drives core::DseSystem::run_cycle back to back and prints the
// end-to-end metrics. --trace 1 additionally composes the same frames from
// the public calls run_cycle makes, records a span around each, re-times
// the Step-1 kernels, and prints the per-layer metrics. The last stdout
// line is one JSON object: {"correct", "attempted", "failed", "metrics"}.

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "composer.hpp"
#include "core/architecture.hpp"
#include "obs/metrics.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace framebench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value for " + key);
    }
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (!have_workload || a.seconds <= 0.0) {
    throw std::invalid_argument(
        "usage: framebench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1>");
  }
  return a;
}

/// Program-reported totals from the global metrics registry: counters by
/// name, histogram sums as "hist_sum:<name>", span totals as "span_s:<name>".
CounterMap read_totals() {
  const obs::Snapshot snap = obs::MetricsRegistry::global().snapshot();
  CounterMap t;
  for (const auto& [name, v] : snap.counters) {
    t[name] = static_cast<double>(v);
  }
  for (const auto& [name, h] : snap.histograms) {
    t["hist_sum:" + name] = h.sum;
  }
  for (const auto& [name, s] : snap.spans) {
    t["span_s:" + name] = s.total_seconds;
  }
  return t;
}

const std::vector<std::string> kExchangeBytes = {
    "dse.redistribute.bytes", "dse.pseudo.bytes", "dse.combine.bytes"};
const std::vector<std::string> kExchangeMessages = {
    "dse.redistribute.messages", "dse.pseudo.messages",
    "dse.combine.messages"};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Records the run's output checks; any failure makes `correct` false.
struct Checks {
  std::vector<std::string> failures;
  void expect(bool ok, const std::string& what) {
    if (!ok) {
      failures.push_back(what);
    }
  }
  [[nodiscard]] bool ok() const { return failures.empty(); }
};

/// Counts every attempted cycle; a cycle that threw, did not converge, ran
/// degraded or missed the |V| error bound is a failed one.
struct CycleTally {
  long attempted = 0;
  long failed = 0;
  void add(bool ok) {
    ++attempted;
    if (!ok) {
      ++failed;
    }
  }
};

/// Why a returned cycle counts as failed; empty when it is fine.
std::string cycle_failure(const core::CycleReport& r,
                          const WorkloadSpec& spec) {
  if (!r.dse.all_converged) {
    return "not converged";
  }
  if (r.dse.degraded_mode()) {
    return "degraded";
  }
  if (!std::isfinite(r.max_vm_error) || r.max_vm_error >= spec.vm_error_bound) {
    return "max |V| error " + std::to_string(r.max_vm_error) + " >= " +
           std::to_string(spec.vm_error_bound);
  }
  return {};
}

/// Reports the first few failed cycles with their reason.
void note_failure(std::int64_t frame, const std::string& why) {
  static int printed = 0;
  if (printed++ < 8) {
    std::cout << "# frame " << frame << " failed: " << why << "\n";
  }
}

/// The applied-event log must hold every event the plan scheduled up to
/// `last_cycle`, in plan order, each applied exactly once and none dropped.
bool replay_log_matches(const std::string& log_json,
                        const fault::TopologyReplayPlan& plan,
                        std::int64_t last_cycle, std::size_t* expected) {
  std::size_t pos = 0;
  std::size_t count = 0;
  for (const fault::ScheduledTopologyEvent& e : plan.events) {
    if (e.cycle > last_cycle) {
      break;
    }
    fault::TopologyReplayPlan one;
    one.events.push_back(e);
    const std::string json = one.to_json();
    const std::size_t open = json.find('[') + 1;
    const std::string entry = json.substr(open, json.rfind('}') - open - 2) +
                              ",\"dropped\":false,\"changed\":[";
    pos = log_json.find(entry, pos);
    if (pos == std::string::npos) {
      return false;
    }
    pos += entry.size();
    ++count;
  }
  *expected = count;
  std::size_t entries = 0;
  for (std::size_t p = log_json.find("{\"cycle\":"); p != std::string::npos;
       p = log_json.find("{\"cycle\":", p + 1)) {
    ++entries;
  }
  return entries == count;
}

bool same_bits(const grid::GridState& a, const grid::GridState& b) {
  return a.vm == b.vm && a.theta == b.theta;
}

struct MetricOut {
  std::string name;
  double value;
  std::string unit;
};

void print_result(const Checks& checks, const CycleTally& tally,
                  const std::vector<MetricOut>& metrics) {
  for (const std::string& f : checks.failures) {
    std::cout << "# check failed: " << f << "\n";
  }
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (checks.ok() ? "true" : "false")
      << ", \"attempted\": " << tally.attempted
      << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i > 0 ? ", " : "") << "\"" << metrics[i].name
        << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
        << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

/// State shared by both modes: setup repetitions and their first cycles.
struct Prepared {
  std::unique_ptr<core::DseSystem> system;
  std::vector<double> setup_s;
  std::vector<double> first_cycle_s;
  std::vector<double> case_s;
  std::vector<double> partition_s;
  std::string replay_plan;
  /// The centralized reference's solver options (the system's local WLS).
  estimation::WlsOptions wls;
  /// Estimate of every frame the kept system ran, from frame 0 (for the
  /// traced-run equivalence check); only the first few are kept.
  std::vector<grid::GridState> estimates;
};

constexpr std::size_t kEquivalenceFrames = 3;
/// Consecutive warm cycles per tail block (the 11th largest of 100 is p90).
constexpr std::size_t kTailBlock = 100;
/// Reconciliation bounds of the traced run: |traced − untraced| ÷ untraced
/// frame-wall median on the same frames (seen: −0.3 % to +5.7 %), and the
/// frame share outside every layer span, core.unattributed_s ÷ frame wall
/// (seen: at most 0.12 %).
constexpr double kTraceOverheadBound = 0.15;
constexpr double kUnattributedShareBound = 0.01;

Prepared prepare(const WorkloadSpec& spec, const Seeds& seeds, Checks& checks,
                 CycleTally& tally) {
  Prepared p;
  for (int rep = 0; rep < spec.setup_reps; ++rep) {
    p.system.reset();
    Inputs in = make_inputs(spec, seeds);
    p.replay_plan = in.config.topology.plan;
    p.wls = in.config.dse.local.wls;
    const auto t0 = Clock::now();
    p.system = std::make_unique<core::DseSystem>(std::move(in.generated),
                                                 std::move(in.config));
    const double construct = since(t0);
    p.setup_s.push_back(in.case_seconds + in.partition_seconds + construct);
    p.case_s.push_back(in.case_seconds);
    p.partition_s.push_back(in.partition_seconds);

    const auto t1 = Clock::now();
    bool ok = false;
    try {
      const core::CycleReport r = p.system->run_cycle(frame_time(0));
      p.first_cycle_s.push_back(since(t1));
      const std::string why = cycle_failure(r, spec);
      ok = why.empty();
      if (!ok) {
        note_failure(0, why);
      }
      p.estimates.assign(1, r.dse.state);
    } catch (const std::exception& e) {
      p.first_cycle_s.push_back(since(t1));
      note_failure(0, std::string("threw: ") + e.what());
      p.estimates.clear();
    }
    tally.add(ok);
  }
  checks.expect(!p.estimates.empty(), "first cycle produced an estimate");
  return p;
}

/// A frame kept for the accuracy check: the centralized reference runs on
/// it after the loop, outside the timed region.
struct CheckedFrame {
  grid::Network network;  ///< live topology at that frame
  grid::MeasurementSet measurements;
  grid::GridState truth;
  double dse_error = 0.0;
};

/// Outcome of one untraced closed loop on a prepared system.
struct WarmLoop {
  ClosedLoop loop;
  std::vector<double> exchange_bytes;  ///< per warm cycle
  std::vector<CheckedFrame> checked;   ///< frames for the accuracy check
  double max_vm_error = 0.0;           ///< worst warm frame vs truth
  std::size_t cycles_run = 0;          ///< run_cycle calls incl. frame 0
};

/// On replay workloads, the system's applied-event log after `cycles_run`
/// run_cycle calls must hold exactly the events its plan scheduled.
void check_replay(const WorkloadSpec& spec, const Prepared& p,
                  std::size_t cycles_run, Checks& checks) {
  if (!spec.replay) {
    return;
  }
  const fault::TopologyReplayPlan plan =
      fault::TopologyReplayPlan::parse(p.replay_plan);
  std::size_t expected = 0;
  const bool match = replay_log_matches(
      p.system->replay_log_json(), plan,
      static_cast<std::int64_t>(cycles_run) - 1, &expected);
  checks.expect(match && expected > 0,
                "every scheduled topology event applied exactly once");
  std::cout << "# replay: " << expected << " events applied over "
            << cycles_run << " cycles, " << p.system->topology_repartitions()
            << " repartitions\n";
}

WarmLoop run_warm_loop(const WorkloadSpec& spec, Prepared& p, double budget,
                       std::size_t min_cycles, std::size_t ratio_frames,
                       Checks& checks, CycleTally& tally) {
  WarmLoop w;
  core::DseSystem& sys = *p.system;
  const std::size_t fixed = static_cast<std::size_t>(spec.fixed_frames);
  // The replay plan covers a fixed horizon; never run past it.
  const std::size_t max_cycles = spec.replay ? 3900 : 1000000;
  w.loop = run_closed_loop(
      budget, min_cycles, max_cycles, [&](std::size_t i) -> double {
        const auto t_pre = Clock::now();
        const CounterMap before = read_totals();
        double excluded = since(t_pre);
        const auto frame = static_cast<std::int64_t>(i + 1);
        bool ok = false;
        core::CycleReport r;
        try {
          r = sys.run_cycle(frame_time(i + 1));
          const std::string why = cycle_failure(r, spec);
          ok = why.empty();
          if (!ok) {
            note_failure(frame, why);
          }
        } catch (const std::exception& e) {
          note_failure(frame, std::string("threw: ") + e.what());
        }
        const auto t_post = Clock::now();
        tally.add(ok);
        if (std::isfinite(r.max_vm_error)) {
          w.max_vm_error = std::max(w.max_vm_error, r.max_vm_error);
        }
        const CounterMap after = read_totals();
        w.exchange_bytes.push_back(
            counter_delta(before, after, kExchangeBytes));
        if (ok && p.estimates.size() < kEquivalenceFrames &&
            p.estimates.size() == i + 1) {
          p.estimates.push_back(r.dse.state);
        }
        // The last `ratio_frames` frames of the fixed window are kept for
        // the accuracy check against the centralized WLS.
        if (ok && i < fixed && i + ratio_frames >= fixed) {
          w.checked.push_back({sys.network(), sys.last_measurements(),
                               sys.true_state(), r.max_vm_error});
        }
        // Think time between frames (see WorkloadSpec::think_seconds).
        if (spec.think_seconds > 0.0) {
          std::this_thread::sleep_for(
              std::chrono::duration<double>(spec.think_seconds));
        }
        excluded += since(t_post);
        return excluded;
      });
  w.cycles_run = w.loop.cycle_seconds.size() + 1;
  checks.expect(w.loop.cycle_seconds.size() >= min_cycles,
                "closed loop completed its minimum frame count");
  checks.expect(w.checked.size() == ratio_frames,
                "accuracy ratio measured on every checked frame");
  check_replay(spec, p, w.cycles_run, checks);
  return w;
}

/// DSE ÷ centralized max |V| error per checked frame, and the median over
/// them: a frame where one estimator loses observability (a bus split can
/// leave a |V| unobserved until the merge) moves the median by one rank
/// only. core::centralized_estimate on a frame's network and measurements
/// is what DseSystem::centralized_reference() runs.
double accuracy_ratio(const std::vector<CheckedFrame>& checked,
                      const estimation::WlsOptions& wls, Checks& checks) {
  std::vector<double> ratios;
  for (const CheckedFrame& c : checked) {
    const estimation::WlsResult central =
        core::centralized_estimate(c.network, c.measurements, wls);
    checks.expect(central.converged, "centralized reference converged");
    const double central_error = grid::max_vm_error(central.state, c.truth);
    ratios.push_back(central_error > 0.0 ? c.dse_error / central_error : 0.0);
  }
  return median(ratios);
}

int run_untraced(const Args& args, const WorkloadSpec& spec,
                 const Seeds& seeds) {
  Checks checks;
  CycleTally tally;
  // Each round sets up a fresh system (spec.setup_reps times) and runs a
  // closed loop on the last one; round 0 also collects the exact figures.
  std::vector<double> setup_s;
  std::vector<double> first_cycle_s;
  ClosedLoop pooled;  ///< warm cycles and loop wall of every round
  double max_vm_error = 0.0;
  WarmLoop first;
  estimation::WlsOptions wls;
  for (int round = 0; round < spec.rounds; ++round) {
    Prepared p = prepare(spec, seeds, checks, tally);
    if (p.system == nullptr || p.estimates.empty()) {
      print_result(checks, tally, {});
      return 1;
    }
    setup_s.insert(setup_s.end(), p.setup_s.begin(), p.setup_s.end());
    first_cycle_s.insert(first_cycle_s.end(), p.first_cycle_s.begin(),
                         p.first_cycle_s.end());
    // Round 0 covers the fixed window (and at least 21 cycles, for a tail).
    WarmLoop w = run_warm_loop(
        spec, p, args.seconds / spec.rounds,
        round == 0 ? std::max<std::size_t>(
                         static_cast<std::size_t>(spec.fixed_frames), 21)
                   : 1,
        round == 0 ? static_cast<std::size_t>(spec.ratio_frames) : 0,
        checks, tally);
    pooled.cycle_seconds.insert(pooled.cycle_seconds.end(),
                                w.loop.cycle_seconds.begin(),
                                w.loop.cycle_seconds.end());
    pooled.wall_seconds += w.loop.wall_seconds;
    max_vm_error = std::max(max_vm_error, w.max_vm_error);
    if (round == 0) {
      first = std::move(w);
      wls = p.wls;
    }
  }
  // Read before the centralized reference solves, which raise the peak.
  const double peak_mb = peak_rss_mb();
  const double vm_error_ratio = accuracy_ratio(first.checked, wls, checks);
  if (spec.ratio_frames > 0) {
    checks.expect(std::isfinite(vm_error_ratio) && vm_error_ratio > 0.0 &&
                      vm_error_ratio < spec.vm_ratio_bound,
                  "DSE/centralized max |V| error ratio " +
                      std::to_string(vm_error_ratio) + " under " +
                      std::to_string(spec.vm_ratio_bound));
  }
  std::cout << "# peak RSS " << peak_mb << " MB after the loops, "
            << peak_rss_mb() << " MB after the reference solves\n";
  std::cout << "# worst warm-frame max |V| error " << max_vm_error
            << " p.u. (bound " << spec.vm_error_bound << ")\n";
  const std::vector<double>& cycles = pooled.cycle_seconds;
  const TailPick tail = blocked_tail(cycles, kTailBlock);
  checks.expect(tail.percentile > 0.0, "enough warm cycles for a tail");
  std::cout << "# cycle_tail_s is the median over " << tail.blocks
            << " block(s) of p" << tail.percentile << " (" << tail.beyond
            << " beyond it per block); " << cycles.size()
            << " warm cycles in " << spec.rounds << " round(s)\n";
  const std::vector<MetricOut> metrics = {
      {"setup_s", interquartile_mean(setup_s), "s"},
      {"first_cycle_s", interquartile_mean(first_cycle_s), "s"},
      {"cycle_p50_s", median(cycles), "s"},
      {"cycle_tail_s", tail.value, "s"},
      {"cycles_per_s", pooled.rate(), "1/s"},
      {"exchange_bytes_per_cycle",
       mean_of_first(first.exchange_bytes,
                     static_cast<std::size_t>(spec.fixed_frames)),
       "B"},
      {"vm_error_ratio", vm_error_ratio, "ratio"},
      {"cycle_ok_ratio",
       tally.attempted > 0 ? static_cast<double>(tally.attempted -
                                                 tally.failed) /
                                 static_cast<double>(tally.attempted)
                           : 0.0,
       "ratio"},
      {"peak_rss_mb", peak_mb, "MB"},
  };
  checks.expect(tally.failed == 0, "no cycle failed");
  print_result(checks, tally, metrics);
  return 0;
}

int run_traced(const Args& args, const WorkloadSpec& spec,
               const Seeds& seeds) {
  Checks checks;
  CycleTally tally;
  // Untraced reference: the same setup, and run_cycle on every frame the
  // composer builds, alternating which of the two runs a frame first; for
  // the reconciliation and the bit-for-bit comparison.
  Prepared p = prepare(spec, seeds, checks, tally);
  if (p.system == nullptr || p.estimates.empty()) {
    print_result(checks, tally, {});
    return 1;
  }
  core::DseSystem& sys = *p.system;  // frame 0 ran during setup
  std::size_t cycles_run = 1;

  Inputs in = make_inputs(spec, seeds);
  FrameComposer composer(std::move(in.generated), std::move(in.config));
  SpanRecorder rec;

  const auto fixed = static_cast<std::size_t>(spec.fixed_frames);
  const auto probes = static_cast<std::size_t>(spec.probe_frames);
  struct FrameFigures {
    std::int64_t frame = 0;
    double wall = 0.0;
    double driver = 0.0, step1 = 0.0, exchange = 0.0, step2 = 0.0,
           combine = 0.0;
    double gn = 0.0, pcg = 0.0, messages = 0.0, relay_bytes = 0.0;
    double relay_forward = 0.0, fanin = 0.0, moves = 0.0;
    double plan_hits = 0.0, plan_misses = 0.0, asm_hits = 0.0,
           asm_misses = 0.0;
    double straggler = 0.0;
    double untraced_wall = 0.0;  ///< run_cycle's wall on the same frame
    bool repartitioned = false;
  };
  std::vector<FrameFigures> frames;
  std::vector<KernelProbe> kernel;
  std::vector<double> repartition_probe_s;
  std::vector<grid::GridState> composed_estimates;
  const std::size_t min_frames = fixed + 1;
  const std::size_t max_frames = spec.replay ? 3900 : 1000000;
  const auto think = [&spec] {
    if (spec.think_seconds > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(spec.think_seconds));
    }
  };
  const auto t_start = Clock::now();
  for (std::size_t i = 0; i < max_frames; ++i) {
    if (i >= min_frames && since(t_start) >= args.seconds) {
      break;
    }
    const auto frame = static_cast<std::int64_t>(i);
    double untraced_wall = 0.0;
    const auto untraced = [&] {
      const auto t0 = Clock::now();
      bool cycle_ok = false;
      try {
        const core::CycleReport r = sys.run_cycle(frame_time(i));
        untraced_wall = since(t0);
        const std::string why = cycle_failure(r, spec);
        cycle_ok = why.empty();
        if (!cycle_ok) {
          note_failure(frame, why);
        } else if (p.estimates.size() < kEquivalenceFrames &&
                   p.estimates.size() == i) {
          p.estimates.push_back(r.dse.state);
        }
      } catch (const std::exception& e) {
        note_failure(frame, std::string("threw: ") + e.what());
      }
      ++cycles_run;
      tally.add(cycle_ok);
      think();
    };
    if (i > 0 && i % 2 == 1) {
      untraced();
    }
    const CounterMap before = read_totals();
    ComposedFrame f;
    bool ok = false;
    try {
      f = composer.run_frame(frame_time(i), rec,
                             static_cast<std::int64_t>(i));
      ok = f.converged && !f.degraded && std::isfinite(f.max_vm_error) &&
           f.max_vm_error < spec.vm_error_bound;
      if (!ok) {
        note_failure(static_cast<std::int64_t>(i),
                     "traced frame: converged=" +
                         std::to_string(f.converged) +
                         " degraded=" + std::to_string(f.degraded) +
                         " max |V| error=" + std::to_string(f.max_vm_error));
      }
    } catch (const std::exception& e) {
      note_failure(static_cast<std::int64_t>(i),
                   std::string("traced frame threw: ") + e.what());
    }
    tally.add(ok);
    const CounterMap after = read_totals();
    think();
    if (i > 0 && i % 2 == 0) {
      untraced();
    }
    if (!ok) {
      continue;
    }
    if (composed_estimates.size() < kEquivalenceFrames &&
        composed_estimates.size() == i) {
      composed_estimates.push_back(f.estimate);
    }
    if (i == 0) {
      continue;  // cold frame: first-cycle costs are not per-layer medians
    }
    FrameFigures ff;
    ff.frame = static_cast<std::int64_t>(i);
    const Span& root = rec.spans()[static_cast<std::size_t>(f.frame_span)];
    ff.wall = root.end - root.start;
    const core::DseResult& r0 = f.ranks.front();
    ff.driver = r0.total_seconds;
    ff.step1 = r0.step1_seconds;
    ff.exchange = r0.exchange_seconds;
    ff.step2 = r0.step2_seconds;
    ff.combine = r0.combine_seconds;
    const auto d = [&](const std::string& name) {
      return counter_delta(before, after, {name});
    };
    ff.gn = d("hist_sum:wls.gauss_newton_iterations");
    ff.pcg = d("hist_sum:wls.pcg.iterations");
    ff.messages = counter_delta(before, after,
                                kExchangeMessages);
    ff.relay_bytes = d("medici.relay.bytes");
    ff.relay_forward = d("span_s:medici.relay.forward");
    ff.fanin = d("hist_sum:exchange.fanin_wait_seconds");
    ff.plan_hits = d("solver.plan.hits");
    ff.plan_misses = d("solver.plan.misses");
    ff.asm_hits = d("solver.assembler.hits");
    ff.asm_misses = d("solver.assembler.misses");
    ff.moves = static_cast<double>(f.redistribution_moves);
    ff.repartitioned = f.repartitioned;
    ff.straggler = step1_straggler_ratio(f);
    ff.untraced_wall = untraced_wall;
    if (kernel.size() < probes) {
      kernel.push_back(probe_kernels(composer, f));
      if (spec.replay) {
        repartition_probe_s.push_back(probe_repartition(composer));
      }
    }
    frames.push_back(ff);
  }

  // Bit-for-bit equivalence of the composed frames with run_cycle.
  const std::size_t compared =
      std::min(composed_estimates.size(), p.estimates.size());
  checks.expect(compared == kEquivalenceFrames,
                "equivalence frames available");
  for (std::size_t i = 0; i < compared; ++i) {
    checks.expect(same_bits(composed_estimates[i], p.estimates[i]),
                  "composed frame " + std::to_string(i) +
                      " reproduces run_cycle bit for bit");
  }
  checks.expect(frames.size() >= fixed, "traced loop covered the window");
  checks.expect(!kernel.empty(), "kernel probes ran");
  checks.expect(!spec.replay || !repartition_probe_s.empty(),
                "repartition probe ran");

  // The centralized single-threaded WLS on the last composed frame.
  std::vector<double> central_s;
  const auto t_central = Clock::now();
  while (central_s.empty() ||
         (central_s.size() < 3 && since(t_central) < 0.5)) {
    const auto t0 = Clock::now();
    const estimation::WlsResult c = core::centralized_estimate(
        composer.network(), composer.last_measurements(),
        composer.config().dse.local.wls);
    central_s.push_back(since(t0));
    checks.expect(c.converged, "centralized reference converged");
  }

  // Per-frame self times. The layer spans are disjoint on the main thread,
  // so a frame's self times add up to its wall; the root's own share is the
  // residue no layer span covers.
  const auto self = self_by_frame(rec.spans());
  std::map<std::string, std::vector<double>> series;
  for (const FrameFigures& ff : frames) {
    const std::map<std::string, double>& s = self.at(ff.frame);
    const auto get = [&s](const char* name) {
      const auto it = s.find(name);
      return it == s.end() ? 0.0 : it->second;
    };
    series["grid.truth_s"].push_back(get("grid.truth"));
    series["grid.synthesis_s"].push_back(get("grid.synthesis"));
    series["grid.topology_s"].push_back(get("grid.topology"));
    series["mapping.map_s"].push_back(get("mapping.map"));
    series["runtime.world_setup_s"].push_back(get("runtime.world_setup"));
    series["runtime.world_run_self_s"].push_back(get("runtime.world_run"));
    series["core.unattributed_s"].push_back(get("frame"));
    series["core.outside_driver_s"].push_back(ff.wall - ff.driver);
    series["core.driver_s"].push_back(ff.driver);
    series["core.step1_s"].push_back(ff.step1);
    series["core.exchange_s"].push_back(ff.exchange);
    series["core.step2_s"].push_back(ff.step2);
    series["core.combine_s"].push_back(ff.combine);
    series["core.step1_straggler_ratio"].push_back(ff.straggler);
    series["runtime.fanin_wait_s"].push_back(ff.fanin);
    series["medici.relay_forward_s"].push_back(ff.relay_forward);
  }
  const auto med = [&series](const std::string& name) {
    return median(series[name]);
  };
  // Exact counts are averaged over the fixed window of warm frames.
  const std::vector<FrameFigures> window(
      frames.begin(),
      frames.begin() + static_cast<std::ptrdiff_t>(
                           std::min(fixed, frames.size())));
  const auto window_mean = [&window](double FrameFigures::*field) {
    double sum = 0.0;
    for (const FrameFigures& ff : window) {
      sum += ff.*field;
    }
    return window.empty() ? 0.0 : sum / static_cast<double>(window.size());
  };
  const auto window_ratio = [&window](double FrameFigures::*hits,
                                      double FrameFigures::*misses) {
    double h = 0.0;
    double m = 0.0;
    for (const FrameFigures& ff : window) {
      h += ff.*hits;
      m += ff.*misses;
    }
    return h + m > 0.0 ? h / (h + m) : 0.0;
  };
  double repartitions = 0.0;
  for (const FrameFigures& ff : window) {
    repartitions += ff.repartitioned ? 1.0 : 0.0;
  }
  const auto kmed = [&kernel](double KernelProbe::*field) {
    std::vector<double> v;
    for (const KernelProbe& k : kernel) {
      v.push_back(k.*field);
    }
    return median(v);
  };
  const KernelProbe first_probe = kernel.empty() ? KernelProbe{} : kernel[0];

  // Reconciliation with run_cycle: the composed frames' wall times against
  // run_cycle's on the same frames, and the share of a frame no layer span
  // covers.
  check_replay(spec, p, cycles_run, checks);
  std::vector<double> untraced_walls;
  std::vector<double> traced_walls;
  for (const FrameFigures& ff : frames) {
    untraced_walls.push_back(ff.untraced_wall);
    traced_walls.push_back(ff.wall);
  }
  const double untraced_p50 = median(untraced_walls);
  const double traced_p50 = median(traced_walls);
  const double trace_overhead =
      untraced_p50 > 0.0 ? (traced_p50 - untraced_p50) / untraced_p50 : 0.0;
  const double unattributed_share =
      traced_p50 > 0.0 ? med("core.unattributed_s") / traced_p50 : 0.0;
  std::cout << "# reconciliation over " << traced_walls.size()
            << " frames: traced p50 " << traced_p50 << " s, run_cycle p50 "
            << untraced_p50 << " s, unattributed share " << unattributed_share
            << "\n";
  checks.expect(std::abs(trace_overhead) < kTraceOverheadBound,
                "composed frame wall reconciles with run_cycle: overhead " +
                    std::to_string(trace_overhead) + " within ±" +
                    std::to_string(kTraceOverheadBound));
  checks.expect(unattributed_share < kUnattributedShareBound,
                "layer spans cover the frame: unattributed share " +
                    std::to_string(unattributed_share) + " under " +
                    std::to_string(kUnattributedShareBound));

  std::cout << "# traced: " << frames.size() << " warm frames, "
            << kernel.size() << " probed, " << compared
            << " frames compared bit for bit with run_cycle\n";
  const std::vector<MetricOut> metrics = {
      {"io.case_s", median(p.case_s), "s"},
      {"graph.partition_s", median(p.partition_s), "s"},
      {"graph.repartitions", repartitions, "count"},
      {"graph.repartition_s", median(repartition_probe_s), "s"},
      {"grid.truth_s", med("grid.truth_s"), "s"},
      {"grid.synthesis_s", med("grid.synthesis_s"), "s"},
      {"grid.topology_s", med("grid.topology_s"), "s"},
      {"grid.h_eval_s", kmed(&KernelProbe::h_eval_s), "s"},
      {"grid.jacobian_s", kmed(&KernelProbe::jacobian_s), "s"},
      {"decomp.extract_s", kmed(&KernelProbe::extract_s), "s"},
      {"decomp.filter_s", kmed(&KernelProbe::filter_s), "s"},
      {"mapping.map_s", med("mapping.map_s"), "s"},
      {"mapping.migrated_subsystems", window_mean(&FrameFigures::moves),
       "count"},
      {"runtime.world_setup_s", med("runtime.world_setup_s"), "s"},
      {"runtime.world_run_self_s", med("runtime.world_run_self_s"), "s"},
      {"runtime.fanin_wait_s", med("runtime.fanin_wait_s"), "s"},
      {"runtime.messages_per_cycle", window_mean(&FrameFigures::messages),
       "count"},
      {"medici.relay_bytes_per_cycle",
       window_mean(&FrameFigures::relay_bytes), "B"},
      {"medici.relay_forward_s", med("medici.relay_forward_s"), "s"},
      {"core.driver_s", med("core.driver_s"), "s"},
      {"core.step1_s", med("core.step1_s"), "s"},
      {"core.exchange_s", med("core.exchange_s"), "s"},
      {"core.step2_s", med("core.step2_s"), "s"},
      {"core.combine_s", med("core.combine_s"), "s"},
      {"core.outside_driver_s", med("core.outside_driver_s"), "s"},
      {"core.step1_straggler_ratio", med("core.step1_straggler_ratio"),
       "ratio"},
      {"core.unattributed_s", med("core.unattributed_s"), "s"},
      {"estimation.gn_iters_per_cycle", window_mean(&FrameFigures::gn),
       "count"},
      {"estimation.pcg_iters_per_cycle", window_mean(&FrameFigures::pcg),
       "count"},
      {"estimation.plan_hit_ratio",
       window_ratio(&FrameFigures::plan_hits, &FrameFigures::plan_misses),
       "ratio"},
      {"estimation.assembler_hit_ratio",
       window_ratio(&FrameFigures::asm_hits, &FrameFigures::asm_misses),
       "ratio"},
      {"estimation.central_s", median(central_s), "s"},
      {"sparse.assemble_s", kmed(&KernelProbe::assemble_s), "s"},
      {"sparse.ic0_build_s", kmed(&KernelProbe::ic0_build_s), "s"},
      {"sparse.pcg_s", kmed(&KernelProbe::pcg_s), "s"},
      {"sparse.ldlt_factor_s", kmed(&KernelProbe::ldlt_factor_s), "s"},
      {"sparse.ldlt_solve_s", kmed(&KernelProbe::ldlt_solve_s), "s"},
      {"sparse.gain_nnz", first_probe.gain_nnz, "count"},
      // nnz(L) ÷ nnz(G), both as stored triangles with the diagonal.
      {"sparse.ldlt_fill_ratio",
       first_probe.gain_nnz > 0.0
           ? (first_probe.factor_nnz + first_probe.gain_dim) /
                 (0.5 * (first_probe.gain_nnz + first_probe.gain_dim))
           : 0.0,
       "ratio"},
      {"sparse.pcg_iters", first_probe.pcg_iters, "count"},
      {"obs.trace_overhead", trace_overhead, "ratio"},
  };
  checks.expect(tally.failed == 0, "no cycle failed");

  // Spans stay in memory during the run and are written out at its end.
  const std::filesystem::path dir = ".framebench-out";
  std::filesystem::create_directories(dir);
  std::ofstream spans_out(dir / (spec.name + "-seed" +
                                 std::to_string(args.seed) + ".spans.jsonl"));
  rec.write_jsonl(spans_out);

  print_result(checks, tally, metrics);
  return 0;
}

}  // namespace
}  // namespace framebench

int main(int argc, char** argv) {
  using namespace framebench;
  try {
    const Args args = parse_args(argc, argv);
    const WorkloadSpec spec = workload_by_name(args.workload);
    const Seeds seeds = derive_seeds(args.seed);
    std::cout << "# framebench workload=" << spec.name
              << " seed=" << args.seed << " seconds=" << args.seconds
              << " trace=" << (args.trace ? 1 : 0) << " noise_seed="
              << seeds.noise << " replay_seed=" << seeds.replay
              << " load_phase=" << seeds.load_phase << "\n";
    return args.trace ? run_traced(args, spec, seeds)
                      : run_untraced(args, spec, seeds);
  } catch (const std::exception& e) {
    std::cerr << "framebench: " << e.what() << "\n";
    return 2;
  }
}
