// End-to-end check that a real DSE run populates the observability layer
// with the values the report tool publishes: step phase spans, solver
// iteration histograms, transport counters. In a GRIDSE_OBS=OFF build the
// same run must leave the global registry untouched — that is the "near
// no-op" guarantee the release preset relies on.
#include <gtest/gtest.h>

#include <optional>

#include "core/architecture.hpp"
#include "io/synthetic.hpp"
#include "obs/metrics.hpp"

namespace gridse {
namespace {

obs::Snapshot run_ieee118_and_snapshot(
    std::optional<estimation::LinearSolver> solver = std::nullopt) {
  obs::MetricsRegistry::global().reset();
  core::SystemConfig config;
  config.mapping.num_clusters = 3;
  config.transport = core::Transport::kInproc;
  if (solver) config.dse.local.wls.solver = *solver;
  core::DseSystem system(io::ieee118_dse(2012), config);
  const core::CycleReport rep = system.run_cycle(0.0);
  EXPECT_TRUE(rep.dse.all_converged);
  return obs::MetricsRegistry::global().snapshot();
}

#if GRIDSE_OBS

TEST(ObsIntegration, DseRunPopulatesPhaseSpans) {
  const obs::Snapshot snap = run_ieee118_and_snapshot();
  for (const char* name : {"dse.run", "dse.step1", "dse.step2", "dse.combine",
                           "dse.exchange.pseudo"}) {
    ASSERT_TRUE(snap.spans.contains(name)) << name;
    EXPECT_GT(snap.spans.at(name).count, 0u) << name;
    EXPECT_GT(snap.spans.at(name).total_seconds, 0.0) << name;
  }
  // Phase spans attribute to the cycle span; one span per rank (3 clusters).
  EXPECT_EQ(snap.spans.at("dse.step1").parent, "dse.run");
  EXPECT_EQ(snap.spans.at("dse.step1").count, 3u);
}

TEST(ObsIntegration, DseRunPopulatesSolverHistograms) {
  // The PCG iteration histogram is recorded by the PCG solver only.
  const obs::Snapshot snap =
      run_ieee118_and_snapshot(estimation::LinearSolver::kPcg);
  ASSERT_TRUE(snap.histograms.contains("wls.pcg.iterations"));
  const obs::HistogramSnapshot& pcg = snap.histograms.at("wls.pcg.iterations");
  EXPECT_GT(pcg.count, 0u);
  EXPECT_GE(pcg.min, 1.0);
  ASSERT_TRUE(snap.counters.contains("wls.solves"));
  EXPECT_GT(snap.counters.at("wls.solves"), 0u);
  ASSERT_TRUE(snap.histograms.contains("dse.step1.subsystem_seconds"));
  EXPECT_GT(snap.histograms.at("dse.step1.subsystem_seconds").count, 0u);
}

TEST(ObsIntegration, DseRunCountsExchangeTraffic) {
  const obs::Snapshot snap = run_ieee118_and_snapshot();
  ASSERT_TRUE(snap.counters.contains("dse.combine.messages"));
  EXPECT_GT(snap.counters.at("dse.combine.messages"), 0u);
  ASSERT_TRUE(snap.counters.contains("dse.combine.bytes"));
  EXPECT_GT(snap.counters.at("dse.combine.bytes"), 0u);
  // The worker pools and mailboxes ran, so the runtime metrics exist too.
  EXPECT_TRUE(snap.histograms.contains("runtime.pool.queue_seconds"));
  EXPECT_TRUE(snap.gauges.contains("runtime.mailbox.depth"));
}

#else  // !GRIDSE_OBS

TEST(ObsIntegration, OffBuildLeavesRegistryEmpty) {
  const obs::Snapshot snap = run_ieee118_and_snapshot();
  EXPECT_TRUE(snap.spans.empty());
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.gauges.empty());
  EXPECT_TRUE(snap.histograms.empty());
}

#endif  // GRIDSE_OBS

}  // namespace
}  // namespace gridse
