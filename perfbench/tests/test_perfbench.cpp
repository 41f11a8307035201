// Tests of the benchmark itself: the arithmetic behind its metrics, and
// that its probes are transparent — a run wrapped in TimedPolicy (and, on
// the served path, RecordingTransport) decides exactly what the same run
// decides unwrapped.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <memory>
#include <optional>

#include "core/hierarchical_megh.hpp"
#include "core/megh_policy.hpp"
#include "harness/scenario.hpp"
#include "probes.hpp"
#include "serve/client.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

using namespace megh;

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(Quantile, NearestRankAndSamplesBeyond) {
  const Quantile p50 = quantile(one_to(100), 0.50);
  EXPECT_EQ(p50.value, 50.0);
  EXPECT_EQ(p50.beyond, 50);
  EXPECT_TRUE(p50.reported);
  const Quantile p99 = quantile(one_to(100), 0.99);
  EXPECT_EQ(p99.value, 99.0);
  EXPECT_EQ(p99.beyond, 1);
  EXPECT_FALSE(p99.reported);
  EXPECT_EQ(quantile({}, 0.5).samples, 0);
  EXPECT_FALSE(quantile({}, 0.5).reported);
  EXPECT_THROW(quantile(one_to(3), 0.0), Error);
}

TEST(Quantile, TenSamplesBeyondRule) {
  EXPECT_EQ(min_samples_for(0.99), 1000);
  EXPECT_EQ(min_samples_for(0.50), 20);
  EXPECT_TRUE(quantile(one_to(1000), 0.99).reported);
  EXPECT_EQ(quantile(one_to(1000), 0.99).beyond, 10);
  EXPECT_FALSE(quantile(one_to(999), 0.99).reported);
  EXPECT_TRUE(quantile(one_to(20), 0.50).reported);
  EXPECT_FALSE(quantile(one_to(19), 0.50).reported);
}

TEST(Quantile, BlocksGroupRunsUntilReportable) {
  // Five runs of 600: blocks of two runs, the fifth joins the last block.
  const std::vector<std::vector<double>> runs(5, one_to(600));
  const BlockedQuantile q = blocked_quantile(runs, 0.99);
  // Rank 1188 of 1200 and rank 1782 of 1800 are both the value 594.
  EXPECT_EQ(q.per_block, (std::vector<double>{594.0, 594.0}));
  EXPECT_EQ(q.samples, 3000);
  EXPECT_TRUE(q.reported);

  // Too few samples for even one reportable block.
  const BlockedQuantile short_run = blocked_quantile({one_to(500)}, 0.99);
  EXPECT_EQ(short_run.per_block.size(), 1u);
  EXPECT_FALSE(short_run.reported);
  EXPECT_FALSE(blocked_quantile({}, 0.5).reported);
}

TEST(Quantile, MedianAndQuietestOverBlocks) {
  std::vector<std::vector<double>> runs(3, std::vector<double>(100, 1.0));
  runs[1].assign(100, 50.0);  // a run slowed down from outside
  runs[2].assign(100, 2.0);
  const BlockedQuantile q = blocked_quantile(runs, 0.5);
  EXPECT_EQ(q.per_block.size(), 3u);
  EXPECT_EQ(q.median(), 2.0);
  EXPECT_EQ(q.quietest(), 1.0);
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  const std::vector<Span> spans = {
      {"parent", 0.0, 10.0, -1, 0},
      {"a", 1.0, 3.0, 0, 0},
      {"b", 2.0, 5.0, 0, 0},    // overlaps a: the union [1, 5] counts once
      {"c", 8.0, 12.0, 0, 0},   // clipped to the parent's end
      {"inner", 2.5, 3.0, 2, 0},
  };
  const std::vector<double> self = self_times_ms(spans);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 4.0 - 2.0);
  EXPECT_DOUBLE_EQ(self[1], 2.0);
  EXPECT_DOUBLE_EQ(self[2], 2.5);
  EXPECT_DOUBLE_EQ(self[3], 4.0);
  EXPECT_DOUBLE_EQ(self[4], 0.5);
  const auto by_name = self_time_by_name(spans);
  EXPECT_DOUBLE_EQ(by_name.at("parent"), 4.0);
  EXPECT_DOUBLE_EQ(total_time_by_name(spans).at("b"), 3.0);
}

TEST(Spans, UnattributedIsTheContainersSelfTime) {
  const std::vector<Span> spans = {
      {"rep", 0.0, 100.0, -1, -1},
      {"trace.synth", 0.0, 10.0, 0, -1},
      {"sim.run", 10.0, 95.0, 0, -1},
      {"sim.step", 12.0, 90.0, 2, 0},
      {"core.decide", 20.0, 60.0, 3, 0},
  };
  // rep: 100 - 10 - 85 = 5; sim.run: 85 - 78 = 7.
  EXPECT_DOUBLE_EQ(unattributed_share(spans, "rep", {"rep", "sim.run"}),
                   0.12);
  EXPECT_EQ(unattributed_share(spans, "missing", {"rep"}), 0.0);
}

TEST(Spans, LogNestsAndRefusesOutOfOrderClose) {
  SpanLog log;
  const int outer = log.open("outer", -1);
  const int inner = log.open("inner", 3);
  log.close(inner);
  log.add("timed elsewhere", 3, 1.0, 2.0);
  EXPECT_THROW(log.close(inner), Error);
  log.close(outer);
  ASSERT_EQ(log.spans().size(), 3u);
  EXPECT_EQ(log.spans()[1].parent, outer);
  EXPECT_EQ(log.spans()[1].step, 3);
  EXPECT_EQ(log.spans()[2].parent, outer);
  EXPECT_LE(log.spans()[0].start_ms, log.spans()[1].start_ms);
  EXPECT_LE(log.spans()[1].end_ms, log.spans()[0].end_ms);
}

TEST(FastestPerStep, EachStepTakesItsFastestRun) {
  const std::vector<std::vector<double>> runs = {
      {3.0, 1.0, 5.0}, {2.0, 4.0, 6.0}, {9.0, 9.0, 0.5}};
  EXPECT_EQ(fastest_per_step(runs), (std::vector<double>{2.0, 1.0, 0.5}));
  EXPECT_TRUE(fastest_per_step({}).empty());
  EXPECT_THROW(fastest_per_step({{1.0, 2.0}, {1.0}}), Error);
}

TEST(CoreSpeed, ReferenceOverFastestCalibration) {
  EXPECT_DOUBLE_EQ(
      core_speed({4.0 * kReferenceCalibrationMs, 2.0 * kReferenceCalibrationMs,
                  3.0 * kReferenceCalibrationMs}),
      0.5);
  EXPECT_THROW(core_speed({}), Error);
  EXPECT_THROW(core_speed({0.0}), Error);
  EXPECT_GT(calibration_ms(), 0.0);
}

TEST(ParallelEfficiency, RateOverJobsTimesSerialRate) {
  EXPECT_DOUBLE_EQ(parallel_efficiency(300.0, 100.0, 4), 0.75);
  EXPECT_DOUBLE_EQ(parallel_efficiency(100.0, 100.0, 1), 1.0);
  EXPECT_THROW(parallel_efficiency(1.0, 1.0, 0), Error);
  EXPECT_THROW(parallel_efficiency(1.0, 0.0, 2), Error);
}

// --- transparency ---------------------------------------------------------

constexpr int kSteps = 40;

struct Fixture {
  Scenario scenario;
  std::shared_ptr<const FatTreeTopology> fabric;
};

Fixture small_shape(bool with_fabric) {
  Fixture f;
  f.scenario = make_planetlab_scenario(64, 84, kSteps, 5);
  if (with_fabric) {
    f.fabric = std::make_shared<const FatTreeTopology>(
        FatTreeTopology::for_hosts(64));
  }
  return f;
}

/// Runs `policy` over the fixture, wrapped in TimedPolicy when `spans` is
/// given; returns the digest and checks the probes saw every step.
Digest run(const Fixture& f, MigrationPolicy& policy, SpanLog* spans,
           int jobs = 1) {
  std::optional<TimedPolicy> timed;
  if (spans != nullptr) timed.emplace(policy, spans, kSteps);
  SimulationConfig config = default_sim_config(0.02);
  config.network = f.fabric;
  config.jobs = jobs;
  if (timed) {
    config.on_step = [&timed](const StepSnapshot& s) { timed->on_step(s); };
  }
  Simulation sim(build_datacenter(f.scenario, InitialPlacement::kRandom, 6),
                 f.scenario.trace, config);
  const SimulationResult result =
      timed ? sim.run(*timed, kSteps) : sim.run(policy, kSteps);
  if (timed) {
    EXPECT_EQ(timed->step_ms().size(), static_cast<std::size_t>(kSteps));
    EXPECT_GT(timed->loop_ms(), 0.0);
  }
  return digest_of(result, sim.datacenter());
}

int count_named(const SpanLog& log, const std::string& name) {
  int n = 0;
  for (const Span& s : log.spans()) n += s.name == name ? 1 : 0;
  return n;
}

TEST(Transparency, MeghPolicyDecidesTheSameWrapped) {
  const Fixture f = small_shape(false);
  MeghConfig config;
  config.seed = 9;
  MeghPolicy plain(config);
  MeghPolicy wrapped(config);
  SpanLog log;
  const Digest expected = run(f, plain, nullptr);
  EXPECT_GT(expected.applied, 0);  // the runs migrate: the check has teeth
  EXPECT_EQ(run(f, wrapped, &log), expected) << expected.str();
  EXPECT_EQ(count_named(log, "sim.step"), kSteps);
  EXPECT_EQ(count_named(log, "core.decide"), kSteps);
  EXPECT_EQ(count_named(log, "core.begin"), 1);
  for (const Span& s : log.spans()) {
    if (s.name == "core.decide") {
      EXPECT_EQ(log.spans()[static_cast<std::size_t>(s.parent)].name,
                "sim.step");
    }
  }
}

TEST(Transparency, HierarchicalMeghDecidesTheSameWrapped) {
  const Fixture f = small_shape(true);
  HierarchicalMeghConfig config;
  config.base.seed = 9;
  config.network = f.fabric;
  HierarchicalMeghPolicy plain(config);
  HierarchicalMeghPolicy wrapped(config);
  SpanLog log;
  const Digest expected = run(f, plain, nullptr, 2);
  EXPECT_GT(expected.applied, 0);
  EXPECT_EQ(run(f, wrapped, &log, 2), expected) << expected.str();
}

TEST(Transparency, ServedPathDecidesTheSameWrappedAndAsInProcess) {
  const Fixture f = small_shape(false);
  MeghConfig config;
  config.seed = 9;
  const auto root = std::filesystem::temp_directory_path() /
                    "perfbench_transparency";
  std::filesystem::remove_all(root);
  const auto serve_options = [&](const char* name) {
    serve::ServeOptions options;
    options.dir = root / name;
    options.fsync = false;
    return options;
  };

  MeghPolicy local(config);
  const Digest expected = run(f, local, nullptr);
  EXPECT_GT(expected.applied, 0);

  serve::MeghServer plain_server(serve_options("plain"));
  serve::RemoteMeghPolicy plain(
      std::make_shared<serve::LocalTransport>(plain_server), config);
  EXPECT_EQ(run(f, plain, nullptr), expected) << expected.str();

  serve::MeghServer probed_server(serve_options("probed"));
  auto recorder = std::make_shared<RecordingTransport>(
      std::make_shared<serve::LocalTransport>(probed_server), true);
  serve::RemoteMeghPolicy probed(recorder, config);
  SpanLog log;
  EXPECT_EQ(run(f, probed, &log), expected) << expected.str();
  // Init, then one Decide and one Observe per step.
  ASSERT_EQ(recorder->trips().size(), 1u + 2u * kSteps);
  EXPECT_EQ(recorder->trips()[0].type, serve::MsgType::kInit);
  EXPECT_EQ(recorder->trips()[1].type, serve::MsgType::kDecide);
  EXPECT_EQ(recorder->trips()[2].type, serve::MsgType::kObserve);
  std::filesystem::remove_all(root);
}

TEST(Digest, UnsoundCostIsAFaultNotAnException) {
  const Fixture f = small_shape(false);
  const Datacenter dc =
      build_datacenter(f.scenario, InitialPlacement::kRandom, 6);
  SimulationResult result;
  result.totals.total_cost_usd = 12.5;
  EXPECT_TRUE(digest_of(result, dc).fault.empty());
  result.totals.total_cost_usd = std::nan("");
  const Digest unsound = digest_of(result, dc);
  EXPECT_FALSE(unsound.fault.empty());
  EXPECT_NE(unsound.str().find(unsound.fault), std::string::npos);
}

}  // namespace
}  // namespace perfbench
