// Micro-benchmarks for the simulation step at the north star's 100k-host
// shape (google-benchmark). perfbench times the smaller shapes end to end
// (planetlab-800, fattree-10k) and splits them into layers; nothing else
// runs 100k hosts. jobs = 1 is the serial baseline; decisions are
// bit-identical at every jobs value, so only wall-clock moves.
//
//   * BM_SimStepEngine100k — engine-only (NoMigration) steps at 100k hosts:
//     the accounting scale ceiling, where the per-pod shards are the only
//     thing between the step and a 100k-host serial scan.
//   * BM_HierMegh100k — the headline: hierarchical Megh end-to-end (policy
//     included) at 100k hosts / 1M VMs, infeasible for the flat N×M
//     learner. Reports max_rss_mb (VmHWM) so the Σ_p O(N_p × M_p) memory
//     claim is a measured number, not an argument.
#include <benchmark/benchmark.h>

#include <cmath>
#include <fstream>
#include <memory>
#include <string>

#include "baselines/simple_policies.hpp"
#include "core/hierarchical_megh.hpp"
#include "harness/scenario.hpp"
#include "sim/host_spec.hpp"
#include "sim/network.hpp"

namespace megh {
namespace {

void BM_SimStepEngine100k(benchmark::State& state) {
  const int hosts = 100'000;
  // The paper's PlanetLab ratio: 1052 VMs on 800 PMs.
  const int vms = static_cast<int>(std::ceil(hosts * 1052.0 / 800.0));
  const int jobs = static_cast<int>(state.range(0));
  const int steps = 3;
  const Scenario scenario = make_planetlab_scenario(hosts, vms, steps, 9);
  SimulationConfig config = default_sim_config(0.0);
  config.network = std::make_shared<const FatTreeTopology>(
      FatTreeTopology::for_hosts(hosts));
  config.jobs = jobs;
  for (auto _ : state) {
    state.PauseTiming();
    Datacenter dc = build_datacenter(scenario, InitialPlacement::kRandom, 2);
    NoMigrationPolicy policy;
    Simulation sim(std::move(dc), scenario.trace, config);
    state.ResumeTiming();
    benchmark::DoNotOptimize(sim.run(policy, steps));
  }
  state.SetItemsProcessed(state.iterations() * steps);
}
BENCHMARK(BM_SimStepEngine100k)
    ->Arg(1)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

/// Peak resident set (VmHWM) in MiB; 0 where /proc is unavailable.
double max_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

void BM_HierMegh100k(benchmark::State& state) {
  const int hosts = 100'000;
  const int vms = 1'000'000;  // 10 VMs/PM: the cluster-scale shape
  const int jobs = static_cast<int>(state.range(0));
  const int steps = 3;
  Scenario scenario = make_planetlab_scenario(hosts, vms, steps, 9);
  // The paper's 4-GB ProLiants hold ~1.3 of its VMs each; a 1M-VM fleet on
  // 100k PMs needs cluster-class nodes. Scale the host capacity 16x (64 GB
  // RAM, 10 GbE) and keep the VM specs and traces paper-shaped.
  for (HostSpec& h : scenario.hosts) {
    h.mips *= 16.0;
    h.ram_mb *= 16.0;
    h.bw_mbps *= 10.0;
  }
  SimulationConfig config = default_sim_config(0.02);
  const auto fabric = std::make_shared<const FatTreeTopology>(
      FatTreeTopology::for_hosts(hosts));
  config.network = fabric;
  config.jobs = jobs;
  std::int64_t total_dim = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Datacenter dc = build_datacenter(scenario, InitialPlacement::kRandom, 2);
    HierarchicalMeghConfig hier_config;
    hier_config.base.seed = 7;
    hier_config.network = fabric;
    HierarchicalMeghPolicy policy(hier_config);
    Simulation sim(std::move(dc), scenario.trace, config);
    state.ResumeTiming();
    benchmark::DoNotOptimize(sim.run(policy, steps));
    state.PauseTiming();
    total_dim = 0;
    for (int p = 0; p < policy.num_pods(); ++p) {
      total_dim += policy.pod_learner(p).dim();
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * steps);
  state.counters["max_rss_mb"] = max_rss_mb();
  state.counters["sum_pod_dim"] = static_cast<double>(total_dim);
}
BENCHMARK(BM_HierMegh100k)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace megh

BENCHMARK_MAIN();
