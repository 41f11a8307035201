// Phase profiler for the sharded-step analysis recorded in
// bench_results/BENCH_sim.json: measures, at 10k hosts / 13150 VMs, the
// serial cost of each per-host phase the sharded step parallelizes
// (demand refresh, host utilization, settle accounting, candidate scans)
// against the full per-step wall-clock, giving the measured parallel
// fraction the JSON's Amdahl projection uses. Build the
// prof_sharded_phases target in Release and run it with the machine idle.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/candidates.hpp"
#include "core/megh_policy.hpp"
#include "harness/scenario.hpp"
#include "sim/cost_model.hpp"
#include "sim/sharding.hpp"
#include "sim/simulation.hpp"

using Clock = std::chrono::steady_clock;

static double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

int main() {
  using namespace megh;
  const int hosts = 10'000;
  const int vms = 13'150;
  const int steps = 5;
  const Scenario scenario = make_planetlab_scenario(hosts, vms, steps, 9);
  const auto fabric = std::make_shared<const FatTreeTopology>(
      FatTreeTopology::for_hosts(hosts));

  Datacenter dc = build_datacenter(scenario, InitialPlacement::kRandom, 2);
  std::vector<double> vm_util(static_cast<std::size_t>(vms));
  std::vector<double> host_util(static_cast<std::size_t>(hosts));
  const CostConfig cost;
  const int reps = 20;

  // Demand refresh (alternate columns so the dirty-host cache can't
  // short-circuit repeated identical writes).
  double t_demands = 0.0;
  for (int r = 0; r < reps; ++r) {
    const int col = r % steps;
    for (int vm = 0; vm < vms; ++vm) {
      vm_util[static_cast<std::size_t>(vm)] = scenario.trace.at(vm, col);
    }
    const auto t0 = Clock::now();
    dc.set_demands(vm_util);
    t_demands += ms_since(t0);
  }
  t_demands /= reps;

  double t_host_util = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    dc.all_host_utilization(host_util);
    t_host_util += ms_since(t0);
  }
  t_host_util /= reps;

  // Settle accounting emulation: watts + overload scan per host.
  double t_account = 0.0;
  double sink = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    for (int h = 0; h < hosts; ++h) {
      const PowerModel& power = dc.host_spec(h).power;
      const double watts = dc.is_active(h)
                               ? power.watts(std::min(1.0, dc.host_utilization(h)))
                               : power.sleep_watts();
      sink += watts;
      if (dc.is_active(h) && dc.host_utilization(h) > cost.beta_overload) {
        sink += 1.0;
      }
    }
    t_account += ms_since(t0);
  }
  t_account /= reps;

  // Full step, serial, and the policy's share of it.
  SimulationConfig config = default_sim_config(0.02);
  config.network = fabric;
  config.jobs = 1;
  Datacenter dc2 = build_datacenter(scenario, InitialPlacement::kRandom, 2);
  MeghConfig megh_config;
  megh_config.seed = 7;
  MeghPolicy policy(megh_config);
  Simulation sim(std::move(dc2), scenario.trace, config);
  const auto t0 = Clock::now();
  const SimulationResult result = sim.run(policy, steps);
  const double t_step = ms_since(t0) / steps;

  // Candidate generation over the whole fleet, serial, against the same
  // datacenter state the in-run scans see (the post-run state — isolated
  // fresh-placement state has far more overloaded hosts and overstates the
  // scan cost). It parallelizes as hier-megh's per-pod generation.
  const Datacenter& sim_dc = sim.datacenter();
  std::vector<double> sim_host_util = sim_dc.all_host_utilization();
  const ActionBasis basis(vms, hosts);
  std::vector<int> fleet_vms(static_cast<std::size_t>(vms));
  std::vector<std::int32_t> fleet_slots(static_cast<std::size_t>(vms));
  for (int vm = 0; vm < vms; ++vm) {
    fleet_vms[static_cast<std::size_t>(vm)] = vm;
    fleet_slots[static_cast<std::size_t>(vm)] = vm;
  }
  CandidateDomain fleet;
  fleet.host_end = hosts;
  fleet.vms = fleet_vms;
  fleet.vm_slot = fleet_slots;
  fleet.slot_capacity = vms;
  CandidateConfig cand_config;
  CandidateScratch scratch;
  Rng rng(7);
  double t_candidates = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto tc = Clock::now();
    generate_candidates(sim_dc, sim_host_util, cost.beta_overload, basis,
                        cand_config, fleet, rng, scratch, fabric.get());
    t_candidates += ms_since(tc);
  }
  t_candidates /= reps;

  const double parallel_ms = t_demands + t_host_util + t_account + t_candidates;
  const double p = parallel_ms / t_step;
  const auto amdahl = [&](int n) { return 1.0 / ((1.0 - p) + p / n); };
  std::printf("hosts=%d vms=%d (sink %.1f)\n", hosts, vms, sink);
  std::printf("set_demands            %8.3f ms\n", t_demands);
  std::printf("all_host_utilization   %8.3f ms\n", t_host_util);
  std::printf("settle accounting      %8.3f ms\n", t_account);
  std::printf("candidate generation   %8.3f ms\n", t_candidates);
  std::printf("full step (serial)     %8.3f ms   mean exec_ms %.3f\n", t_step,
              result.totals.mean_exec_ms);
  std::printf("parallelizable         %8.3f ms   fraction p = %.3f\n",
              parallel_ms, p);
  std::printf("Amdahl projection: 2w %.2fx  4w %.2fx  8w %.2fx\n", amdahl(2),
              amdahl(4), amdahl(8));
  return 0;
}
