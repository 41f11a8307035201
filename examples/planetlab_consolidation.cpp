// PlanetLab consolidation scenario: the paper's intro workload — long-lived
// bursty VMs on a heterogeneous fleet — run under a static allocation, the
// strongest MMT heuristic (THR-MMT), and Megh, with the Tables-2-style
// summary printed side by side.
//
// Usage: planetlab_consolidation [--hosts N] [--vms N] [--steps N] [--seed N]
#include <cstdio>
#include <memory>

#include "baselines/mmt_policy.hpp"
#include "baselines/simple_policies.hpp"
#include "common/args.hpp"
#include "core/megh_policy.hpp"
#include "harness/experiment.hpp"
#include "harness/report.hpp"
#include "harness/scenario.hpp"

int main(int argc, char** argv) {
  using namespace megh;
  Args args;
  args.add_flag("hosts", "number of physical machines", "80");
  args.add_flag("vms", "number of virtual machines", "120");
  args.add_flag("steps", "5-minute intervals to simulate", "576");
  args.add_flag("seed", "scenario seed", "1");
  if (!args.parse(argc, argv)) return 0;

  const Scenario scenario = make_planetlab_scenario(
      args.get_int32("hosts"), args.get_int32("vms"), args.get_int32("steps"),
      static_cast<std::uint64_t>(args.get_int("seed")));

  std::vector<ExperimentResult> results;
  const auto run = [&](MigrationPolicy& policy, double cap) {
    ExperimentOptions options;
    options.max_migration_fraction = cap;
    results.push_back(run_experiment(scenario, policy, options));
    std::printf("%s\n", convergence_summary(results.back()).c_str());
  };

  NoMigrationPolicy static_policy;
  run(static_policy, 0.0);
  auto thr = make_thr_mmt();
  run(*thr, 0.0);
  MeghPolicy megh{MeghConfig{}};
  run(megh, 0.02);

  print_performance_table("PlanetLab consolidation (" +
                              std::to_string(scenario.hosts.size()) +
                              " PMs, " + std::to_string(scenario.vms.size()) +
                              " VMs)",
                          results, "example_planetlab_consolidation");
  return 0;
}
