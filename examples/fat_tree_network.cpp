// Network-aware live migration on a fat-tree fabric — the paper's Sec. 7
// future-work direction, realized through the cost model alone.
//
// The same PlanetLab-like scenario runs Megh twice: on a flat 1-Gbps
// network, and on a 4:1-oversubscribed fat-tree where a cross-pod copy is
// 16x slower than a same-edge copy. No policy code changes: the longer
// copy times surface as SLA downtime in the step cost that Megh already
// learns from (and the engine reports migrations by path tier).
//
// Usage: fat_tree_network [--hosts N] [--vms N] [--steps N]
#include <cstdio>

#include "common/args.hpp"
#include "core/megh_policy.hpp"
#include "harness/experiment.hpp"
#include "harness/report.hpp"

int main(int argc, char** argv) {
  using namespace megh;
  Args args;
  args.add_flag("hosts", "number of physical machines", "64");
  args.add_flag("vms", "number of virtual machines", "96");
  args.add_flag("steps", "5-minute intervals", "576");
  args.add_flag("oversubscription", "fabric oversubscription ratio", "4");
  if (!args.parse(argc, argv)) return 0;

  const int hosts = args.get_int32("hosts");
  const Scenario scenario = make_planetlab_scenario(
      hosts, args.get_int32("vms"), args.get_int32("steps"), /*seed=*/6);

  NetworkLinkConfig links;
  links.oversubscription = args.get_double("oversubscription");
  const auto fabric =
      std::make_shared<FatTreeTopology>(FatTreeTopology::for_hosts(hosts, links));
  std::printf("fat-tree: k = %d (%d host ports) for %d hosts, %gx "
              "oversubscribed\n",
              fabric->k(), fabric->capacity(), hosts, links.oversubscription);
  std::printf("cross-pod migration of a 0.5 GB VM: %.1f s vs %.1f s within an "
              "edge\n\n",
              fabric->migration_time_s(512.0, 0, fabric->hosts_per_pod()),
              fabric->migration_time_s(512.0, 0, 1));

  std::vector<ExperimentResult> results;
  {
    MeghConfig config;
    MeghPolicy megh(config);
    ExperimentOptions options;
    options.max_migration_fraction = 0.02;
    auto r = run_experiment(scenario, megh, options);
    r.policy = "Megh/flat-1G";
    results.push_back(std::move(r));
  }
  {
    // Fabric attached but Megh ignores it: pays full cross-pod downtime.
    MeghConfig config;
    config.candidates.network_aware = false;
    MeghPolicy megh(config);
    ExperimentOptions options;
    options.max_migration_fraction = 0.02;
    options.network = fabric;
    auto r = run_experiment(scenario, megh, options);
    r.policy = "Megh/oblivious";
    results.push_back(std::move(r));
  }
  {
    // Network-aware candidates (default): prefers in-pod targets.
    MeghConfig config;
    MeghPolicy megh(config);
    ExperimentOptions options;
    options.max_migration_fraction = 0.02;
    options.network = fabric;
    auto r = run_experiment(scenario, megh, options);
    r.policy = "Megh/pod-aware";
    results.push_back(std::move(r));
  }

  print_performance_table("Megh: flat network vs oversubscribed fat-tree "
                          "(oblivious and pod-aware)",
                          results, "example_fat_tree");

  const auto& fabric_run = results[2].sim;
  long long same_edge = 0, same_pod = 0, cross_pod = 0;
  for (const auto& s : fabric_run.steps) {
    same_edge += s.same_edge_migrations;
    same_pod += s.same_pod_migrations;
    cross_pod += s.cross_pod_migrations;
  }
  std::printf("\nfat-tree run migration tiers: %lld same-edge, %lld "
              "same-pod, %lld cross-pod\n",
              same_edge, same_pod, cross_pod);
  std::printf("(cross-pod copies are %gx slower; their downtime feeds the "
              "SLA cost Megh learns from)\n",
              links.oversubscription * links.oversubscription);
  return 0;
}
