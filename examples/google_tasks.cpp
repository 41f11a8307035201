// Google-Cluster-style scenario: task-structured workloads (log-spread
// durations, staggered arrivals, idle gaps) — the paper's second dataset.
// Contrasts Megh against THR-MMT and prints the trace's task-duration
// profile alongside the consolidation outcome, illustrating the paper's
// counter-intuitive finding that for short-lived low-load tasks spreading
// across more hosts can beat aggressive consolidation (Sec. 6.3).
//
// Usage: google_tasks [--hosts N] [--vms N] [--steps N] [--seed N]
#include <cstdio>

#include "baselines/mmt_policy.hpp"
#include "common/args.hpp"
#include "core/megh_policy.hpp"
#include "harness/experiment.hpp"
#include "harness/report.hpp"
#include "harness/scenario.hpp"
#include "metrics/histogram.hpp"
#include "metrics/percentile.hpp"

int main(int argc, char** argv) {
  using namespace megh;
  Args args;
  args.add_flag("hosts", "number of physical machines", "60");
  args.add_flag("vms", "number of virtual machines", "150");
  args.add_flag("steps", "5-minute intervals to simulate", "576");
  args.add_flag("seed", "scenario seed", "2");
  if (!args.parse(argc, argv)) return 0;

  const Scenario scenario = make_google_scenario(
      args.get_int32("hosts"), args.get_int32("vms"), args.get_int32("steps"),
      static_cast<std::uint64_t>(args.get_int("seed")));

  // Task-duration profile (Fig. 1b flavour).
  Histogram hist = Histogram::logarithmic(10.0, 1e6, 10);
  for (double d : scenario.task_durations_s) hist.add(d);
  std::printf("task durations (%zu tasks), log-spaced bins [s]:\n%s\n",
              scenario.task_durations_s.size(), hist.ascii(40).c_str());

  std::vector<ExperimentResult> results;
  auto thr = make_thr_mmt();
  ExperimentOptions options;
  results.push_back(run_experiment(scenario, *thr, options));
  MeghPolicy megh{MeghConfig{}};
  options.max_migration_fraction = 0.02;
  results.push_back(run_experiment(scenario, megh, options));

  for (const auto& r : results) {
    std::printf("%s\n", convergence_summary(r).c_str());
  }
  print_performance_table("Google Cluster tasks (" +
                              std::to_string(scenario.hosts.size()) +
                              " PMs, " + std::to_string(scenario.vms.size()) +
                              " VMs)",
                          results, "example_google_tasks");
  return 0;
}
