// Writing your own migration policy against the public API.
//
// This example implements a simple "watermark" scheduler — evacuate the
// hottest VM from any host above a high watermark, refill from hosts below
// a low watermark — and races it against Megh on the same scenario. It
// demonstrates everything a custom policy needs:
//   * subclass MigrationPolicy and override decide_into;
//   * read the StepObservation (utilizations + topology);
//   * append MigrationActions (the engine validates RAM feasibility);
//   * optionally use observe_cost() for feedback and stats() for metrics.
#include <algorithm>
#include <cstdio>

#include "common/args.hpp"
#include "core/megh_policy.hpp"
#include "harness/experiment.hpp"
#include "harness/report.hpp"
#include "sim/placement.hpp"

namespace {

using namespace megh;

class WatermarkPolicy : public MigrationPolicy {
 public:
  WatermarkPolicy(double high, double low) : high_(high), low_(low) {}

  std::string name() const override { return "Watermark"; }

  void decide_into(const StepObservation& obs,
                   std::vector<MigrationAction>& actions) override {
    const Datacenter& dc = *obs.dc;

    // Above the high watermark: move the most demanding VM to the host
    // with the most spare capacity.
    for (int h = 0; h < dc.num_hosts(); ++h) {
      if (obs.host_util[static_cast<std::size_t>(h)] <= high_) continue;
      const auto vms = dc.vms_on(h);
      if (vms.empty()) continue;
      const int hottest = *std::max_element(
          vms.begin(), vms.end(), [&](int a, int b) {
            return dc.vm_demand_mips(a) < dc.vm_demand_mips(b);
          });
      // Coolest feasible target.
      int best = -1;
      double best_util = 2.0;
      for (int t = 0; t < dc.num_hosts(); ++t) {
        if (t == h || !dc.fits(hottest, t)) continue;
        const double u = obs.host_util[static_cast<std::size_t>(t)];
        if (u < best_util) {
          best_util = u;
          best = t;
        }
      }
      if (best >= 0) actions.push_back({hottest, best});
    }

    // Below the low watermark: try to drain one VM toward a busier host
    // (packing), letting empty hosts fall asleep.
    for (int h = 0; h < dc.num_hosts(); ++h) {
      const double u = obs.host_util[static_cast<std::size_t>(h)];
      if (!dc.is_active(h) || u >= low_ || u <= 0.0) continue;
      const int vm = dc.vms_on(h).front();
      if (const auto target = find_pabfd_target(dc, vm, high_)) {
        const double tu = obs.host_util[static_cast<std::size_t>(*target)];
        if (tu > u) actions.push_back({vm, *target});
      }
      break;  // one consolidation move per step keeps churn bounded
    }
  }

  void observe_cost(double step_cost) override { total_cost_ += step_cost; }

  void stats(PolicyStats& out) const override {
    static const StatKey kTotalCost = StatKey::intern("watermark_total_cost");
    out.set(kTotalCost, total_cost_);
  }

 private:
  double high_;
  double low_;
  double total_cost_ = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace megh;
  Args args;
  args.add_flag("hosts", "number of physical machines", "60");
  args.add_flag("vms", "number of virtual machines", "90");
  args.add_flag("steps", "5-minute intervals", "576");
  args.add_flag("high", "high watermark (evacuate above)", "0.7");
  args.add_flag("low", "low watermark (consolidate below)", "0.05");
  if (!args.parse(argc, argv)) return 0;

  const Scenario scenario = make_planetlab_scenario(
      args.get_int32("hosts"), args.get_int32("vms"), args.get_int32("steps"),
      /*seed=*/4);

  std::vector<ExperimentResult> results;
  WatermarkPolicy watermark(args.get_double("high"), args.get_double("low"));
  ExperimentOptions options;
  results.push_back(run_experiment(scenario, watermark, options));

  MeghPolicy megh{MeghConfig{}};
  options.max_migration_fraction = 0.02;
  results.push_back(run_experiment(scenario, megh, options));

  print_performance_table("Custom watermark policy vs Megh", results,
                          "example_custom_policy");
  std::printf("\nTo write your own policy: subclass megh::MigrationPolicy,\n"
              "implement decide(), and hand it to run_experiment().\n");
  return 0;
}
