// Trace tooling walkthrough: generate synthetic PlanetLab-like and
// Google-like workloads, inspect their statistics (the Fig. 1 analyses),
// save them as CSV, and reload them — including how to feed *real* trace
// data into the simulator.
//
// Usage: trace_explorer [--out DIR] [--vms N] [--steps N]
#include <cstdio>

#include "common/args.hpp"
#include "metrics/histogram.hpp"
#include "trace/csv_trace.hpp"
#include "trace/google_synth.hpp"
#include "trace/planetlab_synth.hpp"
#include "trace/trace_stats.hpp"

int main(int argc, char** argv) {
  using namespace megh;
  Args args;
  args.add_flag("out", "directory for the CSV exports", "trace_out");
  args.add_flag("vms", "VMs per trace", "200");
  args.add_flag("steps", "steps per trace", "576");
  if (!args.parse(argc, argv)) return 0;

  const std::filesystem::path out(args.get("out"));
  const int vms = args.get_int32("vms");
  const int steps = args.get_int32("steps");

  // --- PlanetLab-like: continuous bursty utilization ---
  PlanetLabSynthConfig pl_config;
  pl_config.num_vms = vms;
  pl_config.num_steps = steps;
  const TraceTable planetlab = generate_planetlab(pl_config);
  const TraceSummary pl_summary = summarize_trace(planetlab);
  std::printf("PlanetLab-like trace: mean %.1f%%, std %.1f%%, "
              "step-max %.1f%%, nearest family '%s' (distance %.2f)\n",
              100 * pl_summary.mean, 100 * pl_summary.stddev,
              100 * pl_summary.mean_step_max, pl_summary.nearest.family.c_str(),
              pl_summary.nearest.distance);

  // --- Google-like: task-structured ---
  GoogleSynthConfig gg_config;
  gg_config.num_vms = vms;
  gg_config.num_steps = steps;
  const GoogleTrace google = generate_google(gg_config);
  Histogram hist = Histogram::logarithmic(10.0, 1e6, 8);
  for (double d : google.task_durations_s) hist.add(d);
  std::printf("\nGoogle-like trace: %zu tasks, duration profile:\n%s",
              google.task_durations_s.size(), hist.ascii(40).c_str());

  // --- Persistence round-trip ---
  save_trace_csv(planetlab, out / "planetlab_like.csv");
  save_trace_csv(google.table, out / "google_like.csv");
  const TraceTable reloaded = load_trace_csv(out / "planetlab_like.csv");
  std::printf("\nround-trip check: %d VMs x %d steps reloaded, "
              "sample delta %.2g\n",
              reloaded.num_vms(), reloaded.num_steps(),
              std::abs(reloaded.at(0, 0) - planetlab.at(0, 0)));

  std::printf(
      "\nUsing real data:\n"
      "  * matrix CSV (one row per VM): load_trace_csv(path)\n"
      "  * CloudSim/PlanetLab directory (one file per VM, one 0-100 value\n"
      "    per line): load_planetlab_directory(dir)\n"
      "Then build a Scenario with your HostSpec/VmSpec fleets and hand the\n"
      "TraceTable to megh::Simulation.\n");
  std::printf("wrote %s and %s\n", (out / "planetlab_like.csv").c_str(),
              (out / "google_like.csv").c_str());
  return 0;
}
