// The benchmark's workloads and one repetition of each: synthesize the
// trace, build the datacenter, (for the served shape) start an in-process
// daemon on a Unix socket, then run the engine loop through the public
// Simulation::run with the policy wrapped in TimedPolicy.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "probes.hpp"
#include "stats.hpp"

namespace perfbench {

struct Shape {
  std::string name;
  int hosts = 0;
  int vms = 0;
  int steps = 0;
  bool fabric = false;        // FatTreeTopology::for_hosts(hosts)
  bool hierarchical = false;  // HierarchicalMeghPolicy, else MeghPolicy
  bool served = false;        // RemoteMeghPolicy over SocketTransport
  int jobs = 1;
};

/// The named workloads: planetlab-800, fattree-10k, serve-100. Throws
/// megh::ConfigError for any other name.
const Shape& shape_named(const std::string& name);

struct RepOptions {
  int jobs = 1;
  /// Run the shape's policy in-process even when the shape is served (the
  /// reference the served digest must equal).
  bool in_process = false;
  SpanLog* spans = nullptr;    // record spans into this log
  bool keep_payloads = false;  // served: keep each request and response
  std::filesystem::path work_dir;  // served: socket and serve directory
};

struct RepResult {
  // Set-up, each part timed directly.
  double synth_s = 0.0;
  double build_dc_s = 0.0;
  double serve_start_s = 0.0;  // served: daemon construction + connect
  double begin_s = 0.0;        // policy.begin (Init when served)
  double setup_s() const {
    return synth_s + build_dc_s + serve_start_s + begin_s;
  }
  // The step loop.
  std::vector<double> step_ms;
  std::vector<double> decide_ms;  // StepSnapshot::exec_ms
  double loop_s = 0.0;
  int steps = 0;
  // Outputs.
  Digest digest;
  double total_cost_usd = 0.0;
  double qtable_nnz = 0.0;    // final policy stat
  double lspi_updates = 0.0;  // final policy stat
  /// Telemetry counters over the step loop (Init excluded).
  std::map<std::string, long long> counter_delta;
  /// Served with keep_payloads: every round trip, Init first.
  std::vector<RoundTrip> trips;
  long long requests = 0;        // served: round trips made
};

RepResult run_rep(const Shape& shape, std::uint64_t seed,
                  const RepOptions& options);

/// Peak resident set of this process (VmHWM) in MiB.
double peak_rss_mb();

}  // namespace perfbench
