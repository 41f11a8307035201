#include "workloads.hpp"

#include <fstream>
#include <memory>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "core/hierarchical_megh.hpp"
#include "core/megh_policy.hpp"
#include "harness/scenario.hpp"
#include "serve/socket.hpp"
#include "telemetry/telemetry.hpp"

namespace perfbench {
namespace {

using namespace megh;

const std::vector<Shape>& shapes() {
  // VM counts keep the paper's PlanetLab ratio of 1052 VMs on 800 PMs.
  static const std::vector<Shape> kShapes = {
      {"planetlab-800", 800, 1052, 2016, false, false, false, 1},
      {"fattree-10k", 10000, 13150, 576, true, true, false, 4},
      {"serve-100", 100, 132, 576, false, false, true, 1},
  };
  return kShapes;
}

/// Joins the daemon's accept loop on every exit path (a std::thread that
/// is still joinable when destroyed ends the program).
class ListenerThread {
 public:
  explicit ListenerThread(serve::SocketServer& listener)
      : listener_(listener), thread_([this] { listener_.run(); }) {}
  ~ListenerThread() {
    listener_.request_stop();
    thread_.join();
  }
  ListenerThread(const ListenerThread&) = delete;
  ListenerThread& operator=(const ListenerThread&) = delete;

 private:
  serve::SocketServer& listener_;
  std::thread thread_;
};

double stat_or_zero(const PolicyStats& stats, const char* name) {
  const StatKey key = StatKey::find(name);
  const double* value = key.valid() ? stats.find(key) : nullptr;
  return value != nullptr ? *value : 0.0;
}

/// Runs the engine loop under `policy` and fills the loop half of `out`.
void run_loop(const Shape& shape, const Scenario& scenario, Datacenter dc,
              std::shared_ptr<const FatTreeTopology> fabric,
              MigrationPolicy& policy, const RepOptions& options,
              RepResult& out) {
  const int steps = std::min(shape.steps, scenario.trace.num_steps());
  TimedPolicy timed(policy, options.spans, steps);
  SimulationConfig config = default_sim_config(0.02);
  config.network = std::move(fabric);
  config.jobs = options.jobs;
  config.on_step = [&timed](const StepSnapshot& s) { timed.on_step(s); };
  Simulation sim(std::move(dc), scenario.trace, config);

  const int run_span =
      options.spans != nullptr ? options.spans->open("sim.run", -1) : -1;
  const SimulationResult result = sim.run(timed, steps);
  if (options.spans != nullptr) options.spans->close(run_span);

  out.begin_s = timed.begin_ms() / 1000.0;
  out.step_ms = timed.step_ms();
  out.loop_s = timed.loop_ms() / 1000.0;
  out.steps = result.totals.steps;
  out.decide_ms.reserve(result.steps.size());
  for (const StepSnapshot& s : result.steps) out.decide_ms.push_back(s.exec_ms);
  MEGH_REQUIRE(!result.steps.empty(), "run made no steps");
  out.digest = digest_of(result, sim.datacenter());
  out.total_cost_usd = result.totals.total_cost_usd;
  const PolicyStats& last = result.steps.back().policy_stats;
  out.qtable_nnz = stat_or_zero(last, "qtable_nnz");
  out.lspi_updates = stat_or_zero(last, "lspi_updates");
  for (const auto& [name, value] : Telemetry::instance().counter_values()) {
    const auto it = timed.counters_at_begin().find(name);
    out.counter_delta[name] =
        value - (it != timed.counters_at_begin().end() ? it->second : 0);
  }
}

/// One repetition; its "rep" span closes when the loop ends, so tearing
/// the run down (freeing the trace, stopping the daemon) stays outside it.
void run_rep_into(const Shape& shape, std::uint64_t seed,
                  const RepOptions& options, RepResult& out) {
  SpanLog* spans = options.spans;
  const int rep_span = spans != nullptr ? spans->open("rep", -1) : -1;
  const auto end_rep = [&] {
    if (spans != nullptr) spans->close(rep_span);
  };

  double start = now_ms();
  const Scenario scenario =
      make_planetlab_scenario(shape.hosts, shape.vms, shape.steps, seed);
  double end = now_ms();
  out.synth_s = (end - start) / 1000.0;
  if (spans != nullptr) spans->add("trace.synth", -1, start, end);

  start = now_ms();
  Datacenter dc = build_datacenter(scenario, InitialPlacement::kRandom,
                                   seed + 1);
  std::shared_ptr<const FatTreeTopology> fabric;
  if (shape.fabric) {
    fabric = std::make_shared<const FatTreeTopology>(
        FatTreeTopology::for_hosts(shape.hosts));
  }
  end = now_ms();
  out.build_dc_s = (end - start) / 1000.0;
  if (spans != nullptr) spans->add("harness.build_dc", -1, start, end);

  MeghConfig megh;
  megh.seed = seed + 2;
  if (shape.hierarchical) {
    HierarchicalMeghConfig config;
    config.base = megh;
    config.network = fabric;
    HierarchicalMeghPolicy policy(config);
    run_loop(shape, scenario, std::move(dc), fabric, policy, options, out);
    end_rep();
    return;
  }
  if (!shape.served || options.in_process) {
    MeghPolicy policy(megh);
    run_loop(shape, scenario, std::move(dc), fabric, policy, options, out);
    end_rep();
    return;
  }

  // Served: a daemon on a fresh directory under work_dir, one closed-loop
  // client on a Unix socket. ServeOptions are the defaults but for fsync:
  // on a shared host an fsync waits for every guest's writes to the same
  // disk, and a run beside a writing process was 2.2 times slower with it
  // on. The traced run times the journal append with fsync on separately
  // (serve.wal_append_us).
  const std::filesystem::path serve_dir = options.work_dir / "serve";
  const std::filesystem::path socket_path = options.work_dir / "megh.sock";
  std::filesystem::remove_all(serve_dir);
  std::filesystem::create_directories(options.work_dir);
  start = now_ms();
  serve::ServeOptions serve_options;
  serve_options.dir = serve_dir;
  serve_options.fsync = false;
  serve::MeghServer server(serve_options);
  serve::SocketServer listener(server, socket_path);
  ListenerThread listening(listener);
  auto socket = std::make_shared<serve::SocketTransport>(socket_path);
  auto recorder =
      std::make_shared<RecordingTransport>(socket, options.keep_payloads);
  end = now_ms();
  out.serve_start_s = (end - start) / 1000.0;
  if (spans != nullptr) spans->add("serve.start", -1, start, end);

  serve::RemoteMeghPolicy policy(recorder, megh, fabric);
  run_loop(shape, scenario, std::move(dc), fabric, policy, options, out);
  end_rep();
  out.requests = static_cast<long long>(recorder->trips().size());
  if (options.keep_payloads) out.trips = recorder->trips();
  serve::ServeClient(socket).shutdown();
}

}  // namespace

const Shape& shape_named(const std::string& name) {
  for (const Shape& s : shapes()) {
    if (s.name == name) return s;
  }
  throw ConfigError("unknown workload '" + name + "'");
}

RepResult run_rep(const Shape& shape, std::uint64_t seed,
                  const RepOptions& options) {
  RepResult out;
  run_rep_into(shape, seed, options, out);
  return out;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw IoError("VmHWM not found in /proc/self/status");
}

}  // namespace perfbench
