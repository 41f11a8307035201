// Shared plumbing for the megh_bench driver: standard flags (scale
// selection, seed, worker count, telemetry) and their resolution helpers.
// Scale-dependent configuration itself lives in each ExperimentSpec's scale
// table (see harness/experiment_spec.hpp) — not here.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "common/args.hpp"
#include "common/string_util.hpp"
#include "telemetry/telemetry.hpp"

namespace megh::bench {

/// True when --full was passed or MEGH_BENCH_FULL=1 is set: run the paper's
/// exact configuration instead of the fast default.
inline bool full_scale(const Args& args) {
  if (args.get_bool("full")) return true;
  const char* env = std::getenv("MEGH_BENCH_FULL");
  return env != nullptr && std::string(env) == "1";
}

/// Worker threads for the engine's cell shards: --jobs when given, else the
/// MEGH_JOBS environment variable, else 0 (= default_parallelism). Use
/// --jobs 1 for timing-grade per-step exec_ms numbers.
inline int jobs(const Args& args) {
  if (args.is_set("jobs")) return args.get_int32("jobs");
  if (const char* env = std::getenv("MEGH_JOBS")) {
    return static_cast<int>(parse_int(env, "MEGH_JOBS"));
  }
  return args.get_int32("jobs");
}

inline void add_standard_flags(Args& args) {
  args.add_bool("full", "run the paper-scale configuration (= --scale full)");
  args.add_flag("seed", "experiment seed", "42");
  args.add_flag("jobs",
                "worker threads for experiment cells; 0 = all cores, 1 = "
                "timing-grade (env fallback: MEGH_JOBS)",
                "0");
  args.add_flag("trace-out", "write per-step telemetry JSONL here", "");
  args.add_flag("trace-level",
                "telemetry detail: off | counters | phases "
                "(default phases when --trace-out is set)",
                "");
}

/// Install the telemetry sink requested by --trace-out/--trace-level.
/// Call once, after parse(). Without --trace-out tracing stays off (the
/// null sink), so instrumented hot paths cost nothing.
inline void configure_tracing(const Args& args) {
  const std::string out = args.get("trace-out");
  const std::string level_name = args.get("trace-level");
  if (out.empty() && level_name.empty()) return;
  const TraceLevel level = level_name.empty()
                               ? TraceLevel::kPhases
                               : parse_trace_level(level_name);
  std::unique_ptr<TraceSink> sink;
  if (!out.empty() && level != TraceLevel::kOff) {
    sink = std::make_unique<JsonlTraceSink>(out);
    std::printf("telemetry: %s records -> %s\n", trace_level_name(level),
                out.c_str());
  }
  Telemetry::instance().configure(std::move(sink), level);
}

}  // namespace megh::bench
