// Structured run telemetry, part 2: the process-wide registry.
//
// Three primitives, all cheap enough to leave compiled into release hot
// paths:
//
//   * Counter — monotone event count (migrations applied, Sherman–Morrison
//     rank-1 updates, singular skips, truncations, ...). Increment is one
//     relaxed atomic add; counters are never destroyed once registered, so
//     call sites may cache the reference in a function-local static.
//   * Gauge — last-set value (B off-diagonal nnz, candidate-set size).
//   * Phase timer — MEGH_TRACE_SCOPE("lspi.update") accumulates wall-clock
//     per named phase via common/stopwatch.hpp. When tracing is off the
//     scope guard reads one relaxed atomic bool and never touches the
//     clock, so the null configuration is near-zero overhead (the <5%
//     bench_micro_policy_step budget in docs/OBSERVABILITY.md).
//
// The engine calls Telemetry::flush_step(step) after settling each
// interval's costs; at level kCounters or above that emits one TraceRecord
// (see telemetry/trace_sink.hpp) with this step's phase timings and the
// cumulative counter/gauge values, then clears the per-step phase
// accumulators. Everything is thread-safe: the parallel sweep harness may
// run several simulations at once, in which case their counters merge and
// their records interleave (whole lines stay atomic).
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/stopwatch.hpp"
#include "telemetry/trace_sink.hpp"

namespace megh {

/// How much the per-step flush emits. kOff also disables phase timing
/// (scope guards become a load+branch); kCounters emits counters/gauges
/// only; kPhases adds the per-step phase timing breakdown.
enum class TraceLevel { kOff = 0, kCounters = 1, kPhases = 2 };

/// Parse "off" | "counters" | "phases" (throws ConfigError otherwise).
TraceLevel parse_trace_level(const std::string& name);
const char* trace_level_name(TraceLevel level);

class Counter {
 public:
  void add(long long n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  long long value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class Telemetry;
  void reset() { value_.store(0, std::memory_order_relaxed); }
  std::atomic<long long> value_{0};
};

class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class Telemetry;
  void reset() { value_.store(0.0, std::memory_order_relaxed); }
  std::atomic<double> value_{0.0};
};

class Telemetry {
 public:
  /// The process-wide registry.
  static Telemetry& instance();

  /// Install a sink and level. A null `sink` reverts to the NullTraceSink.
  /// The previous sink is destroyed (flushing it if it buffered).
  void configure(std::unique_ptr<TraceSink> sink, TraceLevel level);
  TraceLevel level() const { return level_.load(std::memory_order_relaxed); }

  /// True when MEGH_TRACE_SCOPE guards should read the clock.
  bool timing_enabled() const {
    return timing_enabled_.load(std::memory_order_relaxed);
  }

  /// Look up (creating on first use) a counter/gauge. References stay valid
  /// for the lifetime of the process — reset() zeroes values but never
  /// destroys the objects, so hot paths may cache them in statics.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);

  /// Accumulate `ms` into phase `name` for the current step. Normally
  /// called by ScopedPhase, not directly.
  void record_phase(const char* name, double ms);

  /// The per-step flush hook: emit one TraceRecord for `step` and clear
  /// the per-step phase accumulators. No-op at TraceLevel::kOff.
  void flush_step(int step);

  /// Cumulative per-phase totals since the last reset (ms and entry
  /// counts) — what tools/trace_summary.cpp prints for a live process.
  std::map<std::string, double> phase_totals_ms() const;
  std::map<std::string, long long> counter_values() const;
  std::map<std::string, double> gauge_values() const;

  /// Zero every counter/gauge/phase accumulator and revert to the null
  /// sink at kOff. Counter/Gauge references handed out earlier stay valid.
  void reset();

 private:
  Telemetry();

  struct PhaseAccum {
    double step_ms = 0.0;
    long long step_count = 0;
    double total_ms = 0.0;
    long long total_count = 0;
  };

  mutable std::mutex mu_;
  std::unique_ptr<TraceSink> sink_;
  std::atomic<TraceLevel> level_{TraceLevel::kOff};
  std::atomic<bool> timing_enabled_{false};
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, PhaseAccum> phases_;
};

/// RAII phase timer; prefer the MEGH_TRACE_SCOPE macro. `name` must outlive
/// the scope (string literals only).
class ScopedPhase {
 public:
  explicit ScopedPhase(const char* name)
      : name_(name), active_(Telemetry::instance().timing_enabled()) {
    if (active_) watch_.reset();
  }

  ~ScopedPhase() {
    if (active_) {
      Telemetry::instance().record_phase(name_, watch_.elapsed_ms());
    }
  }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  const char* name_;
  bool active_;
  Stopwatch watch_{Stopwatch::Deferred{}};
};

}  // namespace megh

#define MEGH_TRACE_CONCAT_INNER(a, b) a##b
#define MEGH_TRACE_CONCAT(a, b) MEGH_TRACE_CONCAT_INNER(a, b)

/// Time the enclosing scope under the given phase name, e.g.
///   MEGH_TRACE_SCOPE("lspi.update");
/// Near-zero cost while tracing is off (one relaxed atomic load).
#define MEGH_TRACE_SCOPE(name) \
  ::megh::ScopedPhase MEGH_TRACE_CONCAT(megh_trace_scope_, __LINE__)(name)
