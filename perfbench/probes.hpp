// Probes the benchmark wraps around the library's public seams, so every
// layer is timed from outside: a MigrationPolicy decorator (begin, decide,
// observe, stats, plus the step boundaries SimulationConfig::on_step
// reports), a ServeTransport decorator (one record per round trip), and
// the decision digest every run is checked against.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "serve/client.hpp"
#include "sim/policy.hpp"
#include "sim/snapshot.hpp"
#include "stats.hpp"

namespace perfbench {

/// Forwards every call to `inner` unchanged. It always times begin() and
/// the step boundaries; with a SpanLog it also records one span per call
/// and per step ("sim.step", parent of that step's policy spans).
/// `steps` is the number the run will make: no step span is opened after
/// the last one.
class TimedPolicy final : public megh::MigrationPolicy {
 public:
  TimedPolicy(megh::MigrationPolicy& inner, SpanLog* log, int steps)
      : inner_(inner), log_(log), total_steps_(steps) {}

  std::string name() const override { return inner_.name(); }
  void begin(const megh::Datacenter& dc, const megh::CostConfig& cost,
             double interval_s) override;
  void decide_into(const megh::StepObservation& obs,
                   std::vector<megh::MigrationAction>& out) override;
  void observe_cost(double step_cost) override;
  void observe_outcomes(
      std::span<const megh::MigrationOutcome> outcomes) override;
  void stats(megh::PolicyStats& out) const override;

  /// Wire to SimulationConfig::on_step: closes step `s.step`.
  void on_step(const megh::StepSnapshot& s);

  double begin_ms() const { return begin_ms_; }
  /// Wall time of each step, from the end of begin() (step 0) or the
  /// previous on_step to this one.
  const std::vector<double>& step_ms() const { return step_ms_; }
  /// Telemetry counter values right after begin() returned.
  const std::map<std::string, long long>& counters_at_begin() const {
    return counters_at_begin_;
  }
  /// The interval the steps ran in: end of begin() to the last on_step.
  double loop_ms() const { return last_boundary_ms_ - begin_end_ms_; }

 private:
  megh::MigrationPolicy& inner_;
  SpanLog* log_;
  int total_steps_;
  int step_ = 0;
  int step_span_ = -1;
  double begin_ms_ = 0.0;
  double begin_end_ms_ = 0.0;
  double last_boundary_ms_ = 0.0;
  std::vector<double> step_ms_;
  std::map<std::string, long long> counters_at_begin_;
};

/// One request/response round trip seen by the client.
struct RoundTrip {
  megh::serve::MsgType type{};
  double rtt_ms = 0.0;
  std::vector<std::uint8_t> request;   // kept only when asked for
  std::vector<std::uint8_t> response;  // body after the status byte
};

/// Forwards to `inner`, recording each round trip.
class RecordingTransport final : public megh::serve::ServeTransport {
 public:
  RecordingTransport(std::shared_ptr<megh::serve::ServeTransport> inner,
                     bool keep_payloads)
      : inner_(std::move(inner)), keep_payloads_(keep_payloads) {}

  std::vector<std::uint8_t> roundtrip(
      megh::serve::MsgType type,
      std::span<const std::uint8_t> payload) override;

  const std::vector<RoundTrip>& trips() const { return trips_; }

 private:
  std::shared_ptr<megh::serve::ServeTransport> inner_;
  bool keep_payloads_;
  std::vector<RoundTrip> trips_;
};

/// What a run decided, reduced to a few exact values: two runs with equal
/// digests made the same decisions.
struct Digest {
  std::uint64_t cost_bits = 0;  // total_cost_usd, bit for bit
  long long applied = 0;
  long long rejected = 0;
  std::uint64_t placement_hash = 0;  // FNV-1a over the final host_of
  /// Why the run's outputs are unsound (a total cost that is not a
  /// positive finite number, a host whose RAM the final placement
  /// overcommits); empty when they are sound.
  std::string fault;

  bool operator==(const Digest&) const = default;
  std::string str() const;
};

/// Digest of a finished run, with `fault` set when its outputs are unsound.
Digest digest_of(const megh::SimulationResult& result,
                 const megh::Datacenter& dc);

}  // namespace perfbench
