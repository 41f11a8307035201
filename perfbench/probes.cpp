#include "probes.hpp"

#include <bit>
#include <cmath>
#include <cstdio>

#include "telemetry/telemetry.hpp"

namespace perfbench {

void TimedPolicy::begin(const megh::Datacenter& dc,
                        const megh::CostConfig& cost, double interval_s) {
  const double start = now_ms();
  const int span = log_ != nullptr ? log_->open("core.begin", -1) : -1;
  inner_.begin(dc, cost, interval_s);
  if (log_ != nullptr) log_->close(span);
  begin_ms_ = now_ms() - start;
  counters_at_begin_ = megh::Telemetry::instance().counter_values();
  step_ = 0;
  step_ms_.clear();
  step_ms_.reserve(static_cast<std::size_t>(total_steps_));
  begin_end_ms_ = last_boundary_ms_ = now_ms();
  if (log_ != nullptr && total_steps_ > 0) {
    step_span_ = log_->open("sim.step", 0);
  }
}

void TimedPolicy::decide_into(const megh::StepObservation& obs,
                              std::vector<megh::MigrationAction>& out) {
  if (log_ == nullptr) return inner_.decide_into(obs, out);
  const int span = log_->open("core.decide", step_);
  inner_.decide_into(obs, out);
  log_->close(span);
}

void TimedPolicy::observe_cost(double step_cost) {
  if (log_ == nullptr) return inner_.observe_cost(step_cost);
  const int span = log_->open("core.observe_cost", step_);
  inner_.observe_cost(step_cost);
  log_->close(span);
}

void TimedPolicy::observe_outcomes(
    std::span<const megh::MigrationOutcome> outcomes) {
  if (log_ == nullptr) return inner_.observe_outcomes(outcomes);
  const int span = log_->open("core.observe_outcomes", step_);
  inner_.observe_outcomes(outcomes);
  log_->close(span);
}

void TimedPolicy::stats(megh::PolicyStats& out) const {
  if (log_ == nullptr) return inner_.stats(out);
  const int span = log_->open("core.stats", step_);
  inner_.stats(out);
  log_->close(span);
}

void TimedPolicy::on_step(const megh::StepSnapshot& s) {
  const double now = now_ms();
  step_ms_.push_back(now - last_boundary_ms_);
  last_boundary_ms_ = now;
  step_ = s.step + 1;
  if (log_ == nullptr) return;
  log_->close(step_span_);
  step_span_ = step_ < total_steps_ ? log_->open("sim.step", step_) : -1;
}

std::vector<std::uint8_t> RecordingTransport::roundtrip(
    megh::serve::MsgType type, std::span<const std::uint8_t> payload) {
  const double start = now_ms();
  std::vector<std::uint8_t> response = inner_->roundtrip(type, payload);
  RoundTrip trip;
  trip.type = type;
  trip.rtt_ms = now_ms() - start;
  if (keep_payloads_) {
    trip.request.assign(payload.begin(), payload.end());
    trip.response = response;
  }
  trips_.push_back(std::move(trip));
  return response;
}

std::string Digest::str() const {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%016llx/%lld/%lld/%016llx",
                static_cast<unsigned long long>(cost_bits), applied, rejected,
                static_cast<unsigned long long>(placement_hash));
  return fault.empty() ? std::string(buf) : std::string(buf) + "/" + fault;
}

Digest digest_of(const megh::SimulationResult& result,
                 const megh::Datacenter& dc) {
  const double cost = result.totals.total_cost_usd;
  Digest d;
  if (!(std::isfinite(cost) && cost > 0.0)) {
    d.fault = "total cost is not a positive finite number";
  }
  d.cost_bits = std::bit_cast<std::uint64_t>(cost);
  d.applied = result.totals.migrations;
  for (const megh::StepSnapshot& s : result.steps) {
    d.rejected += s.rejected_migrations;
  }
  std::uint64_t h = 1469598103934665603ULL;
  for (int vm = 0; vm < dc.num_vms(); ++vm) {
    h = (h ^ static_cast<std::uint64_t>(dc.host_of(vm))) * 1099511628211ULL;
  }
  d.placement_hash = h;
  for (int host = 0; host < dc.num_hosts() && d.fault.empty(); ++host) {
    double ram = 0.0;
    for (int vm : dc.vms_on(host)) ram += dc.vm_spec(vm).ram_mb;
    if (ram > dc.host_spec(host).ram_mb) {
      d.fault = "final placement overcommits the RAM of host " +
                std::to_string(host);
    }
  }
  return d;
}

}  // namespace perfbench
