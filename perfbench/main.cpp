// megh_perfbench — one workload of the end-to-end benchmark (run.py builds
// this binary and drives it; see perfbench/README.md).
//
//   megh_perfbench --workload planetlab-800 --seed 1 --seconds 10 --trace 0
//
// --trace 0 is the timed run: repetitions of the whole workload (set-up
// included, timed separately) until --seconds have passed, with nothing
// recorded but the step boundaries. It prints the end-to-end metrics.
// --trace 1 is the traced run: an untraced pass, a pass recording spans in
// memory, and a pass with the library's phase telemetry on; it prints the
// per-layer metrics and the overhead of each traced pass. Both check that
// every run of the workload reached the same decision digest, and exit 1
// when one did not.
//
// The last line of standard output is one JSON object with the metrics,
// the digest and the attempted/failed operation counts.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <unistd.h>
#include <vector>

#include "common/args.hpp"
#include "common/error.hpp"
#include "common/string_util.hpp"
#include "serve/wal.hpp"
#include "serve/wire.hpp"
#include "stats.hpp"
#include "telemetry/telemetry.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;
namespace fs = std::filesystem;

struct Metric {
  Metric(std::string name_, double value_, std::string unit_,
         long long samples_ = -1, std::string note_ = "")
      : name(std::move(name_)), value(value_), unit(std::move(unit_)),
        samples(samples_), note(std::move(note_)) {}

  std::string name;
  double value;
  std::string unit;
  long long samples;  // medians and percentiles: what they were over
  std::string note;   // how the samples were combined
};

/// Runs of one workload and seed, and the check that they all decided the
/// same: the first run's digest is the reference, and every operation of a
/// run whose outputs are unsound or whose digest differs from it counts as
/// failed.
struct Ledger {
  bool have_reference = false;
  Digest reference;
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> mismatches;

  void check(const RepResult& rep, const std::string& what) {
    const long long ops = rep.requests > 0 ? rep.requests : rep.steps;
    attempted += ops;
    if (!have_reference) {
      reference = rep.digest;
      have_reference = true;
    }
    std::string problem = rep.digest.fault;
    if (problem.empty() && !(rep.digest == reference)) {
      problem = rep.digest.str() + " != " + reference.str();
    }
    if (!problem.empty()) {
      failed += ops;
      mismatches.push_back(what + ": " + problem);
    }
  }
};

struct PassOptions {
  RepOptions rep;
  double budget_s = 0.0;        // keep repeating until this much has passed
  long long min_samples = 0;    // ... and at least this many steps ran,
  long long max_samples = 0;    // ... but stop once this many ran (0: never)
  /// When set, one calibration_ms() pass is timed after each repetition
  /// and appended here.
  std::vector<double>* calibration = nullptr;
};

std::vector<RepResult> run_pass(const Shape& shape, std::uint64_t seed,
                                const PassOptions& pass, Ledger& ledger,
                                const std::string& label) {
  std::vector<RepResult> reps;
  long long samples = 0;
  const double deadline = now_ms() + pass.budget_s * 1000.0;
  do {
    reps.push_back(run_rep(shape, seed, pass.rep));
    if (!pass.rep.work_dir.empty()) fs::remove_all(pass.rep.work_dir);
    if (pass.calibration != nullptr) {
      pass.calibration->push_back(calibration_ms());
    }
    const RepResult& rep = reps.back();
    samples += rep.steps;
    ledger.check(rep, label + " rep " + std::to_string(reps.size()));
    std::fprintf(stderr,
                 "%s rep %zu: setup %.4f s, %d steps in %.4f s\n",
                 label.c_str(), reps.size(), rep.setup_s(), rep.steps,
                 rep.loop_s);
  } while ((now_ms() < deadline || samples < pass.min_samples) &&
           (pass.max_samples == 0 || samples < pass.max_samples));
  return reps;
}

/// Each repetition's `field`, every value multiplied by `scale`.
std::vector<std::vector<double>> per_rep(
    const std::vector<RepResult>& reps,
    std::vector<double> RepResult::*field, double scale = 1.0) {
  std::vector<std::vector<double>> out;
  for (const RepResult& r : reps) {
    out.push_back(r.*field);
    for (double& v : out.back()) v *= scale;
  }
  return out;
}

/// Steps per second of the step loop, the median over repetitions.
double steps_per_s(const std::vector<RepResult>& reps) {
  std::vector<double> rates;
  for (const RepResult& r : reps) rates.push_back(r.steps / r.loop_s);
  return median(std::move(rates));
}

double mean_step_ms(const std::vector<RepResult>& reps) {
  double ms = 0.0, steps = 0.0;
  for (const RepResult& r : reps) {
    ms += r.loop_s * 1000.0;
    steps += r.steps;
  }
  return ms / steps;
}

/// The median of a step's time over the steps of `fastest` (one time per
/// step, the fastest of `reps` repetitions).
void add_median(std::vector<Metric>& out, const std::string& name,
                const std::vector<double>& fastest, std::size_t reps) {
  const Quantile value = quantile(fastest, 0.5);
  MEGH_REQUIRE(value.reported,
               name + ": too few samples beyond the percentile");
  out.push_back({name, value.value, "ms", value.samples,
                 megh::strf("median step, fastest of %zu reps", reps)});
}

/// The p99 over blocks of repetitions: the quietest block's, with the
/// median over blocks beside it (see README.md).
void add_tail(std::vector<Metric>& out, const std::string& name,
              const std::vector<std::vector<double>>& runs) {
  const BlockedQuantile value = blocked_quantile(runs, 0.99);
  MEGH_REQUIRE(value.reported,
               name + ": too few samples beyond the percentile");
  out.push_back({name, value.quietest(), "ms", value.samples,
                 megh::strf("quietest of %zu blocks, median %.4g",
                            value.per_block.size(), value.median())});
}

long long counter(const RepResult& rep, const std::string& name) {
  const auto it = rep.counter_delta.find(name);
  return it != rep.counter_delta.end() ? it->second : 0;
}

double phase(const std::map<std::string, double>& before,
             const std::map<std::string, double>& after,
             const std::string& name) {
  const auto a = after.find(name);
  if (a == after.end()) return 0.0;
  const auto b = before.find(name);
  return a->second - (b != before.end() ? b->second : 0.0);
}

double total_of(const std::map<std::string, double>& by_name,
                const std::string& name) {
  const auto it = by_name.find(name);
  return it != by_name.end() ? it->second : 0.0;
}

// --- timed run ------------------------------------------------------------

/// Fewest p99 blocks a timed run collects before it may stop.
constexpr long long kMinBlocks = 3;

std::vector<Metric> timed_run(const Shape& shape, std::uint64_t seed,
                              double seconds, const fs::path& work_dir,
                              Ledger& ledger) {
  PassOptions pass;
  pass.rep.jobs = shape.jobs;
  pass.rep.work_dir = work_dir;
  // The first repetition in a process runs cold (fresh pages, the pool's
  // threads starting); it is checked but not timed.
  run_pass(shape, seed, pass, ledger, "warm-up");
  // Peak memory of one repetition, before the timed ones add bookkeeping.
  const double rss_mb = peak_rss_mb();
  std::vector<double> calibration;
  pass.budget_s = seconds;
  pass.min_samples = kMinBlocks * min_samples_for(0.99);
  pass.calibration = &calibration;
  const std::vector<RepResult> reps =
      run_pass(shape, seed, pass, ledger, "timed");

  // Output checks outside the timed window.
  if (shape.jobs > 1) {
    RepOptions serial;
    serial.jobs = 1;
    ledger.check(run_rep(shape, seed, serial), "jobs-1 run");
  }
  if (shape.served) {
    RepOptions local;
    local.in_process = true;
    ledger.check(run_rep(shape, seed, local), "in-process run");
  }

  // Every time is scaled to the reference machine's core speed, measured
  // between the repetitions it scales (see README.md). Each step's time is
  // then the fastest any timed repetition took for it: the runs are
  // deterministic, so repetitions differ only by what else the machine was
  // doing.
  const double speed = core_speed(calibration);
  const std::vector<std::vector<double>> step_ms =
      per_rep(reps, &RepResult::step_ms, speed);
  const std::vector<std::vector<double>> decide_ms =
      per_rep(reps, &RepResult::decide_ms, speed);
  const std::vector<double> step_fastest = fastest_per_step(step_ms);
  double loop_ms = 0.0;
  for (double ms : step_fastest) loop_ms += ms;
  std::vector<double> setup;
  for (const RepResult& r : reps) setup.push_back(r.setup_s() * speed);
  std::vector<Metric> m;
  m.push_back({"steps_per_s", 1000.0 * step_fastest.size() / loop_ms, "1/s",
               static_cast<long long>(step_fastest.size()),
               megh::strf("steps, fastest of %zu reps", reps.size())});
  add_median(m, "step_ms_p50", step_fastest, reps.size());
  add_tail(m, "step_ms_p99", step_ms);
  add_median(m, "decide_ms_p50", fastest_per_step(decide_ms), reps.size());
  add_tail(m, "decide_ms_p99", decide_ms);
  m.push_back({"setup_s", median(setup), "s",
               static_cast<long long>(setup.size()), "median of reps"});
  m.push_back({"peak_rss_mb", rss_mb, "MiB"});
  m.push_back({"total_cost_usd", reps.front().total_cost_usd, "USD"});
  m.push_back({"core_speed", speed, "ratio",
               static_cast<long long>(calibration.size()),
               megh::strf("%.4g ms reference / fastest calibration pass",
                          kReferenceCalibrationMs)});
  return m;
}

// --- traced run -----------------------------------------------------------

/// Most steps one traced pass runs.
constexpr long long kTracedSteps = 4032;

/// Workers common.parallel_efficiency compares against one on a serial
/// shape.
constexpr int kParallelJobs = 4;

/// The serve split of one traced served rep, per simulated step.
struct ServeSplit {
  double wal_append_us = 0.0;
  double wal_fsync_us = 0.0;
  double codec_us = 0.0;
  double rtt_us = 0.0;
};

bool is_step_request(const RoundTrip& t) {
  return t.type == megh::serve::MsgType::kDecide ||
         t.type == megh::serve::MsgType::kObserve;
}

ServeSplit serve_split(const RepResult& rep, const fs::path& wal_dir) {
  using namespace megh::serve;
  ServeSplit split;
  double codec_ms = 0.0, rtt_ms = 0.0;
  std::size_t sink = 0;
  for (const RoundTrip& t : rep.trips) {
    if (!is_step_request(t)) continue;
    rtt_ms += t.rtt_ms;
    // Both ends of the round trip: client encode, server decode, server
    // encode, client decode.
    const double start = now_ms();
    if (t.type == MsgType::kDecide) {
      const DecideRequest req = decode_decide(t.request);
      sink += encode_decide(req).size();
      const DecideResponse resp = decode_decide_response(t.response);
      sink += encode_decide_response(resp).size();
    } else {
      const ObserveRequest req = decode_observe(t.request);
      sink += encode_observe(req).size();
      const std::vector<StatEntry> stats = decode_stats(t.response);
      sink += encode_stats(stats).size();
    }
    codec_ms += now_ms() - start;
  }
  // The journal append, replayed on the run's own request payloads in
  // the same filesystem as the daemon's directory: as the workload runs it
  // (fsync off), and with fsync on, which the workload leaves out.
  const auto append_ms = [&](bool fsync) {
    fs::remove_all(wal_dir);
    ::sync();  // an fsync would also write out what earlier passes left
    WalWriter wal(wal_dir, 1, fsync);
    double ms = 0.0;
    for (const RoundTrip& t : rep.trips) {
      if (!is_step_request(t)) continue;
      const double start = now_ms();
      wal.append(static_cast<std::uint16_t>(t.type), t.request);
      ms += now_ms() - start;
    }
    return ms;
  };
  const double wal_ms = append_ms(false);
  const double wal_fsync_ms = append_ms(true);
  fs::remove_all(wal_dir);
  MEGH_REQUIRE(sink > 0, "serve split: no step requests were recorded");
  const double steps = rep.steps;
  split.codec_us = codec_ms * 1000.0 / steps;
  split.wal_append_us = wal_ms * 1000.0 / steps;
  split.wal_fsync_us = (wal_fsync_ms - wal_ms) * 1000.0 / steps;
  split.rtt_us = rtt_ms * 1000.0 / steps;
  return split;
}

std::vector<Metric> traced_run(const Shape& shape, std::uint64_t seed,
                               double seconds, const fs::path& work_dir,
                               const fs::path& spans_out, Ledger& ledger) {
  std::vector<RepResult> all;  // the three passes' reps: set-up medians
  const auto keep = [&all](const std::vector<RepResult>& reps) {
    all.insert(all.end(), reps.begin(), reps.end());
  };

  // 1. Untraced: the base the overheads are measured against. Each pass
  // repeats for a third of the time (or kTracedSteps steps, which bounds
  // the span log), after one cold repetition.
  PassOptions plain;
  plain.rep.jobs = shape.jobs;
  plain.rep.work_dir = work_dir;
  run_pass(shape, seed, plain, ledger, "warm-up");
  plain.budget_s = seconds / 3.0;
  plain.max_samples = kTracedSteps;
  const std::vector<RepResult> untraced =
      run_pass(shape, seed, plain, ledger, "untraced");
  keep(untraced);

  // 2. Spans from the benchmark's probes.
  SpanLog span_log;
  PassOptions spanned = plain;
  spanned.rep.spans = &span_log;
  const std::vector<RepResult> traced =
      run_pass(shape, seed, spanned, ledger, "span-traced");
  keep(traced);
  const RepResult& t = traced.front();

  // 3. The library's phase telemetry, plus the probes' spans to separate
  // the policy callbacks that run inside the engine's settle phase.
  SpanLog phase_log;
  PassOptions phased = spanned;
  phased.rep.spans = &phase_log;
  megh::Telemetry& telemetry = megh::Telemetry::instance();
  telemetry.configure(nullptr, megh::TraceLevel::kPhases);
  const auto phases_before = telemetry.phase_totals_ms();
  const std::vector<RepResult> phase_reps =
      run_pass(shape, seed, phased, ledger, "phase-traced");
  const auto phases_after = telemetry.phase_totals_ms();
  telemetry.configure(nullptr, megh::TraceLevel::kOff);
  keep(phase_reps);

  std::vector<Metric> m;
  std::vector<double> synth, build, begin;
  for (const RepResult& r : all) {
    synth.push_back(r.synth_s);
    build.push_back(r.build_dc_s);
    begin.push_back(r.begin_s * 1000.0);
  }
  m.push_back({"trace.synth_s", median(synth), "s"});
  m.push_back({"harness.build_dc_s", median(build), "s"});
  m.push_back({"core.begin_ms", median(begin), "ms"});

  double steps = 0.0;
  for (const RepResult& r : traced) steps += r.steps;
  const auto self = self_time_by_name(span_log.spans());
  m.push_back({"core.decide_ms", total_of(self, "core.decide") / steps, "ms"});
  m.push_back({"core.observe_ms",
               (total_of(self, "core.observe_cost") +
                total_of(self, "core.observe_outcomes")) / steps, "ms"});
  m.push_back({"core.stats_ms", total_of(self, "core.stats") / steps, "ms"});
  m.push_back({"sim.engine_ms", total_of(self, "sim.step") / steps, "ms"});

  const double candidates =
      static_cast<double>(counter(t, "megh.candidates_generated"));
  m.push_back({"core.candidates_per_step", candidates / t.steps, "count"});
  m.push_back({"core.applied_per_candidate",
               candidates > 0 ? static_cast<double>(t.digest.applied) /
                                    candidates
                              : 0.0,
               "ratio"});
  m.push_back({"core.lspi_updates_per_step", t.lspi_updates / t.steps,
               "count"});
  m.push_back({"core.qtable_nnz", t.qtable_nnz, "count"});
  m.push_back({"sim.rejected_per_step",
               static_cast<double>(t.digest.rejected) / t.steps, "count"});

  // The untraced pass against one repetition at the other end of
  // {1, wide} workers: jobs 1 for a parallel shape, kParallelJobs for a
  // serial one. Its digest is checked like every other run's.
  const int wide = shape.jobs > 1 ? shape.jobs : kParallelJobs;
  PassOptions other = plain;
  other.rep.jobs = shape.jobs > 1 ? 1 : wide;
  other.budget_s = 0.0;
  const double other_rate = steps_per_s(run_pass(
      shape, seed, other, ledger, megh::strf("jobs-%d", other.rep.jobs)));
  const double efficiency =
      shape.jobs > 1
          ? parallel_efficiency(steps_per_s(untraced), other_rate, wide)
          : parallel_efficiency(other_rate, steps_per_s(untraced), wide);
  m.push_back({"common.parallel_efficiency", efficiency, "ratio"});

  ServeSplit split;
  double apply_ms = 0.0;
  if (shape.served) {
    PassOptions recorded = plain;
    recorded.rep.keep_payloads = true;
    recorded.budget_s = 0.0;
    const std::vector<RepResult> kept =
        run_pass(shape, seed, recorded, ledger, "recorded");
    split = serve_split(kept.front(), work_dir / "wal-probe");
    SpanLog local_log;
    PassOptions local = plain;
    local.rep.in_process = true;
    local.rep.spans = &local_log;
    local.budget_s = 0.0;
    const std::vector<RepResult> ref =
        run_pass(shape, seed, local, ledger, "in-process");
    const auto totals = total_time_by_name(local_log.spans());
    for (const char* name : {"core.decide", "core.observe_outcomes",
                             "core.observe_cost", "core.stats"}) {
      apply_ms += total_of(totals, name);
    }
    apply_ms /= ref.front().steps;
  }
  m.push_back({"serve.wal_append_us", split.wal_append_us, "us"});
  m.push_back({"serve.wal_fsync_us", split.wal_fsync_us, "us"});
  m.push_back({"serve.codec_us", split.codec_us, "us"});
  m.push_back({"serve.apply_ms", apply_ms, "ms"});
  m.push_back({"serve.transport_us",
               shape.served ? split.rtt_us - split.codec_us -
                                  split.wal_append_us - apply_ms * 1000.0
                            : 0.0,
               "us"});
  m.push_back({"serve.wal_bytes_per_step",
               static_cast<double>(counter(t, "serve.wal.bytes")) / t.steps,
               "bytes"});

  // Phase shares of the step wall. Phases of worker threads add up thread
  // time, so these are shares, not times.
  double wall = 0.0;
  for (const RepResult& r : phase_reps) {
    for (double ms : r.step_ms) wall += ms;
  }
  const auto ph = [&](const char* name) {
    return phase(phases_before, phases_after, name);
  };
  const auto phase_spans = total_time_by_name(phase_log.spans());
  const double settle_policy = total_of(phase_spans, "core.observe_cost") +
                               total_of(phase_spans, "core.stats");
  m.push_back({"core.candidates_share", ph("megh.candidates") / wall,
               "ratio"});
  m.push_back({"core.lspi_update_share", ph("lspi.update") / wall, "ratio"});
  m.push_back({"core.pod_phase_share", ph("hier_megh.pod_phase") / wall,
               "ratio"});
  m.push_back({"sim.settle_share", (ph("sim.settle") - settle_policy) / wall,
               "ratio"});
  m.push_back({"sim.trace_read_share", ph("sim.trace_read") / wall,
               "ratio"});
  const double covered = ph("sim.trace_read") + ph("sim.decide") +
                         ph("sim.migrate") + ph("sim.settle") +
                         total_of(phase_spans, "core.observe_outcomes");
  m.push_back({"trace.phase_unattributed_share", (wall - covered) / wall,
               "ratio"});
  m.push_back({"trace.unattributed_share",
               unattributed_share(span_log.spans(), "rep",
                                  {"rep", "sim.run"}),
               "ratio"});
  m.push_back({"trace.span_overhead",
               mean_step_ms(traced) / mean_step_ms(untraced) - 1.0, "ratio"});
  m.push_back({"trace.phase_overhead",
               mean_step_ms(phase_reps) / mean_step_ms(untraced) - 1.0,
               "ratio"});

  if (!spans_out.empty()) {
    fs::remove(spans_out);
    span_log.append_jsonl(spans_out, "spans");
    phase_log.append_jsonl(spans_out, "phases");
  }
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  megh::Args args;
  args.add_flag("workload", "planetlab-800 | fattree-10k | serve-100", "");
  args.add_flag("seed", "workload seed", "1");
  args.add_flag("seconds", "how long the timed passes repeat the workload",
                "10");
  args.add_flag("trace", "0 = timed run (end-to-end metrics), 1 = traced "
                         "run (per-layer metrics)", "0");
  args.add_flag("work-dir", "scratch directory for the served daemon",
                ".bench_out/work");
  args.add_flag("spans-out", "traced run: write the spans (JSONL) here", "");
  try {
    if (!args.parse(argc, argv)) return 0;
    const Shape& shape = shape_named(args.get("workload"));
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
    const double seconds = args.get_double("seconds");
    const bool trace = args.get_int("trace") != 0;
    const fs::path work_dir =
        fs::path(args.get("work-dir")) / std::to_string(::getpid());

    Ledger ledger;
    const std::vector<Metric> metrics =
        trace ? traced_run(shape, seed, seconds, work_dir,
                           args.get("spans-out"), ledger)
              : timed_run(shape, seed, seconds, work_dir, ledger);
    fs::remove_all(work_dir);

    const double failed_frac = static_cast<double>(ledger.failed) /
                               static_cast<double>(ledger.attempted);
    // A metric that is not a finite number (a cost gone wrong) is printed
    // as null and makes the run incorrect.
    bool finite = true;
    for (const Metric& metric : metrics) {
      if (!std::isfinite(metric.value)) {
        finite = false;
        std::fprintf(stderr, "megh_perfbench: %s is not a finite number\n",
                     metric.name.c_str());
      }
      if (!metric.note.empty()) {
        std::printf("%-32s %14.6g %-6s (%s, n=%lld)\n", metric.name.c_str(),
                    metric.value, metric.unit.c_str(), metric.note.c_str(),
                    metric.samples);
      } else {
        std::printf("%-32s %14.6g %s\n", metric.name.c_str(), metric.value,
                    metric.unit.c_str());
      }
    }
    std::printf("%-32s %14.6g ratio (%lld of %lld)\n", "failed_frac",
                failed_frac, ledger.failed, ledger.attempted);
    for (const std::string& line : ledger.mismatches) {
      std::fprintf(stderr, "megh_perfbench: digest mismatch: %s\n",
                   line.c_str());
    }

    const bool correct = ledger.failed == 0 && finite;
    std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"jobs\":%d,"
                "\"build_type\":\"%s\",\"digest\":\"%s\",\"correct\":%s,"
                "\"attempted\":%lld,\"failed\":%lld,\"failed_frac\":%.17g,"
                "\"metrics\":{",
                shape.name.c_str(), static_cast<unsigned long long>(seed),
                shape.jobs, PERFBENCH_BUILD_TYPE,
                ledger.reference.str().c_str(), correct ? "true" : "false",
                ledger.attempted, ledger.failed, failed_frac);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const Metric& metric = metrics[i];
      std::printf("%s\"%s\":{\"value\":", i ? "," : "",
                  metric.name.c_str());
      if (std::isfinite(metric.value)) {
        std::printf("%.17g", metric.value);
      } else {
        std::printf("null");
      }
      std::printf(",\"unit\":\"%s\"", metric.unit.c_str());
      if (metric.samples >= 0) std::printf(",\"samples\":%lld", metric.samples);
      std::printf("}");
    }
    std::printf("}}\n");
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "megh_perfbench: %s\n", e.what());
    return 1;
  }
}
