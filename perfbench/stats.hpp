// Arithmetic of the end-to-end benchmark: percentiles with the
// ten-samples-beyond rule, the fastest-per-step reduction of repeated runs,
// the in-memory span log and its self times, and the parallel-efficiency
// ratio. Kept free of simulator types so the tests can pin every formula
// on hand-made inputs.
#pragma once

#include <filesystem>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Milliseconds on the steady clock (an arbitrary but fixed origin).
double now_ms();

/// Times one sort of a fixed, cache-resident array of keys, in ms: code
/// that is branchy and bound by the core and its caches, as the simulator
/// is, but is the benchmark's own. Its time follows how fast the core runs,
/// which on a shared host moves by 10-20% over minutes as other guests
/// come and go.
double calibration_ms();

/// calibration_ms() on the machine the benchmark's figures are scaled to:
/// the fastest pass seen on a 4-vCPU KVM guest (Intel Xeon).
inline constexpr double kReferenceCalibrationMs = 2.0;

/// How fast the core ran against the reference machine: the reference
/// calibration time over the fastest of `calibration` (ms). A step time
/// multiplied by it, or a rate divided by it, reads as on the reference
/// machine.
double core_speed(const std::vector<double>& calibration);

/// A percentile is reported only when at least this many samples lie
/// strictly beyond it.
inline constexpr long long kMinBeyond = 10;

struct Quantile {
  double value = 0.0;
  long long samples = 0;  // sample count the quantile was taken over
  long long beyond = 0;   // samples strictly above the quantile's rank
  bool reported = false;  // beyond >= kMinBeyond
};

/// Nearest-rank q-quantile (0 < q <= 1): the value of rank ceil(q·n) in
/// ascending order. `beyond` is n minus that rank.
Quantile quantile(std::vector<double> samples, double q);

/// Fewest samples for which quantile(·, q) is reported.
long long min_samples_for(double q);

/// The q-quantile of repeated runs, taken per block: consecutive runs are
/// grouped into blocks of at least min_samples_for(q) samples (a short
/// remainder joins the last block), so every block's quantile has at least
/// kMinBeyond samples beyond it.
struct BlockedQuantile {
  std::vector<double> per_block;
  long long samples = 0;  // over all blocks
  bool reported = false;  // every block's quantile is reported

  /// Median over blocks: robust to a minority of disturbed blocks.
  double median() const;
  /// The quietest block: robust to a majority of disturbed blocks, for
  /// tail quantiles that another tenant's work would otherwise fill.
  double quietest() const;
};
BlockedQuantile blocked_quantile(const std::vector<std::vector<double>>& runs,
                                 double q);

/// Median (mean of the two middle values for an even count); 0 when empty.
double median(std::vector<double> values);

/// Repeated runs of one deterministic step sequence, reduced to one time
/// per step: the fastest run's time for that step. A step slowed by the
/// machine's other work (a stolen vCPU, someone else's disk writes) in some
/// runs reads as its undisturbed time as long as one run was spared. All
/// runs must have the same number of steps.
std::vector<double> fastest_per_step(
    const std::vector<std::vector<double>>& runs);

/// One timed call, as the benchmark saw it from outside the library.
struct Span {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  int parent = -1;  // index into the log, -1 for a root
  int step = -1;    // simulated step the span belongs to, -1 outside steps
};

/// Spans kept in memory while the benchmark runs and written out at exit.
/// Parents come from nesting: open() makes the innermost open span the
/// new span's parent, so spans must be closed in reverse order of opening.
class SpanLog {
 public:
  int open(std::string name, int step);
  void close(int id);
  /// Open-and-close in one call, for a span timed elsewhere.
  void add(std::string name, int step, double start_ms, double end_ms);

  const std::vector<Span>& spans() const { return spans_; }
  void append_jsonl(const std::filesystem::path& path,
                    const std::string& pass) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Per span: its duration minus the part of it its children cover (the
/// union of the children's intervals, clipped to the parent).
std::vector<double> self_times_ms(const std::vector<Span>& spans);

/// Self time summed per span name.
std::map<std::string, double> self_time_by_name(const std::vector<Span>& spans);

/// Duration summed per span name.
std::map<std::string, double> total_time_by_name(
    const std::vector<Span>& spans);

/// Share of the time in spans named `root` that no layer accounts for:
/// the self time of the `containers` spans (spans that only group others,
/// the root among them) over the root spans' duration; 0 without roots.
double unattributed_share(const std::vector<Span>& spans,
                          const std::string& root,
                          const std::vector<std::string>& containers);

/// Throughput at `jobs` workers over `jobs` × the one-worker throughput.
double parallel_efficiency(double rate_at_jobs, double rate_at_one, int jobs);

}  // namespace perfbench
