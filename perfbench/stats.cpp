#include "stats.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>

#include "common/error.hpp"

namespace perfbench {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
// Keeps the sorted result observable, so the sort is not optimised away.
volatile std::uint32_t calibration_sink = 0;
}  // namespace

double calibration_ms() {
  // 32768 fixed pseudo-random keys (128 KiB, cache-resident), sorted from
  // the same order every pass.
  static const std::vector<std::uint32_t> keys = [] {
    std::vector<std::uint32_t> out(1U << 15);
    std::uint64_t x = 88172645463325252ULL;
    for (std::uint32_t& k : out) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      k = static_cast<std::uint32_t>(x);
    }
    return out;
  }();
  static std::vector<std::uint32_t> work(keys.size());
  const double start = now_ms();
  std::copy(keys.begin(), keys.end(), work.begin());
  std::sort(work.begin(), work.end());
  const double elapsed = now_ms() - start;
  calibration_sink = work[work.size() / 2];
  return elapsed;
}

double core_speed(const std::vector<double>& calibration) {
  MEGH_REQUIRE(!calibration.empty(), "core_speed: no calibration times");
  const double fastest =
      *std::min_element(calibration.begin(), calibration.end());
  MEGH_REQUIRE(fastest > 0.0, "core_speed: calibration time is not positive");
  return kReferenceCalibrationMs / fastest;
}

Quantile quantile(std::vector<double> samples, double q) {
  MEGH_REQUIRE(q > 0.0 && q <= 1.0, "quantile: q must be in (0, 1]");
  Quantile out;
  out.samples = static_cast<long long>(samples.size());
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<long long>(samples.size());
  const long long rank = std::clamp(
      static_cast<long long>(std::ceil(q * static_cast<double>(n))), 1LL, n);
  out.value = samples[static_cast<std::size_t>(rank - 1)];
  out.beyond = n - rank;
  out.reported = out.beyond >= kMinBeyond;
  return out;
}

long long min_samples_for(double q) {
  // Smallest n with n - ceil(q n) >= kMinBeyond.
  long long n = kMinBeyond + 1;
  while (n - static_cast<long long>(std::ceil(q * static_cast<double>(n))) <
         kMinBeyond) {
    ++n;
  }
  return n;
}

BlockedQuantile blocked_quantile(const std::vector<std::vector<double>>& runs,
                                 double q) {
  const long long need = min_samples_for(q);
  std::vector<std::vector<double>> blocks;
  std::vector<double> open;
  for (const std::vector<double>& run : runs) {
    open.insert(open.end(), run.begin(), run.end());
    if (static_cast<long long>(open.size()) >= need) {
      blocks.push_back(std::move(open));
      open.clear();
    }
  }
  if (!open.empty()) {
    if (blocks.empty()) {
      blocks.push_back(std::move(open));
    } else {
      blocks.back().insert(blocks.back().end(), open.begin(), open.end());
    }
  }
  BlockedQuantile out;
  out.reported = !blocks.empty();
  for (const std::vector<double>& block : blocks) {
    const Quantile b = quantile(block, q);
    out.per_block.push_back(b.value);
    out.samples += b.samples;
    out.reported = out.reported && b.reported;
  }
  return out;
}

double BlockedQuantile::median() const { return perfbench::median(per_block); }

double BlockedQuantile::quietest() const {
  return per_block.empty()
             ? 0.0
             : *std::min_element(per_block.begin(), per_block.end());
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

std::vector<double> fastest_per_step(
    const std::vector<std::vector<double>>& runs) {
  if (runs.empty()) return {};
  std::vector<double> out = runs.front();
  for (const std::vector<double>& run : runs) {
    MEGH_REQUIRE(run.size() == out.size(),
                 "fastest_per_step: runs differ in their number of steps");
    for (std::size_t i = 0; i < run.size(); ++i) {
      out[i] = std::min(out[i], run[i]);
    }
  }
  return out;
}

int SpanLog::open(std::string name, int step) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{std::move(name), now_ms(), 0.0,
                        stack_.empty() ? -1 : stack_.back(), step});
  stack_.push_back(id);
  return id;
}

void SpanLog::close(int id) {
  MEGH_REQUIRE(!stack_.empty() && stack_.back() == id,
               "SpanLog: spans must close innermost first");
  stack_.pop_back();
  spans_[static_cast<std::size_t>(id)].end_ms = now_ms();
}

void SpanLog::add(std::string name, int step, double start_ms,
                  double end_ms) {
  spans_.push_back(Span{std::move(name), start_ms, end_ms,
                        stack_.empty() ? -1 : stack_.back(), step});
}

void SpanLog::append_jsonl(const std::filesystem::path& path,
                           const std::string& pass) const {
  std::ofstream out(path, std::ios::app);
  if (!out) throw megh::IoError("cannot write spans to " + path.string());
  out.precision(17);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"pass\":\"" << pass << "\",\"id\":" << i << ",\"name\":\""
        << s.name << "\",\"start_ms\":" << s.start_ms
        << ",\"end_ms\":" << s.end_ms << ",\"parent\":" << s.parent
        << ",\"step\":" << s.step << "}\n";
  }
}

std::vector<double> self_times_ms(const std::vector<Span>& spans) {
  std::vector<std::vector<int>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int p = spans[i].parent;
    if (p >= 0) children[static_cast<std::size_t>(p)].push_back(
        static_cast<int>(i));
  }
  std::vector<double> self(spans.size());
  std::vector<std::pair<double, double>> cover;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    cover.clear();
    for (int c : children[i]) {
      const Span& child = spans[static_cast<std::size_t>(c)];
      const double lo = std::max(child.start_ms, s.start_ms);
      const double hi = std::min(child.end_ms, s.end_ms);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0, reach = s.start_ms;
    for (const auto& [lo, hi] : cover) {
      const double from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    self[i] = (s.end_ms - s.start_ms) - covered;
  }
  return self;
}

std::map<std::string, double> self_time_by_name(
    const std::vector<Span>& spans) {
  const std::vector<double> self = self_times_ms(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) out[spans[i].name] += self[i];
  return out;
}

std::map<std::string, double> total_time_by_name(
    const std::vector<Span>& spans) {
  std::map<std::string, double> out;
  for (const Span& s : spans) out[s.name] += s.end_ms - s.start_ms;
  return out;
}

double unattributed_share(const std::vector<Span>& spans,
                          const std::string& root,
                          const std::vector<std::string>& containers) {
  const std::vector<double> self = self_times_ms(spans);
  double unattributed = 0.0, total = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == root) total += spans[i].end_ms - spans[i].start_ms;
    if (std::find(containers.begin(), containers.end(), spans[i].name) !=
        containers.end()) {
      unattributed += self[i];
    }
  }
  return total > 0.0 ? unattributed / total : 0.0;
}

double parallel_efficiency(double rate_at_jobs, double rate_at_one,
                           int jobs) {
  MEGH_REQUIRE(jobs >= 1 && rate_at_one > 0.0,
               "parallel_efficiency: needs jobs >= 1 and a positive base");
  return rate_at_jobs / (static_cast<double>(jobs) * rate_at_one);
}

}  // namespace perfbench
