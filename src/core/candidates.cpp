#include "core/candidates.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <span>

#include "telemetry/telemetry.hpp"

namespace megh {

namespace detail {

namespace {

std::size_t hash_index(std::int64_t key) {
  std::uint64_t h = static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ull;
  return static_cast<std::size_t>(h ^ (h >> 32));
}

}  // namespace

void InsertOnlyIndexSet::reset(std::size_t expected) {
  std::size_t want = 16;
  while (want < expected * 2) want <<= 1;
  if (slots_.size() < want) {
    slots_.assign(want, -1);
  } else {
    std::fill(slots_.begin(), slots_.end(), -1);
  }
  mask_ = slots_.size() - 1;
  size_ = 0;
}

bool InsertOnlyIndexSet::insert(std::int64_t key) {
  MEGH_ASSERT(key >= 0, "InsertOnlyIndexSet keys must be non-negative");
  if ((size_ + 1) * 2 > slots_.size()) rehash(slots_.size() * 2);
  std::size_t i = hash_index(key) & mask_;
  while (slots_[i] != -1) {
    if (slots_[i] == key) return false;
    i = (i + 1) & mask_;
  }
  slots_[i] = key;
  ++size_;
  return true;
}

void InsertOnlyIndexSet::rehash(std::size_t min_slots) {
  std::vector<std::int64_t> old = std::move(slots_);
  slots_.assign(std::max<std::size_t>(min_slots, 16), -1);
  mask_ = slots_.size() - 1;
  for (std::int64_t key : old) {
    if (key == -1) continue;
    std::size_t i = hash_index(key) & mask_;
    while (slots_[i] != -1) i = (i + 1) & mask_;
    slots_[i] = key;
  }
}

}  // namespace detail

namespace {

/// Record the candidate-set size (cumulative count + last-set gauge) on
/// every exit path of generate_candidates.
void record_candidates(std::size_t count) {
  static Counter& generated =
      Telemetry::instance().counter("megh.candidates_generated");
  static Gauge& size_gauge =
      Telemetry::instance().gauge("megh.candidate_set_size");
  generated.add(static_cast<long long>(count));
  size_gauge.set(static_cast<double>(count));
}

/// PABFD buckets per host type: k = ⌊10·u⌋ for u < 1, and k = 10 for
/// u ≥ 1 (the clamp of W at full load).
constexpr int kSegments = 11;

int segment_of(double u) {
  return u >= 1.0 ? 10 : std::min(9, static_cast<int>(u * 10.0));
}

/// A bucket's bound is computed with its own rounding, apart from the
/// fold's. With ε = 2⁻⁵³ and T the type's largest table entry (W's slope
/// is at most 10·T per unit of u, g's at most 20·T):
///   * a probed increase W̃(min(1, u ⊕ Δ)) ⊖ W̃(min(1, u)) is within about
///     50·ε·T of g(u): ≤ 14·ε·T per W̃ call (≤ 10·ε·T from the rounding
///     of 10·x, ≤ 4 ulps of T from the interpolation), ≤ 20·ε·T from the
///     rounding of u ⊕ Δ (≤ 2·ε below the clamp), and one ulp of T from
///     the subtraction;
///   * each of the bound's evaluation points is within about 50·ε·T of g
///     at an exact point of the bucket's range (the same terms, plus the
///     rounding of 10·Δ, which moves every knot crossing by ≤ ε);
///   * a host may sit ≤ 2·ε outside its bucket's nominal range, because
///     its segment is ⌊10·u⌋ rounded; that moves g by ≤ 40·ε·T.
/// So every probed increase in a bucket is at least its computed bound
/// minus about 140·ε·T ≈ 1.6e-14·T. The margin is 1e-9·T: some 10⁵ times
/// that, and still far below the power gaps between segments that the
/// prune feeds on. The u ≥ 1 bucket needs none: its bound is exact.
constexpr double kBoundMargin = 1e-9;

/// Group the domain's hosts into PABFD types and size every per-step
/// bucket array for them, so a later step never grows one.
void build_host_types(const Datacenter& dc, int host_lo, int host_hi,
                      CandidateScratch& s) {
  const std::size_t hosts = static_cast<std::size_t>(host_hi - host_lo);
  s.types.clear();
  s.host_type.resize(hosts);
  for (int h = host_lo; h < host_hi; ++h) {
    const HostSpec& spec = dc.host_spec(h);
    const std::array<double, 11>& table = spec.power.table();
    std::size_t t = 0;
    while (t < s.types.size() &&
           !(s.types[t].mips == spec.mips && s.types[t].table == table)) {
      ++t;
    }
    if (t == s.types.size()) {
      s.types.push_back(CandidateScratch::HostType{
          spec.mips, table, &spec.power,
          kBoundMargin * *std::max_element(table.begin(), table.end())});
    }
    s.host_type[static_cast<std::size_t>(h - host_lo)] = static_cast<int>(t);
  }
  const std::size_t buckets = s.types.size() * kSegments;
  s.bucket_start.assign(buckets + 1, 0);
  s.bucket_fill.assign(buckets, 0);
  s.nonempty_buckets.reserve(buckets);
  s.bucket_bound.reserve(buckets);
  s.bucket_hosts.reserve(hosts);
  s.host_bucket.resize(hosts);
  s.sleeping_hosts.reserve(hosts);
  s.types_dc = &dc;
  s.types_begin = host_lo;
  s.types_end = host_hi;
}

/// Stable LSD radix sort of `hosts` by `keys` (parallel arrays), one byte
/// per pass; a pass on which every key has the same byte is skipped.
void radix_sort_by_key(std::vector<std::uint64_t>& keys,
                       std::vector<int>& hosts,
                       std::vector<std::uint64_t>& keys_tmp,
                       std::vector<int>& hosts_tmp) {
  const std::size_t n = keys.size();
  if (n < 2) return;
  std::array<std::array<std::uint32_t, 256>, 8> count{};
  for (std::uint64_t key : keys) {
    for (std::size_t d = 0; d < 8; ++d) ++count[d][(key >> (8 * d)) & 0xff];
  }
  keys_tmp.resize(n);
  hosts_tmp.resize(n);
  for (int d = 0; d < 8; ++d) {
    std::array<std::uint32_t, 256>& c = count[static_cast<std::size_t>(d)];
    const int shift = 8 * d;
    if (c[(keys[0] >> shift) & 0xff] == n) continue;
    std::uint32_t sum = 0;
    for (std::uint32_t& slot : c) {
      const std::uint32_t here = slot;
      slot = sum;
      sum += here;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t at = c[(keys[i] >> shift) & 0xff]++;
      keys_tmp[at] = keys[i];
      hosts_tmp[at] = hosts[i];
    }
    keys.swap(keys_tmp);
    hosts.swap(hosts_tmp);
  }
}

/// Datacenter::fits on the hoisted arrays (identical comparison); `i` is
/// the host's index relative to the domain's first host.
bool fits_hoisted(const CandidateScratch& s, std::size_t i, double vm_ram) {
  return s.host_ram_used[i] + vm_ram <= s.host_ram_cap[i] + 1e-9;
}

/// The PABFD target of one source over this step's buckets: the
/// lexicographic argmin of (sleeping, increase, host index) over the
/// feasible hosts other than `current`, found as described in the header.
/// Probes use the full fold's feasibility and increase arithmetic on the
/// hoisted arrays. Adds the number of hosts evaluated to `probes`.
int bucketed_pabfd(std::span<const double> host_util, double util_ceiling,
                   int host_lo, int current, double vm_ram, double vm_mips,
                   CandidateScratch& s, long long& probes) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // The fold's feasibility limit on the post-placement utilization.
  const double ceiling = util_ceiling + 1e-9;
  const std::vector<int>& nonempty = s.nonempty_buckets;
  std::vector<double>& bound = s.bucket_bound;
  bound.resize(nonempty.size());

  // Per type: Δ, the highest u a feasible host can have (`reach`, padded
  // far beyond the rounding of C − Δ), and W(min(1, j/10 + Δ)) at every
  // knot j, which adjacent buckets share as range ends.
  const CandidateScratch::HostType* type = nullptr;
  double delta = 0.0, reach = 0.0, f = 0.0;
  int shift = 0;  // ⌊10·Δ⌋, capped at 10
  std::array<double, kSegments> shifted{};
  for (std::size_t n = 0; n < nonempty.size(); ++n) {
    const int b = nonempty[n];
    const int k = b % kSegments;
    if (type != &s.types[static_cast<std::size_t>(b / kSegments)]) {
      type = &s.types[static_cast<std::size_t>(b / kSegments)];
      delta = vm_mips / type->mips;  // the fold's own expression
      reach = (ceiling - delta) + 1e-9 * (1.0 + std::abs(ceiling) + delta);
      const double scaled = delta * 10.0;
      const double whole = std::floor(scaled);
      f = scaled - whole;
      shift = whole < 10.0 ? static_cast<int>(whole) : 10;
      const std::array<double, 11>& t = type->table;
      for (int j = 0; j < kSegments; ++j) {
        const int at = j + shift;
        shifted[static_cast<std::size_t>(j)] =
            at >= 10 ? t[10]
                     : t[static_cast<std::size_t>(at)] * (1.0 - f) +
                           t[static_cast<std::size_t>(at) + 1] * f;
      }
    }
    if (k == 10) {
      // Every increase here is W(1) − W(1) = 0 exactly: no margin.
      bound[n] = reach >= 1.0 ? 0.0 : kInf;
      continue;
    }
    const double lo = static_cast<double>(k) / 10.0;
    const double hi = static_cast<double>(k + 1) / 10.0;
    if (reach < lo) {  // no host of this bucket is feasible
      bound[n] = kInf;
      continue;
    }
    const std::array<double, 11>& t = type->table;
    const std::size_t ku = static_cast<std::size_t>(k);
    // g at the range ends; the upper end is `reach` when that cuts the
    // bucket short.
    double lb = shifted[ku] - t[ku];
    bool inner = f > 0.0 && k + shift + 1 <= 10;
    if (reach >= hi) {
      lb = std::min(lb, shifted[ku + 1] - t[ku + 1]);
    } else {
      lb = std::min(lb, type->power->watts(std::min(1.0, reach + delta)) -
                            type->power->watts(reach));
      inner = inner && (static_cast<double>(k + 1) - f) / 10.0 <= reach;
    }
    // g at u = (k + 1 − f)/10, where u + Δ crosses the knot k + shift + 1:
    // W there is that knot's entry, and W(u) interpolates with weight f.
    if (inner) {
      lb = std::min(lb, t[ku + static_cast<std::size_t>(shift) + 1] -
                            (t[ku] * f + t[ku + 1] * (1.0 - f)));
    }
    bound[n] = lb - type->margin;
  }

  int pabfd = -1;
  double best = kInf;
  const auto probe = [&](int h) {
    if (h == current) return;
    const std::size_t i = static_cast<std::size_t>(h - host_lo);
    if (!fits_hoisted(s, i, vm_ram)) return;
    const double after =
        host_util[static_cast<std::size_t>(h)] + vm_mips / s.host_capacity[i];
    if (after > ceiling) return;
    const double increase =
        s.host_power[i]->watts(std::min(1.0, after)) - s.host_base_watts[i];
    if (increase < best || (increase == best && h < pabfd)) {
      best = increase;
      pabfd = h;
    }
  };
  // Buckets by ascending bound, until the lowest left cannot beat `best`;
  // the strict `>` keeps a bucket whose hosts could tie it.
  for (;;) {
    std::size_t next = nonempty.size();
    double lowest = kInf;
    for (std::size_t n = 0; n < bound.size(); ++n) {
      if (bound[n] < lowest) {
        lowest = bound[n];
        next = n;
      }
    }
    if (next == nonempty.size() || lowest > best) break;
    bound[next] = kInf;
    const int b = nonempty[next];
    const int first = s.bucket_start[static_cast<std::size_t>(b)];
    const int last = s.bucket_start[static_cast<std::size_t>(b) + 1];
    for (int p = first; p < last; ++p) {
      probe(s.bucket_hosts[static_cast<std::size_t>(p)]);
    }
    probes += last - first;
  }
  // Sleeping hosts only when no active host is feasible.
  if (pabfd < 0) {
    for (int h : s.sleeping_hosts) probe(h);
    probes += static_cast<long long>(s.sleeping_hosts.size());
  }
  return pabfd;
}

bool target_feasible(const Datacenter& dc, std::span<const double> host_util,
                     int vm, int host, double util_ceiling) {
  if (!dc.fits(vm, host)) return false;
  const double capacity = dc.host_spec(host).mips;
  const double post = host_util[static_cast<std::size_t>(host)] * capacity +
                      dc.vm_demand_mips(vm);
  return post <= util_ceiling * capacity + 1e-9;
}

void add_candidate(std::vector<CandidateAction>& out, const ActionBasis& basis,
                   int vm, int host, int current, CandidateGroup group) {
  out.push_back(CandidateAction{vm, host, basis.index(vm, host),
                                host == current, group});
}

/// Full enumeration: every (vm, feasible host) pair of the domain plus the
/// no-ops, VMs ascending, each VM emitting its no-op first and then its
/// targets by ascending host.
void enumerate_all(const Datacenter& dc, std::span<const double> host_util,
                   const ActionBasis& basis, double util_ceiling,
                   const CandidateDomain& domain,
                   std::vector<CandidateAction>& out) {
  // d is small on this path by construction, but full_enumeration_limit is
  // caller-configurable: clamp the occupancy guess so a generous limit
  // cannot turn the reserve itself into a huge upfront allocation.
  const std::size_t guess = domain.vms.size() *
                            static_cast<std::size_t>(domain.host_end -
                                                     domain.host_begin) /
                            4;
  out.reserve(std::min<std::size_t>(guess, 65'536));
  for (int vm : domain.vms) {
    const int current = dc.host_of(vm);
    add_candidate(out, basis, vm, current, current,
                  CandidateGroup::kExploration);
    for (int h = domain.host_begin; h < domain.host_end; ++h) {
      if (h == current) continue;
      if (target_feasible(dc, host_util, vm, h, util_ceiling)) {
        add_candidate(out, basis, vm, h, current,
                      CandidateGroup::kExploration);
      }
    }
  }
}

}  // namespace

void generate_candidates(const Datacenter& dc,
                         std::span<const double> host_util, double beta,
                         const ActionBasis& basis,
                         const CandidateConfig& config,
                         const CandidateDomain& domain, Rng& rng,
                         CandidateScratch& scratch,
                         const FatTreeTopology* network) {
  MEGH_TRACE_SCOPE("megh.candidates");
  if (!config.network_aware) network = nullptr;
  MEGH_ASSERT(static_cast<int>(host_util.size()) == dc.num_hosts(),
              "host_util size mismatch");
  const int num_hosts = dc.num_hosts();
  // Host range this call may source from, scan and target. Every per-host
  // scratch array below is sized `hosts` = the range's width and indexed
  // relative to host_lo.
  const int host_lo = domain.host_begin;
  const int host_hi = domain.host_end;
  MEGH_ASSERT(host_lo >= 0 && host_lo < host_hi && host_hi <= num_hosts,
              "generate_candidates: domain host range out of bounds");
  const int width = host_hi - host_lo;
  const std::size_t hosts = static_cast<std::size_t>(width);
  scratch.candidates.clear();
  // The enumeration gate compares the domain's reachable action count.
  if (static_cast<std::int64_t>(domain.vms.size()) * width <=
      config.full_enumeration_limit) {
    enumerate_all(dc, host_util, basis, config.target_util_ceiling, domain,
                  scratch.candidates);
    record_candidates(scratch.candidates.size());
    return;
  }

  // Worst-case source/candidate counts from the config — used to size every
  // reusable container up front, so no later step can set a new capacity
  // record and trigger a mid-run reallocation.
  const std::size_t max_sources =
      static_cast<std::size_t>(config.max_overloaded_sources) +
      static_cast<std::size_t>(config.consolidation_sources) +
      static_cast<std::size_t>(config.random_sources);
  const std::size_t max_candidates =
      max_sources * static_cast<std::size_t>(config.targets_per_source + 3);

  // --- hoist step-constant per-host values; bucket the active hosts ---
  if (scratch.types_dc != &dc || scratch.types_begin != host_lo ||
      scratch.types_end != host_hi) {
    build_host_types(dc, host_lo, host_hi, scratch);
  }
  const std::size_t stamp_slots =
      static_cast<std::size_t>(domain.slot_capacity);
  if (scratch.vm_epoch.size() != stamp_slots) {
    scratch.vm_epoch.assign(stamp_slots, 0);
    scratch.epoch = 0;
    scratch.sources.reserve(max_sources);
    scratch.overloaded_hosts.reserve(hosts);
    scratch.active_hosts.reserve(hosts);
    scratch.sort_keys.reserve(hosts);
    scratch.sort_keys_tmp.reserve(hosts);
    scratch.sort_hosts_tmp.reserve(hosts);
  }
  scratch.host_capacity.resize(hosts);
  scratch.host_ram_used.resize(hosts);
  scratch.host_ram_cap.resize(hosts);
  scratch.host_base_watts.resize(hosts);
  scratch.host_power.resize(hosts);
  auto& overloaded = scratch.overloaded_hosts;
  auto& active_hosts = scratch.active_hosts;
  overloaded.clear();
  active_hosts.clear();
  scratch.sort_keys.clear();
  scratch.sleeping_hosts.clear();
  std::fill(scratch.bucket_start.begin(), scratch.bucket_start.end(), 0);
  for (int h = host_lo; h < host_hi; ++h) {
    const std::size_t i = static_cast<std::size_t>(h - host_lo);
    const double u = host_util[static_cast<std::size_t>(h)];
    // Also rejects NaN: both host orders and the buckets need u >= 0.
    MEGH_ASSERT(u >= 0.0, "generate_candidates: host utilization must be "
                          "a non-negative number");
    const HostSpec& spec = dc.host_spec(h);
    scratch.host_capacity[i] = spec.mips;
    scratch.host_ram_used[i] = dc.host_ram_used(h);
    scratch.host_ram_cap[i] = spec.ram_mb;
    scratch.host_power[i] = &spec.power;
    const bool active = dc.is_active(h);
    // PABFD's per-probe baseline, computed once per host instead: active
    // hosts pay watts(before), sleeping hosts their sleep draw.
    scratch.host_base_watts[i] =
        active ? spec.power.watts(std::min(1.0, u)) : spec.power.sleep_watts();
    if (u > beta) overloaded.push_back(h);
    if (active) {
      active_hosts.push_back(h);
      // Non-negative doubles order like their bit patterns (+0.0 for 0).
      scratch.sort_keys.push_back(
          u == 0.0 ? 0 : std::bit_cast<std::uint64_t>(u));
      const int b = scratch.host_type[i] * kSegments + segment_of(u);
      scratch.host_bucket[i] = b;
      ++scratch.bucket_start[static_cast<std::size_t>(b) + 1];
    } else {
      scratch.sleeping_hosts.push_back(h);
    }
  }
  // Counting sort of the active hosts into their buckets, ascending inside
  // each (active_hosts is still in host order here).
  scratch.nonempty_buckets.clear();
  const std::size_t num_buckets = scratch.bucket_fill.size();
  for (std::size_t b = 0; b < num_buckets; ++b) {
    if (scratch.bucket_start[b + 1] > 0) {
      scratch.nonempty_buckets.push_back(static_cast<int>(b));
    }
    scratch.bucket_start[b + 1] += scratch.bucket_start[b];
    scratch.bucket_fill[b] = scratch.bucket_start[b];
  }
  scratch.bucket_hosts.resize(active_hosts.size());
  for (int h : active_hosts) {
    const std::size_t b = static_cast<std::size_t>(
        scratch.host_bucket[static_cast<std::size_t>(h - host_lo)]);
    scratch.bucket_hosts[static_cast<std::size_t>(scratch.bucket_fill[b]++)] =
        h;
  }
  // Active hosts by (utilization, index), both ascending.
  radix_sort_by_key(scratch.sort_keys, active_hosts, scratch.sort_keys_tmp,
                    scratch.sort_hosts_tmp);

  // --- select source VMs (tagged by the group they will draw in) ---
  // The "seen" stamp array is indexed by the VM's dense domain slot, so a
  // pod-sized domain keeps the array pod-sized.
  if (++scratch.epoch == 0) {  // wrapped: stale stamps could alias
    std::fill(scratch.vm_epoch.begin(), scratch.vm_epoch.end(), 0u);
    scratch.epoch = 1;
  }
  const std::uint32_t epoch = scratch.epoch;
  auto& sources = scratch.sources;
  sources.clear();
  const auto push_source = [&](int vm, CandidateGroup group) {
    const std::size_t slot =
        static_cast<std::size_t>(domain.vm_slot[static_cast<std::size_t>(vm)]);
    MEGH_ASSERT(slot < scratch.vm_epoch.size(),
                "generate_candidates: vm slot out of range");
    std::uint32_t& stamp = scratch.vm_epoch[slot];
    if (stamp != epoch) {
      stamp = epoch;
      sources.emplace_back(vm, group);
    }
  };

  // 1. VMs on overloaded hosts, most-overloaded hosts first (ties by
  //    ascending index).
  std::sort(overloaded.begin(), overloaded.end(), [&](int a, int b) {
    const double ua = host_util[static_cast<std::size_t>(a)];
    const double ub = host_util[static_cast<std::size_t>(b)];
    return ua > ub || (ua == ub && a < b);
  });
  const auto overloaded_full = [&] {
    return static_cast<int>(sources.size()) >= config.max_overloaded_sources;
  };
  for (int h : overloaded) {
    if (overloaded_full()) break;
    for (int vm : dc.vms_on(h)) {
      if (overloaded_full()) break;
      push_source(vm, CandidateGroup::kOverloaded);
    }
  }

  // 2. Consolidation: VMs on the least-utilized active hosts.
  int consolidation_added = 0;
  for (int h : active_hosts) {
    if (consolidation_added >= config.consolidation_sources) break;
    for (int vm : dc.vms_on(h)) {
      if (consolidation_added >= config.consolidation_sources) break;
      push_source(vm, CandidateGroup::kConsolidation);
      ++consolidation_added;
    }
  }

  // 3. Random exploration sources, drawn from the domain's VM list.
  for (int i = 0; i < config.random_sources && !domain.vms.empty(); ++i) {
    push_source(domain.vms[rng.index(domain.vms.size())],
                CandidateGroup::kExploration);
  }

  // target_feasible on the hoisted arrays (identical arithmetic).
  const auto feasible_fast = [&](int h, double vm_ram, double vm_mips,
                                 double ceiling) {
    const std::size_t i = static_cast<std::size_t>(h - host_lo);
    if (!fits_hoisted(scratch, i, vm_ram)) return false;
    const double capacity = scratch.host_capacity[i];
    const double post =
        host_util[static_cast<std::size_t>(h)] * capacity + vm_mips;
    return post <= ceiling * capacity + 1e-9;
  };

  // --- targets per source ---
  auto& out = scratch.candidates;
  if (out.capacity() < max_candidates) out.reserve(max_candidates);
  scratch.index_seen.reset(max_candidates);
  CandidateGroup group = CandidateGroup::kExploration;
  long long pabfd_probes = 0;
  const auto push_candidate = [&](int vm, int host, int current) {
    if (scratch.index_seen.insert(basis.index(vm, host))) {
      add_candidate(out, basis, vm, host, current, group);
    }
  };
  for (const auto& [vm, source_group] : sources) {
    const int current = dc.host_of(vm);
    const double vm_ram = dc.vm_spec(vm).ram_mb;
    const double vm_mips = dc.vm_demand_mips(vm);
    group = source_group;
    push_candidate(vm, current, current);  // no-op first

    // PABFD target (power-aware best fit) as a high-quality candidate —
    // except for consolidation sources, whose menu is packing-only.
    if (group != CandidateGroup::kConsolidation) {
      const int pabfd =
          bucketed_pabfd(host_util, config.target_util_ceiling, host_lo,
                         current, vm_ram, vm_mips, scratch, pabfd_probes);
      if (pabfd >= 0) push_candidate(vm, pabfd, current);
    }

    // Packing target (consolidation move; in-pod preferred as a short copy
    // path): the walk down active_hosts described in the header. A pick
    // stays open through its whole utilization run because the walk meets
    // a run's hosts in descending index order and the lowest index must
    // win.
    const int home_pod = network != nullptr ? network->pod_of(current) : -1;
    int pack = -1, pack_local = -1;
    double pack_util = 0.0, pack_local_util = 0.0;
    for (auto it = active_hosts.rbegin(); it != active_hosts.rend(); ++it) {
      const int h = *it;
      const double u = host_util[static_cast<std::size_t>(h)];
      const bool global_open = pack < 0 || u == pack_util;
      const bool local_open =
          network != nullptr && (pack_local < 0 || u == pack_local_util);
      if (!global_open && !local_open) break;
      if (h == current) continue;
      const bool in_pod = local_open && network->pod_of(h) == home_pod;
      if (!global_open && !in_pod) continue;
      if (!feasible_fast(h, vm_ram, vm_mips, config.pack_ceiling)) continue;
      if (global_open && (pack < 0 || h < pack)) {
        pack = h;
        pack_util = u;
      }
      if (in_pod && (pack_local < 0 || h < pack_local)) {
        pack_local = h;
        pack_local_util = u;
      }
    }
    if (pack_local >= 0) pack = pack_local;
    if (pack >= 0) push_candidate(vm, pack, current);

    // Random feasible targets (spread moves) — offered for overloaded and
    // exploration sources. Consolidation sources get packing moves only,
    // so the consolidation draw never un-packs a host. This is the only
    // part that draws from `rng`, in source order.
    if (group == CandidateGroup::kConsolidation) continue;
    int added = 0;
    const int probes = std::min(width, 4 * config.targets_per_source);
    for (int i = 0; i < probes && added < config.targets_per_source; ++i) {
      int h;
      if (network != nullptr && rng.bernoulli(config.local_probe_fraction)) {
        // Network-aware probe: a host from the source's own pod (short
        // migration path on the fabric).
        const int pod = network->pod_of(current);
        const int pod_base = pod * network->hosts_per_pod();
        h = pod_base + static_cast<int>(rng.index(static_cast<std::size_t>(
                           network->hosts_per_pod())));
        if (h >= num_hosts) continue;  // fabric ports beyond the fleet
      } else {
        h = host_lo + static_cast<int>(
                          rng.index(static_cast<std::size_t>(width)));
      }
      // Only the domain's own range is a target (a pod probe can land
      // outside it when the domain is a topology-free block).
      if (h < host_lo || h >= host_hi) continue;
      if (h == current) continue;
      if (!feasible_fast(h, vm_ram, vm_mips, config.target_util_ceiling))
        continue;
      push_candidate(vm, h, current);
      ++added;
    }
  }
  record_candidates(out.size());
  static Counter& probes_counter =
      Telemetry::instance().counter("megh.pabfd_probes");
  probes_counter.add(pabfd_probes);
}

std::vector<CandidateAction> generate_candidates(
    const Datacenter& dc, std::span<const double> host_util, double beta,
    const ActionBasis& basis, const CandidateConfig& config, Rng& rng,
    const FatTreeTopology* network) {
  std::vector<int> vms;
  std::vector<std::int32_t> slots(static_cast<std::size_t>(dc.num_vms()));
  for (int vm = 0; vm < dc.num_vms(); ++vm) {
    slots[static_cast<std::size_t>(vm)] = vm;
    if (dc.host_of(vm) != kUnplaced) vms.push_back(vm);
  }
  CandidateDomain domain;
  domain.host_end = dc.num_hosts();
  domain.vms = vms;
  domain.vm_slot = slots;
  domain.slot_capacity = dc.num_vms();
  CandidateScratch scratch;
  generate_candidates(dc, host_util, beta, basis, config, domain, rng,
                      scratch, network);
  return std::move(scratch.candidates);
}

}  // namespace megh
