#include "core/candidates.hpp"

#include <algorithm>
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

  // --- select source VMs (tagged by the group they will draw in) ---
  // The "seen" stamp array is indexed by the VM's dense domain slot, so a
  // pod-sized domain keeps the array pod-sized.
  const std::size_t stamp_slots =
      static_cast<std::size_t>(domain.slot_capacity);
  if (scratch.vm_epoch.size() != stamp_slots) {
    scratch.vm_epoch.assign(stamp_slots, 0);
    scratch.epoch = 0;
    scratch.sources.reserve(max_sources);
    scratch.overloaded_hosts.reserve(hosts);
    scratch.active_hosts.reserve(hosts);
  }
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

  // 1. VMs on overloaded hosts, most-overloaded hosts first.
  auto& overloaded = scratch.overloaded_hosts;
  overloaded.clear();
  for (int h = host_lo; h < host_hi; ++h) {
    if (host_util[static_cast<std::size_t>(h)] > beta) overloaded.push_back(h);
  }
  std::sort(overloaded.begin(), overloaded.end(), [&](int a, int b) {
    return host_util[static_cast<std::size_t>(a)] >
           host_util[static_cast<std::size_t>(b)];
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
  auto& active_hosts = scratch.active_hosts;
  active_hosts.clear();
  for (int h = host_lo; h < host_hi; ++h) {
    if (dc.is_active(h)) active_hosts.push_back(h);
  }
  std::sort(active_hosts.begin(), active_hosts.end(), [&](int a, int b) {
    return host_util[static_cast<std::size_t>(a)] <
           host_util[static_cast<std::size_t>(b)];
  });
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

  // --- hoist step-constant per-host values ---
  scratch.host_capacity.resize(hosts);
  scratch.host_ram_used.resize(hosts);
  scratch.host_ram_cap.resize(hosts);
  scratch.host_base_watts.resize(hosts);
  scratch.host_power.resize(hosts);
  scratch.host_active.resize(hosts);
  for (int h = host_lo; h < host_hi; ++h) {
    const std::size_t i = static_cast<std::size_t>(h - host_lo);
    const HostSpec& spec = dc.host_spec(h);
    scratch.host_capacity[i] = spec.mips;
    scratch.host_ram_used[i] = dc.host_ram_used(h);
    scratch.host_ram_cap[i] = spec.ram_mb;
    scratch.host_power[i] = &spec.power;
    const bool active = dc.is_active(h);
    scratch.host_active[i] = active ? 1 : 0;
    // PABFD's per-probe baseline, computed once per host instead: active
    // hosts pay watts(before), sleeping hosts their sleep draw.
    scratch.host_base_watts[i] =
        active ? spec.power.watts(
                     std::min(1.0, host_util[static_cast<std::size_t>(h)]))
               : spec.power.sleep_watts();
  }

  // Datacenter::fits on the hoisted arrays (identical comparison).
  const auto fits_fast = [&](int h, double vm_ram) {
    const std::size_t i = static_cast<std::size_t>(h - host_lo);
    return scratch.host_ram_used[i] + vm_ram <= scratch.host_ram_cap[i] + 1e-9;
  };
  // target_feasible on the hoisted arrays (identical arithmetic).
  const auto feasible_fast = [&](int h, double vm_ram, double vm_mips,
                                 double ceiling) {
    if (!fits_fast(h, vm_ram)) return false;
    const std::size_t i = static_cast<std::size_t>(h - host_lo);
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
    // except for consolidation sources, whose menu is packing-only. The
    // fold prefers active hosts, then the smaller power increase; the
    // first host wins ties.
    if (group != CandidateGroup::kConsolidation) {
      int pabfd = -1;
      bool pabfd_active = false;
      double best_increase = std::numeric_limits<double>::infinity();
      for (int h = host_lo; h < host_hi; ++h) {
        if (h == current) continue;
        const std::size_t i = static_cast<std::size_t>(h - host_lo);
        if (!fits_fast(h, vm_ram)) continue;
        const double capacity = scratch.host_capacity[i];
        const double after =
            host_util[static_cast<std::size_t>(h)] + vm_mips / capacity;
        if (after > config.target_util_ceiling + 1e-9) continue;
        const bool active = scratch.host_active[i] != 0;
        // No side effects in the skipped work, so the early-out cannot
        // change the fold's winner.
        if (pabfd >= 0 && pabfd_active && !active) continue;
        const double increase =
            scratch.host_power[i]->watts(std::min(1.0, after)) -
            scratch.host_base_watts[i];
        const bool better = pabfd < 0 || (active && !pabfd_active) ||
                            (active == pabfd_active &&
                             increase < best_increase);
        if (better) {
          pabfd = h;
          best_increase = increase;
          pabfd_active = active;
        }
      }
      if (pabfd >= 0) push_candidate(vm, pabfd, current);
    }

    // Packing target (consolidation move; in-pod preferred as a short copy
    // path): the walk down active_hosts described in the header. A pick
    // stays open through its whole utilization run because std::sort
    // leaves ties in no particular order and the lowest index must win.
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
