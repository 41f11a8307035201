#include "core/candidates.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>
#include <string>

#include "sim/placement.hpp"
#include "telemetry/telemetry.hpp"

namespace megh {
namespace {

struct World {
  Datacenter dc;
  ActionBasis basis;
  std::vector<double> host_util;

  static World make(int hosts, int vms, double util) {
    std::vector<VmSpec> specs(static_cast<std::size_t>(vms),
                              VmSpec{1000.0, 512.0, 100.0});
    Datacenter dc(standard_host_fleet(hosts), specs);
    Rng rng(3);
    place_initial(dc, InitialPlacement::kRoundRobin, rng);
    std::vector<double> demands(static_cast<std::size_t>(vms), util);
    dc.set_demands(demands);
    auto host_util = dc.all_host_utilization();
    return {std::move(dc), ActionBasis(vms, hosts), std::move(host_util)};
  }
};

TEST(CandidatesTest, FullEnumerationCoversEveryFeasiblePair) {
  World w = World::make(3, 4, 0.1);  // d = 12 <= limit → enumerate
  CandidateConfig config;
  Rng rng(1);
  const auto cands = generate_candidates(w.dc, w.host_util, 0.7, w.basis,
                                         config, rng);
  // 4 VMs × 3 hosts, everything feasible at low load.
  EXPECT_EQ(cands.size(), 12u);
  int noops = 0;
  for (const auto& c : cands) {
    if (c.is_noop) {
      ++noops;
      EXPECT_EQ(c.host, w.dc.host_of(c.vm));
    }
    EXPECT_EQ(c.index, w.basis.index(c.vm, c.host));
  }
  EXPECT_EQ(noops, 4);
}

TEST(CandidatesTest, SampledModeAlwaysOffersNoops) {
  World w = World::make(30, 60, 0.1);  // d = 1800 > limit → sampled
  CandidateConfig config;
  Rng rng(1);
  const auto cands = generate_candidates(w.dc, w.host_util, 0.7, w.basis,
                                         config, rng);
  ASSERT_FALSE(cands.empty());
  std::set<int> vms_with_noop;
  std::set<int> vms_seen;
  for (const auto& c : cands) {
    vms_seen.insert(c.vm);
    if (c.is_noop) vms_with_noop.insert(c.vm);
  }
  EXPECT_EQ(vms_with_noop, vms_seen);  // every source has its no-op
}

TEST(CandidatesTest, NoDuplicateIndices) {
  World w = World::make(30, 60, 0.1);
  CandidateConfig config;
  Rng rng(2);
  const auto cands = generate_candidates(w.dc, w.host_util, 0.7, w.basis,
                                         config, rng);
  std::set<std::int64_t> indices;
  for (const auto& c : cands) {
    EXPECT_TRUE(indices.insert(c.index).second) << "duplicate " << c.index;
  }
}

TEST(CandidatesTest, OverloadedHostVmsAreSources) {
  World w = World::make(30, 60, 0.1);
  // Overload host 0 artificially.
  w.host_util[0] = 0.95;
  CandidateConfig config;
  Rng rng(3);
  const auto cands = generate_candidates(w.dc, w.host_util, 0.7, w.basis,
                                         config, rng);
  std::set<int> sources;
  for (const auto& c : cands) sources.insert(c.vm);
  for (int vm : w.dc.vms_on(0)) {
    EXPECT_TRUE(sources.count(vm)) << "overloaded host VM " << vm
                                   << " missing from sources";
  }
  // Overloaded sources are tagged.
  for (const auto& c : cands) {
    if (w.dc.host_of(c.vm) == 0) {
      EXPECT_EQ(c.group, CandidateGroup::kOverloaded);
    }
  }
}

TEST(CandidatesTest, ConsolidationSourcesTaggedAndPackOnly) {
  World w = World::make(30, 60, 0.1);
  CandidateConfig config;
  config.random_sources = 0;
  Rng rng(4);
  const auto cands = generate_candidates(w.dc, w.host_util, 0.7, w.basis,
                                         config, rng);
  int consolidation_moves = 0;
  for (const auto& c : cands) {
    if (c.group != CandidateGroup::kConsolidation || c.is_noop) continue;
    ++consolidation_moves;
    // A consolidation move must target a host at least as utilized as the
    // source (packing direction), under the pack ceiling.
    const double post =
        (w.dc.host_demand_mips(c.host) + w.dc.vm_demand_mips(c.vm)) /
        w.dc.host_spec(c.host).mips;
    EXPECT_LE(post, config.pack_ceiling + 1e-9);
  }
  EXPECT_GT(consolidation_moves, 0);
}

TEST(CandidatesTest, TargetsRespectRamFeasibility) {
  // Tiny hosts: 4 GB, VMs of 3 GB → at most one per host, so any move
  // candidate must target an empty host.
  std::vector<VmSpec> specs(10, VmSpec{1000.0, 3072.0, 100.0});
  Datacenter dc(standard_host_fleet(20), specs);
  Rng prng(5);
  place_initial(dc, InitialPlacement::kFirstFit, prng);
  std::vector<double> demands(10, 0.1);
  dc.set_demands(demands);
  const auto host_util = dc.all_host_utilization();
  const ActionBasis basis(10, 20);
  CandidateConfig config;
  config.full_enumeration_limit = 0;  // force sampled path
  Rng rng(6);
  const auto cands =
      generate_candidates(dc, host_util, 0.7, basis, config, rng);
  for (const auto& c : cands) {
    if (c.is_noop) continue;
    EXPECT_TRUE(dc.fits(c.vm, c.host));
  }
}

// ---- Packing walk vs the fleet scan it replaced ----

/// The packing rule as a plain scan of the domain: the busiest active host
/// that fits `vm` under the pack ceiling (strictly larger utilization wins,
/// the first host wins ties), in-pod preferred when a fabric is attached.
/// `local_differs` reports a fabric pick that overrode the global one.
int scan_pack_target(const Datacenter& dc, std::span<const double> host_util,
                     const CandidateConfig& config,
                     const CandidateDomain& domain,
                     const FatTreeTopology* network, int vm,
                     bool& local_differs) {
  const int current = dc.host_of(vm);
  const double vm_mips = dc.vm_demand_mips(vm);
  int pack = -1, pack_local = -1;
  double pack_util = -1.0, pack_local_util = -1.0;
  for (int h = domain.host_begin; h < domain.host_end; ++h) {
    if (h == current || !dc.is_active(h)) continue;
    const double u = host_util[static_cast<std::size_t>(h)];
    if (u <= pack_local_util && u <= pack_util) continue;
    if (!dc.fits(vm, h)) continue;
    const double capacity = dc.host_spec(h).mips;
    if (u * capacity + vm_mips > config.pack_ceiling * capacity + 1e-9)
      continue;
    if (u > pack_util) {
      pack = h;
      pack_util = u;
    }
    if (network != nullptr && u > pack_local_util &&
        network->pod_of(h) == network->pod_of(current)) {
      pack_local = h;
      pack_local_util = u;
    }
  }
  local_differs = pack_local >= 0 && pack_local != pack;
  return pack_local >= 0 ? pack_local : pack;
}

/// Which packing situations a reference run met; the property test asserts
/// every one of them was exercised.
struct PackCoverage {
  int tied = 0;            // two or more feasible hosts at the pick's util
  int on_busiest = 0;       // source sits on a busiest active host
  int infeasible = 0;       // no host takes the source
  int zero_util = 0;        // pick at utilization 0
  int at_ceiling = 0;       // pick at exactly pack_ceiling
  int local_override = 0;   // in-pod pick differs from the global one
};

/// PABFD as a full fold over the domain [lo, hi): the feasible host with
/// the smallest (sleeping, power increase, index), `exclude` skipped. The
/// oracle for the bucketed fold.
int fold_pabfd(const Datacenter& dc, std::span<const double> host_util,
               double ceiling, int lo, int hi, int vm, int exclude) {
  const double vm_mips = dc.vm_demand_mips(vm);
  int pabfd = -1;
  bool pabfd_active = false;
  double best = std::numeric_limits<double>::infinity();
  for (int h = lo; h < hi; ++h) {
    if (h == exclude || !dc.fits(vm, h)) continue;
    const double u = host_util[static_cast<std::size_t>(h)];
    const double after = u + vm_mips / dc.host_spec(h).mips;
    if (after > ceiling + 1e-9) continue;
    const bool on = dc.is_active(h);
    const PowerModel& power = dc.host_spec(h).power;
    const double base = on ? power.watts(std::min(1.0, u))
                           : power.sleep_watts();
    const double increase = power.watts(std::min(1.0, after)) - base;
    if (pabfd < 0 || (on && !pabfd_active) ||
        (on == pabfd_active && increase < best)) {
      pabfd = h;
      best = increase;
      pabfd_active = on;
    }
  }
  return pabfd;
}

/// Which PABFD situations a reference run met; the fold test asserts
/// every one of them was exercised.
struct PabfdCoverage {
  int sources = 0;
  int sleeping_pick = 0;   // no active host fits, a sleeping one does
  int on_best_host = 0;    // the source already sits on the fold's pick
  int exact_tie = 0;       // another feasible active host has the same increase
  int noise_tie = 0;       // ... or one within rounding noise of it
  int on_knot = 0;         // a feasible active host gets u + Δ exactly j/10
  int at_ceiling = 0;      // ... or u + Δ exactly the ceiling
  int pick_on_tenth = 0;   // the pick sits at u exactly k/10
  int saturated_pick = 0;  // the pick sits at u >= 1
};

/// Classify one PABFD source for the coverage counters.
void record_pabfd(const Datacenter& dc, std::span<const double> host_util,
                  double ceiling, int lo, int hi, int vm, int pick,
                  PabfdCoverage& cov) {
  ++cov.sources;
  const int current = dc.host_of(vm);
  if (pick >= 0 && !dc.is_active(pick)) ++cov.sleeping_pick;
  if (fold_pabfd(dc, host_util, ceiling, lo, hi, vm, -1) == current) {
    ++cov.on_best_host;
  }
  if (pick < 0 || !dc.is_active(pick)) return;
  const double vm_mips = dc.vm_demand_mips(vm);
  const auto increase = [&](int h) {
    const double u = host_util[static_cast<std::size_t>(h)];
    const PowerModel& power = dc.host_spec(h).power;
    return power.watts(std::min(1.0, u + vm_mips / dc.host_spec(h).mips)) -
           power.watts(std::min(1.0, u));
  };
  const double best = increase(pick);
  const double u_pick = host_util[static_cast<std::size_t>(pick)];
  if (u_pick >= 1.0) ++cov.saturated_pick;
  if (u_pick == std::round(u_pick * 10.0) / 10.0) ++cov.pick_on_tenth;
  bool exact = false, noise = false, knot = false, at_cap = false;
  for (int h = lo; h < hi; ++h) {
    if (h == current || !dc.is_active(h) || !dc.fits(vm, h)) continue;
    const double after = host_util[static_cast<std::size_t>(h)] +
                         vm_mips / dc.host_spec(h).mips;
    if (after > ceiling + 1e-9) continue;
    if (after == ceiling) at_cap = true;
    if (after < 1.0 && after == std::round(after * 10.0) / 10.0) knot = true;
    if (h == pick) continue;
    const double gap = increase(h) - best;
    if (gap == 0.0) exact = true;
    if (gap != 0.0 &&
        std::abs(gap) <= 1e-9 * dc.host_spec(h).power.max_watts()) {
      noise = true;
    }
  }
  cov.exact_tie += exact ? 1 : 0;
  cov.noise_tie += noise ? 1 : 0;
  cov.on_knot += knot ? 1 : 0;
  cov.at_ceiling += at_cap ? 1 : 0;
}

/// The sampled candidate path with the packing scan above and the full
/// PABFD fold, written against the public Datacenter accessors: the oracle
/// for the packing walk and the bucketed fold.
std::vector<CandidateAction> reference_candidates(
    const Datacenter& dc, std::span<const double> host_util, double beta,
    const ActionBasis& basis, const CandidateConfig& config,
    const CandidateDomain& domain, Rng& rng, const FatTreeTopology* network,
    PackCoverage& cov, PabfdCoverage* pabfd_cov = nullptr) {
  if (!config.network_aware) network = nullptr;
  const int lo = domain.host_begin, hi = domain.host_end;
  const int width = hi - lo;
  std::vector<std::pair<int, CandidateGroup>> sources;
  std::set<int> seen;
  const auto push_source = [&](int vm, CandidateGroup group) {
    if (seen.insert(vm).second) sources.emplace_back(vm, group);
  };
  std::vector<int> overloaded;
  for (int h = lo; h < hi; ++h) {
    if (host_util[static_cast<std::size_t>(h)] > beta) overloaded.push_back(h);
  }
  // Both host orders are canonical: ties go to the lower host index.
  std::sort(overloaded.begin(), overloaded.end(), [&](int a, int b) {
    const double ua = host_util[static_cast<std::size_t>(a)];
    const double ub = host_util[static_cast<std::size_t>(b)];
    return ua > ub || (ua == ub && a < b);
  });
  for (int h : overloaded) {
    for (int vm : dc.vms_on(h)) {
      if (static_cast<int>(sources.size()) >= config.max_overloaded_sources)
        break;
      push_source(vm, CandidateGroup::kOverloaded);
    }
  }
  std::vector<int> active;
  for (int h = lo; h < hi; ++h) {
    if (dc.is_active(h)) active.push_back(h);
  }
  std::sort(active.begin(), active.end(), [&](int a, int b) {
    const double ua = host_util[static_cast<std::size_t>(a)];
    const double ub = host_util[static_cast<std::size_t>(b)];
    return ua < ub || (ua == ub && a < b);
  });
  int consolidation_added = 0;
  for (int h : active) {
    if (consolidation_added >= config.consolidation_sources) break;
    for (int vm : dc.vms_on(h)) {
      if (consolidation_added >= config.consolidation_sources) break;
      push_source(vm, CandidateGroup::kConsolidation);
      ++consolidation_added;
    }
  }
  for (int i = 0; i < config.random_sources && !domain.vms.empty(); ++i) {
    push_source(domain.vms[rng.index(domain.vms.size())],
                CandidateGroup::kExploration);
  }
  const double busiest =
      host_util[static_cast<std::size_t>(active.empty() ? lo : active.back())];

  std::vector<CandidateAction> out;
  std::set<std::int64_t> indices;
  CandidateGroup group = CandidateGroup::kExploration;
  const auto push = [&](int vm, int host, int current) {
    const std::int64_t index = basis.index(vm, host);
    if (indices.insert(index).second) {
      out.push_back(CandidateAction{vm, host, index, host == current, group});
    }
  };
  const auto feasible = [&](int vm, int h, double ceiling) {
    if (!dc.fits(vm, h)) return false;
    const double capacity = dc.host_spec(h).mips;
    return host_util[static_cast<std::size_t>(h)] * capacity +
               dc.vm_demand_mips(vm) <=
           ceiling * capacity + 1e-9;
  };
  for (const auto& [vm, source_group] : sources) {
    const int current = dc.host_of(vm);
    group = source_group;
    push(vm, current, current);
    if (group != CandidateGroup::kConsolidation) {
      const int pabfd = fold_pabfd(dc, host_util, config.target_util_ceiling,
                                   lo, hi, vm, current);
      if (pabfd_cov != nullptr) {
        record_pabfd(dc, host_util, config.target_util_ceiling, lo, hi, vm,
                     pabfd, *pabfd_cov);
      }
      if (pabfd >= 0) push(vm, pabfd, current);
    }

    bool local_differs = false;
    const int pack = scan_pack_target(dc, host_util, config, domain, network,
                                      vm, local_differs);
    if (host_util[static_cast<std::size_t>(current)] == busiest)
      ++cov.on_busiest;
    if (local_differs) ++cov.local_override;
    if (pack < 0) {
      ++cov.infeasible;
    } else {
      const double u = host_util[static_cast<std::size_t>(pack)];
      if (u == 0.0) ++cov.zero_util;
      if (u == config.pack_ceiling) ++cov.at_ceiling;
      int at_u = 0;
      for (int h = lo; h < hi; ++h) {
        if (h != current && dc.is_active(h) &&
            host_util[static_cast<std::size_t>(h)] == u &&
            feasible(vm, h, config.pack_ceiling) &&
            (network == nullptr ||
             network->pod_of(h) == network->pod_of(pack))) {
          ++at_u;
        }
      }
      if (at_u >= 2) ++cov.tied;
      push(vm, pack, current);
    }

    if (group == CandidateGroup::kConsolidation) continue;
    int added = 0;
    const int probes = std::min(width, 4 * config.targets_per_source);
    for (int i = 0; i < probes && added < config.targets_per_source; ++i) {
      int h;
      if (network != nullptr && rng.bernoulli(config.local_probe_fraction)) {
        const int pod_base =
            network->pod_of(current) * network->hosts_per_pod();
        h = pod_base + static_cast<int>(rng.index(static_cast<std::size_t>(
                           network->hosts_per_pod())));
        if (h >= dc.num_hosts()) continue;
      } else {
        h = lo + static_cast<int>(rng.index(static_cast<std::size_t>(width)));
      }
      if (h < lo || h >= hi || h == current) continue;
      if (!feasible(vm, h, config.target_util_ceiling)) continue;
      push(vm, h, current);
      ++added;
    }
  }
  return out;
}

/// A fleet built to stress the packing rule: few utilization levels (so
/// ties are common) including 0 and exactly pack_ceiling, some empty
/// hosts, zero-demand VMs that fit a host at the ceiling, and VMs too
/// large to pack anywhere. `host_util` is set directly, independent of the
/// VM demands: the generator reads both as given.
struct PackingFleet {
  Datacenter dc;
  ActionBasis basis;
  std::vector<double> host_util;

  static PackingFleet make(std::uint64_t seed, int hosts, double ceiling) {
    Rng rng(seed);
    const int vms = hosts * 3 / 2;
    std::vector<VmSpec> specs;
    std::vector<double> demands;
    for (int v = 0; v < vms; ++v) {
      const bool huge = rng.bernoulli(0.125);
      specs.push_back(VmSpec{huge ? 4000.0 : 1000.0,
                             512.0 * static_cast<double>(1 + rng.index(3)),
                             100.0});
      const double levels[] = {0.0, 0.25, 0.5, 1.0};
      demands.push_back(huge ? 1.0 : levels[rng.index(4)]);
    }
    Datacenter dc(standard_host_fleet(hosts), specs);
    std::vector<int> open;  // about a fifth of the hosts stay empty
    for (int h = 0; h < hosts; ++h) {
      if (!rng.bernoulli(0.2)) open.push_back(h);
    }
    for (int v = 0; v < vms; ++v) {
      int host = -1;
      for (int tries = 0; tries < 16 && host < 0; ++tries) {
        const int h = open[rng.index(open.size())];
        if (dc.fits(v, h)) host = h;
      }
      for (int h = 0; h < hosts && host < 0; ++h) {
        if (dc.fits(v, h)) host = h;
      }
      dc.place(v, host);
    }
    dc.set_demands(demands);
    const double levels[] = {0.0, 0.1, 0.2, 0.3, 0.45, 0.5,
                             0.6, ceiling, 0.8, 1.1};
    std::vector<double> host_util(static_cast<std::size_t>(hosts));
    for (double& u : host_util) u = levels[rng.index(std::size(levels))];
    return {std::move(dc), ActionBasis(vms, hosts), std::move(host_util)};
  }
};

std::string rng_state(const Rng& rng) {
  std::ostringstream out;
  rng.save(out);
  return out.str();
}

void expect_same_candidates(const std::vector<CandidateAction>& want,
                            const std::vector<CandidateAction>& got,
                            const std::string& where) {
  ASSERT_EQ(want.size(), got.size()) << where;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const CandidateAction& a = want[i];
    const CandidateAction& b = got[i];
    ASSERT_TRUE(a.vm == b.vm && a.host == b.host && a.index == b.index &&
                a.is_noop == b.is_noop && a.group == b.group)
        << where << ": candidate " << i << " is (vm " << b.vm << ", host "
        << b.host << ", group " << static_cast<int>(b.group)
        << "), the scan gives (vm " << a.vm << ", host " << a.host
        << ", group " << static_cast<int>(a.group) << ")";
  }
}

TEST(CandidatesTest, PackingWalkMatchesFleetScan) {
  enum class Shape { kFleetNoFabric, kFleetOnFabric, kPodDomains };
  PackCoverage cov;
  int calls = 0;
  for (Shape shape :
       {Shape::kFleetNoFabric, Shape::kFleetOnFabric, Shape::kPodDomains}) {
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      CandidateConfig config;
      config.full_enumeration_limit = 0;  // sampled path at every size
      config.random_sources = 12;
      const int hosts = 30 + static_cast<int>(seed % 7) * 13;  // 30..108
      const PackingFleet f =
          PackingFleet::make(seed, hosts, config.pack_ceiling);
      const FatTreeTopology fabric = FatTreeTopology::for_hosts(hosts);
      const FatTreeTopology* network =
          shape == Shape::kFleetNoFabric ? nullptr : &fabric;

      std::vector<std::pair<int, int>> ranges;
      if (shape == Shape::kPodDomains) {
        for (int b = 0; b < hosts; b += fabric.hosts_per_pod()) {
          ranges.emplace_back(b, std::min(hosts, b + fabric.hosts_per_pod()));
        }
      } else {
        ranges.emplace_back(0, hosts);
      }
      std::vector<std::int32_t> slots(static_cast<std::size_t>(f.dc.num_vms()));
      for (int v = 0; v < f.dc.num_vms(); ++v) {
        slots[static_cast<std::size_t>(v)] = v;
      }
      CandidateScratch scratch;  // reused across domains, as a pod would
      for (const auto& [begin, end] : ranges) {
        std::vector<int> vms;
        for (int v = 0; v < f.dc.num_vms(); ++v) {
          const int h = f.dc.host_of(v);
          if (h >= begin && h < end) vms.push_back(v);
        }
        if (vms.empty()) continue;
        CandidateDomain domain;
        domain.host_begin = begin;
        domain.host_end = end;
        domain.vms = vms;
        domain.vm_slot = slots;
        domain.slot_capacity = f.dc.num_vms();

        Rng rng(seed * 1000 + static_cast<std::uint64_t>(begin));
        Rng ref_rng = rng;
        const auto want =
            reference_candidates(f.dc, f.host_util, 0.7, f.basis, config,
                                 domain, ref_rng, network, cov);
        generate_candidates(f.dc, f.host_util, 0.7, f.basis, config, domain,
                            rng, scratch, network);
        const std::string where = "shape " +
                                  std::to_string(static_cast<int>(shape)) +
                                  " seed " + std::to_string(seed) +
                                  " hosts [" + std::to_string(begin) + ", " +
                                  std::to_string(end) + ")";
        expect_same_candidates(want, scratch.candidates, where);
        EXPECT_EQ(rng_state(ref_rng), rng_state(rng)) << where;
        ++calls;
      }
    }
  }
  EXPECT_GT(calls, 120);
  // Every situation the walk must get right was met at least once.
  EXPECT_GT(cov.tied, 0);
  EXPECT_GT(cov.on_busiest, 0);
  EXPECT_GT(cov.infeasible, 0);
  EXPECT_GT(cov.zero_util, 0);
  EXPECT_GT(cov.at_ceiling, 0);
  EXPECT_GT(cov.local_override, 0);
}

// ---- Bucketed PABFD fold vs the full fold it replaced ----

/// A fleet built to stress the PABFD bound: five host types (the G4 table
/// at two mips, and at one mips shared with a table that is flat over
/// 0.3–0.5; a linear table, on which increases on different segments tie
/// up to rounding; the G5 table), utilizations at exactly k/10, on a 1/16
/// grid (so u + Δ can land exactly on a knot or on the ceiling), crowded
/// on one segment, spread up to 1.3, and sleeping hosts that only some
/// VMs fit. Every table is multiplied by `scale`; at 1e4 they reach about
/// 1e6 W, so a margin that did not scale with the table would show.
/// `host_util` is set directly.
struct PabfdFleet {
  Datacenter dc;
  ActionBasis basis;
  std::vector<double> host_util;

  static PowerModel scaled(const std::string& name,
                           const std::array<double, 11>& table, double sleep,
                           double scale) {
    std::array<double, 11> watts = table;
    for (double& w : watts) w *= scale;
    return PowerModel(name, watts, sleep * scale);
  }

  static std::vector<HostSpec> host_types(double scale) {
    const PowerModel g4 =
        scaled("g4", hp_proliant_g4_power().table(), 0.0, scale);
    const PowerModel g5 =
        scaled("g5", hp_proliant_g5_power().table(), 0.0, scale);
    const PowerModel flat =
        scaled("flat", {80.0, 84.0, 88.0, 95.0, 95.0, 95.0, 101.0, 104.0,
                        110.0, 112.0, 120.0},
               12.0, scale);
    const PowerModel linear =
        scaled("linear", {100.0, 102.0, 104.0, 106.0, 108.0, 110.0, 112.0,
                          114.0, 116.0, 118.0, 120.0},
               10.0, scale);
    return {HostSpec{"g4", 3720.0, 4096.0, 1000.0, g4},
            HostSpec{"g4-fast", 5000.0, 4096.0, 1000.0, g4},
            HostSpec{"flat", 3720.0, 4096.0, 1000.0, flat},
            HostSpec{"linear", 5320.0, 4096.0, 1000.0, linear},
            HostSpec{"g5", 4000.0, 4096.0, 1000.0, g5}};
  }

  static double draw_util(Rng& rng) {
    switch (rng.index(4)) {
      case 0:  // exactly k/10, up to 1.2
        return static_cast<double>(rng.index(13)) / 10.0;
      case 1:  // on the 1/16 grid, up to 1.25
        return static_cast<double>(rng.index(21)) / 16.0;
      case 2:  // crowded on one segment
        return rng.uniform(0.6, 0.7);
      default:
        return rng.uniform(0.0, 1.3);
    }
  }

  static PabfdFleet make(std::uint64_t seed, int hosts, double scale) {
    Rng rng(seed);
    const std::vector<HostSpec> types = host_types(scale);
    std::vector<HostSpec> fleet;
    for (int h = 0; h < hosts; ++h) fleet.push_back(types[rng.index(5)]);
    const int vms = hosts * 3 / 2;
    std::vector<VmSpec> specs;
    std::vector<double> demands;
    const double rams[] = {512.0, 1024.0, 2048.0, 3584.0};
    const double levels[] = {0.0, 0.125, 0.25, 0.5, 1.0};
    for (int v = 0; v < vms; ++v) {
      specs.push_back(VmSpec{rng.bernoulli(0.5) ? 1000.0 : 2000.0,
                             rams[rng.index(4)], 100.0});
      demands.push_back(levels[rng.index(5)]);
    }
    Datacenter dc(std::move(fleet), specs);
    std::vector<int> open;  // about a fifth of the hosts stay empty
    for (int h = 0; h < hosts; ++h) {
      if (!rng.bernoulli(0.2)) open.push_back(h);
    }
    for (int v = 0; v < vms; ++v) {
      int host = -1;
      for (int tries = 0; tries < 16 && host < 0; ++tries) {
        const int h = open[rng.index(open.size())];
        if (dc.fits(v, h)) host = h;
      }
      if (host >= 0) dc.place(v, host);  // the rest stay unplaced
    }
    dc.set_demands(demands);
    std::vector<double> host_util(static_cast<std::size_t>(hosts), 0.0);
    for (int h = 0; h < hosts; ++h) {
      if (dc.is_active(h)) {
        host_util[static_cast<std::size_t>(h)] = draw_util(rng);
      }
    }
    return {std::move(dc), ActionBasis(vms, hosts), std::move(host_util)};
  }
};

TEST(CandidatesTest, BucketedPabfdMatchesFleetFold) {
  PackCoverage pack_cov;
  PabfdCoverage cov;
  int calls = 0;
  {
    // A hand-built case where the pick sits on its bucket's inner knot
    // crossing. Table "v" has slopes 5, 5, 1, 9, 5, ... per segment, so
    // for Δ = 0.15 the increase on bucket 1 falls from 5.5 W at u = 0.1 to
    // 3.5 W at u = 0.15 (u + Δ = 0.3) and rises back to 5.5 W at u = 0.2.
    // Host 1's linear table gives 4.5 W anywhere: a bound from the range
    // ends alone would prune host 0's bucket behind it.
    const PowerModel v("v", {0.0, 5.0, 10.0, 11.0, 20.0, 25.0, 30.0, 35.0,
                             40.0, 45.0, 50.0});
    const PowerModel linear("linear3", {0.0, 3.0, 6.0, 9.0, 12.0, 15.0, 18.0,
                                        21.0, 24.0, 27.0, 30.0});
    Datacenter dc({HostSpec{"v", 4000.0, 4096.0, 1000.0, v},
                   HostSpec{"linear3", 4000.0, 4096.0, 1000.0, linear},
                   HostSpec{"v", 4000.0, 4096.0, 1000.0, v}},
                  std::vector<VmSpec>(3, VmSpec{600.0, 512.0, 100.0}));
    for (int vm = 0; vm < 3; ++vm) dc.place(vm, vm);
    dc.set_demands(std::vector<double>(3, 1.0));
    const std::vector<double> util = {0.15, 0.5, 0.9};  // host 2 overloaded
    ASSERT_EQ(fold_pabfd(dc, util, 1.0, 0, 3, 2, 2), 0);
    CandidateConfig config;
    config.full_enumeration_limit = 0;
    config.random_sources = 0;
    const ActionBasis basis(3, 3);
    Rng rng(1);
    Rng ref_rng = rng;
    const std::vector<int> vms = {0, 1, 2};
    const std::vector<std::int32_t> slots = {0, 1, 2};
    CandidateDomain domain;
    domain.host_end = 3;
    domain.vms = vms;
    domain.vm_slot = slots;
    domain.slot_capacity = 3;
    CandidateScratch scratch;
    const auto want = reference_candidates(dc, util, 0.7, basis, config,
                                           domain, ref_rng, nullptr,
                                           pack_cov);
    generate_candidates(dc, util, 0.7, basis, config, domain, rng, scratch);
    expect_same_candidates(want, scratch.candidates, "inner knot case");
  }
  for (const bool pods : {false, true}) {
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
      CandidateConfig config;
      config.full_enumeration_limit = 0;  // sampled path at every size
      config.random_sources = 24;
      const double ceilings[] = {1.0, 0.75, 1.25};
      config.target_util_ceiling = ceilings[seed % 3];
      const int hosts = 40 + static_cast<int>(seed % 5) * 40;  // 40..200
      const PabfdFleet f =
          PabfdFleet::make(seed, hosts, seed % 2 == 0 ? 1e4 : 1.0);
      std::vector<std::pair<int, int>> ranges;
      if (pods) {
        for (int b = 0; b < hosts; b += 32) {
          ranges.emplace_back(b, std::min(hosts, b + 32));
        }
      } else {
        ranges.emplace_back(0, hosts);
      }
      std::vector<std::int32_t> slots(static_cast<std::size_t>(f.dc.num_vms()));
      for (int v = 0; v < f.dc.num_vms(); ++v) {
        slots[static_cast<std::size_t>(v)] = v;
      }
      for (const auto& [begin, end] : ranges) {
        std::vector<int> vms;
        for (int v = 0; v < f.dc.num_vms(); ++v) {
          const int h = f.dc.host_of(v);
          if (h >= begin && h < end) vms.push_back(v);
        }
        if (vms.empty()) continue;
        CandidateDomain domain;
        domain.host_begin = begin;
        domain.host_end = end;
        domain.vms = vms;
        domain.vm_slot = slots;
        domain.slot_capacity = f.dc.num_vms();
        // Three steps on one scratch, as a pod runs them: the host types
        // are cached, the buckets rebuilt from each step's utilizations.
        CandidateScratch scratch;
        std::vector<double> util = f.host_util;
        Rng step_rng(seed * 7 + static_cast<std::uint64_t>(begin));
        for (int step = 0; step < 3; ++step) {
          Rng rng(seed * 1000 + static_cast<std::uint64_t>(begin + step));
          Rng ref_rng = rng;
          const auto want =
              reference_candidates(f.dc, util, 0.7, f.basis, config, domain,
                                   ref_rng, nullptr, pack_cov, &cov);
          generate_candidates(f.dc, util, 0.7, f.basis, config, domain, rng,
                              scratch);
          const std::string where =
              std::string(pods ? "pods" : "fleet") + " seed " +
              std::to_string(seed) + " hosts [" + std::to_string(begin) +
              ", " + std::to_string(end) + ") step " + std::to_string(step);
          expect_same_candidates(want, scratch.candidates, where);
          EXPECT_EQ(rng_state(ref_rng), rng_state(rng)) << where;
          ++calls;
          for (int h = begin; h < end; ++h) {
            if (f.dc.is_active(h)) {
              util[static_cast<std::size_t>(h)] =
                  PabfdFleet::draw_util(step_rng);
            }
          }
        }
      }
    }
  }
  EXPECT_GT(calls, 300);
  // Every situation the bound must get right was met at least once.
  EXPECT_GT(cov.sources, 2000);
  EXPECT_GT(cov.sleeping_pick, 0);
  EXPECT_GT(cov.on_best_host, 0);
  EXPECT_GT(cov.exact_tie, 0);
  EXPECT_GT(cov.noise_tie, 0);
  EXPECT_GT(cov.on_knot, 0);
  EXPECT_GT(cov.at_ceiling, 0);
  EXPECT_GT(cov.pick_on_tenth, 0);
  EXPECT_GT(cov.saturated_pick, 0);
}

TEST(CandidatesTest, PabfdProbesStayBelowTheFullFold) {
  // The paper's shape: 800 G4/G5 hosts, VMs with sampled specs and
  // demands, placed at random.
  Rng rng(11);
  const int hosts = 800, vms = 1052;
  Datacenter dc(standard_host_fleet(hosts), sample_vm_fleet(vms, rng));
  place_initial(dc, InitialPlacement::kRandom, rng);
  std::vector<double> demands(static_cast<std::size_t>(vms));
  for (double& d : demands) d = rng.uniform(0.0, 0.6);
  dc.set_demands(demands);
  const auto host_util = dc.all_host_utilization();
  const ActionBasis basis(vms, hosts);
  CandidateConfig config;
  Counter& probes = Telemetry::instance().counter("megh.pabfd_probes");
  long long evaluated = 0, full_fold = 0;
  CandidateScratch scratch;
  std::vector<int> all_vms;
  std::vector<std::int32_t> slots(static_cast<std::size_t>(vms));
  for (int v = 0; v < vms; ++v) {
    slots[static_cast<std::size_t>(v)] = v;
    if (dc.host_of(v) != kUnplaced) all_vms.push_back(v);
  }
  CandidateDomain domain;
  domain.host_end = hosts;
  domain.vms = all_vms;
  domain.vm_slot = slots;
  domain.slot_capacity = vms;
  for (int step = 0; step < 5; ++step) {
    const long long before = probes.value();
    generate_candidates(dc, host_util, 0.7, basis, config, domain, rng,
                        scratch);
    evaluated += probes.value() - before;
    std::set<int> sources;
    for (const CandidateAction& c : scratch.candidates) {
      if (c.group != CandidateGroup::kConsolidation) sources.insert(c.vm);
    }
    full_fold += static_cast<long long>(sources.size()) * hosts;
  }
  EXPECT_GT(evaluated, 0);
  EXPECT_LT(evaluated, full_fold);
}

TEST(CandidatesTest, TiedHostsStraddlingACutGiveTheLowerIndexFirst) {
  // 30 hosts with two VMs each (round robin). Two overloaded hosts tie at
  // 0.9 and two least-utilized hosts tie at 0.05; each cut falls inside
  // the second host of its tie.
  World w = World::make(30, 60, 0.1);
  for (double& u : w.host_util) u = 0.4;
  w.host_util[12] = w.host_util[5] = 0.9;
  w.host_util[17] = w.host_util[8] = 0.05;
  CandidateConfig config;
  config.full_enumeration_limit = 0;
  config.max_overloaded_sources = 3;
  config.consolidation_sources = 3;
  config.random_sources = 0;
  Rng rng(8);
  const auto cands = generate_candidates(w.dc, w.host_util, 0.7, w.basis,
                                         config, rng);
  std::vector<int> overloaded, consolidation;
  for (const CandidateAction& c : cands) {
    if (!c.is_noop) continue;
    (c.group == CandidateGroup::kOverloaded ? overloaded : consolidation)
        .push_back(c.vm);
  }
  const auto& on5 = w.dc.vms_on(5);
  const auto& on8 = w.dc.vms_on(8);
  ASSERT_EQ(on5.size(), 2u);
  ASSERT_EQ(on8.size(), 2u);
  EXPECT_EQ(overloaded, (std::vector<int>{on5[0], on5[1],
                                          w.dc.vms_on(12)[0]}));
  EXPECT_EQ(consolidation, (std::vector<int>{on8[0], on8[1],
                                             w.dc.vms_on(17)[0]}));
}

TEST(CandidatesTest, OverloadedSourcesStopAtTheirCap) {
  World w = World::make(30, 60, 0.1);
  for (int h = 0; h < 10; ++h) w.host_util[static_cast<std::size_t>(h)] = 0.9;
  CandidateConfig config;
  config.max_overloaded_sources = 5;  // ten overloaded hosts hold 20 VMs
  Rng rng(7);
  const auto cands = generate_candidates(w.dc, w.host_util, 0.7, w.basis,
                                         config, rng);
  std::set<int> overloaded_sources;
  for (const auto& c : cands) {
    if (c.group == CandidateGroup::kOverloaded) overloaded_sources.insert(c.vm);
  }
  EXPECT_EQ(overloaded_sources.size(), 5u);
}

}  // namespace
}  // namespace megh
