// Candidate action generation for Megh.
//
// The projected space has d = N × M actions. For small systems Megh scores
// all of them every step; at data-center scale (800 × 1052 ≈ 841k actions)
// that would dominate the per-step time, so — mirroring the sparsity-driven
// data-structure discussion of Sec. 5.2 — the actor restricts each step's
// Boltzmann draw to a candidate set built from the situations Sec. 3.1
// describes Megh acting on:
//   * VMs on overloaded hosts (must be considered for evacuation),
//   * VMs on the least-utilized hosts (consolidation opportunities),
//   * a small random sample of other VMs (persistent exploration),
// each paired with its current host (the no-op answering "when") plus a
// sample of feasible targets including the PABFD choice.
//
// The PABFD target (power-aware best fit, offered to every source outside
// the consolidation group) is the lexicographic argmin of (sleeping, power
// increase, host index) over the feasible hosts. That argmin does not
// depend on visit order, so the fold visits hosts bucket by bucket: hosts
// are grouped once per scratch into types of equal (mips, power table),
// and every step the active hosts are bucketed by (type, segment), the
// segment being k = ⌊10·u⌋ (k = 10 for u ≥ 1). For a source with
// Δ = vm_mips / mips the increase on a bucket is bounded below by the
// minimum of g(u) = W(min(1, u + Δ)) − W(min(1, u)) over the bucket's
// feasible u-range; g is piecewise linear there, so that minimum sits at
// a range end or at the one point where u + Δ crosses a knot. Buckets are
// visited by ascending bound and the fold stops at the first bound that,
// less a rounding margin, exceeds the best increase found; sleeping hosts
// are probed only when no active host is feasible. The proof is in
// docs/PERFORMANCE.md; the winner is the one a full scan would pick.
//
// Every source is also offered a packing target: the busiest active host
// that still fits it under pack_ceiling, the lowest host index on ties, a
// host in the source's own fabric pod preferred. It comes from a walk down
// the active-host list that the consolidation selection sorts by
// utilization anyway, from its busiest end: the first feasible host fixes
// the utilization u*, the rest of the u* run is checked for a lower index,
// and the walk stops at the first lower utilization (with a fabric, once
// the source's pod has its own pick). A source thus reads the hosts above
// its pick, not the whole domain, and the pick equals a full scan's.
//
// Both host orders are canonical, independent of the standard library:
// active hosts by (utilization ascending, index ascending), from a stable
// LSD radix sort on the utilization's bit pattern, and overloaded hosts by
// (utilization descending, index ascending).
//
// Every candidate's Q-value is still read from the full θ over d, so the
// critic is exact; only the actor's search support is sparsified.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "core/basis.hpp"
#include "sim/datacenter.hpp"
#include "sim/network.hpp"

namespace megh {

struct CandidateConfig {
  /// If d = N × M is at most this, enumerate every feasible action instead
  /// of sampling (exact actor).
  std::int64_t full_enumeration_limit = 1'500;

  int max_overloaded_sources = 48;  // VMs taken from overloaded hosts
  int consolidation_sources = 16;   // VMs from the least-utilized hosts
  int random_sources = 8;           // uniformly random VMs
  int targets_per_source = 6;       // sampled feasible targets per VM
  /// Post-placement utilization ceiling used when sampling targets
  /// (candidates only; the engine itself enforces nothing but RAM).
  double target_util_ceiling = 1.0;
  /// A "packing" target — the busiest active host that still fits the VM
  /// under this post-placement utilization — is offered for every source,
  /// giving the learner a consolidation move to evaluate each step.
  double pack_ceiling = 0.65;
  /// Use the fabric (when the simulation exposes one) to prefer short
  /// migration paths: in-pod packing targets and mostly-local random
  /// probes. Disable to make Megh network-oblivious (ablation).
  bool network_aware = true;
  /// When network_aware and a fabric is attached, this fraction of each
  /// source's random target probes is drawn from the source's own pod
  /// (short, fast migration paths); the rest stay global so cross-pod
  /// moves remain learnable.
  double local_probe_fraction = 0.75;
};

/// The sub-fleet a candidate set is generated for: one contiguous host
/// range plus the VMs currently placed on it — one Megh pod. Sources, scan
/// ranges, random probes and full enumeration all stay inside
/// [host_begin, host_end), and the caller's Rng is the pod's own stream.
/// Flat Megh's domain spans the fleet: `vms` is every VM ascending and
/// vm_slot[v] == v.
struct CandidateDomain {
  int host_begin = 0;
  int host_end = 0;  // exclusive
  /// VMs eligible as sources / enumeration rows: ascending global ids of
  /// every VM currently hosted inside the range.
  std::span<const int> vms;
  /// vm → dense per-domain slot (< slot_capacity) for the epoch-stamp
  /// dedup array. Fleet-sized and shared across domains; only entries of
  /// `vms` are read.
  std::span<const std::int32_t> vm_slot;
  int slot_capacity = 0;
};

/// Why a candidate's source VM was selected; the actor makes one draw per
/// overloaded host (kOverloaded), one consolidation draw (kConsolidation)
/// and one global draw each step.
enum class CandidateGroup { kOverloaded, kConsolidation, kExploration };

struct CandidateAction {
  int vm = 0;
  int host = 0;               // == current host ⇒ no-op
  std::int64_t index = 0;     // flat basis index
  bool is_noop = false;
  CandidateGroup group = CandidateGroup::kExploration;
};

namespace detail {

/// Insert-only set of non-negative int64 keys on an open-addressing table
/// whose storage is reused across steps — the allocation-free stand-in for
/// the unordered_set that used to dedup candidate action indices (a node
/// allocation per insert). Grows only when an epoch's insert count exceeds
/// every previous epoch's, so steady-state steps never touch the heap.
class InsertOnlyIndexSet {
 public:
  /// Start a new epoch sized for about `expected` inserts.
  void reset(std::size_t expected);

  /// True when `key` (>= 0) was not yet inserted this epoch.
  bool insert(std::int64_t key);

 private:
  void rehash(std::size_t min_slots);

  std::vector<std::int64_t> slots_;  // -1 = empty
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace detail

/// Reusable working storage for generate_candidates. One instance per
/// Megh pod, carried across steps: every container keeps its capacity, so a
/// steady-state call performs no heap allocation. `candidates` holds the
/// result of the most recent call.
struct CandidateScratch {
  std::vector<CandidateAction> candidates;
  std::vector<std::pair<int, CandidateGroup>> sources;
  std::vector<int> overloaded_hosts;
  std::vector<int> active_hosts;
  // Per-slot "already a source" stamps: vm_epoch[slot] == epoch ⇔ seen. An
  // epoch bump invalidates all stamps in O(1).
  std::vector<std::uint32_t> vm_epoch;
  std::uint32_t epoch = 0;
  detail::InsertOnlyIndexSet index_seen;
  // Step-constant per-host values hoisted out of the per-(source, host)
  // scans, indexed relative to the domain's first host. Each is filled from
  // the same Datacenter accessor expression the scans would evaluate
  // inline, so feasibility and PABFD decisions are unchanged — this only
  // removes repeated HostSpec indirection and the per-source recomputation
  // of watts(before).
  std::vector<double> host_capacity;
  std::vector<double> host_ram_used;
  std::vector<double> host_ram_cap;
  std::vector<double> host_base_watts;
  std::vector<const PowerModel*> host_power;
  // Radix-sort buffers for the active-host order: the utilization keys of
  // `active_hosts` and the ping-pong halves of both.
  std::vector<std::uint64_t> sort_keys;
  std::vector<std::uint64_t> sort_keys_tmp;
  std::vector<int> sort_hosts_tmp;

  /// Hosts of equal mips and equal power table (compared by value: every
  /// HostSpec owns its own PowerModel) share a type and so a PABFD bound.
  struct HostType {
    double mips = 0.0;
    std::array<double, 11> table{};
    const PowerModel* power = nullptr;  // any member's model
    double margin = 0.0;  // rounding margin of the type's bounds
  };
  // Host types of the domain, built on the first call for a (Datacenter,
  // host range) and kept: a host's spec never changes within a run.
  std::vector<HostType> types;
  std::vector<int> host_type;  // per domain host
  const Datacenter* types_dc = nullptr;
  int types_begin = -1;
  int types_end = -1;
  // This step's PABFD buckets (type × 11 segments): active hosts grouped
  // by bucket, ascending inside one, bucket b spanning
  // bucket_hosts[bucket_start[b] .. bucket_start[b + 1]).
  std::vector<int> host_bucket;  // per domain host; set for active ones
  std::vector<int> bucket_start;
  std::vector<int> bucket_fill;  // write cursors while bucketing
  std::vector<int> bucket_hosts;
  std::vector<int> nonempty_buckets;  // ascending bucket ids
  std::vector<double> bucket_bound;   // per nonempty bucket, per source
  std::vector<int> sleeping_hosts;    // ascending
};

/// Build this step's candidate set for `domain` into `scratch.candidates`
/// (overwritten). `host_util` is the demanded utilization per host (fleet
/// indexed); `beta` the overload threshold. Always produces at least the
/// no-op candidates for the selected source VMs. Every per-host scratch
/// array is sized to the domain's width, so a pod-local scratch costs
/// O(pod), not O(fleet). The full-enumeration gate compares |domain.vms| ×
/// width (the domain's reachable action count, N × M for a fleet domain)
/// against the limit. Steady-state calls are allocation-free.
void generate_candidates(const Datacenter& dc,
                         std::span<const double> host_util, double beta,
                         const ActionBasis& basis,
                         const CandidateConfig& config,
                         const CandidateDomain& domain, Rng& rng,
                         CandidateScratch& scratch,
                         const FatTreeTopology* network = nullptr);

/// Convenience wrapper (tests, one-shot callers): the whole fleet as the
/// domain, fresh scratch per call.
std::vector<CandidateAction> generate_candidates(
    const Datacenter& dc, std::span<const double> host_util, double beta,
    const ActionBasis& basis, const CandidateConfig& config, Rng& rng,
    const FatTreeTopology* network = nullptr);

}  // namespace megh
