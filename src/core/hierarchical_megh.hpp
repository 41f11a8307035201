// Hierarchical Megh: the Megh engine (core/megh_policy.hpp) on the step
// executor's pod plan — one learner per fat-tree pod, or per 256-host block
// without a fabric — instead of flat Megh's single fleet-wide learner.
//
// Flat Megh projects onto d = N × M basis vectors; at cluster scale
// (100k PMs × 1M VMs) that is d ~ 10¹¹, and even the lazily-materialized
// critic pays for it in slot-map address space and serial decide time. A
// pod's VMs migrate mostly inside their pod (pack_local and the local
// probes already encode this), so per-pod learners keep total state near
// d / P and let the pod phase fan out across StepObservation::exec. The
// two-level split follows "Scalable RL for VM Scheduling" (arxiv
// 2503.00537); flat Megh is its one-pod case.
#pragma once

#include <memory>

#include "core/megh_policy.hpp"
#include "sim/network.hpp"

namespace megh {

struct HierarchicalMeghConfig {
  /// Learner/actor/recovery knobs, applied per pod. `base.delta <= 0`
  /// selects the paper's δ = d_p per-pod initialization.
  MeghConfig base;
  /// The fabric whose pods become the learners. May be null: the policy
  /// then shards over kDefaultShardHosts-sized host blocks (the same
  /// fallback the step executor uses).
  std::shared_ptr<const FatTreeTopology> network;
};

class HierarchicalMeghPolicy : public MeghPolicy {
 public:
  explicit HierarchicalMeghPolicy(const HierarchicalMeghConfig& config = {})
      : MeghPolicy(config.base, config.network) {}
};

}  // namespace megh
