// Megh: the paper's online reinforcement-learning migration policy
// (Algorithm 1 + Algorithm 2), assembled from the LSPI critic
// (core/lspi.hpp), the Boltzmann actor (core/boltzmann.hpp) and the
// candidate generator (core/candidates.hpp).
//
// Per step:
//   1. Build the candidate action set and look up each candidate's
//      Q(a) = θ[a].
//   2. Close the previous step's SARSA transitions: every action taken at
//      t−1 is updated with its share of the observed cost C_t and
//      φ_{π(s_t)} = this step's greedy candidate (Eq. 10/11).
//   3. Boltzmann-sample up to ⌈max_migration_fraction · N⌉ actions (one per
//      VM); sampled no-ops answer "don't migrate".
//   4. Decay the temperature (Algorithm 2 line 2).
//
// The learner never needs a training phase: step 2 runs from the very first
// interval ("learn as you go").
//
// One implementation serves every fleet shape. The policy splits the hosts
// into pods — contiguous host ranges — and gives each pod its own learner
// over the pod-local space d_p = cap_p × M_p (M_p the pod's host count,
// cap_p a slotted VM capacity). Flat Megh (MeghPolicy(const MeghConfig&))
// is the one-pod case: a single pod spans the fleet, its capacity is
// exactly N (no VM can arrive from another pod), slot k is VM k, and the
// pod action index slot·M + h is the paper's basis index vm·M + h over
// d = N × M. Hierarchical Megh (core/hierarchical_megh.hpp) takes the step
// executor's pod plan instead — one pod per fat-tree pod, 256-host blocks
// without a fabric — so learner state is Σ_p O(N_p × M_p) ≈ d / P and the
// per-pod stages (candidate generation, Q evaluation, the LSPI update,
// masking, rollback, checkpoint refresh) fan out across
// StepObservation::exec, each learner owned by exactly one shard.
//
// A serial coordinator then makes the Boltzmann draws in a fixed pod-major
// order against the single global migration budget (⌈2%·N⌉). Each draw
// consumes the owning pod's RNG stream (pod 0's stream is the configured
// seed), so decisions are bit-identical at any SimulationConfig::jobs.
//
// VM churn between pods is handled by per-pod slot maps: a VM migrating
// into a pod takes the smallest free slot (departures recycle theirs), so
// learner dimensions never change at runtime. A pod's membership is
// rebuilt only in steps where some VM entered or left it.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "core/basis.hpp"
#include "core/boltzmann.hpp"
#include "core/candidates.hpp"
#include "core/lspi.hpp"
#include "sim/network.hpp"
#include "sim/policy.hpp"
#include "sim/policy_stats.hpp"

namespace megh {

/// Fault-recovery behaviour (chaos subsystem, src/chaos). All of it is
/// inert unless `enabled` — and even then every mechanism is a no-op in a
/// fault-free run, so a recovery-enabled Megh under a zero-rate FaultPlan
/// makes exactly the decisions a plain Megh makes.
struct MeghRecoveryConfig {
  bool enabled = false;
  /// Drop non-no-op candidates that target a currently-down host before
  /// the Boltzmann draw (the engine would reject them anyway; masking
  /// keeps the learner from wasting draws and SARSA credit on them).
  bool mask_down_hosts = true;
  /// Re-request an aborted migration up to this many times.
  int max_retries = 2;
  /// Steps to wait before the first retry; doubles with each attempt.
  int retry_backoff_steps = 2;
  /// Only issue a due retry while the VM's current host runs at or above
  /// this utilization; retries below it are dropped. Aborted *reactive*
  /// moves (VM stuck on an overloaded source) are the SLA-relevant ones to
  /// push through — re-driving consolidation moves only adds migration
  /// downtime. 0 retries unconditionally.
  double retry_min_utilization = 0.0;
  /// When > 0: a step whose outcome feedback reports at least this many
  /// failed actions (aborts + down targets) in a pod rolls that pod's
  /// critic back to its last periodic in-memory snapshot, discarding
  /// updates learned from the fault burst. 0 disables rollback.
  int rollback_burst_threshold = 0;
  /// How often (in steps) the in-memory critic snapshot is refreshed.
  int checkpoint_interval_steps = 64;
};

struct MeghConfig {
  double gamma = 0.5;     // discount factor (Sec. 6.1: 50:50 old vs new)
  double temp0 = 3.0;     // initial Boltzmann temperature (Sec. 6.1)
  double epsilon = 0.01;  // temperature decay rate (Sec. 6.1)
  /// δ in B₀ = (1/δ)·I. The paper sets δ = d, but at d ~ 10⁴-10⁶ that
  /// shrinks every Q-value by 1/d and the Boltzmann weights stay uniform
  /// for the whole run — the critic never influences the actor. δ = 1
  /// keeps the identical algorithm with a usable signal scale (the
  /// ablation bench contrasts both). <= 0 selects the paper's δ = d
  /// (per pod: δ = d_p, which is N × M for flat Megh).
  double delta = 1.0;
  /// Per-step migration budget as a fraction of N (Sec. 6.1: 2%).
  double max_migration_fraction = 0.02;
  /// Subtract an exponential moving average of the step cost before the
  /// critic update (advantage normalization). The paper's Algorithm 1
  /// accumulates raw costs — with always-positive costs every *tried*
  /// action looks worse than an untried one, so exploitation degenerates to
  /// novelty-seeking. A constant baseline only shifts V (Theorem 1/2 are
  /// unaffected asymptotically) but makes the greedy step meaningful.
  /// Disable to run the paper-literal update (ablation bench).
  bool advantage_baseline = true;
  /// EMA weight for the baseline.
  double baseline_weight = 0.05;
  /// Sherman–Morrison factor truncation (see LspiLearner): bounds B's
  /// fill-in so per-step time stays flat over week-long runs.
  int max_update_support = 32;
  /// When false the critic is frozen: decide() still builds candidates,
  /// reads Q-values and Boltzmann-samples, but the LSPI update is skipped.
  /// Used by the frozen-critic ablation and by the allocation-count test
  /// (with the critic frozen, a steady-state step performs zero heap
  /// allocations; with it learning, the only allocations are the Q-table's
  /// own growth — the quantity Fig. 7 plots).
  bool learning_enabled = true;
  CandidateConfig candidates;
  MeghRecoveryConfig recovery;
  std::uint64_t seed = 42;
};

class MeghPolicy : public MigrationPolicy {
 public:
  /// Flat Megh: one learner whose pod is the whole fleet.
  explicit MeghPolicy(const MeghConfig& config = {});

  /// "Megh" on the one-pod plan, "HierMegh" on the per-pod plan.
  std::string name() const override;
  void begin(const Datacenter& dc, const CostConfig& cost,
             double interval_s) override;
  /// Hot path. The per-pod phase (membership, candidate generation, Q
  /// gather, LSPI update, weights) fans out over obs.exec when its plan
  /// matches ours; the draw coordinator stays serial. Steady-state calls
  /// never allocate.
  void decide_into(const StepObservation& obs,
                   std::vector<MigrationAction>& out) override;
  void observe_cost(double step_cost) override;
  /// Recovery feedback (no-op unless config.recovery.enabled): failed
  /// actions (aborted / down target) have their pending SARSA transition
  /// remapped to the realized no-op (the VM stayed on its source), and
  /// aborted migrations are queued for retry with exponential backoff.
  void observe_outcomes(std::span<const MigrationOutcome> outcomes) override;
  /// Learner and actor counters summed over pods. With more than one pod
  /// also "pods", "slot_overflows" and pod<k>.{qtable_nnz,lspi_updates,
  /// rollbacks} for the first 16 pods. Every key is interned at begin();
  /// a debug build asserts that stats() itself interns nothing (the
  /// allocation-free-step guarantee).
  void stats(PolicyStats& out) const override;

  const MeghConfig& config() const { return config_; }
  int num_pods() const { return static_cast<int>(pods_.size()); }
  const ShardPlan& plan() const { return plan_; }
  /// The learner of a one-pod policy (flat Megh); throws before begin()
  /// and on a multi-pod plan.
  const LspiLearner& learner() const;
  const LspiLearner& pod_learner(int pod) const;
  LspiLearner& mutable_pod_learner(int pod);
  /// A pod's actor RNG stream.
  const Rng& pod_rng(int pod) const;
  double temperature() const { return selector_.temperature(); }
  double cost_baseline() const { return cost_baseline_; }
  bool baseline_initialized() const { return baseline_initialized_; }
  /// Pod host range and slot map, read by tests and the checkpoint writer.
  int pod_host_begin(int pod) const;
  int pod_host_end(int pod) const;
  int pod_slot_capacity(int pod) const;
  /// slot → VM id (-1 = free), valid for slots < pod_slot_capacity(pod).
  std::span<const int> pod_vm_of_slot(int pod) const;

  // --- serving hooks (src/serve): the open SARSA transition of a one-pod
  // policy, captured by the daemon's snapshots so a recovery mid-step
  // (between Decide and Observe) resumes with the same pending update a
  // live server holds. ---
  std::span<const std::int64_t> pending_actions() const;
  double pending_cost() const { return pending_cost_; }
  bool has_pending_cost() const { return has_pending_cost_; }
  long long migrations_selected() const { return total_migrations_selected_; }
  void restore_pending(std::span<const std::int64_t> actions, double cost,
                       bool has_cost, long long migrations_selected);

  friend void write_megh_checkpoint(std::ostream& out,
                                    const MeghPolicy& policy);
  friend void read_megh_checkpoint(std::istream& in, MeghPolicy& policy,
                                   const std::string& context);

 protected:
  /// Per-pod Megh over `network`'s pods, or fixed host blocks without one
  /// (the step executor's plan, sim/sharding.hpp).
  MeghPolicy(const MeghConfig& config,
             std::shared_ptr<const FatTreeTopology> network);

 private:
  /// In-memory critic snapshot for per-pod burst rollback.
  struct CriticSnapshot {
    SparseMatrix B;
    SparseVector z;
    SparseVector theta;
    bool valid = false;
  };

  /// An aborted migration waiting to be re-requested (pod-local queue).
  struct PendingRetry {
    int vm;
    int source;
    int target;
    int due_step;
    int attempt;
  };

  /// One record per non-no-op action emitted last step, in emission order
  /// (= the engine's outcome order). pending_slot indexes the owning
  /// pod's pending list.
  struct EmittedAction {
    int vm;
    int source;
    int target;
    int pod;
    std::size_t pending_slot;
    int attempt;  // 0 = fresh Boltzmann draw, >0 = injected retry
  };

  /// Everything one pod owns. Mutated only by its own shard during the
  /// parallel phase and by the serial coordinator afterwards.
  struct Pod {
    int host_begin = 0;
    int host_end = 0;
    // --- slot map (VM ↔ learner row block) ---
    int cap = 0;        // slot capacity; learner dim = cap * width
    int next_slot = 0;  // slots [0, next_slot) have been handed out
    std::vector<int> vm_of_slot;  // -1 = free
    std::vector<int> free_slots;  // recycled slots, sorted descending
    std::vector<int> members;     // slotted VMs, ascending
    bool membership_dirty = false;  // a VM entered or left since last step
    int unslotted = 0;              // members left out for lack of a slot
    // --- learning state ---
    std::unique_ptr<LspiLearner> learner;
    Rng rng{0};
    std::vector<std::int64_t> pending;  // pod-local action indices
    bool staged_rollback = false;       // decided serially pre-fan-out
    // --- per-step scratch (all capacity-stable after begin) ---
    CandidateScratch cands;
    std::vector<std::int64_t> pod_idx;  // candidate → pod-local index
    std::vector<double> q;
    std::vector<double> weights;
    std::vector<std::vector<std::size_t>> candidates_of_slot;
    std::vector<int> touched_slots;
    std::vector<std::uint8_t> slot_used;
    std::vector<std::size_t> subset;
    // --- chaos recovery ---
    std::vector<PendingRetry> retries;
    CriticSnapshot checkpoint;
    int faults_last_step = 0;
    long long rollbacks = 0;
    long long masked_candidates = 0;
    long long slot_overflows = 0;
  };

  std::int64_t pod_index(const Pod& pod, int vm, int host) const {
    const std::int64_t slot = slot_of_vm_[static_cast<std::size_t>(vm)];
    MEGH_ASSERT(slot >= 0 && slot < pod.cap, "VM has no slot in its pod");
    return slot * (pod.host_end - pod.host_begin) + (host - pod.host_begin);
  }
  const Pod& pod_at(int pod) const;

  /// Size a pod's slot-indexed scratch for its capacity and clear its
  /// transient recovery state (begin() and checkpoint restore).
  void reset_pod_scratch(Pod& pod);
  void mark_membership_changes(const Datacenter& dc);
  void rebuild_membership(Pod& pod, int pod_id, const Datacenter& dc);
  void run_pod_phase(int pod_id, const StepObservation& obs, bool do_update,
                     double share);
  void draw_from(Pod& pod, int pod_id, std::span<const std::size_t> subset,
                 const Datacenter& dc, std::vector<MigrationAction>& out);
  void take(Pod& pod, int pod_id, std::size_t j, const Datacenter& dc,
            std::vector<MigrationAction>& out);
  void intern_stat_keys();

  MeghConfig config_;
  bool per_pod_ = false;  // pod plan from network_, else one pod
  std::shared_ptr<const FatTreeTopology> network_;
  BoltzmannSelector selector_;
  std::unique_ptr<ActionBasis> basis_;  // global indices (dedup/telemetry)
  ShardPlan plan_ = ShardPlan::single(1);  // rebuilt by begin()
  std::vector<Pod> pods_;
  // vm → owning pod / slot. Written only by the VM's current pod during
  // the parallel rebuild, so concurrent pod phases never race.
  std::vector<std::int32_t> pod_of_vm_;
  std::vector<std::int32_t> slot_of_vm_;
  // Membership tracking: each VM's host at the last decide, each host's pod.
  std::vector<int> host_of_vm_;
  std::vector<std::int32_t> pod_of_host_;
  double beta_ = 0.7;
  int migration_budget_ = 1;

  double pending_cost_ = 0.0;
  bool has_pending_cost_ = false;
  long long total_migrations_selected_ = 0;
  double cost_baseline_ = 0.0;
  bool baseline_initialized_ = false;

  std::vector<EmittedAction> emitted_;
  int last_step_ = -1;
  long long faults_seen_ = 0;
  long long retries_issued_ = 0;

  // Stat keys, interned once at begin(). stats() only reads these.
  std::vector<StatKey> aggregate_keys_;
  std::vector<StatKey> pod_keys_;  // [pod * 3 + {nnz, updates, rollbacks}]
};

}  // namespace megh
