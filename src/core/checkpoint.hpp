// Learner checkpointing: persist and restore Megh's learned state so a
// scheduler can be warm-started after a restart or migrated between
// control-plane nodes — "learn as you go" without forgetting on redeploy.
//
// One format, the per-pod container (version 4), for every MeghPolicy:
// flat Megh is the one-pod case. Plain text keeps the files diffable and
// the loader trivially fuzzable:
//   megh-checkpoint v4
//   pods <P> hosts <M> vms <N>
//   policy <temp> <baseline> <initialized>
//   then per pod:
//     pod <p> begin <b> end <e> cap <c> next <n> gamma <g>
//     rng <mt19937_64 stream state>
//     slots <occupied> followed by "slot vm" lines (ascending slot)
//     z <nnz> followed by "index value" lines (pod-local indices)
//     theta <nnz> ...
//     Bdiag <live> default <d0> followed by "index value" lines — only
//       materialized rows are stored against the lazy default, because a
//       cluster-scale pod operator's dense diagonal would dwarf its
//       learned support
//     Boffdiag <nnz> followed by "row col value" triplets
//   end
// Every section is strictly ascending; the loader rejects duplicates,
// out-of-order or out-of-range entries, a diagonal entry in the
// off-diagonal section, truncation and trailing data with an IoError, and
// a bad magic, another format version or a fleet of another shape with a
// ConfigError. The rng line is what makes restore exact: a restored
// policy's Boltzmann draws continue the saved streams bit-for-bit, so a
// warm-started run is indistinguishable from one that never stopped (the
// property the serving daemon's crash recovery is built on; see
// src/serve). Megh's state is small (Fig. 7: tens of thousands of nonzeros
// for an 800-PM week), so compactness is not a concern at any scale.
//
// Saves go through write_file_atomic (common/atomic_file.hpp): temp file,
// fsync, rename — a crash mid-save never destroys the previous checkpoint.
#pragma once

#include <filesystem>
#include <iosfwd>
#include <string>

#include "core/hierarchical_megh.hpp"
#include "core/megh_policy.hpp"

namespace megh {

/// Write a begun policy: every pod's learner (with its slot map and actor
/// RNG stream) plus the shared temperature and advantage baseline.
void write_megh_checkpoint(std::ostream& out, const MeghPolicy& policy);

/// Restore into a policy begun on a fleet of the same shape and pod plan
/// (pod count, host ranges and VM count must match; per-pod slot
/// capacities come from the checkpoint). Reads through the container's
/// `end` line and no further, so the serving daemon can embed it in its
/// snapshots. Pending SARSA transitions, retry queues and rollback
/// snapshots are reset — they are transient, not learned state. `context`
/// names the source in errors (a path, "<socket>", ...).
void read_megh_checkpoint(std::istream& in, MeghPolicy& policy,
                          const std::string& context);

/// File variants; load also rejects anything after the `end` line.
void save_megh_checkpoint(const MeghPolicy& policy,
                          const std::filesystem::path& path);
void load_megh_checkpoint(MeghPolicy& policy,
                          const std::filesystem::path& path);

/// A Megh policy whose begin() loads a checkpoint right after the base
/// begin(). The engine calls begin() at the top of every Simulation::run —
/// a plain policy loaded before run() silently loses the restored state
/// when begin() rebuilds the learners. The adapter makes
/// `megh_sim --checkpoint-load` (and any other run-a-restored-policy
/// caller) correct by construction.
class WarmStartMeghPolicy : public MeghPolicy {
 public:
  WarmStartMeghPolicy(const MeghConfig& config,
                      std::filesystem::path checkpoint)
      : MeghPolicy(config), checkpoint_(std::move(checkpoint)) {}
  WarmStartMeghPolicy(const HierarchicalMeghConfig& config,
                      std::filesystem::path checkpoint)
      : MeghPolicy(config.base, config.network),
        checkpoint_(std::move(checkpoint)) {}

  void begin(const Datacenter& dc, const CostConfig& cost,
             double interval_s) override {
    MeghPolicy::begin(dc, cost, interval_s);
    load_megh_checkpoint(*this, checkpoint_);
  }

 private:
  std::filesystem::path checkpoint_;
};

}  // namespace megh
