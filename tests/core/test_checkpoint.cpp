#include "core/checkpoint.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include "common/rng.hpp"
#include "core/megh_policy.hpp"
#include "sim/placement.hpp"
#include "sim/simulation.hpp"
#include "support/dense_matrix.hpp"
#include "trace/planetlab_synth.hpp"

namespace megh {
namespace {

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("megh_ckpt_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

/// A small fleet, identical on every call with the same arguments.
struct Fleet {
  std::vector<VmSpec> specs;
  TraceTable trace;

  static Fleet make(int vms, int steps) {
    Rng rng(7);
    PlanetLabSynthConfig tc;
    tc.num_vms = vms;
    tc.num_steps = steps;
    return {sample_vm_fleet(vms, rng), generate_planetlab(tc)};
  }

  /// Run `steps` steps of `policy` on `hosts` hosts (0 = begin() only).
  void run(MigrationPolicy& policy, int hosts, int steps) const {
    Datacenter dc(standard_host_fleet(hosts), specs);
    Rng prng(2);
    place_initial(dc, InitialPlacement::kRandom, prng);
    Simulation sim(std::move(dc), trace, SimulationConfig{});
    sim.run(policy, steps);
  }
};

std::string file_contents(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST_F(CheckpointTest, LearnerRoundTripIsExact) {
  const Fleet fleet = Fleet::make(12, 60);
  MeghConfig config;
  config.seed = 3;
  MeghPolicy trained(config);
  fleet.run(trained, 8, 60);
  const auto path = dir_ / "policy.ckpt";
  save_megh_checkpoint(trained, path);

  MeghPolicy loaded(config);
  fleet.run(loaded, 8, 0);
  load_megh_checkpoint(loaded, path);
  const LspiLearner& a = trained.learner();
  const LspiLearner& b = loaded.learner();
  ASSERT_EQ(b.dim(), a.dim());
  EXPECT_DOUBLE_EQ(b.gamma(), a.gamma());
  for (std::int64_t i = 0; i < a.dim(); ++i) {
    EXPECT_DOUBLE_EQ(b.q_value(i), a.q_value(i)) << i;
  }
  EXPECT_LT(to_dense(b.B()).max_abs_diff(to_dense(a.B())), 1e-15);
  EXPECT_EQ(b.z().nnz(), a.z().nnz());
  // Re-saving the restored policy reproduces the file byte for byte.
  const auto resaved = dir_ / "resaved.ckpt";
  save_megh_checkpoint(loaded, resaved);
  EXPECT_EQ(file_contents(path), file_contents(resaved));
}

TEST_F(CheckpointTest, RestoredLearnerContinuesIdentically) {
  const Fleet fleet = Fleet::make(6, 40);
  MeghConfig config;
  config.seed = 5;
  MeghPolicy a(config), b(config);
  fleet.run(a, 4, 40);
  const auto path = dir_ / "cont.ckpt";
  save_megh_checkpoint(a, path);
  fleet.run(b, 4, 0);
  load_megh_checkpoint(b, path);
  // Apply the same update stream to both; they must stay in lockstep.
  LspiLearner& la = a.mutable_pod_learner(0);
  LspiLearner& lb = b.mutable_pod_learner(0);
  const auto dim = static_cast<std::size_t>(la.dim());
  Rng rng(9);
  for (int i = 0; i < 30; ++i) {
    const auto x = static_cast<std::int64_t>(rng.index(dim));
    const auto y = static_cast<std::int64_t>(rng.index(dim));
    const double c = rng.normal();
    la.update(x, c, y);
    lb.update(x, c, y);
  }
  for (std::int64_t q = 0; q < la.dim(); ++q) {
    EXPECT_EQ(la.q_value(q), lb.q_value(q)) << q;
  }
}

TEST_F(CheckpointTest, BadMagicRejected) {
  const auto path = dir_ / "bad.ckpt";
  std::ofstream(path) << "not a checkpoint\n";
  MeghPolicy policy;
  Fleet::make(6, 4).run(policy, 4, 0);
  EXPECT_THROW(load_megh_checkpoint(policy, path), ConfigError);
}

TEST_F(CheckpointTest, TruncatedFileRejected) {
  const Fleet fleet = Fleet::make(6, 20);
  MeghPolicy policy;
  fleet.run(policy, 4, 20);
  const auto path = dir_ / "trunc.ckpt";
  save_megh_checkpoint(policy, path);
  const auto size = std::filesystem::file_size(path);
  for (const auto keep : {size / 2, size - 4}) {
    save_megh_checkpoint(policy, path);
    std::filesystem::resize_file(path, keep);
    EXPECT_THROW(load_megh_checkpoint(policy, path), Error) << keep;
  }
}

TEST_F(CheckpointTest, MissingFileRejected) {
  MeghPolicy policy;
  Fleet::make(6, 4).run(policy, 4, 0);
  EXPECT_THROW(load_megh_checkpoint(policy, dir_ / "nope.ckpt"), IoError);
}

// --- corrupted-checkpoint matrix ------------------------------------------
//
// Each case hand-writes a structurally valid checkpoint with one
// corruption and expects a loud error instead of a silently wrong
// learner. The baseline is a one-pod policy over 2 hosts × 2 VMs
// (d = 4, VM v on host v); every case is a mutation of it.

class CorruptCheckpointTest : public CheckpointTest {
 protected:
  void SetUp() override {
    CheckpointTest::SetUp();
    Rng rng(7);
    dc_.emplace(standard_host_fleet(2), sample_vm_fleet(2, rng));
    dc_->place(0, 0);
    dc_->place(1, 1);
    policy_.begin(*dc_, CostConfig{}, 300.0);
    // A genuine RNG state line, taken from a real save.
    const auto path = dir_ / "seed.ckpt";
    save_megh_checkpoint(policy_, path);
    std::istringstream in(file_contents(path));
    for (std::string line; std::getline(in, line);) {
      if (line.rfind("rng ", 0) == 0) rng_line_ = line + "\n";
    }
    ASSERT_FALSE(rng_line_.empty());
  }

  std::filesystem::path write(const std::string& text) {
    const auto path = dir_ / "corrupt.ckpt";
    std::ofstream(path) << text;
    return path;
  }
  std::string header() const {
    return "megh-checkpoint v4\n"
           "pods 1 hosts 2 vms 2\n"
           "policy 3 0.25 1\n";
  }
  std::string pod(const std::string& z_lines = "0 1.5\n2 2.5\n",
                  const std::string& offdiag_lines =
                      "0 1 0.25\n1 2 0.5\n") const {
    return "pod 0 begin 0 end 2 cap 2 next 2 gamma 0.5\n" + rng_line_ +
           "slots 2\n0 0\n1 1\n"
           "z 2\n" + z_lines +
           "theta 2\n0 0.5\n1 0.75\n"
           "Bdiag 2 default 1\n0 0.4\n1 0.4\n"
           "Boffdiag 2\n" + offdiag_lines;
  }
  std::string valid(const std::string& z_lines = "0 1.5\n2 2.5\n",
                    const std::string& offdiag_lines =
                        "0 1 0.25\n1 2 0.5\n") const {
    return header() + pod(z_lines, offdiag_lines) + "end\n";
  }
  void load(const std::string& text) {
    load_megh_checkpoint(policy_, write(text));
  }

  std::optional<Datacenter> dc_;
  MeghPolicy policy_;
  std::string rng_line_;
};

TEST_F(CorruptCheckpointTest, ValidBaselineLoads) {
  load(valid());
  const LspiLearner& learner = policy_.learner();
  EXPECT_EQ(learner.dim(), 4);
  EXPECT_DOUBLE_EQ(learner.z().get(2), 2.5);
  EXPECT_DOUBLE_EQ(learner.B().get(0, 1), 0.25);
  EXPECT_DOUBLE_EQ(learner.B().get(3, 3), 1.0);  // lazy default row
  EXPECT_DOUBLE_EQ(policy_.temperature(), 3.0);
  EXPECT_DOUBLE_EQ(policy_.cost_baseline(), 0.25);
}

TEST_F(CorruptCheckpointTest, DuplicateVectorIndexRejected) {
  // A second "0 …" line must not silently overwrite the first via set().
  EXPECT_THROW(load(valid("0 1.5\n0 2.5\n")), IoError);
}

TEST_F(CorruptCheckpointTest, UnsortedVectorIndexRejected) {
  EXPECT_THROW(load(valid("2 1.5\n0 2.5\n")), IoError);
}

TEST_F(CorruptCheckpointTest, DuplicateOffdiagEntryRejected) {
  EXPECT_THROW(load(valid("0 1.5\n2 2.5\n", "0 1 0.25\n0 1 0.5\n")), IoError);
}

TEST_F(CorruptCheckpointTest, UnsortedOffdiagEntryRejected) {
  EXPECT_THROW(load(valid("0 1.5\n2 2.5\n", "1 2 0.5\n0 1 0.25\n")), IoError);
}

TEST_F(CorruptCheckpointTest, DiagonalEntryInOffdiagSectionRejected) {
  EXPECT_THROW(load(valid("0 1.5\n2 2.5\n", "0 1 0.25\n1 1 0.5\n")), IoError);
}

TEST_F(CorruptCheckpointTest, TrailingGarbageRejected) {
  // An nnz count smaller than the real payload would leave the surplus
  // lines unread — learned state silently dropped. Surplus before the end
  // marker and anything after it are both fatal.
  EXPECT_THROW(load(header() + pod() + "2 0 0.125\nend\n"), IoError);
  EXPECT_THROW(load(valid() + "2 0 0.125\n"), IoError);
}

TEST_F(CorruptCheckpointTest, TrailingGarbageAfterPolicyLineRejected) {
  EXPECT_THROW(load(header() + "leftover\n" + pod() + "end\n"), IoError);
}

TEST_F(CorruptCheckpointTest, OutOfRangeVectorIndexRejected) {
  EXPECT_THROW(load(valid("0 1.5\n7 2.5\n")), Error);
  EXPECT_THROW(load(valid("0 1.5\n2 2.5\n", "0 1 0.25\n1 9 0.5\n")), Error);
}

TEST_F(CheckpointTest, PolicyWarmStartResumesBehaviour) {
  // Train a Megh policy, checkpoint it, restore into a fresh policy on an
  // identically-shaped datacenter, and verify the restored policy's state
  // (temperature, baseline, Q values) matches.
  const Fleet fleet = Fleet::make(12, 60);
  MeghConfig config;
  config.seed = 11;
  MeghPolicy trained(config);
  fleet.run(trained, 8, 60);
  const auto path = dir_ / "policy.ckpt";
  save_megh_checkpoint(trained, path);

  MeghPolicy restored(config);
  // begin() must run before restore so the learner exists with the right
  // shape: a 0-step simulation.
  fleet.run(restored, 8, 0);
  load_megh_checkpoint(restored, path);
  EXPECT_DOUBLE_EQ(restored.temperature(), trained.temperature());
  EXPECT_DOUBLE_EQ(restored.cost_baseline(), trained.cost_baseline());
  for (std::int64_t a = 0; a < restored.learner().dim(); a += 7) {
    EXPECT_DOUBLE_EQ(restored.learner().q_value(a),
                     trained.learner().q_value(a));
  }
}

TEST_F(CheckpointTest, PolicyRngStreamSurvivesRoundTrip) {
  // The checkpoint serializes the actor's RNG stream: a restored policy's
  // exploration draws continue the saved stream exactly, not a reseeded
  // one — the property megh_serve's crash-exact recovery rests on.
  const Fleet fleet = Fleet::make(6, 4);
  MeghConfig config;
  config.seed = 77;
  MeghPolicy a(config);
  fleet.run(a, 4, 2);  // advances the stream off the seed state
  const auto path = dir_ / "rng.ckpt";
  save_megh_checkpoint(a, path);

  MeghPolicy b(config);
  fleet.run(b, 4, 0);  // begin() so the learner exists
  load_megh_checkpoint(b, path);
  Rng ra = a.pod_rng(0);
  Rng rb = b.pod_rng(0);
  Rng fresh(config.seed);
  bool moved = false;
  for (int i = 0; i < 64; ++i) {
    const auto x = ra.uniform_int(0, 1 << 30);
    EXPECT_EQ(x, rb.uniform_int(0, 1 << 30))
        << "draw " << i << " diverged — RNG stream not restored";
    moved = moved || x != fresh.uniform_int(0, 1 << 30);
  }
  EXPECT_TRUE(moved) << "the run never advanced the stream";
}

TEST_F(CheckpointTest, FlatPolicyLoaderRejectsV1WithVersionedError) {
  // A bare v1 learner file predates the pod container and the serialized
  // RNG stream; loading it must fail loudly and name the version instead
  // of silently keeping the fresh-seeded RNG.
  const auto path = dir_ / "v1.ckpt";
  std::ofstream(path) << "megh-checkpoint v1\ndim 3 gamma 0.5\nz 0\n";
  MeghPolicy policy;
  Fleet::make(6, 4).run(policy, 4, 0);
  try {
    load_megh_checkpoint(policy, path);
    FAIL() << "v1 file accepted";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("v1"), std::string::npos) << what;
    EXPECT_NE(what.find("v4"), std::string::npos) << what;
  }
}

TEST_F(CheckpointTest, CorruptRngLineRejected) {
  const Fleet fleet = Fleet::make(6, 4);
  MeghPolicy policy;
  fleet.run(policy, 4, 1);
  const auto path = dir_ / "badrng.ckpt";
  save_megh_checkpoint(policy, path);
  // Replace the rng line's payload with garbage, keeping the key.
  std::string text;
  {
    std::istringstream in(file_contents(path));
    for (std::string line; std::getline(in, line);) {
      if (line.rfind("rng ", 0) == 0) line = "rng not-a-state";
      text += line + "\n";
    }
  }
  std::ofstream(path) << text;
  EXPECT_THROW(load_megh_checkpoint(policy, path), IoError);
}

TEST_F(CheckpointTest, FuzzedVersionHeaderRejected) {
  MeghPolicy policy;
  Fleet::make(6, 4).run(policy, 4, 0);
  for (const char* header :
       {"megh-checkpoint v9", "megh-checkpoint v0", "megh-checkpoint vx",
        "megh-checkpoint", "megh-checkpoint v4x", "megh-checkpoint v3",
        "megh-checkpoint v2", "megh-checkpoint v99999999999999999999"}) {
    const auto path = dir_ / "fuzz.ckpt";
    std::ofstream(path) << header << "\npods 1 hosts 4 vms 6\n";
    EXPECT_THROW(load_megh_checkpoint(policy, path), ConfigError) << header;
  }
}

TEST_F(CheckpointTest, WarmStartAdapterSurvivesSecondBegin) {
  // A warm start that loads the checkpoint after a priming 0-step run is
  // discarded by the real run's begin(), which rebuilds a fresh learner.
  // The adapter re-loads inside begin(), so the warm start holds no matter
  // how many times the engine begins.
  const Fleet fleet = Fleet::make(6, 8);
  MeghConfig config;
  config.seed = 13;
  MeghPolicy trained(config);
  fleet.run(trained, 4, 6);
  const auto path = dir_ / "warm.ckpt";
  save_megh_checkpoint(trained, path);

  WarmStartMeghPolicy warm(config, path);
  fleet.run(warm, 4, 0);  // first begin()
  fleet.run(warm, 4, 0);  // second begin() must not wipe the warm start
  EXPECT_EQ(warm.name(), "Megh");
  EXPECT_DOUBLE_EQ(warm.temperature(), trained.temperature());
  EXPECT_DOUBLE_EQ(warm.cost_baseline(), trained.cost_baseline());
  for (std::int64_t a = 0; a < warm.learner().dim(); a += 7) {
    EXPECT_DOUBLE_EQ(warm.learner().q_value(a), trained.learner().q_value(a));
  }
}

TEST_F(CheckpointTest, PolicyShapeMismatchRejected) {
  MeghPolicy small, big;
  Fleet::make(6, 4).run(small, 4, 2);
  const auto path = dir_ / "shape.ckpt";
  save_megh_checkpoint(small, path);
  Fleet::make(8, 4).run(big, 4, 2);
  EXPECT_THROW(load_megh_checkpoint(big, path), ConfigError);
}

}  // namespace
}  // namespace megh
