#include "trace/csv_trace.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "common/error.hpp"
#include "trace/planetlab_synth.hpp"

namespace megh {
namespace {

class CsvTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
        (std::string("megh_trace_test_") +
         ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(CsvTraceTest, RoundTrip) {
  PlanetLabSynthConfig config;
  config.num_vms = 10;
  config.num_steps = 30;
  const TraceTable original = generate_planetlab(config);
  const auto path = dir_ / "trace.csv";
  save_trace_csv(original, path);
  const TraceTable loaded = load_trace_csv(path);
  ASSERT_EQ(loaded.num_vms(), original.num_vms());
  ASSERT_EQ(loaded.num_steps(), original.num_steps());
  for (int vm = 0; vm < loaded.num_vms(); ++vm) {
    for (int s = 0; s < loaded.num_steps(); ++s) {
      EXPECT_NEAR(loaded.at(vm, s), original.at(vm, s), 1e-6);
    }
  }
}

TEST_F(CsvTraceTest, PercentagesAutoDetected) {
  const auto path = dir_ / "pct.csv";
  {
    std::ofstream out(path);
    out << "50,90\n10,0\n";
  }
  const TraceTable t = load_trace_csv(path);
  EXPECT_NEAR(t.at(0, 0), 0.5, 1e-6);
  EXPECT_NEAR(t.at(1, 0), 0.1, 1e-6);
}

TEST_F(CsvTraceTest, FractionsKeptAsIs) {
  const auto path = dir_ / "frac.csv";
  {
    std::ofstream out(path);
    out << "0.5,0.9\n0.1,0\n";
  }
  const TraceTable t = load_trace_csv(path);
  EXPECT_NEAR(t.at(0, 1), 0.9, 1e-6);
}

TEST_F(CsvTraceTest, PlanetLabDirectoryFormat) {
  const auto pl = dir_ / "planetlab";
  std::filesystem::create_directories(pl);
  {
    std::ofstream a(pl / "vm_a");
    a << "10\n20\n30\n40\n";
    std::ofstream b(pl / "vm_b");
    b << "90\n80\n70\n";  // shorter — truncates the set to 3 steps
  }
  const TraceTable t = load_planetlab_directory(pl);
  EXPECT_EQ(t.num_vms(), 2);
  EXPECT_EQ(t.num_steps(), 3);
  EXPECT_NEAR(t.at(0, 1), 0.2, 1e-6);  // files in lexicographic order
  EXPECT_NEAR(t.at(1, 0), 0.9, 1e-6);
}

// A nan line used to abort the process inside TraceTable::set, and an inf
// line was silently clamped to full utilization. Both are now IoErrors
// that name the file and line.
TEST_F(CsvTraceTest, PlanetLabDirectoryRejectsNonFiniteValues) {
  for (const char* bad : {"nan", "inf", "-inf", "NAN"}) {
    const auto pl = dir_ / (std::string("pl_") + bad);
    std::filesystem::create_directories(pl);
    {
      std::ofstream a(pl / "vm_a");
      a << "10\n20\n30\n";
      std::ofstream b(pl / "vm_b");
      b << "90\n\n" << bad << "\n70\n";
    }
    try {
      load_planetlab_directory(pl);
      ADD_FAILURE() << bad << " was accepted";
    } catch (const IoError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find((pl / "vm_b").string() + ":3"), std::string::npos)
          << what;
    }
  }
}

TEST_F(CsvTraceTest, EmptyDirectoryRejected) {
  const auto empty = dir_ / "empty";
  std::filesystem::create_directories(empty);
  EXPECT_THROW(load_planetlab_directory(empty), ConfigError);
  EXPECT_THROW(load_planetlab_directory(dir_ / "missing"), ConfigError);
}

TEST_F(CsvTraceTest, OutOfRangeValueRejected) {
  const auto path = dir_ / "bad.csv";
  {
    std::ofstream out(path);
    out << "150,-20\n";
  }
  EXPECT_THROW(load_trace_csv(path), ConfigError);
}

}  // namespace
}  // namespace megh
