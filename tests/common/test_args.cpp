#include "common/args.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace megh {
namespace {

std::vector<const char*> argv_of(std::initializer_list<const char*> items) {
  return {items};
}

TEST(ArgsTest, DefaultsApplyWhenUnset) {
  Args args;
  args.add_flag("hosts", "host count", "800");
  const auto argv = argv_of({"prog"});
  ASSERT_TRUE(args.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(args.get_int("hosts"), 800);
  EXPECT_FALSE(args.is_set("hosts"));
}

TEST(ArgsTest, SpaceAndEqualsSyntax) {
  Args args;
  args.add_flag("a", "", "0");
  args.add_flag("b", "", "0");
  const auto argv = argv_of({"prog", "--a", "5", "--b=7"});
  ASSERT_TRUE(args.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(args.get_int("a"), 5);
  EXPECT_EQ(args.get_int("b"), 7);
  EXPECT_TRUE(args.is_set("a"));
}

TEST(ArgsTest, BooleanFlags) {
  Args args;
  args.add_bool("full", "run full scale");
  const auto argv = argv_of({"prog", "--full"});
  ASSERT_TRUE(args.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_TRUE(args.get_bool("full"));
}

TEST(ArgsTest, UnknownFlagThrows) {
  Args args;
  args.add_flag("a", "", "0");
  const auto argv = argv_of({"prog", "--typo", "1"});
  EXPECT_THROW(args.parse(static_cast<int>(argv.size()), argv.data()),
               ConfigError);
}

TEST(ArgsTest, MissingValueThrows) {
  Args args;
  args.add_flag("a", "", "0");
  const auto argv = argv_of({"prog", "--a"});
  EXPECT_THROW(args.parse(static_cast<int>(argv.size()), argv.data()),
               ConfigError);
}

TEST(ArgsTest, PositionalArgumentRejected) {
  Args args;
  const auto argv = argv_of({"prog", "stray"});
  EXPECT_THROW(args.parse(static_cast<int>(argv.size()), argv.data()),
               ConfigError);
}

TEST(ArgsTest, HelpReturnsFalse) {
  Args args;
  args.add_flag("a", "alpha", "1");
  const auto argv = argv_of({"prog", "--help"});
  EXPECT_FALSE(args.parse(static_cast<int>(argv.size()), argv.data()));
}

// megh_sim --hosts 4294967306 used to run with 10 hosts: the 64-bit value
// was narrowed to int by a cast. get_int32 rejects it instead.
TEST(ArgsTest, Int32RejectsValuesOutsideIntRange) {
  Args args;
  args.add_flag("hosts", "", "0");
  args.add_flag("low", "", "0");
  args.add_flag("max", "", "0");
  args.add_flag("huge", "", "0");
  const auto argv = argv_of({"prog", "--hosts", "4294967306", "--low",
                             "-2147483649", "--max", "2147483647", "--huge",
                             "99999999999999999999"});
  ASSERT_TRUE(args.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(args.get_int("hosts"), 4294967306LL);
  EXPECT_THROW(args.get_int32("hosts"), ConfigError);
  EXPECT_THROW(args.get_int32("low"), ConfigError);
  EXPECT_EQ(args.get_int32("max"), 2147483647);
  EXPECT_THROW(args.get_int("huge"), IoError);
  EXPECT_THROW(args.get_int32("huge"), IoError);
}

TEST(ArgsTest, DoubleParsing) {
  Args args;
  args.add_flag("x", "", "2.5");
  const auto argv = argv_of({"prog"});
  ASSERT_TRUE(args.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_DOUBLE_EQ(args.get_double("x"), 2.5);
}

}  // namespace
}  // namespace megh
