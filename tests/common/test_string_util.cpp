#include "common/string_util.hpp"

#include <gtest/gtest.h>

#include <climits>

#include "common/error.hpp"

namespace megh {
namespace {

TEST(SplitTest, KeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(SplitTest, NoDelimiterYieldsSingleField) {
  const auto parts = split("hello", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "hello");
}

TEST(TrimTest, StripsWhitespaceBothSides) {
  EXPECT_EQ(trim("  x y \t\n"), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("abc"), "abc");
}

TEST(ParseDoubleTest, ParsesValidNumbers) {
  EXPECT_DOUBLE_EQ(parse_double("3.25", "test"), 3.25);
  EXPECT_DOUBLE_EQ(parse_double(" -1e3 ", "test"), -1000.0);
}

TEST(ParseDoubleTest, RejectsGarbage) {
  EXPECT_THROW(parse_double("abc", "test"), IoError);
  EXPECT_THROW(parse_double("1.5x", "test"), IoError);
  EXPECT_THROW(parse_double("", "test"), IoError);
}

TEST(ParseIntTest, ParsesAndRejects) {
  EXPECT_EQ(parse_int("42", "test"), 42);
  EXPECT_EQ(parse_int("-7", "test"), -7);
  EXPECT_THROW(parse_int("4.2", "test"), IoError);
  EXPECT_THROW(parse_int("", "test"), IoError);
}

TEST(ParseIntTest, OutOfRangeThrowsInsteadOfSaturating) {
  EXPECT_EQ(parse_int("9223372036854775807", "test"), LLONG_MAX);
  EXPECT_EQ(parse_int("-9223372036854775808", "test"), LLONG_MIN);
  EXPECT_THROW(parse_int("9223372036854775808", "test"), IoError);
  EXPECT_THROW(parse_int("99999999999999999999", "test"), IoError);
  EXPECT_THROW(parse_int("-99999999999999999999", "test"), IoError);
}

TEST(ParseDoubleTest, OverflowThrowsUnderflowRounds) {
  EXPECT_THROW(parse_double("1e999", "test"), IoError);
  EXPECT_THROW(parse_double("-1e999", "test"), IoError);
  // Underflow yields the nearest double; nothing is lost that a double
  // could have held.
  EXPECT_EQ(parse_double("1e-999", "test"), 0.0);
  EXPECT_DOUBLE_EQ(parse_double("1.7e308", "test"), 1.7e308);
}

TEST(StrfTest, FormatsLikePrintf) {
  EXPECT_EQ(strf("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(strf("%.2f", 1.005), "1.00");
}

TEST(FormatCountTest, HumanReadable) {
  EXPECT_EQ(format_count(325299), "325.3k");
  EXPECT_EQ(format_count(2309), "2309");
  EXPECT_EQ(format_count(1.5), "1.50");
  EXPECT_EQ(format_count(2.5e6), "2.50M");
}

TEST(StartsWithTest, Basics) {
  EXPECT_TRUE(starts_with("--flag", "--"));
  EXPECT_FALSE(starts_with("-", "--"));
}

}  // namespace
}  // namespace megh
