#include "common/zero_lazy_buffer.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <utility>

namespace megh {
namespace {

bool all_zero(const ZeroLazyBuffer<std::int32_t>& buf) {
  for (std::size_t i = 0; i < buf.size(); ++i) {
    if (buf[i] != 0) return false;
  }
  return true;
}

TEST(ZeroLazyBufferTest, EmptyBufferHoldsNothing) {
  ZeroLazyBuffer<std::int32_t> buf;
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.data(), nullptr);
  ZeroLazyBuffer<std::int32_t> sized(0);
  EXPECT_EQ(sized.data(), nullptr);
}

// Sizes on both sides of 2 MiB, where an earlier implementation switched
// allocators: every entry reads as zero and writes stick.
TEST(ZeroLazyBufferTest, ReadsZeroBelowAndAboveTwoMiB) {
  const std::size_t two_mib = std::size_t{2} << 20;
  for (const std::size_t bytes : {std::size_t{64}, two_mib - 4, two_mib,
                                  two_mib + 4, std::size_t{16} << 20}) {
    const std::size_t n = bytes / sizeof(std::int32_t);
    ZeroLazyBuffer<std::int32_t> buf(n);
    ASSERT_EQ(buf.size(), n);
    ASSERT_NE(buf.data(), nullptr);
    EXPECT_TRUE(all_zero(buf)) << bytes << " bytes";
    buf[0] = 7;
    buf[n / 2] = -3;
    buf[n - 1] = 11;
    EXPECT_EQ(buf[0], 7);
    EXPECT_EQ(buf[n / 2], -3);
    EXPECT_EQ(buf[n - 1], 11);
  }
}

TEST(ZeroLazyBufferTest, MoveEmptiesTheSource) {
  const std::size_t n = (std::size_t{4} << 20) / sizeof(std::int32_t);
  ZeroLazyBuffer<std::int32_t> src(n);
  src[n - 1] = 42;
  const std::int32_t* data = src.data();

  ZeroLazyBuffer<std::int32_t> moved(std::move(src));
  EXPECT_EQ(src.size(), 0u);
  EXPECT_EQ(src.data(), nullptr);
  EXPECT_EQ(moved.size(), n);
  EXPECT_EQ(moved.data(), data);
  EXPECT_EQ(moved[n - 1], 42);

  // Move-assignment releases the target's old buffer and empties the source.
  ZeroLazyBuffer<std::int32_t> target(16);
  target = std::move(moved);
  EXPECT_EQ(moved.size(), 0u);
  EXPECT_EQ(moved.data(), nullptr);
  EXPECT_EQ(target.size(), n);
  EXPECT_EQ(target[n - 1], 42);

  // A moved-from buffer is reusable.
  moved = ZeroLazyBuffer<std::int32_t>(8);
  EXPECT_EQ(moved.size(), 8u);
  EXPECT_TRUE(all_zero(moved));
}

}  // namespace
}  // namespace megh
