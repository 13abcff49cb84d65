#include "sim/link_codec.h"

#include <cstdint>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace raw::sim {
namespace {

// The original bit-serial CRC-8 (polynomial 0x07): the table version must
// reproduce it exactly, or every recorded link digest would move.
std::uint8_t bitwise_crc8(common::Word w, std::uint16_t seq) {
  const std::uint64_t data = (std::uint64_t{seq} << 32) | w;
  std::uint8_t crc = 0;
  for (int i = 0; i < 48; i += 8) {
    crc ^= static_cast<std::uint8_t>(data >> i);
    for (int b = 0; b < 8; ++b) {
      crc = static_cast<std::uint8_t>(static_cast<std::uint8_t>(crc << 1) ^
                                      ((crc & 0x80u) != 0 ? 0x07u : 0x00u));
    }
  }
  return crc;
}

TEST(LinkCodecTest, TableMatchesBitwiseReference) {
  // Every byte value in each of the six byte positions of (seq << 32) | w.
  for (int pos = 0; pos < 6; ++pos) {
    for (std::uint64_t b = 0; b < 256; ++b) {
      const std::uint64_t data = b << (8 * pos);
      const auto w = static_cast<common::Word>(data);
      const auto seq = static_cast<std::uint16_t>(data >> 32);
      ASSERT_EQ(link_crc8(w, seq), bitwise_crc8(w, seq))
          << "byte " << b << " at position " << pos;
    }
  }
  common::Rng rng(0x11c0dec);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t r = rng.next();
    const auto w = static_cast<common::Word>(r);
    const auto seq = static_cast<std::uint16_t>(r >> 48);
    ASSERT_EQ(link_crc8(w, seq), bitwise_crc8(w, seq)) << "pair " << i;
  }
  // Values recorded from the bit-serial implementation.
  EXPECT_EQ(link_crc8(0xABCD, 0), 0x14);
  EXPECT_EQ(link_crc8(0xDEADBEEF, 0xFFFF), 0x84);
  EXPECT_EQ(link_crc8(0, 1), 0x15);
  EXPECT_EQ(link_crc8(0xFFFFFFFF, 0x1234), 0xbf);
}

TEST(LinkCodecTest, IntactVerdictIsTheTagComparison) {
  common::Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t r = rng.next();
    const auto clean = static_cast<common::Word>(r);
    const auto seq = static_cast<std::uint16_t>(r >> 32);
    // Mostly 1-3 bit flips, some arbitrary damage.
    common::Word wire = clean;
    const int flips = static_cast<int>((r >> 48) % 4);
    for (int f = 0; f < flips; ++f) {
      wire ^= common::Word{1} << (rng.next() % 32);
    }
    if (i % 5 == 0) wire = static_cast<common::Word>(rng.next());
    EXPECT_EQ(link_word_intact(wire, clean, seq),
              bitwise_crc8(wire, seq) == bitwise_crc8(clean, seq));
  }
}

}  // namespace
}  // namespace raw::sim
