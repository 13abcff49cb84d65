// The one reliable-link codec (CRC-8 + sequence number + NACK/retransmit),
// shared by sim::Channel and cluster::InterChipLink; see DESIGN.md
// "Recovery model". A sender's tag is always link_crc8(clean, seq) of the
// word in its replay copy, so no tag is stored: the receiver compares the
// wire word with that copy and computes CRCs only for a damaged word.
#pragma once

#include <array>
#include <cstdint>

#include "common/types.h"

namespace raw::sim {

namespace detail {
/// kCrc8Table[x] is x shifted through the 0x07 polynomial eight times.
constexpr std::array<std::uint8_t, 256> make_crc8_table() {
  std::array<std::uint8_t, 256> table{};
  for (unsigned x = 0; x < 256; ++x) {
    auto crc = static_cast<std::uint8_t>(x);
    for (int b = 0; b < 8; ++b) {
      crc = static_cast<std::uint8_t>(static_cast<std::uint8_t>(crc << 1) ^
                                      ((crc & 0x80u) != 0 ? 0x07u : 0x00u));
    }
    table[x] = crc;
  }
  return table;
}
inline constexpr std::array<std::uint8_t, 256> kCrc8Table = make_crc8_table();
}  // namespace detail

/// CRC-8 (polynomial 0x07, zero initial value) over (seq << 32) | w, fed
/// byte-wise from the low byte up.
[[nodiscard]] constexpr std::uint8_t link_crc8(common::Word w,
                                               std::uint16_t seq) {
  const std::uint64_t data = (std::uint64_t{seq} << 32) | w;
  std::uint8_t crc = 0;
  for (int i = 0; i < 48; i += 8) {
    crc = detail::kCrc8Table[crc ^ static_cast<std::uint8_t>(data >> i)];
  }
  return crc;
}

/// The receiver's verdict: true exactly when link_crc8(wire, seq) equals
/// the sender's tag link_crc8(clean, seq), undetectable flips included.
[[nodiscard]] constexpr bool link_word_intact(common::Word wire,
                                              common::Word clean,
                                              std::uint16_t seq) {
  return wire == clean || link_crc8(wire, seq) == link_crc8(clean, seq);
}

/// Receive-side NACK state of one link; the link itself decides how a NACK
/// holds it (a channel stall, a trunk delivery slip).
struct LinkReceiver {
  std::uint32_t front_retries = 0;  // NACKs spent on the current front word
  std::uint64_t retransmits = 0;
  std::uint64_t delivered_corrupt = 0;

  /// True: deliver the front word as it is (intact, or out of retries).
  /// False: NACK — `wire` is repaired from `clean` and a retransmit counted.
  bool accept_front(common::Word& wire, common::Word clean, std::uint16_t seq,
                    std::uint32_t max_retries) {
    if (link_word_intact(wire, clean, seq) || front_retries >= max_retries) {
      return true;
    }
    ++front_retries;
    ++retransmits;
    wire = clean;
    return false;
  }

  /// Books the front word's delivery; a word read past an exhausted budget
  /// is counted corrupt (the damage surfaces at the consumer's validators).
  void delivered(common::Word wire, common::Word clean, std::uint16_t seq) {
    if (!link_word_intact(wire, clean, seq)) ++delivered_corrupt;
    front_retries = 0;
  }
};

}  // namespace raw::sim
