// Packet representation shared by the router, the fabric baselines, and the
// Click baseline.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "net/ipv4.h"

namespace raw::net {

struct Packet {
  std::uint64_t uid = 0;  // simulator-unique id (not the IP identification)
  Ipv4Header header;
  std::vector<std::uint8_t> payload;  // total_length - 20 bytes

  /// Simulation metadata (not on the wire).
  int input_port = -1;
  int output_port = -1;           // filled in by route lookup
  common::Cycle created_cycle = 0;  // first byte offered at the input line

  [[nodiscard]] common::ByteCount size_bytes() const {
    return Ipv4Header::kBytes + payload.size();
  }
  [[nodiscard]] common::ByteCount size_words() const {
    return common::words_for_bytes(size_bytes());
  }
};

/// A UDP header for a packet of exactly `total_bytes` (20..65535) with a
/// valid checksum: the one header builder behind every generated packet.
Ipv4Header make_header(Addr src, Addr dst, common::ByteCount total_bytes,
                       std::uint16_t identification);

/// Byte `i` of the deterministic payload every generated packet of
/// simulator uid `uid` carries.
constexpr std::uint8_t payload_byte(std::uint64_t uid, std::size_t i) {
  return static_cast<std::uint8_t>((uid * 131 + i * 7) & 0xff);
}

/// The bytes of payload word `j` that lie inside a `payload_bytes` payload
/// (all of them, except in a partly filled last word).
constexpr common::Word payload_word_mask(std::size_t j,
                                         std::size_t payload_bytes) {
  const std::size_t valid = payload_bytes - 4 * j;
  return valid >= 4 ? ~common::Word{0}
                    : ~common::Word{0} << (8 * (4 - valid));
}

/// Payload word `j` of packet `uid` as packet_to_words streams it: bytes
/// 4j..4j+3 packed big-endian, zero past `payload_bytes`.
constexpr common::Word payload_word(std::uint64_t uid, std::size_t j,
                                    std::size_t payload_bytes) {
  common::Word w = 0;
  for (std::size_t k = 0; k < 4; ++k) w = w << 8 | payload_byte(uid, 4 * j + k);
  return w & payload_word_mask(j, payload_bytes);
}

/// Builds a well-formed packet of exactly `total_bytes` (>= 20), with a
/// deterministic payload derived from `uid` and a valid header checksum.
Packet make_packet(std::uint64_t uid, Addr src, Addr dst,
                   common::ByteCount total_bytes);

/// Builds the packet with header `header` and the payload of `uid` that
/// fills the header's total_length.
Packet make_packet(std::uint64_t uid, const Ipv4Header& header);

/// Serializes header+payload into 32-bit words for network streaming (the
/// payload is packed big-endian, zero-padded to a word boundary).
std::vector<common::Word> packet_to_words(const Packet& p);

/// Inverse of packet_to_words; `word_count` words must contain a full
/// packet. The simulation metadata fields are left at defaults.
Packet packet_from_words(std::vector<common::Word> words);

}  // namespace raw::net
