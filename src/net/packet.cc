#include "net/packet.h"

#include <span>

#include "common/assert.h"

namespace raw::net {

Ipv4Header make_header(Addr src, Addr dst, common::ByteCount total_bytes,
                       std::uint16_t identification) {
  RAW_ASSERT_MSG(total_bytes >= Ipv4Header::kBytes, "packet smaller than IP header");
  RAW_ASSERT_MSG(total_bytes <= 0xffff, "packet exceeds IPv4 total_length");
  Ipv4Header h;
  h.src = src;
  h.dst = dst;
  h.total_length = static_cast<std::uint16_t>(total_bytes);
  h.identification = identification;
  finalize_checksum(h);
  return h;
}

Packet make_packet(std::uint64_t uid, Addr src, Addr dst,
                   common::ByteCount total_bytes) {
  return make_packet(uid, make_header(src, dst, total_bytes,
                                      static_cast<std::uint16_t>(uid & 0xffff)));
}

Packet make_packet(std::uint64_t uid, const Ipv4Header& header) {
  Packet p;
  p.uid = uid;
  p.header = header;
  p.payload.resize(header.total_length - Ipv4Header::kBytes);
  for (std::size_t i = 0; i < p.payload.size(); ++i) {
    p.payload[i] = payload_byte(uid, i);
  }
  return p;
}

std::vector<common::Word> packet_to_words(const Packet& p) {
  std::vector<common::Word> words;
  words.reserve(p.size_words());
  const auto hdr = serialize(p.header);
  words.insert(words.end(), hdr.begin(), hdr.end());
  common::Word acc = 0;
  int nibbles = 0;
  for (const std::uint8_t b : p.payload) {
    acc = acc << 8 | b;
    if (++nibbles == 4) {
      words.push_back(acc);
      acc = 0;
      nibbles = 0;
    }
  }
  if (nibbles > 0) {
    acc <<= 8 * (4 - nibbles);
    words.push_back(acc);
  }
  RAW_ASSERT(words.size() == p.size_words());
  return words;
}

Packet packet_from_words(std::vector<common::Word> words) {
  RAW_ASSERT_MSG(words.size() >= Ipv4Header::kWords, "short packet");
  Packet p;
  p.header = parse(std::span<const common::Word, Ipv4Header::kWords>(
      words.data(), Ipv4Header::kWords));
  RAW_ASSERT_MSG(p.header.total_length >= Ipv4Header::kBytes, "bad total_length");
  const std::size_t payload_bytes = p.header.total_length - Ipv4Header::kBytes;
  RAW_ASSERT_MSG(words.size() == common::words_for_bytes(p.header.total_length),
                 "word count does not match total_length");
  p.payload.resize(payload_bytes);
  for (std::size_t i = 0; i < payload_bytes; ++i) {
    const common::Word w = words[Ipv4Header::kWords + i / 4];
    p.payload[i] = static_cast<std::uint8_t>(w >> (8 * (3 - i % 4)));
  }
  return p;
}

}  // namespace raw::net
