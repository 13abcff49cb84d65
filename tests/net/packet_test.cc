#include "net/packet.h"

#include <gtest/gtest.h>

namespace raw::net {
namespace {

TEST(PacketTest, MakePacketSizes) {
  const Packet p = make_packet(1, make_addr(10, 0, 0, 1), make_addr(10, 1, 0, 1), 64);
  EXPECT_EQ(p.size_bytes(), 64u);
  EXPECT_EQ(p.size_words(), 16u);
  EXPECT_EQ(p.payload.size(), 44u);
  EXPECT_TRUE(checksum_ok(p.header));
}

TEST(PacketTest, MinimumPacketIsHeaderOnly) {
  const Packet p = make_packet(2, 1, 2, 20);
  EXPECT_TRUE(p.payload.empty());
  EXPECT_EQ(p.size_words(), 5u);
}

TEST(PacketTest, WordsRoundTripWordAligned) {
  const Packet p = make_packet(3, make_addr(10, 0, 0, 9), make_addr(10, 3, 1, 1), 256);
  const auto words = packet_to_words(p);
  EXPECT_EQ(words.size(), p.size_words());
  const Packet q = packet_from_words(words);
  EXPECT_EQ(q.header, p.header);
  EXPECT_EQ(q.payload, p.payload);
}

TEST(PacketTest, WordsRoundTripUnaligned) {
  // 67 bytes: payload is not a multiple of 4, exercising tail padding.
  const Packet p = make_packet(4, 5, 6, 67);
  const auto words = packet_to_words(p);
  EXPECT_EQ(words.size(), common::words_for_bytes(67));
  const Packet q = packet_from_words(words);
  EXPECT_EQ(q.header, p.header);
  EXPECT_EQ(q.payload, p.payload);
}

TEST(PacketTest, PayloadDeterministicPerUid) {
  const Packet a = make_packet(42, 1, 2, 128);
  const Packet b = make_packet(42, 1, 2, 128);
  const Packet c = make_packet(43, 1, 2, 128);
  EXPECT_EQ(a.payload, b.payload);
  EXPECT_NE(a.payload, c.payload);
}

TEST(PacketTest, AllPaperSizesRoundTrip) {
  for (const common::ByteCount size : {64u, 128u, 256u, 512u, 1024u}) {
    const Packet p = make_packet(size, make_addr(10, 0, 0, 1),
                                 make_addr(10, 2, 0, 1), size);
    const Packet q = packet_from_words(packet_to_words(p));
    EXPECT_EQ(q.header, p.header) << size;
    EXPECT_EQ(q.payload, p.payload) << size;
  }
}

TEST(PacketTest, PayloadWordsMatchTheByteLoop) {
  // payload_word is what the line cards stream and check; it must equal
  // packet_to_words's packing of the payload bytes, zero pad included.
  for (const std::uint64_t uid : {0ull, 1ull, 37ull, 255ull, 0x12345ull}) {
    for (const common::ByteCount size : {20u, 21u, 22u, 23u, 24u, 67u, 1500u}) {
      const Packet p = make_packet(uid, 1, 2, size);
      const auto words = packet_to_words(p);
      for (std::size_t j = 0; j + Ipv4Header::kWords < words.size(); ++j) {
        EXPECT_EQ(payload_word(uid, j, p.payload.size()),
                  words[Ipv4Header::kWords + j])
            << "uid " << uid << " size " << size << " word " << j;
      }
    }
  }
}

TEST(PacketTest, PayloadWordMaskCoversOnlyPayloadBytes) {
  EXPECT_EQ(payload_word_mask(0, 4), 0xffffffffu);
  EXPECT_EQ(payload_word_mask(1, 5), 0xff000000u);
  EXPECT_EQ(payload_word_mask(1, 6), 0xffff0000u);
  EXPECT_EQ(payload_word_mask(1, 7), 0xffffff00u);
  EXPECT_EQ(payload_word_mask(1, 8), 0xffffffffu);
}

TEST(PacketDeathTest, TooSmallAborts) {
  EXPECT_DEATH((void)make_packet(1, 1, 2, 19), "smaller than IP header");
}

}  // namespace
}  // namespace raw::net
