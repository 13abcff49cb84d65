#include "router/line_cards.h"

#include <gtest/gtest.h>

#include <array>
#include <deque>
#include <ostream>
#include <set>
#include <vector>

#include "cluster/fabric.h"
#include "sim/chip.h"

namespace raw::router {
namespace {

TEST(TestPacketTest, UidRoundTripsThroughHeaderFields) {
  for (const std::uint64_t uid : {1ull, 0xffffull, 0x10000ull, 0xabcdef12ull}) {
    const net::Packet p = make_test_packet(uid, 2, 3, 128);
    EXPECT_EQ(uid_of(p.header), uid & 0xffffffff);
    EXPECT_EQ(src_port_of(p.header), 2);
    EXPECT_TRUE(net::checksum_ok(p.header));
  }
}

TEST(TestPacketTest, DeterministicPerUid) {
  const net::Packet a = make_test_packet(42, 0, 1, 256);
  const net::Packet b = make_test_packet(42, 0, 1, 256);
  EXPECT_EQ(a.header, b.header);
  EXPECT_EQ(a.payload, b.payload);
}

/// Row 1 of the mesh passes every word west to east, so what enters tile
/// 4's west edge leaves tile 7's east edge untouched (no TTL decrement).
void wire_loopback_row(sim::Chip& chip) {
  std::string error;
  for (int tile : {4, 5, 6, 7}) {
    sim::SwitchProgram p = sim::assemble("loop: jump loop | W>E", &error);
    ASSERT_TRUE(error.empty());
    chip.tile(tile).switch_proc().load(
        std::make_shared<const sim::SwitchProgram>(std::move(p)));
  }
}

class LineCardTest : public ::testing::Test {
 protected:
  LineCardTest() : chip_(sim::ChipConfig{}) {}

  sim::Chip chip_;
  PacketLedger ledger_;
  std::uint64_t next_uid_ = 1;
  std::vector<std::vector<int>> one_hop_ =
      std::vector<std::vector<int>>(4, std::vector<int>(4, 1));
};

/// Streams prepared words into a chip-edge channel, one per cycle.
class WordFeeder : public sim::Device {
 public:
  explicit WordFeeder(sim::Channel* to_chip) : to_chip_(to_chip) {}
  void push(const std::vector<common::Word>& words) {
    words_.insert(words_.end(), words.begin(), words.end());
  }
  void push(const net::Packet& p) { push(net::packet_to_words(p)); }
  void step(sim::Chip& /*chip*/) override {
    if (!words_.empty() && to_chip_->can_write()) {
      to_chip_->write(words_.front());
      words_.pop_front();
    }
  }

 private:
  sim::Channel* to_chip_;
  std::deque<common::Word> words_;
};

/// Collects every word a chip-edge channel carries, one per cycle.
class WordSink : public sim::Device {
 public:
  explicit WordSink(sim::Channel* ch) : ch_(ch) {}
  void step(sim::Chip& /*chip*/) override {
    if (ch_->can_read()) words.push_back(ch_->read());
  }
  std::vector<common::Word> words;

 private:
  sim::Channel* ch_;
};

/// A test packet from `src` to port `dst` as it leaves a path of
/// `decrements` chips, with its ledger entry in place.
net::Packet arrived_packet(PacketLedger& ledger, std::uint64_t uid, int src,
                           int decrements, int dst = 0,
                           common::ByteCount bytes = 64) {
  net::Packet p = make_test_packet(uid, src, dst, bytes);
  ledger.insert(uid, PacketLedger::Entry{0, src, dst, bytes});
  p.header.ttl = static_cast<std::uint8_t>(p.header.ttl - decrements);
  net::finalize_checksum(p.header);
  return p;
}

TEST_F(LineCardTest, InputCardPacesArrivalsAtLineRate) {
  net::TrafficConfig t;
  t.num_ports = 4;
  t.size = net::SizeDist::kFixed;
  t.fixed_bytes = 64;  // 16 words
  t.load = 1.0;
  net::TrafficGen gen(t, 1);
  const sim::IoPort port = chip_.io_port(0, 4, sim::Dir::kWest);
  InputLineCard card(port.to_chip, 0, &gen, &ledger_, &next_uid_, 1 << 16);
  chip_.add_device(&card);

  // Nothing drains the channel, so the card backs up after the FIFO fills,
  // but generation continues (open loop) at one packet per 16 cycles.
  chip_.run(1600);
  EXPECT_EQ(card.offered_packets(), 100u);
}

TEST_F(LineCardTest, InputCardDropsWhenQueueFull) {
  net::TrafficConfig t;
  t.num_ports = 4;
  t.size = net::SizeDist::kFixed;
  t.fixed_bytes = 1024;
  net::TrafficGen gen(t, 2);
  const sim::IoPort port = chip_.io_port(0, 4, sim::Dir::kWest);
  InputLineCard card(port.to_chip, 0, &gen, &ledger_, &next_uid_,
                     /*capacity=*/512);
  chip_.add_device(&card);
  chip_.run(20000);  // nothing drains: the 512-word queue overflows
  EXPECT_GT(card.dropped_packets(), 0u);
  EXPECT_EQ(card.offered_packets(),
            card.dropped_packets() + ledger_.in_flight.size());
}

TEST_F(LineCardTest, StopHaltsGeneration) {
  net::TrafficConfig t;
  t.num_ports = 4;
  net::TrafficGen gen(t, 3);
  const sim::IoPort port = chip_.io_port(0, 4, sim::Dir::kWest);
  InputLineCard card(port.to_chip, 0, &gen, &ledger_, &next_uid_, 1 << 16);
  chip_.add_device(&card);
  chip_.run(100);
  card.stop();
  const auto offered = card.offered_packets();
  chip_.run(1000);
  EXPECT_EQ(card.offered_packets(), offered);
}

TEST_F(LineCardTest, LoopbackDeliveryValidates) {
  // Wire an input card's words straight back into an output card through a
  // row of pass-through switches: every packet must validate except for the
  // TTL check — so the output card must count them as errors... The card
  // expects a TTL decremented exactly once, so un-routed loopback traffic
  // is the right way to test that the validation actually fires.
  net::TrafficConfig t;
  t.num_ports = 4;
  t.pattern = net::DestPattern::kLoopback;  // dst port 0 == src port
  t.size = net::SizeDist::kFixed;
  t.fixed_bytes = 64;
  t.load = 0.5;
  net::TrafficGen gen(t, 4);
  wire_loopback_row(chip_);
  InputLineCard in(chip_.io_port(0, 4, sim::Dir::kWest).to_chip, 0, &gen,
                   &ledger_, &next_uid_, 1 << 16);
  OutputLineCard out(chip_.io_port(0, 7, sim::Dir::kEast).from_chip, 0,
                     &ledger_, &one_hop_);
  chip_.add_device(&in);
  chip_.add_device(&out);
  chip_.run(10000);
  // Packets arrive intact but with an un-decremented TTL: all "errors".
  EXPECT_EQ(out.delivered_packets(), 0u);
  EXPECT_GT(out.errors(), 0u);
}

TEST_F(LineCardTest, TtlCheckExpectsTheHopMatrixEntry) {
  // The same once-decremented frame validates when the matrix says one hop
  // and fails when it says two.
  for (const int hops : {1, 2}) {
    sim::Chip chip{sim::ChipConfig{}};
    wire_loopback_row(chip);
    std::vector<std::vector<int>> matrix = one_hop_;
    matrix[1][0] = hops;
    PacketLedger ledger;
    WordFeeder feeder(chip.io_port(0, 4, sim::Dir::kWest).to_chip);
    OutputLineCard out(chip.io_port(0, 7, sim::Dir::kEast).from_chip, 0,
                       &ledger, &matrix);
    feeder.push(arrived_packet(ledger, 9, /*src=*/1, /*decrements=*/1));
    chip.add_device(&feeder);
    chip.add_device(&out);
    chip.run(200);
    EXPECT_EQ(out.delivered_packets(), hops == 1 ? 1u : 0u) << "hops " << hops;
    EXPECT_EQ(out.dropped_invalid(), hops == 1 ? 0u : 1u) << "hops " << hops;
    EXPECT_EQ(out.delivered_from(1), out.delivered_packets());
    EXPECT_TRUE(ledger.in_flight.empty());
  }
}

TEST_F(LineCardTest, DegradedTtlCheckAcceptsOneToMaxDecrements) {
  wire_loopback_row(chip_);
  WordFeeder feeder(chip_.io_port(0, 4, sim::Dir::kWest).to_chip);
  OutputLineCard out(chip_.io_port(0, 7, sim::Dir::kEast).from_chip, 0,
                     &ledger_, &one_hop_);
  out.set_degraded(3);
  for (int d = 0; d <= 4; ++d) {
    feeder.push(arrived_packet(ledger_, static_cast<std::uint64_t>(10 + d),
                               /*src=*/2, d));
  }
  chip_.add_device(&feeder);
  chip_.add_device(&out);
  chip_.run(500);
  // 1, 2 and 3 decrements pass; 0 and 4 fall outside the range.
  EXPECT_EQ(out.delivered_packets(), 3u);
  EXPECT_EQ(out.dropped_invalid(), 2u);
  EXPECT_EQ(ledger_.erased_delivered, 3u);
  EXPECT_EQ(ledger_.erased_invalid, 2u);
  EXPECT_TRUE(ledger_.in_flight.empty());
}

/// Runs two input cards on ports `a` and `b` of an 8-port generator with
/// the given uid counters and returns the ledger's in-flight uids by card.
std::array<std::set<std::uint64_t>, 2> uids_by_card(std::uint64_t* uid_a,
                                                    std::uint64_t* uid_b) {
  sim::Chip chip{sim::ChipConfig{}};
  PacketLedger ledger;
  net::TrafficConfig t;
  t.num_ports = 8;
  t.fixed_bytes = 64;
  t.load = 1.0;
  net::TrafficGen gen(t, 5);
  InputLineCard a(chip.io_port(0, 4, sim::Dir::kWest).to_chip, 3, &gen,
                  &ledger, uid_a, 1 << 16);
  InputLineCard b(chip.io_port(0, 8, sim::Dir::kWest).to_chip, 5, &gen,
                  &ledger, uid_b, 1 << 16);
  chip.add_device(&a);
  chip.add_device(&b);
  chip.run(160);
  std::array<std::set<std::uint64_t>, 2> out;
  for (const auto& [uid, entry] : ledger.in_flight) {
    out[entry.src_port == 3 ? 0 : 1].insert(uid);
  }
  EXPECT_EQ(out[0].size(), a.offered_packets());
  EXPECT_EQ(out[1].size(), b.offered_packets());
  return out;
}

TEST_F(LineCardTest, HostCountersEmitHostTaggedUids) {
  std::uint64_t uid3 = cluster::make_host_uid(3, 1);
  std::uint64_t uid5 = cluster::make_host_uid(5, 1);
  const auto uids = uids_by_card(&uid3, &uid5);
  for (const int c : {0, 1}) {
    const std::uint64_t host = c == 0 ? 3 : 5;
    ASSERT_FALSE(uids[static_cast<std::size_t>(c)].empty());
    std::uint64_t seq = 1;
    for (const std::uint64_t uid : uids[static_cast<std::size_t>(c)]) {
      EXPECT_EQ(uid, host << 22 | seq++);
    }
  }
}

TEST_F(LineCardTest, SharedCounterInterleavesUids) {
  const auto uids = uids_by_card(&next_uid_, &next_uid_);
  ASSERT_FALSE(uids[0].empty());
  ASSERT_FALSE(uids[1].empty());
  // Together the cards use 1..N with no gap or repeat, and neither card's
  // uids form one block: arrivals alternate between them.
  std::set<std::uint64_t> all = uids[0];
  all.insert(uids[1].begin(), uids[1].end());
  EXPECT_EQ(all.size(), uids[0].size() + uids[1].size());
  EXPECT_EQ(*all.begin(), 1u);
  EXPECT_EQ(*all.rbegin(), all.size());
  EXPECT_EQ(next_uid_, all.size() + 1);
  EXPECT_LT(*uids[0].begin(), *uids[1].rbegin());
  EXPECT_LT(*uids[1].begin(), *uids[0].rbegin());
}

TEST_F(LineCardTest, FlushAndStopWritesOffQueuedPackets) {
  net::TrafficConfig t;
  t.num_ports = 4;
  t.fixed_bytes = 64;
  t.load = 1.0;
  net::TrafficGen gen(t, 6);
  InputLineCard card(chip_.io_port(0, 4, sim::Dir::kWest).to_chip, 0, &gen,
                     &ledger_, &next_uid_, 1 << 16);
  chip_.add_device(&card);
  chip_.run(800);  // nothing drains: most packets wait in the card queue
  const std::size_t queued_and_sent = ledger_.in_flight.size();
  std::vector<std::uint64_t> queued;  // the partly sent front included
  card.collect_queued_uids(queued);
  ASSERT_GT(queued.size(), 1u);
  const std::uint64_t written_off = card.flush_and_stop();
  EXPECT_EQ(written_off, queued.size());
  for (const std::uint64_t uid : queued) {
    EXPECT_EQ(ledger_.in_flight.count(uid), 0u);
  }
  EXPECT_TRUE(card.idle());
  EXPECT_EQ(card.drop_partial_front(), 0u);  // nothing partly sent is left
  std::vector<std::uint64_t> after;
  card.collect_queued_uids(after);
  EXPECT_TRUE(after.empty());
  EXPECT_EQ(ledger_.erased_lost, written_off);
  // Only the packets that fully left the card stay in flight.
  EXPECT_EQ(ledger_.in_flight.size() + written_off, queued_and_sent);
  const auto offered = card.offered_packets();
  chip_.run(800);
  EXPECT_EQ(card.offered_packets(), offered);
  EXPECT_EQ(card.offered_packets(), card.dropped_packets() +
                                        ledger_.erased_total() +
                                        ledger_.in_flight.size());
}

TEST_F(LineCardTest, InputCardStreamsTheReferenceWords) {
  // The card computes each word as it leaves; the words must be exactly
  // the reference packet's, pad included, at every tail length.
  for (const std::uint64_t uid :
       {std::uint64_t{1}, (std::uint64_t{1} << 16) + 3,
        cluster::make_host_uid(31, 7)}) {
    for (const common::ByteCount bytes :
         {20u, 21u, 22u, 23u, 24u, 63u, 64u, 1023u, 1024u, 1500u}) {
      sim::Chip chip{sim::ChipConfig{}};
      PacketLedger ledger;
      net::TrafficConfig t;
      t.num_ports = 4;
      t.fixed_bytes = bytes;
      net::TrafficGen gen(t, 7);
      std::uint64_t next_uid = uid;
      const sim::IoPort port = chip.io_port(0, 4, sim::Dir::kWest);
      InputLineCard card(port.to_chip, 2, &gen, &ledger, &next_uid, 1 << 16);
      WordSink sink(port.to_chip);
      chip.add_device(&card);
      chip.add_device(&sink);
      chip.run(1);
      card.stop();  // exactly one packet
      chip.run(common::words_for_bytes(bytes) + 8);
      ASSERT_EQ(ledger.in_flight.count(uid), 1u);
      const int dst = ledger.in_flight.at(uid).dst_port;
      EXPECT_EQ(sink.words,
                net::packet_to_words(make_test_packet(uid, 2, dst, bytes)))
          << "uid " << uid << " bytes " << bytes;
      EXPECT_TRUE(card.idle());
    }
  }
}

/// Output-card counters after one run over `frames`.
struct Verdict {
  std::uint64_t delivered = 0;
  std::uint64_t invalid = 0;
  std::uint64_t unmatched = 0;
  std::uint64_t resyncs = 0;
  std::uint64_t resync_words = 0;
  std::size_t in_flight = 0;
  friend bool operator==(const Verdict&, const Verdict&) = default;
};

std::ostream& operator<<(std::ostream& os, const Verdict& v) {
  return os << "{delivered " << v.delivered << ", invalid " << v.invalid
            << ", unmatched " << v.unmatched << ", resyncs " << v.resyncs
            << ", resync_words " << v.resync_words << ", in_flight "
            << v.in_flight << "}";
}

/// Feeds `frames` through the loopback row into a port-0 output card with a
/// one-hop matrix.
Verdict output_verdict(PacketLedger& ledger,
                       const std::vector<std::vector<common::Word>>& frames) {
  sim::Chip chip{sim::ChipConfig{}};
  wire_loopback_row(chip);
  const std::vector<std::vector<int>> one_hop(4, std::vector<int>(4, 1));
  WordFeeder feeder(chip.io_port(0, 4, sim::Dir::kWest).to_chip);
  OutputLineCard out(chip.io_port(0, 7, sim::Dir::kEast).from_chip, 0,
                     &ledger, &one_hop);
  for (const auto& f : frames) feeder.push(f);
  chip.add_device(&feeder);
  chip.add_device(&out);
  chip.run(1000);
  return Verdict{out.delivered_packets(), out.dropped_invalid(),
                 out.unmatched_frames(), out.resyncs(), out.resync_words(),
                 ledger.in_flight.size()};
}

std::vector<common::Word> arrived_words(PacketLedger& ledger, std::uint64_t uid,
                                        int src, int decrements, int dst = 0,
                                        common::ByteCount bytes = 64) {
  return net::packet_to_words(
      arrived_packet(ledger, uid, src, decrements, dst, bytes));
}

TEST(OutputLineCardVerdictTest, CleanFrameIsDelivered) {
  PacketLedger ledger;
  EXPECT_EQ(output_verdict(ledger, {arrived_words(ledger, 1, 1, 1)}),
            (Verdict{1, 0, 0, 0, 0, 0}));
  EXPECT_EQ(ledger.erased_delivered, 1u);
}

TEST(OutputLineCardVerdictTest, PayloadBitFlipIsInvalid) {
  PacketLedger ledger;
  auto words = arrived_words(ledger, 1, 1, 1);
  words[9] ^= 0x10;
  EXPECT_EQ(output_verdict(ledger, {words}), (Verdict{0, 1, 0, 0, 0, 0}));
  EXPECT_EQ(ledger.erased_invalid, 1u);
}

TEST(OutputLineCardVerdictTest, FlipInLastWordPadIsDelivered) {
  // 67 bytes: the last word holds three payload bytes and one pad byte.
  PacketLedger ledger;
  auto words = arrived_words(ledger, 1, 1, 1, 0, 67);
  ASSERT_EQ(words.size(), 17u);
  words.back() ^= 0x01;
  EXPECT_EQ(output_verdict(ledger, {words}), (Verdict{1, 0, 0, 0, 0, 0}));
  // A flip one byte higher lands in the payload.
  PacketLedger ledger2;
  auto words2 = arrived_words(ledger2, 1, 1, 1, 0, 67);
  words2.back() ^= 0x0100;
  EXPECT_EQ(output_verdict(ledger2, {words2}), (Verdict{0, 1, 0, 0, 0, 0}));
}

TEST(OutputLineCardVerdictTest, TtlOffByOneIsInvalid) {
  PacketLedger ledger;
  EXPECT_EQ(output_verdict(ledger, {arrived_words(ledger, 1, 1, 2)}),
            (Verdict{0, 1, 0, 0, 0, 0}));
}

TEST(OutputLineCardVerdictTest, WrongOutputPortIsInvalid) {
  PacketLedger ledger;
  EXPECT_EQ(output_verdict(ledger, {arrived_words(ledger, 1, 1, 1, /*dst=*/2)}),
            (Verdict{0, 1, 0, 0, 0, 0}));
}

TEST(OutputLineCardVerdictTest, RewrittenUidIsUnmatched) {
  // A header whose uid bits changed but whose checksum was fixed up frames
  // cleanly and matches no ledger entry.
  PacketLedger ledger;
  net::Packet p = arrived_packet(ledger, 1, 1, 1);
  p.header.src ^= 0x40;
  net::finalize_checksum(p.header);
  EXPECT_EQ(output_verdict(ledger, {net::packet_to_words(p)}),
            (Verdict{0, 0, 1, 0, 0, 1}));
}

TEST(OutputLineCardVerdictTest, CorruptedHeaderResyncsOntoTheNextFrame) {
  // A length bit flip fails the checksum: the card slides over the torn
  // frame word by word and locks onto the clean frame behind it.
  PacketLedger ledger;
  auto torn = arrived_words(ledger, 1, 1, 1);
  torn[0] ^= 0x1;
  EXPECT_EQ(output_verdict(ledger, {torn, arrived_words(ledger, 2, 1, 1)}),
            (Verdict{1, 0, 0, 1, 16, 1}));
  EXPECT_EQ(ledger.in_flight.count(1), 1u);
}

/// An input card at load 1.0 with 64 B packets (16 words, one arrival
/// every 16 cycles) and nothing draining the chip: the channel FIFO takes
/// the front packet's first few words and the rest wait in the card.
struct StalledInput {
  explicit StalledInput(std::size_t capacity_words)
      : gen(config(), 6),
        card(chip.io_port(0, 4, sim::Dir::kWest).to_chip, 0, &gen, &ledger,
             &next_uid, capacity_words) {
    chip.add_device(&card);
  }
  static net::TrafficConfig config() {
    net::TrafficConfig t;
    t.num_ports = 4;
    t.fixed_bytes = 64;
    t.load = 1.0;
    return t;
  }
  /// Packets the card accepted into its queue.
  [[nodiscard]] std::uint64_t accepted() const {
    return card.offered_packets() - card.dropped_packets();
  }

  sim::Chip chip{sim::ChipConfig{}};
  PacketLedger ledger;
  std::uint64_t next_uid = 1;
  net::TrafficGen gen;
  InputLineCard card;
};

TEST(InputLineCardDropRuleTest, DropPartialFrontFreesExactlyTheUnsentWords) {
  // 64 words hold four packets, the front one partly sent. Dropping the
  // front leaves exactly 48 words queued: a fifth packet fits in 64 words
  // but not in 63.
  for (const std::size_t capacity : {64u, 63u}) {
    StalledInput in(capacity);
    in.chip.run(200);
    ASSERT_EQ(in.accepted(), 4u) << capacity;
    ASSERT_GT(in.card.dropped_packets(), 0u);
    EXPECT_EQ(in.card.drop_partial_front(), 1u);
    EXPECT_EQ(in.card.drop_partial_front(), 0u);  // the new front is unsent
    EXPECT_EQ(in.ledger.erased_lost, 1u);
    std::vector<std::uint64_t> queued;
    in.card.collect_queued_uids(queued);
    EXPECT_EQ(queued, (std::vector<std::uint64_t>{2, 3, 4}));
    in.chip.run(200);
    EXPECT_EQ(in.accepted(), capacity == 64 ? 5u : 4u) << capacity;
    EXPECT_EQ(in.card.offered_packets(),
              in.card.dropped_packets() + in.ledger.erased_total() +
                  in.ledger.in_flight.size());
  }
}

}  // namespace
}  // namespace raw::router
