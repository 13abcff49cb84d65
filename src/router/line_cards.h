// Line-card devices attached to the chip-edge ports.
//
// The input card runs an open-loop arrival process from a TrafficGen and
// buffers packets in its (external, §4.4) queue, streaming words into the
// chip at line rate; overflow is dropped at the card, exactly as the thesis
// assumes ("dropping ... occurring externally to the Raw chip"). The output
// card frames the word stream into packets and validates each end-to-end
// (checksum, TTL decrement, payload integrity, correct output port) as its
// words arrive, and records throughput and latency. Both cards work on
// words: neither builds a net::Packet.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/histogram.h"
#include "common/stats.h"
#include "common/trace_event.h"
#include "common/types.h"
#include "net/packet.h"
#include "net/traffic.h"
#include "sim/chip.h"
#include "sim/device.h"

namespace raw::router {

/// Shared bookkeeping between input and output cards (simulation-side only;
/// nothing here is visible to the modelled hardware).
///
/// Every per-packet change goes through one mutex-guarded API: the line
/// cards insert, take, credit and write off entries, and the ingress tile
/// programs erase the ones they drop. A cluster shares one ledger across
/// chips that step on different threads, and the final state is
/// independent of the interleaving: distinct uids touch distinct map entries
/// and the outcome counters are commutative sums. Bulk write-offs at drain
/// time run single-threaded and touch the fields directly.
struct PacketLedger {
  struct Entry {
    common::Cycle created = 0;
    int src_port = -1;
    int dst_port = -1;
    common::ByteCount bytes = 0;
  };
  std::unordered_map<std::uint64_t, Entry> in_flight;
  /// Optional packet-lifecycle tracer shared by the line cards and the tile
  /// programs (null or disabled: no events, no cost).
  common::PacketTracer* tracer = nullptr;

  /// Where erased entries went, for packet-conservation accounting. Every
  /// erase from `in_flight` increments exactly one of these, so at any
  /// instant
  ///   offered == dropped_at_card + erased_delivered + erased_invalid
  ///            + erased_ingress + erased_lost + in_flight.size()
  /// (RawRouter and ClusterFabric assert this at drain).
  std::uint64_t erased_delivered = 0;  // validated at an output card
  std::uint64_t erased_invalid = 0;    // reached an output card, failed validation
  std::uint64_t erased_ingress = 0;    // dropped by an ingress tile (ttl/route/malformed)
  std::uint64_t erased_lost = 0;       // written off (drain quiesced short, recovery)

  [[nodiscard]] std::uint64_t erased_total() const {
    return erased_delivered + erased_invalid + erased_ingress + erased_lost;
  }

  /// A packet entered an input card's queue.
  void insert(std::uint64_t uid, const Entry& e) {
    const std::lock_guard<std::mutex> lock(mutex);
    in_flight.emplace(uid, e);
  }

  /// Erases `uid` and returns its entry (nothing when absent). The caller
  /// follows up with exactly one credit_* call: validation of the
  /// reassembled frame decides delivered vs invalid only after the entry is
  /// taken.
  std::optional<Entry> take(std::uint64_t uid) {
    const std::lock_guard<std::mutex> lock(mutex);
    const auto it = in_flight.find(uid);
    if (it == in_flight.end()) return std::nullopt;
    const Entry e = it->second;
    in_flight.erase(it);
    return e;
  }

  void credit_delivered() {
    const std::lock_guard<std::mutex> lock(mutex);
    ++erased_delivered;
  }
  void credit_invalid() {
    const std::lock_guard<std::mutex> lock(mutex);
    ++erased_invalid;
  }

  /// Writes `uid` off as lost. Returns whether the uid was present.
  bool write_off(std::uint64_t uid) { return erase_as(uid, erased_lost); }

  /// Records an ingress drop (ttl expiry, no route, malformed header).
  /// Returns whether the uid was present.
  bool erase_ingress(std::uint64_t uid) {
    return erase_as(uid, erased_ingress);
  }

  std::mutex mutex;

 private:
  bool erase_as(std::uint64_t uid, std::uint64_t& outcome) {
    const std::lock_guard<std::mutex> lock(mutex);
    const bool present = in_flight.erase(uid) > 0;
    if (present) ++outcome;
    return present;
  }
};

/// Trace-track ids: chip events use the tile index directly; line-card
/// events get their own per-port tracks above the tile range.
constexpr int input_card_track(int port) { return 100 + port; }
constexpr int output_card_track(int port) { return 200 + port; }

/// Packs the simulator uid into the IPv4 source address + identification so
/// the output card can find the ledger entry: src = 10.(128+port).x.x with
/// the uid's low 16 bits, identification = uid bits [31:16].
net::Ipv4Header make_test_header(std::uint64_t uid, int src_port, int dst_port,
                                 common::ByteCount bytes);
/// The whole test packet: make_test_header plus uid's payload. The line
/// cards stream and check the same words without building one; this is the
/// reference their tests compare against.
net::Packet make_test_packet(std::uint64_t uid, int src_port, int dst_port,
                             common::ByteCount bytes);
std::uint64_t uid_of(const net::Ipv4Header& hdr);
int src_port_of(const net::Ipv4Header& hdr);

/// Abstract word endpoints at the chip boundary. A trunk card moves at most
/// one word per cycle between a chip-edge channel and one of these; the
/// cluster fabric implements them on its inter-chip links (latency +
/// token-bucket bandwidth throttling live behind the interface).
class WordTx {
 public:
  virtual ~WordTx() = default;
  /// Whether one more word can be accepted at cycle `now` (bandwidth tokens
  /// and queue space permitting). May refill internal token state.
  [[nodiscard]] virtual bool can_send(common::Cycle now) = 0;
  virtual void send(common::Word w, common::Cycle now) = 0;
};

class WordRx {
 public:
  virtual ~WordRx() = default;
  /// Whether a word has arrived (latency elapsed) by cycle `now`.
  [[nodiscard]] virtual bool has_word(common::Cycle now) = 0;
  [[nodiscard]] virtual common::Word recv(common::Cycle now) = 0;
};

/// A host line feeding one chip-edge port. `port` is both the card's
/// source id (packets carry src = 10.(128+port).x.x) and its port index
/// into `traffic`: a chip port on RawRouter, a global host id in a cluster.
/// Every arrival takes `uid = (*next_uid)++`, dropped or not; RawRouter's
/// four cards share one counter, and each cluster host card owns one.
class InputLineCard : public sim::Device {
 public:
  InputLineCard(sim::Channel* to_chip, int port, net::TrafficGen* traffic,
                PacketLedger* ledger, std::uint64_t* next_uid,
                std::size_t queue_capacity_words);

  void step(sim::Chip& chip) override;

  /// Stops generating new packets (drain phase of an experiment).
  void stop() { stopped_ = true; }

  [[nodiscard]] std::uint64_t offered_packets() const { return offered_packets_; }
  [[nodiscard]] common::ByteCount offered_bytes() const { return offered_bytes_; }
  [[nodiscard]] std::uint64_t dropped_packets() const { return dropped_packets_; }
  [[nodiscard]] bool idle() const { return queue_.empty(); }

  /// Recovery surgery (fault-adaptive reconfiguration, which resets the
  /// fabric): drops the partially-streamed front packet — its already-sent
  /// words died in the fabric reset and the remainder would arrive headless.
  /// The ledger entry is written off as lost. Whole queued packets stay
  /// deliverable. Returns the number of packets written off (0 or 1).
  std::uint64_t drop_partial_front();
  /// Recovery surgery (dead ingress tile, or a cluster chip confirmed dead):
  /// writes off every queued packet — fully queued or partially streamed
  /// into the chip — as lost, clears the queue, and stops the arrival
  /// process. Returns the number of packets written off.
  std::uint64_t flush_and_stop();
  /// Appends the uids of every fully-queued packet (call after
  /// drop_partial_front) — the in-flight entries a fabric reset must keep.
  void collect_queued_uids(std::vector<std::uint64_t>& out) const;

 private:
  /// One accepted packet: everything needed to compute any of its words.
  struct Queued {
    std::uint64_t uid;
    std::uint32_t words;
    std::uint32_t payload_bytes;
    std::array<common::Word, net::Ipv4Header::kWords> header;
  };

  void generate(sim::Chip& chip);

  sim::Channel* to_chip_;
  int port_;
  net::TrafficGen* traffic_;
  PacketLedger* ledger_;
  std::uint64_t* next_uid_;
  std::size_t queue_capacity_words_;
  std::deque<Queued> queue_;  // oldest first
  std::size_t queued_words_ = 0;  // words of `queue_` not yet written
  std::uint32_t front_words_sent_ = 0;
  common::Cycle next_arrival_ = 0;
  bool stopped_ = false;
  std::uint64_t offered_packets_ = 0;
  common::ByteCount offered_bytes_ = 0;
  std::uint64_t dropped_packets_ = 0;
};

/// A host line drained from one chip-edge port. `hops` is the source-by-
/// destination hop matrix (not owned; RawRouter's is all ones): the TTL
/// check expects exactly hops[src][port] decrements, one per chip on the
/// path.
class OutputLineCard : public sim::Device {
 public:
  OutputLineCard(sim::Channel* from_chip, int port, PacketLedger* ledger,
                 const std::vector<std::vector<int>>* hops);

  void step(sim::Chip& chip) override;

  /// Degraded-mode validation (after a cluster fail-over reroute): surviving
  /// paths may be longer or shorter than the as-built hop matrix, so the TTL
  /// check relaxes from "exactly hops[src][port] decrements" to "between 1
  /// and `max_ttl_decrements`" — payload, addressing and size stay exact.
  void set_degraded(int max_ttl_decrements) {
    degraded_max_hops_ = max_ttl_decrements;
  }

  [[nodiscard]] std::uint64_t delivered_packets() const { return delivered_packets_; }
  [[nodiscard]] common::ByteCount delivered_bytes() const { return delivered_bytes_; }
  [[nodiscard]] std::uint64_t delivered_from(int src) const {
    return per_source_[static_cast<std::size_t>(src)];
  }
  /// All frames that failed validation, however they failed.
  [[nodiscard]] std::uint64_t errors() const {
    return dropped_invalid_ + unmatched_frames_;
  }
  /// Frames with a ledger entry that failed end-to-end validation
  /// (corrupted payload, wrong port, bad TTL).
  [[nodiscard]] std::uint64_t dropped_invalid() const { return dropped_invalid_; }
  /// Frames whose uid matched no in-flight entry (a corrupted uid field, or
  /// the surviving half of a torn frame).
  [[nodiscard]] std::uint64_t unmatched_frames() const { return unmatched_frames_; }
  /// Resynchronisation episodes: the card lost framing mid-stream and slid
  /// forward to the next plausible header.
  [[nodiscard]] std::uint64_t resyncs() const { return resyncs_; }
  /// Words discarded while realigning.
  [[nodiscard]] std::uint64_t resync_words() const { return resync_words_; }
  [[nodiscard]] const common::RunningStat& latency() const { return latency_; }
  /// End-to-end latency distribution (cycles), for p50/p95/p99 reporting.
  [[nodiscard]] const common::Histogram& latency_histogram() const {
    return latency_hist_;
  }

  /// Recovery surgery: drops any partially-received frame and realigns on
  /// the next header word — the words already received were severed from
  /// their tail by the fabric reset.
  void reset_framing();

 private:
  /// Unlocked: slides a header window over the stream until it holds a
  /// plausible IPv4 header. After a torn or corrupted frame it moves one
  /// word at a time, so one bad frame costs one resync episode instead of
  /// desynchronising every later packet.
  void seek_header(common::Word w);
  void finish_packet(sim::Chip& chip);

  sim::Channel* from_chip_;
  int port_;
  PacketLedger* ledger_;
  const std::vector<std::vector<int>>* hops_;
  int degraded_max_hops_ = 0;  // 0 = healthy, exact hop validation
  // Framing: the header window while unlocked, then the locked frame.
  std::array<common::Word, net::Ipv4Header::kWords> window_{};
  std::size_t window_words_ = 0;
  bool locked_ = false;
  bool in_resync_ = false;
  net::Ipv4Header header_;  // the locked frame's header
  std::uint64_t frame_uid_ = 0;
  std::size_t frame_words_ = 0;     // the locked frame's total word count
  std::size_t payload_words_seen_ = 0;
  bool payload_ok_ = true;  // every payload word so far matched frame_uid_'s
  std::uint64_t resyncs_ = 0;
  std::uint64_t resync_words_ = 0;
  std::uint64_t delivered_packets_ = 0;
  common::ByteCount delivered_bytes_ = 0;
  std::vector<std::uint64_t> per_source_;  // one slot per hops_ row
  std::uint64_t dropped_invalid_ = 0;
  std::uint64_t unmatched_frames_ = 0;
  common::RunningStat latency_;
  common::Histogram latency_hist_{16.0, 2048};  // covers 32K cycles + overflow
};

/// Chip-edge trunk cards for inter-chip links: word-level cut-through, no
/// reassembly. The egress card drains an output port's channel — one word
/// per cycle, unconditionally, like a host line card — into an elastic
/// store-and-forward FIFO, and trickles that FIFO into the WordTx as the
/// link's tokens and capacity allow. The elasticity is load-bearing: if a
/// throttled or full link backpressured into the fabric, the stalled
/// egress would wedge the chip's whole crossbar ring, the chip would stop
/// draining its *incoming* trunk, and two chips could deadlock each other
/// (classic store-and-forward deadlock). The ingress card feeds arrived
/// words into an input port's channel at at most line rate.
class TrunkEgressCard : public sim::Device {
 public:
  TrunkEgressCard(sim::Channel* from_chip, int port, WordTx* tx);

  void step(sim::Chip& chip) override;

  [[nodiscard]] std::uint64_t words_out() const { return words_out_; }
  /// Words parked in the store-and-forward FIFO awaiting link credit.
  [[nodiscard]] std::size_t queued_words() const { return queue_.size(); }
  [[nodiscard]] std::size_t peak_queued_words() const { return peak_queued_; }

 private:
  sim::Channel* from_chip_;
  int port_;
  WordTx* tx_;
  std::deque<common::Word> queue_;
  std::size_t peak_queued_ = 0;
  std::uint64_t words_out_ = 0;
};

class TrunkIngressCard : public sim::Device {
 public:
  TrunkIngressCard(sim::Channel* to_chip, int port, WordRx* rx);

  void step(sim::Chip& chip) override;

  [[nodiscard]] std::uint64_t words_in() const { return words_in_; }

 private:
  sim::Channel* to_chip_;
  int port_;
  WordRx* rx_;
  std::uint64_t words_in_ = 0;
};

}  // namespace raw::router
