// One direction of an inter-chip trunk: a deterministic word FIFO with a
// fixed latency, token-bucket bandwidth throttling, and an optional
// CRC+sequence reliable layer.
//
// The link is the only state two chips share, and it is built for the
// epoch-synchronised schedule (FireSim-style "big tokens"): during an epoch
// the sending chip's trunk card appends to a staging buffer and the
// receiving chip's trunk card pops only words committed at the previous
// epoch barrier, so the two sides touch disjoint state and an epoch can run
// thread-per-chip without locks. commit_epoch() — called single-threaded at
// the barrier — moves staging into the delivery queue and refreshes the
// sender's occupancy view. Because the epoch length equals the link
// latency, a word sent mid-epoch could not have arrived before the next
// barrier anyway: the relaxed synchronisation is timing-exact, and the
// serial and threaded schedules are digest-identical. Every word is due
// `latency` cycles after its send, so delivery times rise in send order.
//
// Reliable mode runs the on-chip links' codec (sim/link_codec.h) at trunk
// scale: every word carries a sequence number, and the sender keeps the
// clean copy (its replay buffer) alongside the wire word. When the
// receiver's front-of-FIFO CRC-8 check (sim::LinkReceiver) catches a
// damaged word it NACKs: the word is repaired from the replay copy and
// its delivery slips by retransmit_rtt — one retransmit round trip — up to
// retransmit_limit times per word, after which the corrupt word is
// delivered and counted. The repair happens entirely on the receiver's
// side of the epoch split, so reliability composes with thread-per-chip
// execution unchanged.
//
// Fault hooks (corrupt_front / stall_until / cut / write_off_in_flight) are
// barrier-phase only: ClusterFabric fires its sim::FaultPlan events and
// runs the fail-over controller between epochs, which keeps every schedule
// digest-identical at any worker count. The word conservation identity is
//   sent_total == delivered_total + in_flight_words + written_off_total
// at every barrier (written_off_total stays 0 until a fail-over writes a
// dead link's in-flight words off).
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/types.h"
#include "router/line_cards.h"
#include "sim/link_codec.h"

namespace raw::cluster {

class InterChipLink final : public router::WordTx, public router::WordRx {
 public:
  struct Params {
    common::Cycle latency = 16;
    std::uint64_t throttle_numer = 1;
    std::uint64_t throttle_denom = 1;
    /// Words buffered in one direction; a full link backpressures the
    /// sending chip's trunk card.
    std::size_t capacity_words = 256;
    /// CRC+seq reliable layer: corrupted words are repaired by bounded
    /// retransmit instead of delivered as damage.
    bool reliable = false;
    /// Retransmits per word before the link gives up and delivers the
    /// corrupt word (counted in delivered_corrupt). Must be >= 1 when
    /// reliable.
    std::uint32_t retransmit_limit = 3;
    /// Delivery slip per NACK round trip, in cycles.
    common::Cycle retransmit_rtt = 4;
  };

  explicit InterChipLink(const Params& params);

  // WordTx — sender side (the source chip's trunk egress card).
  [[nodiscard]] bool can_send(common::Cycle now) override;
  void send(common::Word w, common::Cycle now) override;

  // WordRx — receiver side (the destination chip's trunk ingress card).
  [[nodiscard]] bool has_word(common::Cycle now) override;
  [[nodiscard]] common::Word recv(common::Cycle now) override;

  /// Epoch barrier (single-threaded): commits staged words into the
  /// delivery queue and refreshes the sender's occupancy view.
  void commit_epoch();

  // Fault hooks — barrier phase only (see ClusterFabric::barrier_maintenance).

  /// Flips `bit` (mod 32) of the wire word nearest the reader. Returns
  /// false when the link has no committed word to corrupt.
  bool corrupt_front(std::uint32_t bit);
  /// Takes the link down until `until` (transient open: no sends, no
  /// deliveries). Extends but never shortens an open window.
  void stall_until(common::Cycle until);
  /// Permanently severs the link: can_send and has_word are false forever.
  void cut() { cut_ = true; }
  [[nodiscard]] bool is_cut() const { return cut_; }
  /// Writes off every in-flight word (queue + staging) — fail-over
  /// accounting for a confirmed-dead link. Returns the number written off.
  std::uint64_t write_off_in_flight();

  /// Conservation counters: at any epoch barrier,
  ///   sent_total == delivered_total + in_flight_words + written_off_total.
  [[nodiscard]] std::uint64_t sent_total() const { return sent_total_; }
  [[nodiscard]] std::uint64_t delivered_total() const {
    return delivered_total_;
  }
  [[nodiscard]] std::uint64_t written_off_total() const {
    return written_off_total_;
  }
  /// Words inside the link (queue + staging). Barrier-phase only.
  [[nodiscard]] std::size_t in_flight_words() const {
    return queue_.size() + staging_.size();
  }
  /// Committed-queue occupancy. Barrier-phase only.
  [[nodiscard]] std::size_t occupancy() const { return queue_.size(); }

  // Reliable-layer counters (zero when the layer is off).
  [[nodiscard]] std::uint64_t retransmits() const { return rx_.retransmits; }
  [[nodiscard]] std::uint64_t delivered_corrupt() const {
    return rx_.delivered_corrupt;
  }

  /// Sequence-book identity (barrier phase): words are numbered 0,1,2,... at
  /// send, popped in order, and written off from the front, so the oldest
  /// in-flight word's seq must equal delivered + written_off and the books
  /// must span exactly [delivered + written_off, sent).
  [[nodiscard]] bool seq_books_ok() const;

  [[nodiscard]] const Params& params() const { return params_; }

 private:
  /// Credits tokens for the cycles since the last refill (integer
  /// accumulator, burst cap = numer).
  void refill(common::Cycle now);
  /// Reliable front check: true when the front word may be delivered as-is
  /// (clean, or past its retransmit budget); on a detected mismatch the
  /// word is repaired, delivery slips one round trip, and false is
  /// returned.
  bool front_intact(common::Cycle now);

  struct Slot {
    common::Cycle deliver = 0;
    common::Word word = 0;  // clean copy (the sender's replay buffer)
    common::Word wire = 0;  // what the trunk actually carries
    std::uint64_t seq = 0;
  };

  Params params_;

  // Sender-side state (touched only by the source chip during an epoch).
  std::uint64_t tokens_ = 0;
  std::uint64_t accum_ = 0;
  common::Cycle last_refill_ = 0;
  std::vector<Slot> staging_;
  std::size_t sent_this_epoch_ = 0;
  std::size_t occupancy_base_ = 0;  // queue size at the last barrier
  std::uint64_t sent_total_ = 0;

  // Receiver-side state (touched only by the destination chip).
  std::deque<Slot> queue_;
  std::uint64_t delivered_total_ = 0;
  sim::LinkReceiver rx_;

  // Fault state (written at barriers only; read by both sides).
  common::Cycle stall_until_ = 0;
  bool cut_ = false;
  std::uint64_t written_off_total_ = 0;
};

}  // namespace raw::cluster
