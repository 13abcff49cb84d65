#include "cluster/inter_chip_link.h"

#include <algorithm>

#include "common/assert.h"

namespace raw::cluster {

InterChipLink::InterChipLink(const Params& params) : params_(params) {
  RAW_ASSERT_MSG(params_.latency >= 1, "link latency must be >= 1");
  RAW_ASSERT_MSG(params_.throttle_numer >= 1 && params_.throttle_denom >= 1,
                 "throttle numer/denom must be >= 1");
  RAW_ASSERT_MSG(params_.capacity_words >= 1, "link capacity must be >= 1");
  RAW_ASSERT_MSG(!params_.reliable || params_.retransmit_limit >= 1,
                 "reliable link needs a retransmit budget");
  tokens_ = params_.throttle_numer;  // the bucket starts full
}

void InterChipLink::refill(common::Cycle now) {
  // Integer token bucket: numer credits per denom cycles, accumulated
  // exactly (no drift), burst-capped at numer so a long-idle link cannot
  // dump an unbounded burst.
  const common::Cycle elapsed = now - last_refill_;
  if (elapsed == 0) return;
  last_refill_ = now;
  accum_ += elapsed * params_.throttle_numer;
  tokens_ += accum_ / params_.throttle_denom;
  accum_ %= params_.throttle_denom;
  tokens_ = std::min<std::uint64_t>(tokens_, params_.throttle_numer);
}

bool InterChipLink::can_send(common::Cycle now) {
  if (cut_ || now < stall_until_) return false;
  refill(now);
  return tokens_ >= 1 &&
         occupancy_base_ + sent_this_epoch_ < params_.capacity_words;
}

void InterChipLink::send(common::Word w, common::Cycle now) {
  RAW_ASSERT_MSG(tokens_ >= 1, "send without a token (call can_send first)");
  --tokens_;
  staging_.push_back(Slot{now + params_.latency, w, w, sent_total_});
  ++sent_this_epoch_;
  ++sent_total_;
}

bool InterChipLink::front_intact(common::Cycle now) {
  Slot& s = queue_.front();
  if (rx_.accept_front(s.wire, s.word, static_cast<std::uint16_t>(s.seq),
                       params_.retransmit_limit)) {
    return true;
  }
  // NACK: the word was repaired from the sender's replay copy; its
  // delivery slips by one retransmit round trip.
  s.deliver = now + params_.retransmit_rtt;
  return false;
}

bool InterChipLink::has_word(common::Cycle now) {
  if (cut_ || now < stall_until_) return false;
  if (queue_.empty() || queue_.front().deliver > now) return false;
  if (params_.reliable) return front_intact(now);
  return true;
}

common::Word InterChipLink::recv(common::Cycle now) {
  RAW_ASSERT_MSG(has_word(now), "recv on an empty or not-yet-due link");
  const Slot& s = queue_.front();
  const common::Word w = s.wire;
  if (params_.reliable) {
    rx_.delivered(s.wire, s.word, static_cast<std::uint16_t>(s.seq));
  }
  queue_.pop_front();
  ++delivered_total_;
  return w;
}

void InterChipLink::commit_epoch() {
  for (const Slot& s : staging_) queue_.push_back(s);
  staging_.clear();
  sent_this_epoch_ = 0;
  occupancy_base_ = queue_.size();
}

bool InterChipLink::corrupt_front(std::uint32_t bit) {
  if (queue_.empty()) return false;
  queue_.front().wire ^= common::Word{1} << (bit % 32);
  return true;
}

void InterChipLink::stall_until(common::Cycle until) {
  stall_until_ = std::max(stall_until_, until);
}

std::uint64_t InterChipLink::write_off_in_flight() {
  const std::uint64_t n = queue_.size() + staging_.size();
  queue_.clear();
  staging_.clear();
  rx_.front_retries = 0;
  sent_this_epoch_ = 0;
  occupancy_base_ = 0;
  written_off_total_ += n;
  return n;
}

bool InterChipLink::seq_books_ok() const {
  if (sent_total_ !=
      delivered_total_ + in_flight_words() + written_off_total_) {
    return false;
  }
  std::uint64_t expect = delivered_total_ + written_off_total_;
  for (const Slot& s : queue_) {
    if (s.seq != expect++) return false;
  }
  for (const Slot& s : staging_) {
    if (s.seq != expect++) return false;
  }
  return expect == sent_total_;
}

}  // namespace raw::cluster
