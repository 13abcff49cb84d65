#include "router/line_cards.h"

#include <algorithm>

#include "common/assert.h"
#include "sim/fault_plan.h"

namespace raw::router {

net::Ipv4Header make_test_header(std::uint64_t uid, int src_port, int dst_port,
                                 common::ByteCount bytes) {
  const net::Addr src = net::make_addr(
      10, static_cast<std::uint8_t>(128 + src_port),
      static_cast<std::uint8_t>(uid >> 8 & 0xff), static_cast<std::uint8_t>(uid & 0xff));
  const net::Addr dst =
      net::make_addr(10, static_cast<std::uint8_t>(dst_port),
                     static_cast<std::uint8_t>(uid >> 3 & 0xff),
                     static_cast<std::uint8_t>(uid * 7 & 0xff));
  return net::make_header(src, dst, bytes,
                          static_cast<std::uint16_t>(uid >> 16 & 0xffff));
}

net::Packet make_test_packet(std::uint64_t uid, int src_port, int dst_port,
                             common::ByteCount bytes) {
  net::Packet p =
      net::make_packet(uid, make_test_header(uid, src_port, dst_port, bytes));
  p.input_port = src_port;
  p.output_port = dst_port;
  return p;
}

std::uint64_t uid_of(const net::Ipv4Header& hdr) {
  return static_cast<std::uint64_t>(hdr.identification) << 16 | (hdr.src & 0xffff);
}

int src_port_of(const net::Ipv4Header& hdr) {
  return static_cast<int>((hdr.src >> 16 & 0xff) - 128);
}

InputLineCard::InputLineCard(sim::Channel* to_chip, int port,
                             net::TrafficGen* traffic, PacketLedger* ledger,
                             std::uint64_t* next_uid,
                             std::size_t queue_capacity_words)
    : to_chip_(to_chip),
      port_(port),
      traffic_(traffic),
      ledger_(ledger),
      next_uid_(next_uid),
      queue_capacity_words_(queue_capacity_words) {
  RAW_ASSERT(to_chip_ != nullptr && traffic_ != nullptr && ledger_ != nullptr &&
             next_uid_ != nullptr);
}

void InputLineCard::generate(sim::Chip& chip) {
  while (!stopped_ && chip.cycle() >= next_arrival_) {
    const net::PacketDesc desc = traffic_->next(port_);
    const std::uint64_t uid = (*next_uid_)++;
    const common::ByteCount bytes = std::max<common::ByteCount>(desc.bytes, 20);
    const auto words = common::words_for_bytes(bytes);
    // Line spacing: the wire carries this packet for `words` cycles, then
    // idles for the generator's gap. An injected overrun burst compresses
    // the spacing by its factor, modelling an upstream link running hot.
    const sim::FaultPlan* faults = chip.fault_plan();
    const std::uint64_t factor =
        faults != nullptr ? faults->overrun_factor(port_, chip.cycle()) : 1;
    next_arrival_ = chip.cycle() + (desc.gap_cycles + words) / factor;
    ++offered_packets_;
    offered_bytes_ += bytes;
    if (queued_words_ + words > queue_capacity_words_) {
      ++dropped_packets_;  // external drop (§4.4)
      continue;
    }
    ledger_->insert(
        uid, PacketLedger::Entry{chip.cycle(), port_, desc.dst_port, bytes});
    queue_.push_back(Queued{
        uid, static_cast<std::uint32_t>(words),
        static_cast<std::uint32_t>(bytes - net::Ipv4Header::kBytes),
        net::serialize(make_test_header(uid, port_, desc.dst_port, bytes))});
    queued_words_ += words;
    if (ledger_->tracer != nullptr && ledger_->tracer->enabled()) {
      ledger_->tracer->record(uid, chip.cycle(), common::PacketEvent::kArrival,
                              input_card_track(port_),
                              static_cast<std::uint32_t>(bytes));
    }
  }
}

void InputLineCard::step(sim::Chip& chip) {
  generate(chip);
  if (queue_.empty() || !to_chip_->can_write()) return;
  const Queued& front = queue_.front();
  if (front_words_sent_ == 0 && ledger_->tracer != nullptr &&
      ledger_->tracer->enabled()) {
    ledger_->tracer->record(front.uid, chip.cycle(),
                            common::PacketEvent::kHeadOfQueue,
                            input_card_track(port_));
  }
  // The words of make_test_packet(...) through packet_to_words, computed as
  // they leave the card.
  to_chip_->write(front_words_sent_ < net::Ipv4Header::kWords
                      ? front.header[front_words_sent_]
                      : net::payload_word(
                            front.uid,
                            front_words_sent_ - net::Ipv4Header::kWords,
                            front.payload_bytes));
  --queued_words_;
  if (++front_words_sent_ == front.words) {
    queue_.pop_front();
    front_words_sent_ = 0;
  }
}

std::uint64_t InputLineCard::drop_partial_front() {
  if (front_words_sent_ == 0) return 0;
  const Queued& front = queue_.front();
  RAW_ASSERT_MSG(front.words > front_words_sent_,
                 "fully-sent packet still tracked as queue front");
  queued_words_ -= front.words - front_words_sent_;
  const std::uint64_t uid = front.uid;
  queue_.pop_front();
  front_words_sent_ = 0;
  (void)ledger_->write_off(uid);
  return 1;
}

std::uint64_t InputLineCard::flush_and_stop() {
  std::uint64_t written_off = 0;
  for (const Queued& q : queue_) {
    // A partially-streamed front's words died in the fabric; the rest never
    // left the card. Either way the packet is lost.
    if (ledger_->write_off(q.uid)) ++written_off;
  }
  queue_.clear();
  queued_words_ = 0;
  front_words_sent_ = 0;
  stopped_ = true;
  return written_off;
}

void InputLineCard::collect_queued_uids(std::vector<std::uint64_t>& out) const {
  for (const Queued& q : queue_) out.push_back(q.uid);
}

OutputLineCard::OutputLineCard(sim::Channel* from_chip, int port,
                               PacketLedger* ledger,
                               const std::vector<std::vector<int>>* hops)
    : from_chip_(from_chip),
      port_(port),
      ledger_(ledger),
      hops_(hops),
      per_source_(hops != nullptr ? hops->size() : 0, 0) {
  RAW_ASSERT(from_chip_ != nullptr && ledger_ != nullptr && hops_ != nullptr);
}

void OutputLineCard::step(sim::Chip& chip) {
  if (!from_chip_->can_read()) return;
  const common::Word w = from_chip_->read();
  if (!locked_) {
    seek_header(w);
  } else {
    // Check the payload word against the expected one as it arrives; the
    // zero pad of a partly filled last word is not payload and is ignored.
    const std::size_t j = payload_words_seen_++;
    const std::size_t payload_bytes =
        header_.total_length - net::Ipv4Header::kBytes;
    if ((w & net::payload_word_mask(j, payload_bytes)) !=
        net::payload_word(frame_uid_, j, payload_bytes)) {
      payload_ok_ = false;
    }
  }
  if (locked_ &&
      net::Ipv4Header::kWords + payload_words_seen_ == frame_words_) {
    finish_packet(chip);
  }
}

void OutputLineCard::seek_header(common::Word w) {
  window_[window_words_++] = w;
  if (window_words_ < net::Ipv4Header::kWords) return;
  const net::Ipv4Header hdr = net::parse(window_);
  if (hdr.version == 4 && hdr.ihl == 5 &&
      hdr.total_length >= net::Ipv4Header::kBytes && net::checksum_ok(hdr)) {
    locked_ = true;
    in_resync_ = false;
    header_ = hdr;
    frame_uid_ = uid_of(hdr);
    frame_words_ = common::words_for_bytes(hdr.total_length);
    payload_words_seen_ = 0;
    payload_ok_ = true;
    window_words_ = 0;
    return;
  }
  // Not a plausible header (a bit flip in the length or checksum words, or
  // the tail of a torn frame): drop the oldest word and try the next one.
  if (!in_resync_) {
    in_resync_ = true;
    ++resyncs_;
  }
  ++resync_words_;
  std::copy(window_.begin() + 1, window_.end(), window_.begin());
  --window_words_;
}

void OutputLineCard::reset_framing() {
  window_words_ = 0;
  locked_ = false;
  in_resync_ = false;
}

void OutputLineCard::finish_packet(sim::Chip& chip) {
  locked_ = false;
  // The header passed its checksum when the card locked onto it.
  const std::uint64_t uid = frame_uid_;
  const int src = src_port_of(header_);
  std::optional<PacketLedger::Entry> taken;
  if (src < 0 || static_cast<std::size_t>(src) >= per_source_.size() ||
      !(taken = ledger_->take(uid))) {
    // A source outside the hop matrix, or no in-flight entry: a corrupted
    // header, or the surviving fragment of a frame whose original was
    // already written off. The packet itself was accounted for when its
    // entry was erased, so this counts as frame damage, not a second packet
    // loss.
    ++unmatched_frames_;
    return;
  }
  const PacketLedger::Entry entry = *taken;

  // End-to-end validation: right output port, payload untouched, and the
  // TTL decremented exactly once per chip on the path. The hop count
  // indexes by the ledger entry's source (always in range; a corrupted src
  // byte fails the header comparison below instead).
  bool ok = payload_ok_;
  if (entry.dst_port != port_ || entry.bytes != header_.total_length) ok = false;
  const net::Ipv4Header expected =
      make_test_header(uid, entry.src_port, entry.dst_port, entry.bytes);
  const int decremented = expected.ttl - header_.ttl;
  if (degraded_max_hops_ == 0) {
    const int hops = (*hops_)[static_cast<std::size_t>(entry.src_port)]
                             [static_cast<std::size_t>(port_)];
    if (decremented != hops) ok = false;
  } else if (decremented < 1 || decremented > degraded_max_hops_) {
    // After a reroute the as-built hop matrix no longer predicts the path
    // length (and in-flight packets may have taken the old path): accept
    // any plausible decrement count.
    ok = false;
  }
  if (header_.src != expected.src || header_.dst != expected.dst) ok = false;

  if (!ok) {
    ++dropped_invalid_;
    ledger_->credit_invalid();
    return;
  }
  ledger_->credit_delivered();
  ++delivered_packets_;
  delivered_bytes_ += header_.total_length;
  ++per_source_[static_cast<std::size_t>(src)];
  const double latency = static_cast<double>(chip.cycle() - entry.created);
  latency_.add(latency);
  latency_hist_.add(latency);
  if (ledger_->tracer != nullptr && ledger_->tracer->enabled()) {
    ledger_->tracer->record(uid, chip.cycle(), common::PacketEvent::kExitChip,
                            output_card_track(port_),
                            static_cast<std::uint32_t>(header_.total_length));
  }
}

TrunkEgressCard::TrunkEgressCard(sim::Channel* from_chip, int port, WordTx* tx)
    : from_chip_(from_chip), port_(port), tx_(tx) {
  RAW_ASSERT(from_chip_ != nullptr && tx_ != nullptr);
}

void TrunkEgressCard::step(sim::Chip& chip) {
  // Always drain the chip (the fabric must never see trunk backpressure),
  // then forward under link credit: at most one word each per cycle.
  if (from_chip_->can_read()) {
    queue_.push_back(from_chip_->read());
    peak_queued_ = std::max(peak_queued_, queue_.size());
  }
  if (!queue_.empty() && tx_->can_send(chip.cycle())) {
    tx_->send(queue_.front(), chip.cycle());
    queue_.pop_front();
    ++words_out_;
  }
}

TrunkIngressCard::TrunkIngressCard(sim::Channel* to_chip, int port, WordRx* rx)
    : to_chip_(to_chip), port_(port), rx_(rx) {
  RAW_ASSERT(to_chip_ != nullptr && rx_ != nullptr);
}

void TrunkIngressCard::step(sim::Chip& chip) {
  if (to_chip_->can_write() && rx_->has_word(chip.cycle())) {
    to_chip_->write(rx_->recv(chip.cycle()));
    ++words_in_;
  }
}

}  // namespace raw::router
