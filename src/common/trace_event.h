// Packet-lifecycle event tracer.
//
// Components record per-packet lifecycle points (arrival at the line card,
// head of the card queue, header ingested by the chip, lookup reply,
// crossbar grant, exit from the chip) keyed by the packet ledger uid, onto
// one track per tile or port. Storage is a fixed-budget ring buffer: when
// the configured event budget fills, the oldest events are overwritten, so
// a long run keeps its most recent window and never reallocates. When the
// tracer is disabled (the default) `record()` is a single predicted branch,
// and instrumentation sites additionally gate on `enabled()` so hot paths
// pay nothing.
//
// The recorded window exports as Chrome trace_event JSON loadable in
// chrome://tracing or Perfetto, with one named thread (track) per tile and
// per line card and one instant event per lifecycle point.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.h"

namespace raw::common {

enum class PacketEvent : std::uint8_t {
  kArrival = 0,        // packet generated / queued at the input line card
  kHeadOfQueue = 1,    // first word reached the front of the card queue
  kEnterChip = 2,      // header fully ingested by the ingress tile
  kLookupDone = 3,     // LPM reply received by the ingress tile
  kCrossbarGrant = 4,  // crossbar granted words to this packet
  kExitChip = 5,       // packet reassembled and validated at the output card
  kFault = 6,          // injected fault fired (uid = fault ordinal, arg = kind)
};

const char* packet_event_name(PacketEvent e);

class PacketTracer {
 public:
  struct Record {
    std::uint64_t uid = 0;
    Cycle cycle = 0;
    PacketEvent event = PacketEvent::kArrival;
    std::int32_t track = 0;
    std::uint32_t arg = 0;  // event-specific (e.g. granted words)
  };

  /// Starts recording with a ring buffer of `event_budget` events.
  void enable(std::size_t event_budget);
  [[nodiscard]] bool enabled() const { return enabled_; }

  void record(std::uint64_t uid, Cycle cycle, PacketEvent event, int track,
              std::uint32_t arg = 0) {
    if (!enabled_) return;
    push(Record{uid, cycle, event, track, arg});
  }

  /// Events currently held (<= budget).
  [[nodiscard]] std::size_t size() const { return ring_.size(); }
  /// Total events ever recorded, including overwritten ones.
  [[nodiscard]] std::uint64_t recorded() const { return recorded_; }
  [[nodiscard]] std::uint64_t overwritten() const {
    return recorded_ - ring_.size();
  }

  /// Human-readable label for a track id, shown as the thread name in the
  /// trace viewer. Unnamed tracks render as "track<N>".
  void set_track_name(int track, std::string name);

  /// Events oldest-first.
  [[nodiscard]] std::vector<Record> events() const;

  /// Chrome trace_event JSON (JSON-object form with "traceEvents").
  /// Timestamps are microseconds: cycle / clock_hz * 1e6.
  [[nodiscard]] std::string chrome_json(double clock_hz = kRawClockHz) const;

  /// The comma-separated contents of the "traceEvents" array (metadata
  /// records then instant events) without the surrounding wrapper, so other
  /// exporters can merge additional tracks into one trace (see
  /// common::merged_chrome_json).
  [[nodiscard]] std::string chrome_events_json(double clock_hz = kRawClockHz) const;

 private:
  void push(const Record& r);

  bool enabled_ = false;
  std::size_t budget_ = 0;
  std::size_t head_ = 0;  // index of the oldest record once the ring is full
  std::vector<Record> ring_;
  std::uint64_t recorded_ = 0;
  std::map<int, std::string> track_names_;
};

}  // namespace raw::common
