#include "common/trace_event.h"

#include <cstdio>

#include "common/assert.h"

namespace raw::common {

const char* packet_event_name(PacketEvent e) {
  switch (e) {
    case PacketEvent::kArrival: return "arrival";
    case PacketEvent::kHeadOfQueue: return "head_of_queue";
    case PacketEvent::kEnterChip: return "enter_chip";
    case PacketEvent::kLookupDone: return "lookup_done";
    case PacketEvent::kCrossbarGrant: return "crossbar_grant";
    case PacketEvent::kExitChip: return "exit_chip";
    case PacketEvent::kFault: return "fault";
  }
  return "?";
}

void PacketTracer::enable(std::size_t event_budget) {
  RAW_ASSERT_MSG(event_budget > 0, "tracer needs a positive event budget");
  enabled_ = true;
  budget_ = event_budget;
  head_ = 0;
  ring_.clear();
  ring_.reserve(event_budget);
  recorded_ = 0;
}

void PacketTracer::push(const Record& r) {
  ++recorded_;
  if (ring_.size() < budget_) {
    ring_.push_back(r);
    return;
  }
  ring_[head_] = r;  // overwrite the oldest: keep the most recent window
  head_ = (head_ + 1) % budget_;
}

void PacketTracer::set_track_name(int track, std::string name) {
  track_names_[track] = std::move(name);
}

std::vector<PacketTracer::Record> PacketTracer::events() const {
  std::vector<Record> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

std::string PacketTracer::chrome_json(double clock_hz) const {
  return "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[" +
         chrome_events_json(clock_hz) + "]}";
}

std::string PacketTracer::chrome_events_json(double clock_hz) const {
  const double us_per_cycle = 1e6 / clock_hz;
  std::string out;
  char buf[256];

  // Metadata: name the process and every track that has events or a label.
  out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
         "\"args\":{\"name\":\"rawswitch\"}}";
  std::map<int, std::string> tracks = track_names_;
  for (const Record& r : ring_) {
    tracks.emplace(r.track, "track" + std::to_string(r.track));
  }
  for (const auto& [track, name] : tracks) {
    std::snprintf(buf, sizeof buf,
                  ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
                  "\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
                  track, name.c_str());
    out += buf;
  }

  for (const Record& r : events()) {
    std::snprintf(buf, sizeof buf,
                  ",{\"name\":\"%s\",\"cat\":\"packet\",\"ph\":\"i\","
                  "\"s\":\"t\",\"ts\":%.4f,\"pid\":0,\"tid\":%d,"
                  "\"args\":{\"uid\":%llu,\"arg\":%lu}}",
                  packet_event_name(r.event),
                  static_cast<double>(r.cycle) * us_per_cycle, r.track,
                  static_cast<unsigned long long>(r.uid),
                  static_cast<unsigned long>(r.arg));
    out += buf;
  }
  return out;
}

}  // namespace raw::common
