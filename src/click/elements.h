// The standard elements of a Click IP router configuration, with per-packet
// cycle costs calibrated to the measurements in the Click papers (a ~700 MHz
// PC forwards ~330 kpps through the full IP path, i.e. ~2,100 cycles per
// packet across the chain, dominated by FromDevice/ToDevice and the route
// lookup).
#pragma once

#include <deque>

#include "click/element.h"
#include "net/route_table.h"

namespace raw::click {

/// Per-element cycle costs (one packet traversal).
struct ElementCosts {
  common::Cycle from_device = 540;     // DMA ring + buffer allocation
  common::Cycle classifier = 70;       // ethertype dispatch
  common::Cycle check_ip_header = 155;  // parse + checksum verify
  common::Cycle lookup_ip_route = 140;  // table probe (warm cache)
  common::Cycle dec_ip_ttl = 55;        // TTL + incremental checksum
  common::Cycle queue_op = 85;          // enqueue + dequeue pair
  common::Cycle to_device = 640;        // descriptor + DMA + free
  /// Memory-bus cost for touching payloads (cycles per byte moved across
  /// the PCI/memory path at the device edges).
  double per_byte = 0.4;
};

/// Source: the test harness deposits packets here; FromDevice charges the
/// device-driver receive cost and pushes downstream.
class FromDevice : public Element {
 public:
  FromDevice(std::string name, const ElementCosts& costs);

  /// Harness-side: offer one received packet.
  void deposit(net::Packet p) { rx_.push_back(std::move(p)); }

  /// Runs one scheduler pass: take a packet off the DMA ring and push it.
  /// Returns false if the ring was empty.
  bool run();

 private:
  const ElementCosts& costs_;
  std::deque<net::Packet> rx_;
};

/// Validates the IP header (checksum, version, length); drops bad packets.
class CheckIPHeader : public Element {
 public:
  CheckIPHeader(std::string name, const ElementCosts& costs);
  void push(int port, net::Packet p) override;

  [[nodiscard]] std::uint64_t drops() const { return drops_; }

 private:
  const ElementCosts& costs_;
  std::uint64_t drops_ = 0;
};

/// Longest-prefix-match; sets the packet's output port and pushes to the
/// matching output. No-route packets drop.
class LookupIPRoute : public Element {
 public:
  LookupIPRoute(std::string name, const ElementCosts& costs,
                const net::RouteTable* table);
  void push(int port, net::Packet p) override;

  [[nodiscard]] std::uint64_t drops() const { return drops_; }

 private:
  const ElementCosts& costs_;
  const net::RouteTable* table_;
  std::uint64_t drops_ = 0;
};

/// Decrements TTL with the RFC 1624 incremental checksum update; expired
/// packets drop (the real element emits ICMP, which we count as a drop).
class DecIPTTL : public Element {
 public:
  DecIPTTL(std::string name, const ElementCosts& costs);
  void push(int port, net::Packet p) override;

  [[nodiscard]] std::uint64_t drops() const { return drops_; }

 private:
  const ElementCosts& costs_;
  std::uint64_t drops_ = 0;
};

/// The push-to-pull boundary.
class Queue : public Element {
 public:
  Queue(std::string name, const ElementCosts& costs, std::size_t capacity);
  void push(int port, net::Packet p) override;
  std::optional<net::Packet> pull(int port) override;

  [[nodiscard]] std::size_t size() const { return q_.size(); }
  [[nodiscard]] std::uint64_t drops() const { return drops_; }

 private:
  const ElementCosts& costs_;
  std::size_t capacity_;
  std::deque<net::Packet> q_;
  std::uint64_t drops_ = 0;
};

/// Sink: pulls from its upstream Queue, charges transmit cost and the
/// per-byte bus cost, and counts deliveries.
class ToDevice : public Element {
 public:
  ToDevice(std::string name, const ElementCosts& costs, Queue* upstream);

  /// One scheduler pass: transmit one packet if available.
  bool run();

  [[nodiscard]] std::uint64_t sent_packets() const { return sent_packets_; }
  [[nodiscard]] common::ByteCount sent_bytes() const { return sent_bytes_; }

 private:
  const ElementCosts& costs_;
  Queue* upstream_;
  std::uint64_t sent_packets_ = 0;
  common::ByteCount sent_bytes_ = 0;
};

}  // namespace raw::click
