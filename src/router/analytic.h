// Closed-form performance model of the Raw Router's peak rate (§7.4).
//
// At peak (no output contention) a port's packet rate is set by whichever
// is slower: the crossbar quantum (body words stream at one word/cycle plus
// a fixed per-quantum control overhead — header gather, ring exchange, rule
// evaluation, dispatch) or the ingress packet pipeline (header ingest,
// lookup RPC, TTL/checksum rewrite). Small packets are ingress-bound, large
// packets approach the static-network streaming limit — the efficiency
// trend of Figure 7-3.
#pragma once

#include <algorithm>

#include "common/types.h"

namespace raw::router {

struct AnalyticModel {
  /// Control cycles per routing quantum at the crossbar (preamble
  /// instructions + processor rule evaluation + dispatch writes).
  static constexpr common::Cycle quantum_overhead_cycles = 28;
  /// Serial per-packet cycles at the ingress (5-word header ingest, lookup
  /// round trip, header rewrite, local-header/grant exchange).
  static constexpr common::Cycle ingress_packet_cycles = 55;
  static constexpr int ports = 4;
  static constexpr double clock_hz = common::kRawClockHz;

  /// Cycles separating packet starts on one port at peak rate.
  [[nodiscard]] static common::Cycle cycles_per_packet(
      common::ByteCount bytes) {
    const common::Cycle words = common::words_for_bytes(bytes);
    return std::max(words + quantum_overhead_cycles, ingress_packet_cycles);
  }

  [[nodiscard]] static double peak_mpps(common::ByteCount bytes) {
    return static_cast<double>(ports) * clock_hz /
           static_cast<double>(cycles_per_packet(bytes)) / 1e6;
  }

  [[nodiscard]] static double peak_gbps(common::ByteCount bytes) {
    return peak_mpps(bytes) * static_cast<double>(bytes) * 8.0 / 1e3;
  }

  /// Streaming efficiency: fraction of a quantum the static network moves
  /// body words (what the Figure 7-3 utilization plot shows per tile).
  [[nodiscard]] static double link_efficiency(common::ByteCount bytes) {
    const auto words = static_cast<double>(common::words_for_bytes(bytes));
    return words / static_cast<double>(cycles_per_packet(bytes));
  }
};

}  // namespace raw::router
