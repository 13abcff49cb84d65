// Behavioural tile-processor programs of the Raw Router (§4.2, §6.5).
//
// build_router_chip installs one coroutine per tile; the companion switch
// programs come from the ScheduleCompiler. The run-time protocol per
// routing quantum is:
//
//   ingress:   sends one local header (possibly EMPTY) to its crossbar tile,
//              receives a grant word (words to stream now, 0 = hold), then
//              streams the granted words — re-sent IP-header words from the
//              processor, payload cut-through from the line-card edge port.
//   crossbar:  receives the local header, circulates all headers around the
//              ring, evaluates the *same* global rule as everyone else
//              (token = synchronous local counter), returns the grant, picks
//              the switch-code block for its minimized configuration and
//              loads its address into the switch PC, and sends a descriptor
//              ahead of any stream feeding its egress.
//   lookup:    serves longest-prefix-match requests from its ingress over
//              the dynamic network (route table access costs are charged
//              via the memory model).
//   egress:    consumes descriptors; cut-throughs whole packets to the
//              output line, buffers fragments in data memory (two cycles a
//              word, §4.4) and drains reassembled packets.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>

#include "common/trace_event.h"
#include "common/types.h"
#include "net/ipv4.h"
#include "net/route_table.h"
#include "net/small_table.h"
#include "router/layout.h"
#include "router/schedule_compiler.h"
#include "sim/chip.h"
#include "sim/memory_model.h"
#include "sim/tile_task.h"

namespace raw::router {

/// Tunables of the router programs (costs from the thesis's constraints).
struct RuntimeConfig {
  /// Largest fragment streamed in one quantum (words). 256 words = 1,024
  /// bytes: the thesis's largest benchmarked packet crosses in one quantum.
  std::uint32_t quantum_max_words = 256;
  RuleOptions rule;
  /// §8.7 weighted-token QoS: quanta the token stays with each port.
  std::array<std::uint32_t, kNumPorts> token_weights{1, 1, 1, 1};
  /// Ablation (§5.4): false freezes the token on port 0, reproducing the
  /// starvation behaviour of non-token (fixed-priority) arbitration.
  bool rotate_token = true;
  sim::MemoryModel memory;
  /// Route-table accesses per lookup and their cache-miss ratio (a
  /// Degermark-style small forwarding table, [6] in the thesis).
  unsigned lookup_lines = 2;
  double lookup_miss_ratio = 0.05;
  /// Cycles the crossbar processor spends indexing the configuration jump
  /// table (§6.5) once all headers are in.
  common::Cycle rule_eval_cost = 6;
  /// Cycles the ingress processor spends on checksum verify + TTL update.
  common::Cycle header_proc_cost = 4;
};

/// Counters shared between the programs and the harness.
struct PortCounters {
  std::uint64_t quanta = 0;            // crossbar quanta processed
  std::uint64_t grants = 0;            // quanta in which this input sent
  std::uint64_t denials = 0;           // non-empty header, no grant
  std::uint64_t empty_headers = 0;     // quanta with nothing to send
  std::uint64_t packets_in = 0;        // packets ingested at the ingress
  std::uint64_t fragments = 0;         // fragments streamed by the ingress
  std::uint64_t lookups = 0;           // LPM requests served
  std::uint64_t ttl_drops = 0;         // expired packets dropped at ingress
  std::uint64_t no_route_drops = 0;    // no LPM match
  std::uint64_t malformed_drops = 0;   // failed the ingress integrity check
  std::uint64_t resync_slides = 0;     // words discarded realigning on a header
  std::uint64_t reassembled = 0;       // multi-fragment packets re-built
  std::uint64_t cut_through = 0;       // whole packets streamed directly
  std::uint64_t out_descs = 0;         // descriptors sent toward the egress
  std::uint64_t out_words = 0;         // body words promised to the egress
  std::uint64_t dead_port_drops = 0;   // degraded mode: destination tx died
};

struct PacketLedger;

struct RouterCore {
  sim::Chip* chip = nullptr;
  const Layout* layout = nullptr;
  const net::RouteTable* table = nullptr;
  /// Compiled SmallTable snapshot of `table` (§8.2 / Degermark [6]); the
  /// Lookup Processors consult this and charge its bounded access counts.
  const net::SmallTable* forwarding = nullptr;
  RuntimeConfig config;
  std::array<PortCounters, kNumPorts> counters{};
  /// Optional packet-lifecycle tracer (enter-chip / lookup-done /
  /// crossbar-grant events); null or disabled costs one branch per packet.
  common::PacketTracer* tracer = nullptr;
  /// Simulation-side conservation accounting: ingress drops (TTL, no-route,
  /// malformed) erase the packet's in-flight entry here. Null in unit tests
  /// that drive programs without line cards.
  PacketLedger* ledger = nullptr;
};

/// The compiled switch schedules of the four ports. They depend only on the
/// layout, so one set serves every chip built on it.
struct PortSchedules {
  std::array<CrossbarSchedule, kNumPorts> crossbar;
  std::array<IngressSchedule, kNumPorts> ingress;
  std::array<EgressSchedule, kNumPorts> egress;
};

PortSchedules compile_port_schedules(const ScheduleCompiler& compiler);

/// Output port of a lookup that found no route.
inline constexpr common::Word kNoRoute = 0xffffffffu;

using HeaderWords = std::array<common::Word, net::Ipv4Header::kWords>;

/// The header judge of the normal and the degraded ingress (the caller
/// charges header_proc_cost first): returns the header when `words` passes
/// the structural check and the checksum. Otherwise the claimed length is
/// untrustworthy: a candidate from a trusted packet boundary (`aligned`)
/// counts a malformed drop and erases its uid's ledger entry (best effort),
/// any other a resync slide, and the window slides one word (`win`, which
/// may be `words` itself, gets words[1..]; `held` becomes kWords - 1).
std::optional<net::Ipv4Header> judge_header(RouterCore& core, int port,
                                            const HeaderWords& words,
                                            bool aligned, HeaderWords& win,
                                            std::size_t& held);

/// Builds one router chip: a 4x4 grid with the dynamic network (the lookup
/// RPC path) and edge FIFOs of `link_fifo_depth` words. Points `core.chip`
/// and `core.layout` at it, then loads every port's three switch schedules
/// and four tile programs. The caller fills in the rest of `core` (tables,
/// runtime config, ledger) beforehand and attaches the line cards after.
std::unique_ptr<sim::Chip> build_router_chip(RouterCore& core,
                                             const Layout& layout,
                                             const PortSchedules& schedules,
                                             std::size_t link_fifo_depth);

}  // namespace raw::router
