#include "router/recovery.h"

#include <algorithm>
#include <span>

#include "common/assert.h"
#include "net/ipv4.h"
#include "sim/chip.h"
#include "sim/dynamic_network.h"
#include "sim/switch_isa.h"
#include "sim/tile_task.h"

namespace raw::router {
namespace {

using common::Word;
using sim::TileTask;
using sim::task::delay;
using sim::task::mem_delay;
using sim::task::read;
using sim::task::until_eject;
using sim::task::write;

// Degraded switch programs are one-instruction forward loops: a kJump back to
// itself carrying a single route. The move fires on every cycle where the
// source has a word and the destination has space, and stalls (with no side
// effects) otherwise, so the switch needs no flow-control code at all.
std::shared_ptr<const sim::SwitchProgram> forward_loop(sim::Dir src,
                                                       sim::Dir dst) {
  sim::SwitchInstr instr;
  instr.op = sim::CtrlOp::kJump;
  instr.imm = 0;
  instr.moves.push_back(sim::Move{.net = 0, .src = src, .dst = dst});
  return std::make_shared<const sim::SwitchProgram>(
      std::vector<sim::SwitchInstr>{instr});
}

std::shared_ptr<const sim::SwitchProgram> halt_program() {
  sim::SwitchInstr halt;
  halt.op = sim::CtrlOp::kHalt;
  return std::make_shared<const sim::SwitchProgram>(
      std::vector<sim::SwitchInstr>{halt});
}

// Degraded ingress: the tile's switch autonomously forwards every line word
// to $csti, so the program just consumes the stream — validate a header
// (sliding one word at a time to realign after corruption, like the normal
// ingress), look the route up *locally* (the lookup tile may be the dead
// one), and stream the packet to the destination port's egress tile as
// dynamic-network chunks. The hardware dyn routers do the actual switching,
// which is what makes this immune to frozen switch programs along the way.
TileTask degraded_ingress_body(RouterCore& core, int port,
                               std::array<bool, kNumPorts> tx_live) {
  sim::Chip& chip = *core.chip;
  const PortTiles tiles = core.layout->port(port);
  sim::Channel& csti = chip.tile(tiles.ingress).csti(0);
  sim::DynamicNetwork& dyn = chip.dynamic_network();
  PortCounters& ctr = core.counters[static_cast<std::size_t>(port)];

  HeaderWords win{};
  std::size_t held = 0;
  bool aligned = true;  // false while hunting for a header after corruption
  std::vector<Word> pkt;

  for (;;) {
    while (held < net::Ipv4Header::kWords) win[held++] = co_await read(csti);

    co_await delay(kHeaderProcCost);  // checksum verify + TTL
    const std::optional<net::Ipv4Header> judged =
        judge_header(core, port, win, aligned, win, held);
    aligned = judged.has_value();
    if (!aligned) continue;
    held = 0;
    net::Ipv4Header hdr = *judged;
    ++ctr.packets_in;
    const bool tracing = core.tracer != nullptr && core.tracer->enabled();
    const std::uint64_t trace_uid = tracing ? uid_of(hdr) : 0;
    if (tracing) {
      core.tracer->record(trace_uid, chip.cycle(),
                          common::PacketEvent::kEnterChip, tiles.ingress);
    }

    const std::uint32_t total_words =
        static_cast<std::uint32_t>(common::words_for_bytes(hdr.total_length));
    const auto payload_words =
        static_cast<std::uint32_t>(total_words - net::Ipv4Header::kWords);

    bool drop = false;
    if (!net::decrement_ttl(hdr)) {
      ++ctr.ttl_drops;
      drop = true;
    }

    Word out_port = kNoRoute;
    if (!drop) {
      // Local lookup on the ingress tile (the port's lookup tile may be the
      // dead one), with the same modelled table-access cost.
      const auto result = core.forwarding->lookup(hdr.dst);
      const unsigned lines = result.has_value()
                                 ? static_cast<unsigned>(result->accesses)
                                 : kLookupLines;
      co_await mem_delay(
          kTileMemory.table_access_cost(lines, kLookupMissRatio));
      ++ctr.lookups;
      out_port = result.has_value() ? static_cast<Word>(result->value) : kNoRoute;
      if (tracing) {
        core.tracer->record(trace_uid, chip.cycle(),
                            common::PacketEvent::kLookupDone, tiles.ingress,
                            out_port);
      }
      if (out_port == kNoRoute) {
        ++ctr.no_route_drops;
        drop = true;
      }
    }
    if (!drop && !tx_live[out_port]) {
      ++ctr.dead_port_drops;  // destination egress tile died
      drop = true;
    }

    if (drop) {
      // Validated header, trusted length: consume and discard the payload
      // still arriving, and release the ledger entry.
      if (core.ledger != nullptr) {
        (void)core.ledger->erase_ingress(uid_of(hdr));
      }
      for (std::uint32_t i = 0; i < payload_words; ++i) {
        (void)co_await read(csti);
      }
      continue;
    }

    pkt.clear();
    const auto hdr_words = net::serialize(hdr);
    pkt.assign(hdr_words.begin(), hdr_words.end());
    for (std::uint32_t i = 0; i < payload_words; ++i) {
      pkt.push_back(co_await read(csti));
    }

    const int dest_tile = core.layout->port(static_cast<int>(out_port)).egress;
    std::size_t sent = 0;
    while (sent < pkt.size()) {
      const auto chunk = static_cast<std::uint32_t>(std::min<std::size_t>(
          sim::kMaxDynPayloadWords, pkt.size() - sent));
      while (!dyn.can_inject(tiles.ingress, chunk)) co_await delay(1);
      dyn.inject(tiles.ingress, dest_tile,
                  std::span<const Word>(pkt.data() + sent, chunk));
      ++ctr.fragments;
      sent += chunk;
    }
    // One "grant" per packet forwarded: the starvation watchdog keys on
    // per-port grant counts, and a degraded port that moves packets is by
    // definition not starved.
    ++ctr.grants;
  }
}

// Degraded egress: reassembles dynamic-network chunks per source port (a
// worm delivers contiguously, so the `len` words after a header word belong
// to that chunk; chunks from one source arrive in order on the fixed
// dimension-ordered path) and emits only whole packets to $csto, which the
// forward-loop switch drains to the output line card. Buffering charges the
// usual two cycles a word (store + load, §4.4).
TileTask degraded_egress_body(RouterCore& core, int port) {
  sim::Chip& chip = *core.chip;
  const PortTiles tiles = core.layout->port(port);
  sim::Channel& csto = chip.tile(tiles.egress).csto(0);
  sim::DynamicNetwork& dyn = chip.dynamic_network();
  PortCounters& ctr = core.counters[static_cast<std::size_t>(port)];

  std::array<std::vector<Word>, kNumPorts> reassembly;
  std::size_t buffered_words = 0;

  for (;;) {
    co_await until_eject(dyn, tiles.egress);
    const Word header = dyn.pop_eject(tiles.egress);
    const int src_tile = sim::dyn_header_src(header);
    const std::uint32_t len = sim::dyn_header_len(header);
    int src_port = -1;
    for (int p = 0; p < kNumPorts; ++p) {
      if (core.layout->port(p).ingress == src_tile) src_port = p;
    }
    RAW_ASSERT_MSG(src_port >= 0,
                   "degraded egress: chunk from a non-ingress tile");
    auto& buf = reassembly[static_cast<std::size_t>(src_port)];
    for (std::uint32_t i = 0; i < len; ++i) {
      co_await until_eject(dyn, tiles.egress);
      buf.push_back(dyn.pop_eject(tiles.egress));
      co_await delay(1);  // store into dmem
      ++buffered_words;
    }
    RAW_ASSERT_MSG(buffered_words <= sim::kTileDmemWords,
                   "degraded reassembly exceeds tile data memory");

    // Emit every complete packet at the front of this source's buffer. The
    // header was validated at the degraded ingress, so its length is
    // trusted; the structural re-check only guards against a logic slip
    // upstream (payload corruption passes through and is caught by the
    // output card's end-to-end validation).
    while (buf.size() >= net::Ipv4Header::kWords) {
      const net::Ipv4Header hdr =
          net::parse(std::span<const Word, net::Ipv4Header::kWords>(
              buf.data(), net::Ipv4Header::kWords));
      if (hdr.version != 4 || hdr.ihl != 5 ||
          hdr.total_length < net::Ipv4Header::kBytes) {
        ++ctr.resync_slides;
        buf.erase(buf.begin());
        --buffered_words;
        continue;
      }
      const std::size_t total = common::words_for_bytes(hdr.total_length);
      if (buf.size() < total) break;
      for (std::size_t i = 0; i < total; ++i) {
        co_await delay(1);  // load from dmem
        co_await write(csto, buf[i]);
      }
      buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(total));
      buffered_words -= total;
      ++ctr.cut_through;
    }
  }
}

}  // namespace

std::string RecoveryReport::to_string() const {
  // Sequential appends: GCC 12 -Wrestrict false-positives on
  // operator+(const char*, std::string&&) chains (see config_space.cc).
  std::string s = "recovery gen ";
  s += std::to_string(generation);
  s += " @";
  s += std::to_string(reconfigured_at);
  s += " dead=[";
  for (std::size_t i = 0; i < dead_tiles.size(); ++i) {
    if (i > 0) s += ',';
    s += std::to_string(dead_tiles[i]);
  }
  s += "] lost_rx=";
  s += std::to_string(lost_rx_ports.size());
  s += " lost_tx=";
  s += std::to_string(lost_tx_ports.size());
  s += " written_off=";
  s += std::to_string(written_off);
  return s;
}

RecoveryReport reconfigure_degraded(
    RouterCore& core, PacketLedger& ledger,
    std::array<std::unique_ptr<InputLineCard>, kNumPorts>& inputs,
    std::array<std::unique_ptr<OutputLineCard>, kNumPorts>& outputs,
    const std::vector<int>& dead, int generation) {
  sim::Chip& chip = *core.chip;
  RAW_ASSERT_MSG(!dead.empty(), "reconfigure_degraded with no dead tiles");

  RecoveryReport report;
  report.generation = generation;
  report.reconfigured_at = chip.cycle();
  report.dead_tiles = dead;
  for (const auto& out : outputs) {
    report.delivered_at_reconfigure += out->delivered_packets();
  }

  const auto is_dead = [&dead](int t) {
    return std::find(dead.begin(), dead.end(), t) != dead.end();
  };
  std::array<bool, kNumPorts> rx_live{};
  std::array<bool, kNumPorts> tx_live{};
  for (int p = 0; p < kNumPorts; ++p) {
    rx_live[static_cast<std::size_t>(p)] = !is_dead(core.layout->port(p).ingress);
    tx_live[static_cast<std::size_t>(p)] = !is_dead(core.layout->port(p).egress);
    if (!rx_live[static_cast<std::size_t>(p)]) report.lost_rx_ports.push_back(p);
    if (!tx_live[static_cast<std::size_t>(p)]) report.lost_tx_ports.push_back(p);
  }

  // 1. Return every parked agent to the runnable set so the engine
  // revalidates everything against the rebuilt state.
  chip.prepare_reconfigure();

  // 2. Unload every tile: coroutines are destroyed, switches land on a halt
  // program (frozen tiles never step again, but their state is inert either
  // way).
  const auto halt = halt_program();
  for (int t = 0; t < chip.num_tiles(); ++t) {
    chip.tile(t).set_program({});
    chip.tile(t).switch_proc().load(halt);
  }

  // 3. Drop every in-flight word: all static channels (links, edge ports,
  // tile FIFOs) and the dynamic network. The words lost here are accounted
  // for by the ledger write-off below.
  for (sim::Channel* ch : chip.all_channels()) ch->reset_contents();
  (void)chip.dynamic_network().reset();

  // 4. Line-card surgery. Live input ports drop only their torn front packet
  // (its head died in the fabric); dead ones flush entirely and stop
  // arrivals. Every in-flight ledger entry not safely queued at a live input
  // card died with the fabric and is written off as lost.
  std::vector<std::uint64_t> keep;
  for (int p = 0; p < kNumPorts; ++p) {
    InputLineCard& in = *inputs[static_cast<std::size_t>(p)];
    if (rx_live[static_cast<std::size_t>(p)]) {
      report.written_off += in.drop_partial_front();
      in.collect_queued_uids(keep);
    } else {
      report.written_off += in.flush_and_stop();
    }
    outputs[static_cast<std::size_t>(p)]->reset_framing();
  }
  std::sort(keep.begin(), keep.end());
  std::vector<std::uint64_t> doomed;
  for (const auto& [uid, entry] : ledger.in_flight) {
    if (!std::binary_search(keep.begin(), keep.end(), uid)) doomed.push_back(uid);
  }
  for (const std::uint64_t uid : doomed) {
    if (ledger.write_off(uid)) ++report.written_off;
  }

  // 5. Install the degraded fabric on the surviving port tiles.
  for (int p = 0; p < kNumPorts; ++p) {
    const PortTiles tiles = core.layout->port(p);
    const PortEdges edges = core.layout->edges(p);
    if (rx_live[static_cast<std::size_t>(p)]) {
      chip.tile(tiles.ingress)
          .switch_proc()
          .load(forward_loop(edges.ingress_edge, sim::Dir::kProc));
      chip.tile(tiles.ingress)
          .set_program(degraded_ingress_body(core, p, tx_live));
    }
    if (tx_live[static_cast<std::size_t>(p)]) {
      chip.tile(tiles.egress)
          .switch_proc()
          .load(forward_loop(sim::Dir::kProc, edges.egress_edge));
      chip.tile(tiles.egress).set_program(degraded_egress_body(core, p));
    }
  }
  return report;
}

}  // namespace raw::router
