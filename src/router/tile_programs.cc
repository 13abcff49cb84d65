#include "router/tile_programs.h"

#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/assert.h"
#include "net/ipv4.h"
#include "router/header.h"
#include "router/line_cards.h"
#include "sim/dynamic_network.h"

namespace raw::router {
namespace {

using common::Cycle;
using common::Word;
using sim::TileTask;
using sim::task::delay;
using sim::task::mem_delay;
using sim::task::read;
using sim::task::until_eject;
using sim::task::until_words;
using sim::task::write;

// Sends a (block address, word count) command to the tile's switch.
#define RAW_CMD(csto_, addr_, count_)             \
  do {                                            \
    co_await write((csto_), (addr_));             \
    co_await write((csto_), (count_));            \
  } while (false)

TileTask ingress_body(RouterCore& core, int port, IngressSchedule s) {
  sim::Chip& chip = *core.chip;
  const PortTiles tiles = core.layout->port(port);
  sim::Tile& tile = chip.tile(tiles.ingress);
  sim::Channel& csto = tile.csto(0);
  sim::Channel& csti = tile.csti(0);
  sim::Channel* edge = chip.io_port(0, tiles.ingress,
                                    core.layout->edges(port).ingress_edge)
                           .to_chip;
  sim::DynamicNetwork& dyn = chip.dynamic_network();
  PortCounters& ctr = core.counters[static_cast<std::size_t>(port)];

  struct Pending {
    bool active = false;
    std::uint64_t uid = 0;  // ledger uid, for lifecycle tracing
    std::uint32_t out_mask = 0;
    std::uint32_t remaining = 0;   // words still to send (incl. header words)
    std::uint32_t total = 0;       // total words of the packet
    std::uint32_t hdr_sent = 0;    // of the 5 re-written IP header words
    std::array<Word, net::Ipv4Header::kWords> hdr_words{};
  } pkt;

  // Words of line input the processor has already directed its switch to
  // consume (ingests, drops, payload cut-through). The line interface's
  // framing counter (modelled by the channel's arrival count) minus this
  // tells whether a *new* packet's header has fully arrived — commanding an
  // ingest before that would stall the switch and, with it, the whole ring.
  std::uint64_t commanded = 0;

  // Resynchronisation window. After a malformed header the claimed length
  // cannot be trusted, so stream alignment is unknown: the last kWords-1
  // candidate words are held here and the ingress slides forward one word at
  // a time until a checksum-valid header lines up again. Words are only
  // ingested when already at the edge, so realignment never blocks the
  // switch (and with it the quantum ring) on a word that may never come.
  HeaderWords win{};
  std::size_t held = 0;

  for (;;) {
    bool have_candidate = false;
    bool aligned = false;  // candidate came from a trusted packet boundary
    HeaderWords raw{};

    if (!pkt.active && held == 0) {
      // Let the line deliver everything already committed to the switch —
      // this cannot outlast the body transfer itself (same words) — so the
      // next-header decision is made at body-end time, not quantum-start.
      co_await until_words(*edge, commanded);
      // Grace window: a back-to-back packet's first word lands within a
      // couple of cycles of the previous tail; only a truly idle line makes
      // us advertise an empty input.
      for (int grace = 0; grace < 4 && edge->words_transferred() == commanded;
           ++grace) {
        co_await delay(1);
      }
      if (edge->words_transferred() > commanded) {
        // A new packet has started arriving; its header completes within a
        // few cycles (the line card sends packets contiguously).
        co_await until_words(*edge, commanded + net::Ipv4Header::kWords);
      }
      if (edge->words_transferred() >= commanded + net::Ipv4Header::kWords) {
        // A full IP header is waiting on the line: ingest it.
        RAW_CMD(csto, s.ingest_header, net::Ipv4Header::kWords);
        commanded += net::Ipv4Header::kWords;
        for (auto& w : raw) w = co_await read(csti);
        have_candidate = true;
        aligned = true;
      }
    } else if (!pkt.active) {
      // Realigning: top the window up with whatever has already arrived,
      // then judge it. If the line is quiet the quantum participation below
      // keeps the ring turning.
      while (held < net::Ipv4Header::kWords &&
             edge->words_transferred() > commanded) {
        RAW_CMD(csto, s.ingest_header, 1);
        ++commanded;
        win[held++] = co_await read(csti);
      }
      if (held == net::Ipv4Header::kWords) {
        raw = win;
        held = 0;
        have_candidate = true;
      }
    }

    if (have_candidate) {
      co_await delay(kHeaderProcCost);  // checksum verify + TTL
      const std::optional<net::Ipv4Header> judged =
          judge_header(core, port, raw, aligned, win, held);
      if (!judged.has_value()) continue;
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
      const auto payload_words = static_cast<std::uint32_t>(
          total_words - net::Ipv4Header::kWords);

      bool drop = false;
      if (!net::decrement_ttl(hdr)) {
        ++ctr.ttl_drops;
        drop = true;
      }

      Word out_port = kNoRoute;
      if (!drop) {
        // Route lookup RPC to the Lookup Processor over the dynamic network.
        const std::array<Word, 1> req{hdr.dst};
        while (!dyn.can_inject(tiles.ingress, 1)) co_await delay(1);
        dyn.inject(tiles.ingress, tiles.lookup, req);
        co_await until_eject(dyn, tiles.ingress);
        (void)dyn.pop_eject(tiles.ingress);  // reply header word
        co_await until_eject(dyn, tiles.ingress);
        out_port = dyn.pop_eject(tiles.ingress);
        if (tracing) {
          core.tracer->record(trace_uid, chip.cycle(),
                              common::PacketEvent::kLookupDone, tiles.lookup,
                              out_port);
        }
        if (out_port == kNoRoute) {
          ++ctr.no_route_drops;
          drop = true;
        }
      }

      if (drop) {
        // The header validated, so its length is trusted: consume and
        // discard the payload still on the line, and release the ledger
        // entry (the packet will never reach an output card).
        if (core.ledger != nullptr) {
          (void)core.ledger->erase_ingress(uid_of(hdr));
        }
        if (payload_words > 0) {
          RAW_CMD(csto, s.ingest_header, payload_words);
          commanded += payload_words;
          for (std::uint32_t i = 0; i < payload_words; ++i) {
            (void)co_await read(csti);
          }
        }
      } else {
        pkt.active = true;
        pkt.uid = uid_of(hdr);
        pkt.out_mask = 1u << out_port;
        pkt.remaining = total_words;
        pkt.total = total_words;
        pkt.hdr_sent = 0;
        pkt.hdr_words = net::serialize(hdr);
      }
      continue;  // re-check for another header before joining the quantum
    }

    // Participate in the routing quantum: one local header, one grant.
    LocalHeader lh;
    if (pkt.active) {
      lh.out_mask = pkt.out_mask;
      lh.words = pkt.remaining;
      lh.first = pkt.remaining == pkt.total;
    }
    RAW_CMD(csto, s.send_header, 0);
    co_await write(csto, lh.encode());
    const Word grant = co_await read(csti);

    if (grant > 0) {
      RAW_ASSERT_MSG(pkt.active && grant <= pkt.remaining,
                     "crossbar granted more than requested");
      if (core.tracer != nullptr && core.tracer->enabled()) {
        core.tracer->record(pkt.uid, chip.cycle(),
                            common::PacketEvent::kCrossbarGrant, tiles.crossbar,
                            grant);
      }
      std::uint32_t left = grant;
      const std::uint32_t from_proc =
          std::min<std::uint32_t>(net::Ipv4Header::kWords - pkt.hdr_sent, left);
      if (from_proc > 0) {
        RAW_CMD(csto, s.stream_proc, from_proc);
        for (std::uint32_t i = 0; i < from_proc; ++i) {
          co_await write(csto, pkt.hdr_words[pkt.hdr_sent + i]);
        }
        pkt.hdr_sent += from_proc;
        left -= from_proc;
      }
      if (left > 0) {
        // Payload cut-through: line card -> ingress switch -> crossbar.
        RAW_CMD(csto, s.stream_edge, left);
        commanded += left;
      }
      pkt.remaining -= grant;
      ++ctr.fragments;
      if (pkt.remaining == 0) pkt.active = false;
    }
  }
}

TileTask lookup_body(RouterCore& core, int port) {
  sim::Chip& chip = *core.chip;
  const PortTiles tiles = core.layout->port(port);
  sim::DynamicNetwork& dyn = chip.dynamic_network();
  PortCounters& ctr = core.counters[static_cast<std::size_t>(port)];

  for (;;) {
    co_await until_eject(dyn, tiles.lookup);
    const Word header = dyn.pop_eject(tiles.lookup);
    const int reply_to = sim::dyn_header_src(header);
    co_await until_eject(dyn, tiles.lookup);
    const Word addr = dyn.pop_eject(tiles.lookup);

    // Consult the compiled small forwarding table and charge one cache-line
    // touch per table access it reports (at most three, §8.2 / Degermark).
    const auto result = core.forwarding->lookup(addr);
    const unsigned lines = result.has_value()
                               ? static_cast<unsigned>(result->accesses)
                               : kLookupLines;
    co_await mem_delay(kTileMemory.table_access_cost(lines, kLookupMissRatio));
    ++ctr.lookups;

    const std::array<Word, 1> reply{
        result.has_value() ? static_cast<Word>(result->value) : kNoRoute};
    while (!dyn.can_inject(tiles.lookup, 1)) co_await delay(1);
    dyn.inject(tiles.lookup, reply_to, reply);
  }
}

TileTask crossbar_body(RouterCore& core, int port, CrossbarSchedule s) {
  sim::Chip& chip = *core.chip;
  const PortTiles tiles = core.layout->port(port);
  sim::Tile& tile = chip.tile(tiles.crossbar);
  sim::Channel& csto = tile.csto(0);
  sim::Channel& csti = tile.csti(0);
  PortCounters& ctr = core.counters[static_cast<std::size_t>(port)];
  const int me = Layout::ring_position(port);

  int token = 0;
  std::uint32_t weight_used = 0;

  for (;;) {
    // Local header, then the three foreign headers from the ring exchange
    // (clockwise circulation delivers ring positions me-1, me-2, me-3).
    std::array<LocalHeader, kNumPorts> headers{};
    const Word own = co_await read(csti);
    co_await write(csto, own);  // re-emit for the ring exchange
    headers[static_cast<std::size_t>(me)] = LocalHeader::decode(own);
    for (int k = 1; k < kNumPorts; ++k) {
      const int from = ((me - k) % kNumPorts + kNumPorts) % kNumPorts;
      headers[static_cast<std::size_t>(from)] =
          LocalHeader::decode(co_await read(csti));
    }

    // Every tile evaluates the same rule on the same inputs (§6.5: a jump
    // table indexed while the previous body still streams).
    co_await delay(kRuleEvalCost);
    std::array<HeaderReq, kNumPorts> reqs;
    for (int i = 0; i < kNumPorts; ++i) {
      reqs[static_cast<std::size_t>(i)] =
          headers[static_cast<std::size_t>(i)].to_request();
    }
    const RingConfig cfg = evaluate_rule(
        reqs, token, RuleOptions{.quantum_cap = core.config.quantum_max_words});

    const TileConfig tc = project(cfg, reqs, me);
    ++ctr.quanta;
    if (headers[static_cast<std::size_t>(me)].empty()) {
      ++ctr.empty_headers;
    } else if (cfg.granted[static_cast<std::size_t>(me)]) {
      ++ctr.grants;
    } else {
      ++ctr.denials;
    }

    // Per-server stream lengths: the granted fragment of each server's
    // source input. Streams are independent; the block's phases drop each
    // one as its count expires.
    std::array<std::uint32_t, 3> server_words{};
    const int out_src = cfg.egress[static_cast<std::size_t>(me)];
    const int cw_src = cfg.cw_edge[static_cast<std::size_t>(me)];
    const int ccw_src = cfg.ccw_edge[static_cast<std::size_t>(me)];
    if (out_src >= 0) {
      server_words[0] = cfg.grant_words[static_cast<std::size_t>(out_src)];
    }
    if (cw_src >= 0) {
      server_words[1] = cfg.grant_words[static_cast<std::size_t>(cw_src)];
    }
    if (ccw_src >= 0) {
      server_words[2] = cfg.grant_words[static_cast<std::size_t>(ccw_src)];
    }

    const Word grant = cfg.grant_words[static_cast<std::size_t>(me)];
    const CrossbarSchedule::Dispatch dispatch = s.dispatch_for(tc, server_words);
    co_await write(csto, grant);
    co_await write(csto, dispatch.address);
    co_await write(csto, dispatch.counts[0]);
    co_await write(csto, dispatch.counts[1]);
    co_await write(csto, dispatch.counts[2]);

    if (tc.out != Client::kNone) {
      ++ctr.out_descs;
      ctr.out_words += server_words[0];
      const LocalHeader& sh = headers[static_cast<std::size_t>(out_src)];
      EgressDescriptor desc;
      desc.words = server_words[0];
      desc.src_port = static_cast<std::uint32_t>(out_src);
      desc.first = sh.first;
      desc.last = server_words[0] == sh.words;
      co_await write(csto, desc.encode());
    }

    // Weighted token rotation (§8.7): the token stays with a port for
    // `token_weights[port]` quanta before moving on.
    if (core.config.rotate_token &&
        ++weight_used >=
            core.config.token_weights[static_cast<std::size_t>(token)]) {
      weight_used = 0;
      token = (token + 1) % kNumPorts;
    }
  }
}

TileTask egress_body(RouterCore& core, int port, EgressSchedule s) {
  sim::Chip& chip = *core.chip;
  const PortTiles tiles = core.layout->port(port);
  sim::Tile& tile = chip.tile(tiles.egress);
  sim::Channel& csto = tile.csto(0);
  sim::Channel& csti = tile.csti(0);
  PortCounters& ctr = core.counters[static_cast<std::size_t>(port)];

  std::array<std::vector<Word>, kNumPorts> reassembly;
  std::size_t buffered_words = 0;

  for (;;) {
    RAW_CMD(csto, s.recv_desc, 0);
    const EgressDescriptor desc = EgressDescriptor::decode(co_await read(csti));
    RAW_ASSERT_MSG(desc.words >= 5 && desc.src_port < kNumPorts,
                   "malformed egress descriptor: upstream framing slipped");

    if (desc.first && desc.last) {
      // Whole packet in one fragment: cut it straight through to the line.
      RAW_CMD(csto, s.stream_out, desc.words);
      ++ctr.cut_through;
      continue;
    }

    // Fragmented packet: buffer into local data memory, two cycles a word
    // (§4.4: one port on the data cache, no DMA).
    auto& buf = reassembly[desc.src_port];
    RAW_CMD(csto, s.buffer_in, desc.words);
    for (std::uint32_t i = 0; i < desc.words; ++i) {
      const Word w = co_await read(csti);
      co_await delay(1);  // store into dmem
      buf.push_back(w);
    }
    buffered_words += desc.words;
    RAW_ASSERT_MSG(buffered_words <= sim::kTileDmemWords,
                   "egress reassembly exceeds tile data memory");

    if (desc.last) {
      RAW_CMD(csto, s.drain_out, static_cast<Word>(buf.size()));
      for (const Word w : buf) {
        co_await delay(1);  // load from dmem
        co_await write(csto, w);
      }
      buffered_words -= buf.size();
      buf.clear();
      ++ctr.reassembled;
    }
  }
}

#undef RAW_CMD

}  // namespace

std::optional<net::Ipv4Header> judge_header(RouterCore& core, int port,
                                            const HeaderWords& words,
                                            bool aligned, HeaderWords& win,
                                            std::size_t& held) {
  const net::Ipv4Header hdr = net::parse(words);
  if (hdr.version == 4 && hdr.ihl == 5 &&
      hdr.total_length >= net::Ipv4Header::kBytes && net::checksum_ok(hdr)) {
    return hdr;
  }
  PortCounters& ctr = core.counters[static_cast<std::size_t>(port)];
  if (aligned) {
    ++ctr.malformed_drops;
    if (core.ledger != nullptr) (void)core.ledger->erase_ingress(uid_of(hdr));
  } else {
    ++ctr.resync_slides;
  }
  for (std::size_t i = 1; i < words.size(); ++i) win[i - 1] = words[i];
  held = net::Ipv4Header::kWords - 1;
  return std::nullopt;
}

void check_packet_bytes(const net::TrafficConfig& traffic) {
  const common::ByteCount bytes = net::max_packet_bytes(traffic);
  if (bytes > kMaxPacketBytes) {
    throw std::invalid_argument(
        "packet size " + std::to_string(bytes) + " B exceeds the router's " +
        std::to_string(kMaxPacketBytes) +
        " B limit: the egress tile buffers one partly reassembled packet per "
        "source port in its " + std::to_string(sim::kTileDmemWords) +
        "-word data memory");
  }
}

PortSchedules compile_port_schedules(const ScheduleCompiler& compiler) {
  PortSchedules s;
  for (int p = 0; p < kNumPorts; ++p) {
    const auto pi = static_cast<std::size_t>(p);
    s.crossbar[pi] = compiler.compile_crossbar(p);
    s.ingress[pi] = compiler.compile_ingress(p);
    s.egress[pi] = compiler.compile_egress(p);
  }
  return s;
}

std::unique_ptr<sim::Chip> build_router_chip(RouterCore& core,
                                             const Layout& layout,
                                             const PortSchedules& schedules) {
  sim::ChipConfig chip_cfg;
  chip_cfg.shape = sim::GridShape{4, 4};
  chip_cfg.link_fifo_depth = kLinkFifoDepth;
  auto chip = std::make_unique<sim::Chip>(chip_cfg);
  core.chip = chip.get();
  core.layout = &layout;
  for (int p = 0; p < kNumPorts; ++p) {
    const PortTiles tiles = layout.port(p);
    const auto pi = static_cast<std::size_t>(p);
    const CrossbarSchedule& cb = schedules.crossbar[pi];
    const IngressSchedule& in = schedules.ingress[pi];
    const EgressSchedule& eg = schedules.egress[pi];
    chip->tile(tiles.crossbar).switch_proc().load(cb.program);
    chip->tile(tiles.ingress).switch_proc().load(in.program);
    chip->tile(tiles.egress).switch_proc().load(eg.program);
    chip->tile(tiles.ingress).set_program(ingress_body(core, p, in));
    chip->tile(tiles.lookup).set_program(lookup_body(core, p));
    chip->tile(tiles.crossbar).set_program(crossbar_body(core, p, cb));
    chip->tile(tiles.egress).set_program(egress_body(core, p, eg));
  }
  return chip;
}

}  // namespace raw::router
