#include "sim/chip.h"

#include <string>
#include <utility>

#include "common/assert.h"
#include "common/profiler.h"
#include "sim/fault_plan.h"

namespace raw::sim {

Chip::Chip(ChipConfig config) : config_(config), dyn_(engine_, config_.shape) {
  const GridShape shape = config_.shape;
  const auto n = static_cast<std::size_t>(shape.num_tiles());

  tiles_.reserve(n);
  for (int t = 0; t < shape.num_tiles(); ++t) {
    tiles_.push_back(std::make_unique<Tile>(engine_, t, shape.coord(t)));
  }

  for (int net = 0; net < kNumStaticNets; ++net) {
    auto& links = static_links_[static_cast<std::size_t>(net)];
    auto& edges = edge_in_[static_cast<std::size_t>(net)];
    links.resize(n);
    edges.resize(n);
    for (int t = 0; t < shape.num_tiles(); ++t) {
      const TileCoord c = shape.coord(t);
      for (const Dir d : kMeshDirs) {
        const auto di = static_cast<std::size_t>(d);
        const std::string base =
            "net" + std::to_string(net + 1) + "." + tile_name(t) + "." + dir_name(d);
        links[static_cast<std::size_t>(t)][di] =
            std::make_unique<Channel>(engine_, base + ".out", config_.link_fifo_depth);
        if (!shape.contains(GridShape::neighbor(c, d))) {
          edges[static_cast<std::size_t>(t)][di] =
              std::make_unique<Channel>(engine_, base + ".in", config_.link_fifo_depth);
        }
      }
    }
  }

  // Wire every switch processor's port map.
  for (int t = 0; t < shape.num_tiles(); ++t) {
    SwitchProcessor::Ports ports;
    for (int net = 0; net < kNumStaticNets; ++net) {
      const auto n8 = static_cast<std::uint8_t>(net);
      for (const Dir d : kMeshDirs) {
        ports.out[switch_port(n8, d)] = out_link(net, t, d);
        ports.in[switch_port(n8, d)] = in_link(net, t, d);
      }
      ports.in[switch_port(n8, Dir::kProc)] = &tile(t).csto(net);
      ports.out[switch_port(n8, Dir::kProc)] = &tile(t).csti(net);
    }
    tile(t).switch_proc().connect(ports);
  }

  // Cache the full channel list for the cycle engine.
  for (int net = 0; net < kNumStaticNets; ++net) {
    for (std::size_t t = 0; t < n; ++t) {
      for (std::size_t d = 0; d < 4; ++d) {
        if (auto& ch = static_links_[static_cast<std::size_t>(net)][t][d]) {
          all_channels_.push_back(ch.get());
        }
        if (auto& ch = edge_in_[static_cast<std::size_t>(net)][t][d]) {
          all_channels_.push_back(ch.get());
        }
      }
    }
  }
  for (auto& t : tiles_) {
    for (int net = 0; net < kNumStaticNets; ++net) {
      all_channels_.push_back(&t->csto(net));
      all_channels_.push_back(&t->csti(net));
    }
  }
  for (Channel* ch : dyn_.all_channels()) all_channels_.push_back(ch);

  // Index names for O(1) find_channel (called per fault target and from
  // tools).
  channel_index_.reserve(all_channels_.size());
  for (Channel* ch : all_channels_) {
    if (!ch->name().empty()) channel_index_.emplace(ch->name(), ch);
  }

  run_flags_.assign(n, 3);  // every switch and processor starts runnable
  parks_.resize(2 * n);
}

Channel* Chip::out_link(int net, int tile_idx, Dir dir) const {
  return static_links_[static_cast<std::size_t>(net)]
                      [static_cast<std::size_t>(tile_idx)]
                      [static_cast<std::size_t>(dir)]
                          .get();
}

Channel* Chip::in_link(int net, int tile_idx, Dir dir) const {
  const GridShape shape = config_.shape;
  const TileCoord neighbor = GridShape::neighbor(shape.coord(tile_idx), dir);
  if (shape.contains(neighbor)) {
    return out_link(net, shape.index(neighbor), opposite(dir));
  }
  return edge_in_[static_cast<std::size_t>(net)]
                 [static_cast<std::size_t>(tile_idx)]
                 [static_cast<std::size_t>(dir)]
                     .get();
}

IoPort Chip::io_port(int net, int tile_idx, Dir dir) const {
  const GridShape shape = config_.shape;
  RAW_ASSERT_MSG(!shape.contains(GridShape::neighbor(shape.coord(tile_idx), dir)),
                 "io_port requested for an interior link");
  IoPort port;
  port.to_chip = edge_in_[static_cast<std::size_t>(net)]
                         [static_cast<std::size_t>(tile_idx)]
                         [static_cast<std::size_t>(dir)]
                             .get();
  port.from_chip = out_link(net, tile_idx, dir);
  return port;
}

void Chip::add_device(Device* device) {
  RAW_ASSERT(device != nullptr);
  devices_.push_back(device);
}

void Chip::set_fault_plan(FaultPlan* plan, int num_ports) {
  if (plan != nullptr) plan->bind(*this, num_ports);
  faults_ = plan;
}

void Chip::set_force_dense(bool on) {
  if (on == force_dense_) return;
  wake_all_parked();
  force_dense_ = on;
}

Channel* Chip::find_channel(const std::string& name) const {
  const auto it = channel_index_.find(name);
  return it != channel_index_.end() ? it->second : nullptr;
}

void Chip::step_agents(bool dense) {
  FaultPlan* const faults = faults_;
  const common::Cycle now = engine_.now;
  const int n = num_tiles();
  if (dense) {
    if (faults == nullptr && !trace_.active(now)) {
      // Dense hot path (forced-dense reference engine): no per-tile frozen
      // test, no trace bookkeeping.
      for (int t = 0; t < n; ++t) {
        Tile& tl = *tiles_[static_cast<std::size_t>(t)];
        (void)tl.step_switch();
        (void)tl.step_proc();
      }
      return;
    }
    const bool tracing = trace_.active(now);
    for (int t = 0; t < n; ++t) {
      if (faults != nullptr && faults->tile_frozen(t)) {
        // A frozen tile executes nothing this cycle; its FIFOs keep their
        // contents and neighbours simply see no words move.
        if (tracing) trace_.record(now, t, AgentState::kIdle, AgentState::kIdle);
        continue;
      }
      Tile& tl = *tiles_[static_cast<std::size_t>(t)];
      const AgentState sw = tl.step_switch();
      const AgentState proc = tl.step_proc();
      if (tracing) trace_.record(now, t, proc, sw);
    }
    return;
  }

  // Sparse path: step only runnable agents; park the ones that cannot make
  // progress until an event wakes them. Agents blocked on a
  // fault-stalled link stay runnable (the stall expires by time, not by a
  // channel event), and a fault that mutates a channel with parked agents
  // wakes them (Channel::fault_wake), so flips and stalls are exact here.
  // A frozen tile is skipped, as the dense path skips it. On its first
  // frozen cycle its parked agents are credited through the cycle before
  // and made runnable, so the freeze credits nothing and the thaw finds
  // them stepping again; a wake already queued for one is then ignored.
  const bool freezing = faults != nullptr && faults->any_tile_frozen();
  for (int t = 0; t < n; ++t) {
    const std::uint8_t f = run_flags_[static_cast<std::size_t>(t)];
    if (freezing && faults->tile_frozen(t)) {
      if (f != 3) unpark_tile(t, now - 1);
      continue;
    }
    if (f == 0) continue;
    Tile& tl = *tiles_[static_cast<std::size_t>(t)];
    if ((f & 1u) != 0) {
      const AgentState s = tl.step_switch();
      if (s != AgentState::kBusy) {
        if (s == AgentState::kIdle) {
          park_agent(2 * t, s, nullptr);
        } else {
          Channel* ch =
              const_cast<Channel*>(tl.switch_proc().last_block_channel());
          if (may_park_on(ch, s)) park_agent(2 * t, s, &channel_slot(*ch, s));
        }
      }
    }
    if ((f & 2u) != 0) {
      const AgentState s = tl.step_proc();
      if (s == AgentState::kBusy) {
        // A program polling for an event (TileTask::event_slot) is busy
        // every cycle until the event fires its slot; anything else busy
        // keeps running.
        if (std::int32_t* slot = tl.proc_event_slot()) {
          park_agent(2 * t + 1, s, slot);
        }
      } else if (s == AgentState::kBlockedRecv ||
                 s == AgentState::kBlockedSend) {
        Channel* ch = tl.proc_blocked_channel();
        if (may_park_on(ch, s)) park_agent(2 * t + 1, s, &channel_slot(*ch, s));
      } else if (s == AgentState::kIdle) {
        park_agent(2 * t + 1, s, nullptr);
      }
      // kBlockedMem must keep stepping to burn down its modelled
      // memory-stall cycles.
    }
  }
}

std::int32_t& Chip::channel_slot(Channel& ch, AgentState cause) {
  return cause == AgentState::kBlockedRecv ? ch.reader_slot() : ch.writer_slot();
}

bool Chip::may_park_on(const Channel* ch, AgentState cause) {
  if (ch == nullptr) return false;
  // A stalled link recovers by time, not by a channel event; the blocked
  // agent polls until the stall expires.
  if (ch->fault_stalled()) return false;
  if (cause == AgentState::kBlockedSend) {
    // The wake for a parked writer is the reader's read(), which happens
    // *inside* the stepping phase. If the FIFO was already drained this
    // cycle the wake has come and gone — the writer must stay runnable and
    // retry next cycle (when the freed slot becomes visible), exactly as a
    // dense engine would.
    if (ch->read_this_cycle()) return false;
  }
  return true;
}

void Chip::apply_wakes() {
  for (const std::int32_t aid : engine_.wakes) wake_agent(aid, engine_.now);
  engine_.wakes.clear();
}

void Chip::park_agent(std::int32_t aid, AgentState cause, std::int32_t* slot) {
  Park& p = parks_[static_cast<std::size_t>(aid)];
  p.counted_through = engine_.now;  // this cycle was stepped and counted
  p.cause = cause;
  p.slot = slot;
  if (slot != nullptr) {
    RAW_ASSERT_MSG(*slot < 0, "wake slot already holds a parked agent");
    *slot = aid;
  }
  run_flags_[static_cast<std::size_t>(aid >> 1)] &=
      static_cast<std::uint8_t>(~(1u << (aid & 1)));
  ++parked_count_;
  if (profiler_ != nullptr) profiler_->count_park();
}

void Chip::credit_agent(std::int32_t aid, Park& park, common::Cycle upto) {
  if (upto <= park.counted_through) return;
  const std::uint64_t n = upto - park.counted_through;
  park.counted_through = upto;
  Tile& tl = *tiles_[static_cast<std::size_t>(aid >> 1)];
  if ((aid & 1) != 0) {
    // Processor: an event wait accrues proc_busy (it replaces a delay(1)
    // polling loop), blocked states proc_blocked, idle nothing.
    if (park.cause == AgentState::kBusy) {
      tl.credit_proc_busy(n);
    } else if (park.cause != AgentState::kIdle) {
      tl.credit_proc_blocked(n);
    }
  } else {
    tl.switch_proc().credit_parked(park.cause, n);
  }
}

void Chip::wake_agent(std::int32_t aid, common::Cycle counted_through) {
  std::uint8_t& f = run_flags_[static_cast<std::size_t>(aid >> 1)];
  const auto bit = static_cast<std::uint8_t>(1u << (aid & 1));
  // Runnable already: its frozen tile unparked it after the wake was queued.
  if ((f & bit) != 0) return;
  Park& p = parks_[static_cast<std::size_t>(aid)];
  credit_agent(aid, p, counted_through);
  p.slot = nullptr;  // the event emptied the slot when it fired
  f |= bit;
  --parked_count_;
  if (profiler_ != nullptr) profiler_->count_wake();
}

void Chip::settle_parked() {
  if (parked_count_ == 0 || engine_.now == 0) return;
  const common::Cycle upto = engine_.now - 1;
  const int n = num_tiles();
  for (int t = 0; t < n; ++t) {
    const std::uint8_t f = run_flags_[static_cast<std::size_t>(t)];
    if (f == 3) continue;
    if ((f & 1u) == 0) credit_agent(2 * t, parks_[static_cast<std::size_t>(2 * t)], upto);
    if ((f & 2u) == 0) {
      credit_agent(2 * t + 1, parks_[static_cast<std::size_t>(2 * t + 1)], upto);
    }
  }
}

void Chip::wake_all_parked() {
  if (parked_count_ == 0) return;
  const common::Cycle upto = engine_.now == 0 ? 0 : engine_.now - 1;
  const int n = num_tiles();
  for (int t = 0; t < n; ++t) {
    if (run_flags_[static_cast<std::size_t>(t)] != 3) unpark_tile(t, upto);
  }
}

void Chip::unpark_tile(int tile, common::Cycle upto) {
  std::uint8_t& f = run_flags_[static_cast<std::size_t>(tile)];
  for (int a = 0; a < 2; ++a) {
    if ((f & (1u << a)) != 0) continue;
    const std::int32_t aid = 2 * tile + a;
    Park& p = parks_[static_cast<std::size_t>(aid)];
    credit_agent(aid, p, upto);
    if (p.slot != nullptr) {
      if (*p.slot == aid) *p.slot = -1;
      p.slot = nullptr;
    }
    --parked_count_;
  }
  f = 3;
}

std::string Chip::check_engine_invariants() const {
  const_cast<Chip*>(this)->settle_parked();
  const int n = num_tiles();
  int cleared = 0;
  for (int t = 0; t < n; ++t) {
    const std::uint8_t f = run_flags_[static_cast<std::size_t>(t)];
    for (int a = 0; a < 2; ++a) {
      if ((f & (1u << a)) != 0) continue;
      ++cleared;
      const std::int32_t aid = 2 * t + a;
      const Park& p = parks_[static_cast<std::size_t>(aid)];
      // settle_parked credits every parked agent through engine_.now - 1, so
      // anything older means a catch-up credit was lost.
      if (engine_.now > 0 && p.counted_through + 1 < engine_.now) {
        return "agent " + std::to_string(aid) +
               ": park credit stale (counted through " +
               std::to_string(p.counted_through) + ", cycle " +
               std::to_string(engine_.now) + ")";
      }
      if (p.slot != nullptr) {
        if (*p.slot != aid) {
          return "agent " + std::to_string(aid) +
                 " parked on a wake slot that holds " + std::to_string(*p.slot) +
                 " (a wake event would never arrive)";
        }
      } else if (p.cause != AgentState::kIdle) {
        return "agent " + std::to_string(aid) + " parked " +
               (p.cause == AgentState::kBusy ? "busy" : "blocked") +
               " with no wake slot";
      }
    }
  }
  if (cleared != parked_count_) {
    return "parked_count " + std::to_string(parked_count_) + " != " +
           std::to_string(cleared) + " agents with cleared run flags";
  }
  // Reverse direction: a wake slot must point at an agent that is actually
  // parked in it with a matching cause, or the wake it eventually fires
  // would corrupt another agent's accounting.
  const auto stale = [&](const std::int32_t& slot,
                         AgentState cause) -> const char* {
    const std::int32_t aid = slot;
    if (aid < 0) return nullptr;
    if (aid >= 2 * n) return " (bogus agent)";
    if ((run_flags_[static_cast<std::size_t>(aid >> 1)] & (1u << (aid & 1))) != 0) {
      return " which is not parked";
    }
    const Park& p = parks_[static_cast<std::size_t>(aid)];
    if (p.slot != &slot || p.cause != cause) return " whose park record disagrees";
    return nullptr;
  };
  for (Channel* ch : all_channels_) {
    for (const auto& [slot, cause] :
         {std::pair{&ch->reader_slot(), AgentState::kBlockedRecv},
          std::pair{&ch->writer_slot(), AgentState::kBlockedSend},
          std::pair{&ch->count_slot(), AgentState::kBusy}}) {
      if (const char* why = stale(*slot, cause)) {
        return "channel " + ch->name() + " wake slot holds agent " +
               std::to_string(*slot) + why;
      }
    }
  }
  for (int t = 0; t < n; ++t) {
    const std::int32_t& slot = dyn_.eject_slot(t);
    if (const char* why = stale(slot, AgentState::kBusy)) {
      return "tile " + std::to_string(t) + " eject port wake slot holds agent " +
             std::to_string(slot) + why;
    }
  }
  return "";
}

void Chip::step_cycle() {
  common::Profiler* const prof = profiler_;
  const bool dense = dense_cycle();
  if (prof != nullptr) {
    if (dense) {
      prof->count_dense_sweep();
    } else {
      prof->count_sparse_cycle();
    }
  }
  if (dense && parked_count_ > 0) {
    common::ProfScope ps(prof, common::ProfPhase::kParkWake);
    wake_all_parked();
  }

  {
    common::ProfScope ps(prof, common::ProfPhase::kSerialSection);
    FaultPlan* const faults = faults_;
    if (faults != nullptr) faults->step(*this);
    for (Device* d : devices_) d->step(*this);
  }

  {
    common::ProfScope ps(prof, common::ProfPhase::kCompute);
    step_agents(dense);
  }

  {
    // Early-outs internally while no message words are in flight.
    common::ProfScope ps(prof, common::ProfPhase::kSerialSection);
    dyn_.step();
  }

  bool progress = false;
  {
    common::ProfScope ps(prof, common::ProfPhase::kChannelCommit);
    if (prof != nullptr) prof->count_commit(engine_.dirty.size());
    progress = engine_.commit_dirty();
  }
  if (engine_.stats_channels > 0) {
    common::ProfScope ps(prof, common::ProfPhase::kStats);
    for (Channel* ch : all_channels_) ch->sample_stats();
  }
  {
    common::ProfScope ps(prof, common::ProfPhase::kParkWake);
    apply_wakes();
  }
  if (progress) last_progress_cycle_ = engine_.now;
  if (prof != nullptr && prof->flight_due(engine_.now)) {
    prof->flight_snap(engine_.now);
  }
  ++engine_.now;
}

void Chip::run(common::Cycle cycles) {
  wake_all_parked();
  for (common::Cycle i = 0; i < cycles; ++i) step_cycle();
  settle_parked();
}

void Chip::enable_channel_stats(bool on) {
  for (Channel* ch : all_channels_) ch->set_stats_enabled(on);
}

void Chip::export_metrics(common::MetricRegistry& registry,
                          const std::string& prefix) const {
  sync_block_accounting();  // parked agents' counters catch up first

  registry.counter(prefix + "/cycles").set(engine_.now);
  registry.counter(prefix + "/static_words_transferred")
      .set(static_words_transferred());

  // Hoist the per-tile base string: one prefix build per chip, one
  // resize+append per tile instead of a fresh concatenation chain per metric.
  std::string base = prefix + "/tile";
  const std::size_t tile_prefix_len = base.size();
  base.reserve(tile_prefix_len + 48);
  for (int t = 0; t < num_tiles(); ++t) {
    const Tile& tl = tile(t);
    base.resize(tile_prefix_len);
    base += std::to_string(t);
    registry.counter(base + "/proc/busy_cycles").set(tl.proc_cycles_busy());
    registry.counter(base + "/proc/blocked_cycles").set(tl.proc_cycles_blocked());
    const SwitchProcessor& sw = tl.switch_proc();
    registry.counter(base + "/switch/busy_cycles").set(sw.cycles_busy());
    registry.counter(base + "/switch/blocked_recv_cycles")
        .set(sw.cycles_blocked_recv());
    registry.counter(base + "/switch/blocked_send_cycles")
        .set(sw.cycles_blocked_send());
    registry.counter(base + "/switch/idle_cycles").set(sw.cycles_idle());
  }

  std::string chan_base = prefix + "/channel/";
  const std::size_t chan_prefix_len = chan_base.size();
  for (const Channel* ch : all_channels_) {
    if (ch->name().empty()) continue;
    if (ch->words_transferred() == 0 && ch->stats_cycles() == 0) continue;
    chan_base.resize(chan_prefix_len);
    // Channel names carry dots and case ("net1.t00.N.out"); exported names
    // must satisfy the registry lint.
    chan_base += common::sanitize_metric_name(ch->name());
    registry.counter(chan_base + "/words").set(ch->words_transferred());
    if (ch->stats_cycles() > 0) {
      registry.gauge(chan_base + "/mean_occupancy")
          .set(static_cast<double>(ch->occupancy_sum()) /
               static_cast<double>(ch->stats_cycles()));
      registry.counter(chan_base + "/backpressure_cycles").set(ch->full_cycles());
    }
  }
}

void Chip::enable_link_protection(const LinkProtectionParams& params) {
  for (Channel* ch : all_channels_) {
    // Every static-network wire is named "net<N>...."; tile FIFOs are
    // "t<T>.cst?" and dynamic-network channels carry their own prefix.
    if (ch->name().rfind("net", 0) == 0) ch->enable_link_protection(params);
  }
}

std::uint64_t Chip::link_retransmits() const {
  std::uint64_t total = 0;
  for (const Channel* ch : all_channels_) total += ch->link_retransmits();
  return total;
}

std::uint64_t Chip::link_delivered_corrupt() const {
  std::uint64_t total = 0;
  for (const Channel* ch : all_channels_) total += ch->link_delivered_corrupt();
  return total;
}

std::uint64_t Chip::link_stall_cycles() const {
  std::uint64_t total = 0;
  for (const Channel* ch : all_channels_) total += ch->link_stall_cycles();
  return total;
}

std::uint64_t Chip::state_digest() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  mix(engine_.now);
  for (const Channel* ch : all_channels_) ch->fold_digest(h);
  for (const auto& t : tiles_) {
    const SwitchProcessor& sw = t->switch_proc();
    mix(sw.pc());
    mix(sw.halted() ? 1u : 0u);
    for (int r = 0; r < kNumSwitchRegs; ++r) {
      mix(sw.reg(static_cast<std::uint8_t>(r)));
    }
  }
  mix(dyn_.words_in_flight());
  mix(dyn_.messages_delivered());
  return h;
}

std::uint64_t Chip::static_words_transferred() const {
  std::uint64_t total = 0;
  for (int net = 0; net < kNumStaticNets; ++net) {
    for (std::size_t t = 0; t < tiles_.size(); ++t) {
      for (std::size_t d = 0; d < 4; ++d) {
        if (const auto& ch = static_links_[static_cast<std::size_t>(net)][t][d]) {
          total += ch->words_transferred();
        }
      }
    }
  }
  return total;
}

}  // namespace raw::sim
