#include "router/raw_router.h"

#include <algorithm>
#include <stdexcept>

#include "common/assert.h"
#include "common/profiler.h"

namespace raw::router {

void RouterConfig::validate() const {
  if (link_fifo_depth < net::Ipv4Header::kWords) {
    throw std::invalid_argument(
        "RouterConfig.link_fifo_depth must be >= " +
        std::to_string(net::Ipv4Header::kWords) +
        " (edge FIFOs hold a full IP header); got " +
        std::to_string(link_fifo_depth));
  }
  if (runtime.quantum_max_words >= 1 && runtime.quantum_max_words <= 8) {
    throw std::invalid_argument(
        "RouterConfig.runtime.quantum_max_words must be 0 (uncapped) or >= 9: "
        "a smaller cap cuts fragments shorter than the 5 words the switch "
        "schedules and egress descriptors need (fragment_words); got " +
        std::to_string(runtime.quantum_max_words));
  }
  if (line_card_queue_words == 0) {
    throw std::invalid_argument(
        "RouterConfig.line_card_queue_words must be positive: a zero-capacity "
        "card queue drops every packet before it reaches the chip");
  }
  if (watchdog.check_interval == 0) {
    throw std::invalid_argument(
        "RouterConfig.watchdog.check_interval must be positive: the run loop "
        "checks the watchdog every check_interval cycles");
  }
  if (threads < 0 || threads > 1) {
    throw std::invalid_argument(
        "RouterConfig.threads must be 0 or 1 (a chip steps serially); got " +
        std::to_string(threads));
  }
  if (max_lookahead > 1) {
    throw std::invalid_argument(
        "RouterConfig.max_lookahead must be 0 or 1 (a chip steps one cycle "
        "at a time); got " + std::to_string(max_lookahead));
  }
  if (link.enabled && link.max_retries == 0) {
    throw std::invalid_argument(
        "RouterConfig.link.max_retries must be positive when reliable links "
        "are enabled: a zero retransmit budget can never repair a word");
  }
  if (link.enabled && link.replay_depth < link.retransmit_rtt) {
    throw std::invalid_argument(
        "RouterConfig.link.replay_depth (" + std::to_string(link.replay_depth) +
        ") must cover the retransmit round-trip (" +
        std::to_string(link.retransmit_rtt) +
        " cycles): words in flight during a NACK need replay frames");
  }
  if (link.enabled && link.replay_depth < link_fifo_depth) {
    throw std::invalid_argument(
        "RouterConfig.link.replay_depth (" + std::to_string(link.replay_depth) +
        ") must be >= link_fifo_depth (" + std::to_string(link_fifo_depth) +
        "): every buffered word needs its replay frame");
  }
  if (endurance.enabled) {
    if (endurance.invariant_cadence == 0) {
      throw std::invalid_argument(
          "RouterConfig.endurance.invariant_cadence must be positive: a "
          "zero cadence would sweep the invariants every cycle boundary "
          "forever");
    }
    if (endurance.checkpoint_interval == 0) {
      throw std::invalid_argument(
          "RouterConfig.endurance.checkpoint_interval must be positive: a "
          "zero interval would capture a snapshot at every cycle");
    }
    if (endurance.checkpoint_ring == 0) {
      throw std::invalid_argument(
          "RouterConfig.endurance.checkpoint_ring must be positive: with no "
          "retained checkpoints a failure bundle has no replay anchor");
    }
    if (endurance.invariant_cadence < watchdog.check_interval) {
      throw std::invalid_argument(
          "RouterConfig.endurance.invariant_cadence (" +
          std::to_string(endurance.invariant_cadence) +
          ") must be >= watchdog.check_interval (" +
          std::to_string(watchdog.check_interval) +
          "): the watchdog is the finer-grained net, sweeping invariants "
          "more often than it just re-reads unchanged counters");
    }
  }
}

const char* drain_outcome_name(DrainOutcome o) {
  switch (o) {
    case DrainOutcome::kDrained: return "drained";
    case DrainOutcome::kLossQuiesced: return "loss_quiesced";
    case DrainOutcome::kStalled: return "stalled";
    case DrainOutcome::kTimeout: return "timeout";
    case DrainOutcome::kDrainedDegraded: return "drained_degraded";
    case DrainOutcome::kInvariantViolation: return "invariant_violation";
  }
  return "?";
}

RawRouter::RawRouter(RouterConfig config, net::RouteTable table,
                     net::TrafficConfig traffic, std::uint64_t seed)
    : config_(config),
      table_(std::move(table)),
      forwarding_(net::SmallTable::build(table_.trie())),
      compiler_(layout_),
      traffic_(traffic, seed) {
  RAW_ASSERT_MSG(traffic.num_ports == kNumPorts, "router has four ports");
  config_.validate();

  core_.table = &table_;
  core_.forwarding = &forwarding_;
  core_.config = config_.runtime;
  core_.ledger = &ledger_;
  chip_ = build_router_chip(core_, layout_, compile_port_schedules(compiler_),
                            config_.link_fifo_depth);
  if (config_.link.enabled) {
    chip_->enable_link_protection(sim::LinkProtectionParams{
        config_.link.max_retries, config_.link.retransmit_rtt,
        config_.link.replay_depth});
  }

  // Every packet crosses this one chip: one TTL decrement from any source.
  static const std::vector<std::vector<int>> kOneHop(
      kNumPorts, std::vector<int>(kNumPorts, 1));
  for (int p = 0; p < kNumPorts; ++p) {
    const PortTiles tiles = layout_.port(p);
    const PortEdges edges = layout_.edges(p);
    const sim::IoPort in_port = chip_->io_port(0, tiles.ingress, edges.ingress_edge);
    const sim::IoPort out_port = chip_->io_port(0, tiles.egress, edges.egress_edge);
    inputs_[static_cast<std::size_t>(p)] = std::make_unique<InputLineCard>(
        in_port.to_chip, p, &traffic_, &ledger_, &next_uid_,
        config_.line_card_queue_words);
    outputs_[static_cast<std::size_t>(p)] = std::make_unique<OutputLineCard>(
        out_port.from_chip, p, &ledger_, &kOneHop);
    chip_->add_device(inputs_[static_cast<std::size_t>(p)].get());
    chip_->add_device(outputs_[static_cast<std::size_t>(p)].get());
  }

  if (config_.channel_stats) chip_->enable_channel_stats();
  next_watchdog_ = config_.watchdog.check_interval;
}

void RawRouter::set_tracer(common::PacketTracer* tracer) {
  ledger_.tracer = tracer;
  core_.tracer = tracer;
  if (tracer == nullptr) return;
  static const char* kRoleNames[] = {"In", "Lookup", "Xbar", "Out"};
  for (int p = 0; p < kNumPorts; ++p) {
    const PortTiles tiles = layout_.port(p);
    const int role_tiles[] = {tiles.ingress, tiles.lookup, tiles.crossbar,
                              tiles.egress};
    for (int r = 0; r < 4; ++r) {
      tracer->set_track_name(role_tiles[r], "tile" + std::to_string(role_tiles[r]) +
                                                " " + kRoleNames[r] +
                                                std::to_string(p));
    }
    tracer->set_track_name(input_card_track(p),
                           "port" + std::to_string(p) + " in-card");
    tracer->set_track_name(output_card_track(p),
                           "port" + std::to_string(p) + " out-card");
  }
}

void RawRouter::export_metrics(common::MetricRegistry& registry,
                               const std::string& prefix) const {
  const common::Cycle cycles = chip_->cycle();
  for (int p = 0; p < kNumPorts; ++p) {
    const InputLineCard& in = *inputs_[static_cast<std::size_t>(p)];
    const OutputLineCard& out = *outputs_[static_cast<std::size_t>(p)];
    const PortCounters& ctr = core_.counters[static_cast<std::size_t>(p)];
    const std::string port = prefix + "/port" + std::to_string(p);

    registry.counter(port + "/ingress/offered_packets").set(in.offered_packets());
    registry.counter(port + "/ingress/offered_bytes").set(in.offered_bytes());
    registry.counter(port + "/ingress/dropped_packets").set(in.dropped_packets());
    registry.counter(port + "/ingress/packets_in").set(ctr.packets_in);
    registry.counter(port + "/ingress/fragments").set(ctr.fragments);
    registry.counter(port + "/ingress/ttl_drops").set(ctr.ttl_drops);
    registry.counter(port + "/ingress/no_route_drops").set(ctr.no_route_drops);

    registry.counter(port + "/lookup/lookups").set(ctr.lookups);

    registry.counter(port + "/crossbar/quanta").set(ctr.quanta);
    registry.counter(port + "/crossbar/grants").set(ctr.grants);
    registry.counter(port + "/crossbar/denials").set(ctr.denials);
    registry.counter(port + "/crossbar/empty_headers").set(ctr.empty_headers);
    registry.counter(port + "/crossbar/out_descs").set(ctr.out_descs);
    registry.counter(port + "/crossbar/out_words").set(ctr.out_words);

    registry.counter(port + "/egress/cut_through").set(ctr.cut_through);
    registry.counter(port + "/egress/reassembled").set(ctr.reassembled);

    registry.counter(port + "/ingress/malformed_drops").set(ctr.malformed_drops);
    registry.counter(port + "/ingress/resync_slides").set(ctr.resync_slides);
    registry.counter(port + "/ingress/dead_port_drops").set(ctr.dead_port_drops);

    registry.counter(port + "/egress/delivered_packets").set(out.delivered_packets());
    registry.counter(port + "/egress/delivered_bytes").set(out.delivered_bytes());
    registry.counter(port + "/egress/errors").set(out.errors());
    registry.counter(port + "/egress/dropped_invalid").set(out.dropped_invalid());
    registry.counter(port + "/egress/unmatched_frames").set(out.unmatched_frames());
    registry.counter(port + "/egress/resyncs").set(out.resyncs());
    registry.counter(port + "/egress/resync_words").set(out.resync_words());

    const common::Histogram& lat = out.latency_histogram();
    registry.gauge(port + "/latency/p50").set(lat.quantile(0.50));
    registry.gauge(port + "/latency/p95").set(lat.quantile(0.95));
    registry.gauge(port + "/latency/p99").set(lat.quantile(0.99));
    registry.gauge(port + "/latency/max").set(out.latency().max());
    registry.gauge(port + "/latency/mean").set(out.latency().mean());
    registry.counter(port + "/latency/samples").set(out.latency().count());

    registry.gauge(port + "/gbps").set(common::gbps(out.delivered_bytes(), cycles));
    registry.gauge(port + "/mpps").set(common::mpps(out.delivered_packets(), cycles));
    registry.gauge(port + "/drop_fraction")
        .set(in.offered_packets() > 0
                 ? static_cast<double>(in.dropped_packets()) /
                       static_cast<double>(in.offered_packets())
                 : 0.0);
  }

  registry.gauge(prefix + "/gbps").set(gbps());
  registry.gauge(prefix + "/mpps").set(mpps());
  registry.counter(prefix + "/delivered_packets").set(delivered_packets());
  registry.counter(prefix + "/delivered_bytes").set(delivered_bytes());
  registry.counter(prefix + "/errors").set(errors());

  registry.counter(prefix + "/watchdog/trips").set(watchdog_trips_);
  registry.counter(prefix + "/recovery/recoveries").set(recoveries_);
  registry.counter(prefix + "/recovery/schedule_generation")
      .set(static_cast<std::uint64_t>(schedule_generation_));
  registry.counter(prefix + "/recovery/degraded").set(degraded_ ? 1 : 0);
  registry.counter(prefix + "/recovery/dead_tiles").set(dead_tiles_.size());
  registry.counter(prefix + "/recovery/written_off")
      .set(recovery_report_.has_value() ? recovery_report_->written_off : 0);
  if (config_.link.enabled) {
    registry.counter("faults/recovered/retransmits")
        .set(chip_->link_retransmits());
    registry.counter("faults/recovered/delivered_corrupt")
        .set(chip_->link_delivered_corrupt());
    registry.counter("faults/recovered/stall_cycles")
        .set(chip_->link_stall_cycles());
  }
  registry.counter(prefix + "/conservation/offered").set(offered_packets());
  registry.counter(prefix + "/conservation/dropped_at_card").set(dropped_at_card());
  registry.counter(prefix + "/conservation/delivered").set(ledger_.erased_delivered);
  registry.counter(prefix + "/conservation/invalid").set(ledger_.erased_invalid);
  registry.counter(prefix + "/conservation/ingress_drops").set(ledger_.erased_ingress);
  registry.counter(prefix + "/conservation/lost").set(ledger_.erased_lost);
  registry.counter(prefix + "/conservation/in_flight").set(ledger_.in_flight.size());
  if (const sim::FaultPlan* faults = chip_->fault_plan()) {
    faults->export_metrics(registry, "faults");
  }

  chip_->export_metrics(registry, prefix + "/chip");
}

void RawRouter::set_fault_plan(sim::FaultPlan* plan) {
  if (plan != nullptr && ledger_.tracer != nullptr) {
    plan->set_tracer(ledger_.tracer);
  }
  chip_->set_fault_plan(plan, kNumPorts);
}

bool RawRouter::work_pending() const {
  for (const auto& in : inputs_) {
    if (!in->idle()) return true;
  }
  return !ledger_.in_flight.empty();
}

void RawRouter::flight_mark() {
  common::Profiler* const prof = chip_->profiler();
  if (prof != nullptr && prof->flight_enabled()) {
    prof->flight_snap(chip_->cycle(), /*on_stall=*/true);
  }
}

bool RawRouter::check_watchdog() {
  const WatchdogConfig& wd = config_.watchdog;
  const common::Cycle now = chip_->cycle();

  // Hard trip: nothing moved anywhere for the bound while work is queued.
  // The idle quantum ring circulates continuously on a healthy chip, so
  // this fires only when the fabric is genuinely wedged. The second guard is
  // the recovery grace period: a reconfiguration resets the fabric, so the
  // pre-recovery progress staleness must not re-trip before the degraded
  // fabric has had a full bound to move a word (vacuously true before the
  // first recovery, when last_recovery_cycle_ is 0).
  if (now - chip_->last_progress_cycle() >= wd.no_progress_bound &&
      now - last_recovery_cycle_ >= wd.no_progress_bound && work_pending()) {
    if (try_recover()) return false;
    ++watchdog_trips_;
    stall_report_ = build_stall_report(*chip_, layout_,
                                       StallReport::Cause::kNoForwardProgress,
                                       ledger_.in_flight.size());
    flight_mark();
    return true;
  }

  // Soft flag: a port with queued input whose grants stopped advancing.
  // Reported, not fatal — an unfair token policy starves without wedging
  // (the fairness ablation does this deliberately).
  std::vector<int> starved;
  for (int p = 0; p < kNumPorts; ++p) {
    const auto pi = static_cast<std::size_t>(p);
    const std::uint64_t grants = core_.counters[pi].grants;
    if (grants != starve_grants_[pi] || inputs_[pi]->idle()) {
      starve_grants_[pi] = grants;
      starve_since_[pi] = now;
    } else if (now - starve_since_[pi] >= wd.starvation_bound) {
      starved.push_back(p);
    }
  }
  if (!starved.empty()) {
    stall_report_ = build_stall_report(*chip_, layout_,
                                       StallReport::Cause::kPortStarvation,
                                       ledger_.in_flight.size());
    stall_report_->starved_ports = std::move(starved);
    flight_mark();
  }
  return false;
}

bool RawRouter::try_recover() {
  if (!config_.recovery.enabled) return false;
  const sim::FaultPlan* plan = chip_->fault_plan();
  if (plan == nullptr) return false;
  std::vector<int> dead = plan->permanently_frozen_tiles();
  // Only a *permanent* freeze justifies abandoning the compiled schedule; a
  // transient one resolves on its own and retrying the same dead set that
  // already failed to make progress would loop forever.
  if (dead.empty() || dead == dead_tiles_) return false;

  ++recoveries_;
  ++schedule_generation_;
  recovery_report_ = reconfigure_degraded(core_, ledger_, inputs_, outputs_,
                                          dead, schedule_generation_);
  dead_tiles_ = std::move(dead);
  degraded_ = true;
  stall_report_.reset();
  last_recovery_cycle_ = chip_->cycle();
  // Reconfiguration reloads every switch program, and SwitchProcessor::load()
  // zeroes the busy/blocked books — tell the monitor to re-baseline its
  // cycle-accounting deltas instead of flagging the reset as a violation.
  if (monitor_ != nullptr) monitor_->notify_counters_reset(*chip_);
  // Reset the starvation baselines too: the degraded fabric counts grants
  // differently (one per packet) and starts from a clean slate.
  for (std::size_t p = 0; p < kNumPorts; ++p) {
    starve_grants_[p] = core_.counters[p].grants;
    starve_since_[p] = chip_->cycle();
  }
  return true;
}

void RawRouter::check_conservation() const {
  const std::string broken =
      ledger_.conservation(offered_packets(), dropped_at_card());
  RAW_ASSERT_MSG(broken.empty(),
                 ("packet conservation violated: " + broken).c_str());
}

void RawRouter::arm_endurance(sim::InvariantMonitor* monitor) {
  RAW_ASSERT_MSG(config_.endurance.enabled,
                 "arm_endurance needs config.endurance.enabled");
  RAW_ASSERT_MSG(monitor != nullptr, "arm_endurance needs a monitor");
  RAW_ASSERT_MSG(monitor_ == nullptr, "endurance already armed");
  monitor_ = monitor;
  ring_ = std::make_unique<sim::CheckpointRing>(config_.endurance.checkpoint_ring);
  next_invariant_ = chip_->cycle() + config_.endurance.invariant_cadence;
  next_checkpoint_ = chip_->cycle() + config_.endurance.checkpoint_interval;
  register_standard_invariants(*monitor);
}

void RawRouter::register_standard_invariants(sim::InvariantMonitor& monitor) {
  // Chip-level books: park/wake credit balance and per-tile cycle accounting.
  monitor.watch_chip(*chip_);

  // Packet conservation: the ledger identity drain asserts at its exits,
  // re-verified mid-run at every sweep.
  monitor.add_check("router/conservation", [this]() -> std::string {
    return ledger_.conservation(offered_packets(), dropped_at_card());
  });

  // Reliable-link seq/CRC accounting: counters only move forward, a
  // retransmit can only be caused by an injected bit flip (a spontaneous one
  // means the CRC/seq books corrupted themselves), and with the retry budget
  // validated >= 1 the one-shot flip model never exhausts it, so a corrupt
  // delivery is a protocol failure.
  monitor.add_check(
      "router/link_accounting",
      [this, prev_retr = std::uint64_t{0}, prev_corrupt = std::uint64_t{0},
       prev_stall = std::uint64_t{0}]() mutable -> std::string {
        if (!config_.link.enabled) return "";
        const std::uint64_t retr = chip_->link_retransmits();
        const std::uint64_t corrupt = chip_->link_delivered_corrupt();
        const std::uint64_t stall = chip_->link_stall_cycles();
        if (retr < prev_retr || corrupt < prev_corrupt || stall < prev_stall) {
          return "link counters went backwards (retransmits " +
                 std::to_string(prev_retr) + "->" + std::to_string(retr) +
                 ", corrupt " + std::to_string(prev_corrupt) + "->" +
                 std::to_string(corrupt) + ", stalls " +
                 std::to_string(prev_stall) + "->" + std::to_string(stall) + ")";
        }
        prev_retr = retr;
        prev_corrupt = corrupt;
        prev_stall = stall;
        std::uint64_t flips_due = 0;
        if (const sim::FaultPlan* plan = chip_->fault_plan()) {
          for (const sim::FaultEvent& e : plan->events()) {
            if (e.kind == sim::FaultKind::kBitFlip && e.at <= chip_->cycle()) {
              ++flips_due;
            }
          }
        }
        if (flips_due == 0 && retr != 0) {
          return "retransmits (" + std::to_string(retr) +
                 ") without any injected bit flip: CRC/seq books corrupt";
        }
        if (corrupt != 0) {
          return "words delivered corrupt (" + std::to_string(corrupt) +
                 ") despite link protection: retry budget exhausted under a "
                 "one-shot flip model";
        }
        return "";
      });

  // Watchdog liveness: the run loop must actually be invoking the watchdog.
  // A wedge can legitimately outlive the no-progress bound by one check
  // interval (detection quantum) — beyond bound + 2 intervals the net
  // itself has failed. Mirrors check_watchdog's recovery grace.
  monitor.add_check("router/watchdog_liveness", [this]() -> std::string {
    const WatchdogConfig& wd = config_.watchdog;
    const common::Cycle now = chip_->cycle();
    const common::Cycle slack = wd.no_progress_bound + 2 * wd.check_interval;
    if (work_pending() && now - chip_->last_progress_cycle() > slack &&
        now - last_recovery_cycle_ > slack) {
      return "no forward progress for " +
             std::to_string(now - chip_->last_progress_cycle()) +
             " cycles with work pending: the watchdog net is not firing";
    }
    return "";
  });
}

bool RawRouter::sweep_invariants() {
  const std::optional<sim::InvariantViolation> v =
      monitor_->sweep(chip_->cycle());
  if (!v.has_value()) return false;
  invariant_violation_ = v;
  flight_mark();
  return true;
}

RunStatus RawRouter::run(common::Cycle cycles) {
  const WatchdogConfig& wd = config_.watchdog;
  const EnduranceConfig& en = config_.endurance;
  const common::Cycle deadline = chip_->cycle() + cycles;
  while (chip_->cycle() < deadline) {
    const common::Cycle next = std::min(
        {deadline, next_watchdog_, next_invariant_, next_checkpoint_});
    if (next > chip_->cycle()) chip_->run(next - chip_->cycle());
    const common::Cycle now = chip_->cycle();
    // Process every due stream before re-checking the deadline, so a stream
    // due exactly at the deadline still fires: run(x); run(y) captures the
    // checkpoint due at cycle x just as run(x + y) does. Catch-up loops keep
    // the next-due cycles strictly in the future after a drain, which keeps
    // its own schedule.
    if (now >= next_watchdog_) {
      while (next_watchdog_ <= now) next_watchdog_ += wd.check_interval;
      if (check_watchdog()) return RunStatus::kStalled;
    }
    if (now >= next_checkpoint_) {
      while (next_checkpoint_ <= now) next_checkpoint_ += en.checkpoint_interval;
      ring_->capture(*chip_, state_digest());
    }
    if (now >= next_invariant_) {
      while (next_invariant_ <= now) next_invariant_ += en.invariant_cadence;
      if (sweep_invariants()) return RunStatus::kInvariantViolation;
    }
  }
  return degraded_ ? RunStatus::kDegraded : RunStatus::kOk;
}

bool RawRouter::drain(common::Cycle max_cycles) {
  for (auto& in : inputs_) in->stop();
  const auto all_drained = [this] {
    for (const auto& in : inputs_) {
      if (!in->idle()) return false;
    }
    return ledger_.in_flight.empty();
  };

  // Forward progress cannot signal quiescence here — the quantum ring
  // circulates empty headers forever — so the drain watches the ledger
  // instead: once the inputs are empty and the in-flight set has not shrunk
  // for the no-progress bound, whatever remains is lost (eaten by an
  // injected fault) and is written off so the accounting still closes. The
  // watchdog chunks count from the start of the drain.
  const WatchdogConfig& wd = config_.watchdog;
  const common::Cycle deadline = chip_->cycle() + max_cycles;
  std::size_t last_in_flight = ledger_.in_flight.size();
  common::Cycle last_shrink = chip_->cycle();
  while (true) {
    const common::Cycle remaining = deadline - chip_->cycle();
    common::Cycle chunk = std::min(wd.check_interval, remaining);
    if (next_invariant_ > chip_->cycle()) {
      chunk = std::min(chunk, next_invariant_ - chip_->cycle());
    }
    if (chip_->run_until(all_drained, chunk)) {
      // One final sweep: a drain that empties the ledger through broken
      // books must not read as clean. No conservation assert on the
      // violation path — the books themselves may be the violation.
      if (monitor_ != nullptr && sweep_invariants()) {
        drain_outcome_ = DrainOutcome::kInvariantViolation;
        return false;
      }
      // degraded_ may have flipped mid-drain: a permanent freeze can land
      // after the arrival processes stop, in which case check_watchdog below
      // recovers and the drain completes on the degraded fabric.
      drain_outcome_ = degraded_ ? DrainOutcome::kDrainedDegraded
                                 : DrainOutcome::kDrained;
      check_conservation();
      return true;
    }
    if (check_watchdog()) {
      drain_outcome_ = DrainOutcome::kStalled;
      check_conservation();
      return false;
    }
    if (chip_->cycle() >= next_invariant_) {
      while (next_invariant_ <= chip_->cycle()) {
        next_invariant_ += config_.endurance.invariant_cadence;
      }
      if (sweep_invariants()) {
        drain_outcome_ = DrainOutcome::kInvariantViolation;
        return false;
      }
    }
    if (ledger_.in_flight.size() != last_in_flight) {
      last_in_flight = ledger_.in_flight.size();
      last_shrink = chip_->cycle();
    } else if (std::all_of(inputs_.begin(), inputs_.end(),
                           [](const auto& in) { return in->idle(); }) &&
               chip_->cycle() - last_shrink >= wd.no_progress_bound) {
      ledger_.erased_lost += ledger_.in_flight.size();
      ledger_.in_flight.clear();
      drain_outcome_ = DrainOutcome::kLossQuiesced;
      flight_mark();
      check_conservation();
      return false;
    }
    if (chip_->cycle() >= deadline) {
      drain_outcome_ = DrainOutcome::kTimeout;
      flight_mark();
      check_conservation();
      return false;
    }
  }
}

std::uint64_t RawRouter::offered_packets() const {
  std::uint64_t n = 0;
  for (const auto& in : inputs_) n += in->offered_packets();
  return n;
}

std::uint64_t RawRouter::dropped_at_card() const {
  std::uint64_t n = 0;
  for (const auto& in : inputs_) n += in->dropped_packets();
  return n;
}

std::uint64_t RawRouter::delivered_packets() const {
  std::uint64_t n = 0;
  for (const auto& out : outputs_) n += out->delivered_packets();
  return n;
}

common::ByteCount RawRouter::delivered_bytes() const {
  common::ByteCount n = 0;
  for (const auto& out : outputs_) n += out->delivered_bytes();
  return n;
}

std::uint64_t RawRouter::errors() const {
  std::uint64_t n = 0;
  for (const auto& out : outputs_) n += out->errors();
  return n;
}

std::uint64_t RawRouter::state_digest() const {
  std::uint64_t h = chip_->state_digest();
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;  // FNV-1a prime, matching Chip::state_digest
  };
  mix(ledger_.erased_delivered);
  mix(ledger_.erased_invalid);
  mix(ledger_.erased_ingress);
  mix(ledger_.erased_lost);
  mix(ledger_.in_flight.size());
  mix(offered_packets());
  mix(dropped_at_card());
  for (std::size_t p = 0; p < kNumPorts; ++p) {
    const PortCounters& ctr = core_.counters[p];
    mix(ctr.packets_in);
    mix(ctr.fragments);
    mix(ctr.grants);
    mix(ctr.lookups);
    mix(ctr.ttl_drops);
    mix(ctr.no_route_drops);
    mix(ctr.malformed_drops);
    mix(ctr.resync_slides);
    mix(ctr.cut_through);
    mix(ctr.reassembled);
    mix(ctr.dead_port_drops);
    const OutputLineCard& out = *outputs_[p];
    mix(out.delivered_packets());
    mix(out.delivered_bytes());
    mix(out.errors());
    mix(out.resyncs());
  }
  mix(static_cast<std::uint64_t>(drain_outcome_));
  mix(watchdog_trips_);
  mix(recoveries_);
  mix(static_cast<std::uint64_t>(schedule_generation_));
  return h;
}

double RawRouter::gbps() const {
  return common::gbps(delivered_bytes(), chip_->cycle());
}

double RawRouter::mpps() const {
  return common::mpps(delivered_packets(), chip_->cycle());
}

}  // namespace raw::router
