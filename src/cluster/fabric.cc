#include "cluster/fabric.h"

#include <algorithm>

#include "common/assert.h"
#include "net/ipv4.h"
#include "sim/invariants.h"

namespace raw::cluster {

namespace {

// Every chip runs the single-chip router's default settings.
const router::RouterConfig kChipDefaults{};

}  // namespace

ClusterFabric::ClusterFabric(ClusterConfig config, std::uint64_t seed)
    : config_(std::move(config)), seed_(seed) {
  config_.validate();
  topo_ = Topology::build(config_);

  // The host traffic template becomes concrete here: one port per global
  // host, grouped by chip so remote_fraction is the cross-chip share.
  config_.traffic.num_ports = num_hosts();
  config_.traffic.group_of.clear();
  for (const HostPlan& h : topo_.hosts) {
    config_.traffic.group_of.push_back(h.chip);
  }

  // Links first: the trunk cards built per chip point into them.
  InterChipLink::Params p;
  p.latency = config_.link_latency;
  p.throttle_numer = config_.throttle_numer;
  p.throttle_denom = config_.throttle_denom;
  p.reliable = config_.reliable_links;
  links_.reserve(topo_.links.size());
  for (std::size_t l = 0; l < topo_.links.size(); ++l) {
    links_.push_back(std::make_unique<InterChipLink>(p));
  }

  plan_ = sim::FaultPlan(config_.faults);
  plan_.bind(topo_.links.size(), num_chips());
  link_dead_.assign(topo_.links.size(), false);
  chip_dead_.assign(static_cast<std::size_t>(num_chips()), false);
  watchdog_chip_cycle_.assign(static_cast<std::size_t>(num_chips()), 0);

  inputs_.resize(topo_.hosts.size());
  outputs_.resize(topo_.hosts.size());
  for (int c = 0; c < num_chips(); ++c) {
    build_chip(c);
    build_cards(c);
  }

  std::vector<sim::Chip*> chips;
  chips.reserve(nodes_.size());
  for (const auto& n : nodes_) chips.push_back(n->chip.get());
  runner_ = std::make_unique<exec::ClusterRunner>(std::move(chips),
                                                  config_.threads);
}

void ClusterFabric::build_chip(int c) {
  auto node = std::make_unique<ChipNode>();

  // Hierarchical forwarding: every global host prefix maps to a local
  // output port (own host line, or the topology's ECMP shortest-path
  // trunk).
  for (std::size_t h = 0; h < topo_.hosts.size(); ++h) {
    node->table.add_route(
        net::make_addr(10, static_cast<std::uint8_t>(h), 0, 0), 16,
        topo_.next_hop[static_cast<std::size_t>(c)][h]);
  }
  node->forwarding = net::SmallTable::build(node->table.trie());

  node->core.table = &node->table;
  node->core.forwarding = &node->forwarding;
  node->core.config = kChipDefaults.runtime;
  node->core.ledger = &ledger_;
  // The full single-chip router mapping on every node, regardless of port
  // roles: an idle ingress just circulates EMPTY headers.
  node->chip = router::build_router_chip(node->core, layout_, schedules_);

  node->traffic = std::make_unique<net::TrafficGen>(config_.traffic,
                                                    chip_seed(seed_, c));
  nodes_.push_back(std::move(node));
}

void ClusterFabric::build_cards(int c) {
  ChipNode& node = *nodes_[static_cast<std::size_t>(c)];
  for (int p = 0; p < router::kNumPorts; ++p) {
    const PortRole role =
        topo_.roles[static_cast<std::size_t>(c)][static_cast<std::size_t>(p)];
    const router::PortTiles tiles = layout_.port(p);
    const router::PortEdges edges = layout_.edges(p);
    const sim::IoPort in_port =
        node.chip->io_port(0, tiles.ingress, edges.ingress_edge);
    const sim::IoPort out_port =
        node.chip->io_port(0, tiles.egress, edges.egress_edge);

    if (role == PortRole::kHost) {
      const int h = topo_.host_at(c, p);
      RAW_ASSERT(h >= 0);
      std::uint64_t* next_uid = &node.next_uid[static_cast<std::size_t>(p)];
      *next_uid = make_host_uid(h, 1);
      auto in = std::make_unique<router::InputLineCard>(
          in_port.to_chip, h, node.traffic.get(), &ledger_, next_uid,
          kChipDefaults.line_card_queue_words);
      auto out = std::make_unique<router::OutputLineCard>(
          out_port.from_chip, h, &ledger_, &topo_.hops);
      node.chip->add_device(in.get());
      node.chip->add_device(out.get());
      inputs_[static_cast<std::size_t>(h)] = std::move(in);
      outputs_[static_cast<std::size_t>(h)] = std::move(out);
      continue;
    }

    // Trunk: this port's egress edge feeds the outgoing link; the link
    // arriving here feeds its ingress edge.
    const int out_link = topo_.link_from(c, p);
    RAW_ASSERT_MSG(out_link >= 0, "trunk port without an outgoing link");
    int in_link = -1;
    for (std::size_t l = 0; l < topo_.links.size(); ++l) {
      if (topo_.links[l].dst_chip == c && topo_.links[l].dst_port == p) {
        in_link = static_cast<int>(l);
        break;
      }
    }
    RAW_ASSERT_MSG(in_link >= 0, "trunk port without an incoming link");
    auto eg = std::make_unique<router::TrunkEgressCard>(
        out_port.from_chip, p, links_[static_cast<std::size_t>(out_link)].get());
    auto in = std::make_unique<router::TrunkIngressCard>(
        in_port.to_chip, p, links_[static_cast<std::size_t>(in_link)].get());
    node.chip->add_device(in.get());
    node.chip->add_device(eg.get());
    trunk_ingress_.push_back(std::move(in));
    trunk_egress_.push_back(std::move(eg));
  }
}

void ClusterFabric::commit_links() {
  for (auto& l : links_) l->commit_epoch();
}

void ClusterFabric::barrier_maintenance() {
  // Single-threaded barrier tail: every worker is parked, links are
  // committed, and cycles_run_ names this barrier — the only place fault
  // and fail-over state may change, which is what keeps any fault schedule
  // digest-identical at every worker count. bind() admitted only link
  // flips and stalls (a permanent one is a cut) and chip freezes.
  plan_.fire_due(cycles_run_, [this](const sim::FaultEvent& e) {
    if (e.chip >= 0) {
      runner_->set_chip_active(static_cast<std::size_t>(e.chip), false);
      return true;
    }
    InterChipLink& link = *links_[static_cast<std::size_t>(e.link)];
    if (e.kind == sim::FaultKind::kBitFlip) return link.corrupt_front(e.bit);
    if (e.permanent) {
      link.cut();
    } else {
      link.stall_until(cycles_run_ + e.duration);
    }
    return true;
  });
  if (config_.failover &&
      cycles_run_ - last_watchdog_ >= config_.watchdog_interval) {
    watchdog_sample();
    last_watchdog_ = cycles_run_;
  }
}

void ClusterFabric::watchdog_sample() {
  std::vector<int> new_dead_chips;
  std::vector<int> new_dead_links;
  for (int c = 0; c < num_chips(); ++c) {
    const auto ci = static_cast<std::size_t>(c);
    const common::Cycle now = nodes_[ci]->chip->cycle();
    // A healthy chip advances every epoch, so one full interval of zero
    // progress is conclusive (detection latency: at most two intervals
    // after the freeze — one to re-baseline, one to observe the stall).
    if (!chip_dead_[ci] && now == watchdog_chip_cycle_[ci]) {
      new_dead_chips.push_back(c);
    }
    watchdog_chip_cycle_[ci] = now;
  }
  // Cut links report loss of signal; the sample confirms them within one
  // interval of the cut.
  for (std::size_t l = 0; l < links_.size(); ++l) {
    if (!link_dead_[l] && links_[l]->is_cut()) {
      new_dead_links.push_back(static_cast<int>(l));
    }
  }
  if (!new_dead_chips.empty() || !new_dead_links.empty()) {
    fail_over(std::move(new_dead_chips), std::move(new_dead_links));
  }
}

void ClusterFabric::fail_over(std::vector<int> new_dead_chips,
                              std::vector<int> new_dead_links) {
  FailoverReport report;
  report.cycle = cycles_run_;
  for (const int c : new_dead_chips) {
    chip_dead_[static_cast<std::size_t>(c)] = true;
    runner_->set_chip_active(static_cast<std::size_t>(c), false);
  }
  // Every link touching a dead chip dies with it: nothing will drain its
  // far end again.
  for (std::size_t l = 0; l < links_.size(); ++l) {
    if (link_dead_[l]) continue;
    const LinkPlan& p = topo_.links[l];
    if (chip_dead_[static_cast<std::size_t>(p.src_chip)] ||
        chip_dead_[static_cast<std::size_t>(p.dst_chip)]) {
      new_dead_links.push_back(static_cast<int>(l));
    }
  }
  std::sort(new_dead_links.begin(), new_dead_links.end());
  new_dead_links.erase(
      std::unique(new_dead_links.begin(), new_dead_links.end()),
      new_dead_links.end());
  for (const int l : new_dead_links) {
    const auto li = static_cast<std::size_t>(l);
    link_dead_[li] = true;
    links_[li]->cut();  // idempotent for watchdog-confirmed cuts
    // Conservation-exact write-off: the words die here, not silently.
    report.written_off_words += links_[li]->write_off_in_flight();
  }
  // Dead chips' host inputs stop offering; their queued packets are lost.
  for (std::size_t h = 0; h < topo_.hosts.size(); ++h) {
    if (chip_dead_[static_cast<std::size_t>(topo_.hosts[h].chip)]) {
      report.abandoned_packets += inputs_[h]->flush_and_stop();
    }
  }
  written_off_words_ += report.written_off_words;
  abandoned_packets_ += report.abandoned_packets;

  // Deterministic reroute over the survivor fabric, then rebuild every
  // alive chip's tables in place (heap-stable addresses: the tile programs
  // keep their RouterCore pointers).
  const Topology::RerouteResult rr = topo_.reroute(link_dead_, chip_dead_);
  unreachable_hosts_ = rr.unreachable_hosts;
  for (int c = 0; c < num_chips(); ++c) {
    const auto ci = static_cast<std::size_t>(c);
    if (chip_dead_[ci]) continue;
    ChipNode& node = *nodes_[ci];
    node.table = net::RouteTable();
    for (std::size_t h = 0; h < topo_.hosts.size(); ++h) {
      const int hop = rr.next_hop[ci][h];
      if (hop < 0) continue;  // unreachable: lookup miss -> no_route drop
      node.table.add_route(
          net::make_addr(10, static_cast<std::uint8_t>(h), 0, 0), 16, hop);
    }
    node.forwarding = net::SmallTable::build(node.table.trie());
  }
  // Rerouted paths no longer match the as-built hop matrix; relax the TTL
  // check on every surviving output card.
  for (std::size_t h = 0; h < topo_.hosts.size(); ++h) {
    if (!chip_dead_[static_cast<std::size_t>(topo_.hosts[h].chip)]) {
      outputs_[h]->set_degraded(num_chips());
    }
  }

  report.dead_chips = std::move(new_dead_chips);
  report.dead_links = std::move(new_dead_links);
  report.unreachable_hosts = unreachable_hosts_;
  failover_reports_.push_back(std::move(report));
  ++failover_generation_;
  degraded_ = true;
}

void ClusterFabric::run(common::Cycle cycles) {
  common::Cycle remaining = cycles;
  while (remaining > 0) {
    const common::Cycle e = std::min(epoch_cycles(), remaining);
    runner_->run_epoch(e);
    commit_links();
    remaining -= e;
    cycles_run_ += e;
    barrier_maintenance();
  }
}

bool ClusterFabric::drain(common::Cycle max_cycles) {
  for (auto& in : inputs_) in->stop();
  const auto inputs_idle = [this] {
    return std::all_of(inputs_.begin(), inputs_.end(),
                       [](const auto& in) { return in->idle(); });
  };
  // If the in-flight set stops shrinking for this long with the inputs
  // empty, whatever remains is wedged (or eaten by a fault) and is written
  // off so the accounting still closes.
  const common::Cycle stall_bound =
      std::max<common::Cycle>(1 << 16, 8 * config_.link_latency);

  // Between epochs every worker is parked, so the ledger can be read
  // directly here.
  std::size_t last_in_flight = ledger_.in_flight.size();
  common::Cycle last_shrink = 0;
  common::Cycle elapsed = 0;
  while (elapsed < max_cycles) {
    runner_->run_epoch(epoch_cycles());
    commit_links();
    elapsed += epoch_cycles();
    cycles_run_ += epoch_cycles();
    barrier_maintenance();
    const std::size_t in_flight = ledger_.in_flight.size();
    if (in_flight == 0 && inputs_idle()) {
      drained_ = true;
      drain_outcome_ = degraded_ ? router::DrainOutcome::kDrainedDegraded
                                 : router::DrainOutcome::kDrained;
      check_conservation();
      return true;
    }
    if (in_flight != last_in_flight) {
      last_in_flight = in_flight;
      last_shrink = elapsed;
    } else if ((inputs_idle() || degraded_) &&
               elapsed - last_shrink >= stall_bound) {
      // In a degraded run the residue is explained by the confirmed
      // failure: frames wedged behind a cut trunk or inside a dead chip,
      // and input queues backed up behind a blocked egress that will never
      // unblock. Writing all of it off closes the books and the quiesce is
      // a clean exit. In a healthy run the same residue means something is
      // wedged — fail (and a healthy run only reaches here inputs-idle).
      if (degraded_) {
        for (auto& in : inputs_) {
          if (!in->idle()) abandoned_packets_ += in->flush_and_stop();
        }
      }
      ledger_.erased_lost += ledger_.in_flight.size();
      ledger_.in_flight.clear();
      drained_ = degraded_;
      drain_outcome_ = drained_ ? router::DrainOutcome::kDrainedDegraded
                                : router::DrainOutcome::kLossQuiesced;
      check_conservation();
      return drained_;
    }
  }
  drained_ = false;
  drain_outcome_ = router::DrainOutcome::kTimeout;
  check_conservation();
  return false;
}

void ClusterFabric::check_conservation() const {
  const std::string broken =
      ledger_.conservation(offered_packets(), dropped_at_card());
  RAW_ASSERT_MSG(broken.empty(),
                 ("cluster packet conservation violated: " + broken).c_str());
}

std::uint64_t ClusterFabric::total_retransmits() const {
  std::uint64_t n = 0;
  for (const auto& l : links_) n += l->retransmits();
  return n;
}

std::uint64_t ClusterFabric::total_delivered_corrupt() const {
  std::uint64_t n = 0;
  for (const auto& l : links_) n += l->delivered_corrupt();
  return n;
}

void ClusterFabric::register_invariants(sim::InvariantMonitor& monitor) {
  monitor.add_check(
      "cluster/link-books",
      [this]() -> std::string {
        for (std::size_t l = 0; l < links_.size(); ++l) {
          const InterChipLink& lk = *links_[l];
          if (lk.sent_total() != lk.delivered_total() + lk.in_flight_words() +
                                     lk.written_off_total()) {
            return "link " + std::to_string(l) +
                   ": sent != delivered + in_flight + written_off";
          }
        }
        return {};
      },
      /*deterministic=*/true);
  monitor.add_check(
      "cluster/link-seq",
      [this]() -> std::string {
        for (std::size_t l = 0; l < links_.size(); ++l) {
          if (!links_[l]->seq_books_ok()) {
            return "link " + std::to_string(l) +
                   ": sequence books broken (gap or duplicate in the "
                   "retransmit window)";
          }
        }
        return {};
      },
      /*deterministic=*/true);
  monitor.add_check(
      "cluster/conservation",
      [this]() -> std::string {
        return ledger_.conservation(offered_packets(), dropped_at_card());
      },
      /*deterministic=*/true);
  monitor.add_check(
      "cluster/chip-liveness",
      [this, baseline = std::vector<common::Cycle>(
                 static_cast<std::size_t>(num_chips()), 0)]() mutable
      -> std::string {
        for (int c = 0; c < num_chips(); ++c) {
          const auto ci = static_cast<std::size_t>(c);
          const common::Cycle now = nodes_[ci]->chip->cycle();
          // A chip the runner has deactivated (injected freeze awaiting
          // watchdog confirmation, or already failed over) is excused.
          if (!chip_dead_[ci] && runner_->chip_active(ci) &&
              now <= baseline[ci] && now != 0) {
            return "chip " + std::to_string(c) +
                   " made no progress between sweeps but is not confirmed "
                   "dead";
          }
          baseline[ci] = now;
        }
        return {};
      },
      /*deterministic=*/false);
}

void ClusterFabric::set_force_dense(bool on) {
  for (auto& n : nodes_) n->chip->set_force_dense(on);
}

std::uint64_t ClusterFabric::offered_packets() const {
  std::uint64_t n = 0;
  for (const auto& in : inputs_) n += in->offered_packets();
  return n;
}

std::uint64_t ClusterFabric::dropped_at_card() const {
  std::uint64_t n = 0;
  for (const auto& in : inputs_) n += in->dropped_packets();
  return n;
}

std::uint64_t ClusterFabric::delivered_packets() const {
  std::uint64_t n = 0;
  for (const auto& out : outputs_) n += out->delivered_packets();
  return n;
}

common::ByteCount ClusterFabric::delivered_bytes() const {
  common::ByteCount n = 0;
  for (const auto& out : outputs_) n += out->delivered_bytes();
  return n;
}

std::uint64_t ClusterFabric::errors() const {
  std::uint64_t n = 0;
  for (const auto& out : outputs_) n += out->errors();
  return n;
}

std::uint64_t ClusterFabric::resyncs() const {
  std::uint64_t n = 0;
  for (const auto& out : outputs_) n += out->resyncs();
  return n;
}

std::uint64_t ClusterFabric::malformed_drops() const {
  std::uint64_t n = 0;
  for (const auto& node : nodes_) {
    for (const router::PortCounters& ctr : node->core.counters) {
      n += ctr.malformed_drops;
    }
  }
  return n;
}

double ClusterFabric::aggregate_gbps() const {
  return common::gbps(delivered_bytes(), cycles_run_);
}

double ClusterFabric::aggregate_mpps() const {
  return common::mpps(delivered_packets(), cycles_run_);
}

common::Histogram ClusterFabric::latency_histogram() const {
  common::Histogram merged(16.0, 2048);
  for (const auto& out : outputs_) merged.merge(out->latency_histogram());
  return merged;
}

std::uint64_t ClusterFabric::cluster_digest() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  for (const auto& n : nodes_) {
    mix(n->chip->state_digest());
    for (const router::PortCounters& ctr : n->core.counters) {
      ctr.fold_digest(h);
    }
  }
  for (const auto& in : inputs_) {
    mix(in->offered_packets());
    mix(in->offered_bytes());
    mix(in->dropped_packets());
  }
  for (const auto& out : outputs_) {
    mix(out->delivered_packets());
    mix(out->delivered_bytes());
    mix(out->errors());
    mix(out->resyncs());
  }
  for (const auto& l : links_) {
    mix(l->sent_total());
    mix(l->delivered_total());
    mix(l->in_flight_words());
  }
  for (const auto& t : trunk_egress_) {
    mix(t->words_out());
    mix(t->queued_words());
  }
  for (const auto& t : trunk_ingress_) mix(t->words_in());
  mix(ledger_.erased_delivered);
  mix(ledger_.erased_invalid);
  mix(ledger_.erased_ingress);
  mix(ledger_.erased_lost);
  mix(ledger_.in_flight.size());
  mix(cycles_run_);
  mix(drained_ ? 1 : 0);
  // Robustness state folds in only when one of the robustness features is
  // configured, so a faults-off fabric's digest stays byte-identical to the
  // pre-recovery implementation.
  if (config_.reliable_links || config_.failover || !config_.faults.empty()) {
    for (const auto& l : links_) {
      mix(l->retransmits());
      mix(l->delivered_corrupt());
      mix(l->written_off_total());
    }
    mix(plan_.fired());
    mix(plan_.bit_flips_applied());
    mix(plan_.bit_flips_missed());
    mix(plan_.link_stalls());
    mix(plan_.link_cuts());
    mix(plan_.chip_freezes());
    mix(degraded_ ? 1 : 0);
    mix(static_cast<std::uint64_t>(failover_generation_));
    mix(written_off_words_);
    mix(abandoned_packets_);
    mix(unreachable_hosts_.size());
    for (const int u : unreachable_hosts_) {
      mix(static_cast<std::uint64_t>(u));
    }
    for (std::size_t l = 0; l < link_dead_.size(); ++l) {
      mix(link_dead_[l] ? 1 : 0);
    }
    for (std::size_t c = 0; c < chip_dead_.size(); ++c) {
      mix(chip_dead_[c] ? 1 : 0);
    }
  }
  return h;
}

void ClusterFabric::export_metrics(common::MetricRegistry& registry,
                                   const std::string& prefix) const {
  registry.gauge(prefix + "/gbps").set(aggregate_gbps());
  registry.gauge(prefix + "/mpps").set(aggregate_mpps());
  registry.counter(prefix + "/delivered_packets").set(delivered_packets());
  registry.counter(prefix + "/delivered_bytes").set(delivered_bytes());
  registry.counter(prefix + "/errors").set(errors());
  registry.counter(prefix + "/chips")
      .set(static_cast<std::uint64_t>(num_chips()));
  registry.counter(prefix + "/hosts")
      .set(static_cast<std::uint64_t>(num_hosts()));
  registry.counter(prefix + "/links").set(links_.size());
  registry.counter(prefix + "/workers")
      .set(static_cast<std::uint64_t>(workers()));
  registry.counter(prefix + "/epoch_cycles").set(epoch_cycles());
  registry.counter(prefix + "/cycles").set(cycles_run_);

  const common::Histogram lat = latency_histogram();
  registry.gauge(prefix + "/latency/p50").set(lat.quantile(0.50));
  registry.gauge(prefix + "/latency/p95").set(lat.quantile(0.95));
  registry.gauge(prefix + "/latency/p99").set(lat.quantile(0.99));
  registry.counter(prefix + "/latency/samples").set(lat.count());

  registry.counter(prefix + "/conservation/offered").set(offered_packets());
  registry.counter(prefix + "/conservation/dropped_at_card")
      .set(dropped_at_card());
  registry.counter(prefix + "/conservation/delivered")
      .set(ledger_.erased_delivered);
  registry.counter(prefix + "/conservation/invalid")
      .set(ledger_.erased_invalid);
  registry.counter(prefix + "/conservation/ingress_drops")
      .set(ledger_.erased_ingress);
  registry.counter(prefix + "/conservation/lost").set(ledger_.erased_lost);
  registry.counter(prefix + "/conservation/in_flight")
      .set(ledger_.in_flight.size());

  // Per-chip throughput and wall-clock lag behind the slowest chip (the
  // thread-per-chip load balance view).
  const std::vector<std::uint64_t>& wall = chip_wall_ns();
  const std::uint64_t slowest =
      wall.empty() ? 0 : *std::max_element(wall.begin(), wall.end());
  for (int c = 0; c < num_chips(); ++c) {
    const std::string chip = prefix + "/chip" + std::to_string(c);
    std::uint64_t offered = 0;
    std::uint64_t delivered = 0;
    common::ByteCount bytes = 0;
    for (std::size_t h = 0; h < topo_.hosts.size(); ++h) {
      if (topo_.hosts[h].chip != c) continue;
      offered += inputs_[h]->offered_packets();
      delivered += outputs_[h]->delivered_packets();
      bytes += outputs_[h]->delivered_bytes();
    }
    registry.counter(chip + "/offered_packets").set(offered);
    registry.counter(chip + "/delivered_packets").set(delivered);
    registry.gauge(chip + "/gbps").set(common::gbps(bytes, cycles_run_));
    const std::uint64_t ns = wall[static_cast<std::size_t>(c)];
    registry.counter(chip + "/wall_ns").set(ns);
    registry.counter(chip + "/epoch_lag_ns").set(slowest - ns);
  }

  std::uint64_t trunk_queued = 0;
  std::uint64_t trunk_peak = 0;
  for (const auto& t : trunk_egress_) {
    trunk_queued += t->queued_words();
    trunk_peak = std::max<std::uint64_t>(trunk_peak, t->peak_queued_words());
  }
  registry.counter(prefix + "/trunk_queued_words").set(trunk_queued);
  registry.counter(prefix + "/trunk_peak_queued_words").set(trunk_peak);

  for (std::size_t l = 0; l < links_.size(); ++l) {
    const std::string link = prefix + "/link" + std::to_string(l);
    registry.counter(link + "/sent_words").set(links_[l]->sent_total());
    registry.counter(link + "/delivered_words")
        .set(links_[l]->delivered_total());
    registry.counter(link + "/occupancy").set(links_[l]->occupancy());
    registry.counter(link + "/in_flight").set(links_[l]->in_flight_words());
    registry.counter(link + "/retransmits").set(links_[l]->retransmits());
    registry.counter(link + "/written_off")
        .set(links_[l]->written_off_total());
    registry.counter(link + "/dead").set(link_dead_[l] ? 1 : 0);
  }

  // Recovery and fail-over observability.
  registry.counter(prefix + "/recovered/retransmits").set(total_retransmits());
  registry.counter(prefix + "/recovered/delivered_corrupt")
      .set(total_delivered_corrupt());
  registry.counter(prefix + "/status").set(degraded_ ? 1 : 0);
  registry.counter(prefix + "/failover/generation")
      .set(static_cast<std::uint64_t>(failover_generation_));
  registry.counter(prefix + "/failover/dead_links")
      .set(static_cast<std::uint64_t>(
          std::count(link_dead_.begin(), link_dead_.end(), true)));
  registry.counter(prefix + "/failover/dead_chips")
      .set(static_cast<std::uint64_t>(
          std::count(chip_dead_.begin(), chip_dead_.end(), true)));
  registry.counter(prefix + "/failover/unreachable_hosts")
      .set(unreachable_hosts_.size());
  registry.counter(prefix + "/failover/written_off_words")
      .set(written_off_words_);
  registry.counter(prefix + "/failover/abandoned_packets")
      .set(abandoned_packets_);
  if (!plan_.empty()) plan_.export_metrics(registry, prefix + "/faults");
}

}  // namespace raw::cluster
