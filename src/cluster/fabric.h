// ClusterFabric: N rotating-crossbar router chips wired into a cluster.
//
// The fabric instantiates one 4x4 Raw chip per cluster node — each with the
// full single-chip router mapping (ingress/lookup/crossbar/egress tiles and
// compile-time switch schedules) — assigns every chip-edge port a role from
// the declarative topology (host line, inter-chip trunk, unused), and wires
// trunk ports through seeded InterChipLinks. Forwarding is hierarchical:
// each chip's route table maps every global host prefix 10.<host>/16 to a
// local output port (its own host line, or a shortest-path trunk chosen by
// destination-hash ECMP), so the unmodified single-chip tile programs route
// cluster traffic hop by hop, decrementing TTL once per chip.
//
// Execution advances all chips in lock-step epochs of at most link_latency
// cycles (conservative lookahead): within an epoch chips share nothing but
// barrier-committed link state and the mutex-guarded packet ledger, so the
// epoch can run thread-per-chip (exec::ClusterRunner) with results
// digest-identical to the serial schedule at any worker count.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster_config.h"
#include "cluster/inter_chip_link.h"
#include "cluster/topology.h"
#include "common/histogram.h"
#include "common/metrics.h"
#include "exec/cluster_runner.h"
#include "net/route_table.h"
#include "net/small_table.h"
#include "net/traffic.h"
#include "router/layout.h"
#include "router/line_cards.h"
#include "router/schedule_compiler.h"
#include "router/tile_programs.h"
#include "sim/chip.h"
#include "sim/fault_plan.h"

namespace raw::sim {
class InvariantMonitor;
}

namespace raw::cluster {

/// Per-host-card uid space: 22 bits of sequence under 10 bits of host id.
/// Each host card counts from make_host_uid(host, 1) on its own counter, so
/// chips stepping on different threads never share one and the uids do not
/// depend on the schedule.
inline constexpr std::uint64_t make_host_uid(int host_id, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(host_id) << 22) | seq;
}

/// Run health: a fabric is degraded once a confirmed permanent failure (a
/// trunk cut or a chip death) has triggered a fail-over reroute. Degraded
/// is a live state, not an exit: surviving chips keep forwarding, and write
/// offs keep the conservation identity exact.
enum class ClusterStatus : std::uint8_t { kHealthy = 0, kDegraded = 1 };

/// One fail-over episode, recorded at the barrier that confirmed it.
struct FailoverReport {
  common::Cycle cycle = 0;           // barrier cycle of the reroute
  std::vector<int> dead_chips;       // chips newly confirmed dead
  std::vector<int> dead_links;       // links newly excluded (incl. chip-adjacent)
  std::vector<int> unreachable_hosts;  // total after this reroute
  std::uint64_t written_off_words = 0;   // link words written off here
  std::uint64_t abandoned_packets = 0;   // dead-chip input packets written off
};

class ClusterFabric {
 public:
  ClusterFabric(ClusterConfig config, std::uint64_t seed);

  /// Runs the whole cluster for `cycles` cycles (rounded up to whole
  /// epochs' worth of barrier commits internally, but every chip advances
  /// exactly `cycles`).
  void run(common::Cycle cycles);

  /// Stops the arrival processes and runs until every offered packet is
  /// accounted for (true), the in-flight set stops shrinking (packets are
  /// written off as lost), or `max_cycles` elapse (false). In a degraded
  /// run the write-off quiesce is a *clean* exit (true): the losses are
  /// explained by the confirmed failure and the books still close. Packet
  /// conservation is asserted on every exit path.
  [[nodiscard]] bool drain(common::Cycle max_cycles);
  [[nodiscard]] bool drained() const { return drained_; }

  // Fault-tolerance observability.
  [[nodiscard]] ClusterStatus status() const { return status_; }
  [[nodiscard]] bool degraded() const {
    return status_ == ClusterStatus::kDegraded;
  }
  [[nodiscard]] const sim::FaultPlan& fault_plan() const { return plan_; }
  [[nodiscard]] const std::vector<bool>& dead_links() const {
    return link_dead_;
  }
  [[nodiscard]] const std::vector<bool>& dead_chips() const {
    return chip_dead_;
  }
  /// Hosts some alive chip can no longer reach (sorted; empty when healthy).
  [[nodiscard]] const std::vector<int>& unreachable_hosts() const {
    return unreachable_hosts_;
  }
  [[nodiscard]] int failover_generation() const { return failover_generation_; }
  [[nodiscard]] const std::vector<FailoverReport>& failover_reports() const {
    return failover_reports_;
  }
  [[nodiscard]] std::uint64_t written_off_words() const {
    return written_off_words_;
  }
  [[nodiscard]] std::uint64_t abandoned_packets() const {
    return abandoned_packets_;
  }
  /// Reliable-layer totals across every link.
  [[nodiscard]] std::uint64_t total_retransmits() const;
  [[nodiscard]] std::uint64_t total_delivered_corrupt() const;

  /// Registers the cluster's continuous checks on `monitor` (sweep between
  /// epochs only): per-link word/sequence books, the cluster conservation
  /// identity with write-off accounting, and per-chip liveness (every chip
  /// not confirmed dead must advance between sweeps). `this` must outlive
  /// the monitor's sweeps.
  void register_invariants(sim::InvariantMonitor& monitor);

  [[nodiscard]] const ClusterConfig& config() const { return config_; }
  [[nodiscard]] const Topology& topology() const { return topo_; }
  [[nodiscard]] int num_chips() const { return topo_.num_chips; }
  [[nodiscard]] int num_hosts() const {
    return static_cast<int>(topo_.hosts.size());
  }
  [[nodiscard]] std::size_t num_links() const { return links_.size(); }
  /// Resolved thread-per-chip worker count (1 = serial).
  [[nodiscard]] int workers() const { return runner_->workers(); }
  /// Cycles every chip has run (identical across chips at barriers).
  [[nodiscard]] common::Cycle cycle() const { return cycles_run_; }
  [[nodiscard]] common::Cycle epoch_cycles() const { return epoch_; }

  [[nodiscard]] sim::Chip& chip(int i) {
    return *nodes_[static_cast<std::size_t>(i)]->chip;
  }
  [[nodiscard]] const InterChipLink& link(std::size_t i) const {
    return *links_[i];
  }
  [[nodiscard]] const router::InputLineCard& input(int host) const {
    return *inputs_[static_cast<std::size_t>(host)];
  }
  [[nodiscard]] const router::OutputLineCard& output(int host) const {
    return *outputs_[static_cast<std::size_t>(host)];
  }
  [[nodiscard]] const router::PacketLedger& ledger() const { return ledger_; }

  /// Forces dense stepping on every chip (dense-vs-sparse differential).
  void set_force_dense(bool on);

  // Aggregates across every host card.
  [[nodiscard]] std::uint64_t offered_packets() const;
  [[nodiscard]] std::uint64_t dropped_at_card() const;
  [[nodiscard]] std::uint64_t delivered_packets() const;
  [[nodiscard]] common::ByteCount delivered_bytes() const;
  [[nodiscard]] std::uint64_t errors() const;
  [[nodiscard]] std::uint64_t lost_packets() const {
    return ledger_.erased_lost;
  }
  /// Aggregate delivered throughput over the cycles run so far.
  [[nodiscard]] double aggregate_gbps() const;
  [[nodiscard]] double aggregate_mpps() const;
  /// Cluster-wide end-to-end latency distribution (all host cards merged).
  [[nodiscard]] common::Histogram latency_histogram() const;

  /// FNV-1a digest of the cluster's observable end state: every chip's
  /// architectural digest folded with its router counters, the host cards,
  /// the link conservation counters, and the shared ledger. Bit-identical
  /// across serial/threaded schedules and dense/sparse engines.
  [[nodiscard]] std::uint64_t cluster_digest() const;

  /// Per-chip accumulated wall time (thread-per-chip load balance view).
  [[nodiscard]] const std::vector<std::uint64_t>& chip_wall_ns() const {
    return runner_->chip_wall_ns();
  }

  /// Publishes cluster observability under `prefix`:
  ///   <prefix>/{gbps,mpps,delivered_packets,delivered_bytes,errors}
  ///   <prefix>/latency/{p50,p95,p99}
  ///   <prefix>/conservation/{offered,dropped_at_card,delivered,...}
  ///   <prefix>/chip<C>/{gbps,offered_packets,delivered_packets,wall_ns,
  ///                     epoch_lag_ns}
  ///   <prefix>/link<L>/{sent_words,delivered_words,occupancy,in_flight}
  void export_metrics(common::MetricRegistry& registry,
                      const std::string& prefix = "cluster") const;

 private:
  /// One cluster node: chip + its routing state + its seeded traffic.
  /// Heap-allocated so RouterCore (captured by reference in the tile
  /// programs), the tables and the uid counters keep stable addresses.
  struct ChipNode {
    std::unique_ptr<sim::Chip> chip;
    net::RouteTable table;
    net::SmallTable forwarding;
    router::RouterCore core;
    std::unique_ptr<net::TrafficGen> traffic;
    /// Uid counter of the host card on each port (unused on trunk ports);
    /// only this chip's thread advances them.
    std::array<std::uint64_t, router::kNumPorts> next_uid{};
  };

  void build_chip(int c);
  void build_cards(int c);
  /// Epoch barrier: commits every link (single-threaded).
  void commit_links();
  /// Barrier tail (single-threaded, after commit_links and the cycle
  /// bookkeeping): fires due fault events, then samples the watchdog.
  void barrier_maintenance();
  /// Watchdog sample: a cut link reports loss of signal; a chip that made
  /// no cycle progress over a full interval is confirmed dead.
  void watchdog_sample();
  /// Deterministic fail-over: excludes the newly dead elements, writes off
  /// their in-flight words, abandons dead-chip inputs, and recomputes every
  /// surviving chip's routes (same BFS + ECMP rule as the build).
  void fail_over(std::vector<int> new_dead_chips,
                 std::vector<int> new_dead_links);
  void check_conservation() const;

  ClusterConfig config_;
  std::uint64_t seed_;
  Topology topo_;
  router::Layout layout_;
  // Compiled once: every chip loads the same shared switch programs.
  router::PortSchedules schedules_ =
      router::compile_port_schedules(router::ScheduleCompiler(layout_));
  router::PacketLedger ledger_;
  std::vector<std::unique_ptr<ChipNode>> nodes_;
  std::vector<std::unique_ptr<InterChipLink>> links_;  // parallel to topo_.links
  // Host line cards, by host id.
  std::vector<std::unique_ptr<router::InputLineCard>> inputs_;
  std::vector<std::unique_ptr<router::OutputLineCard>> outputs_;
  std::vector<std::unique_ptr<router::TrunkEgressCard>> trunk_egress_;
  std::vector<std::unique_ptr<router::TrunkIngressCard>> trunk_ingress_;
  std::unique_ptr<exec::ClusterRunner> runner_;
  common::Cycle epoch_ = 0;
  common::Cycle cycles_run_ = 0;
  bool drained_ = true;

  // Fault injection + fail-over state (all barrier-phase only).
  sim::FaultPlan plan_;
  ClusterStatus status_ = ClusterStatus::kHealthy;
  std::vector<bool> link_dead_;
  std::vector<bool> chip_dead_;
  std::vector<int> unreachable_hosts_;
  std::vector<FailoverReport> failover_reports_;
  int failover_generation_ = 0;
  std::uint64_t written_off_words_ = 0;
  std::uint64_t abandoned_packets_ = 0;
  common::Cycle last_watchdog_ = 0;
  std::vector<common::Cycle> watchdog_chip_cycle_;
};

}  // namespace raw::cluster
