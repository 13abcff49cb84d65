#include "cluster/cluster_config.h"

#include <stdexcept>
#include <string>

#include "cluster/topology.h"
#include "net/ipv4.h"

namespace raw::cluster {

void ClusterConfig::validate() const {
  if (num_chips < 2 || num_chips > 32) {
    throw std::invalid_argument(
        "ClusterConfig.num_chips must be in [2, 32] (one chip is not a "
        "cluster; host addressing allots 10.<host>/16 prefixes below 128); "
        "got " + std::to_string(num_chips));
  }
  if (topology == TopologyKind::kFatTree) {
    if (fat_tree_k != 2 && fat_tree_k != 4) {
      throw std::invalid_argument(
          "ClusterConfig.fat_tree_k must be 2 or 4 (the chips have four "
          "ports); got " + std::to_string(fat_tree_k));
    }
    const int needed = 5 * fat_tree_k * fat_tree_k / 4;
    if (num_chips != needed) {
      throw std::invalid_argument(
          "ClusterConfig.num_chips must be exactly " + std::to_string(needed) +
          " for a " + std::to_string(fat_tree_k) +
          "-ary fat-tree (k pods of k edge+agg switches plus (k/2)^2 core); "
          "got " + std::to_string(num_chips));
    }
  }
  if (link_latency == 0) {
    throw std::invalid_argument(
        "ClusterConfig.link_latency must be positive: the latency is the "
        "conservative lookahead window, and a zero window leaves the chips "
        "nothing to advance between epochs");
  }
  if (throttle_numer == 0 || throttle_denom == 0) {
    throw std::invalid_argument(
        "ClusterConfig.throttle_numer/denom must both be positive; got " +
        std::to_string(throttle_numer) + "/" + std::to_string(throttle_denom));
  }
  if (throttle_numer > throttle_denom) {
    throw std::invalid_argument(
        "ClusterConfig.throttle ratio " + std::to_string(throttle_numer) +
        "/" + std::to_string(throttle_denom) +
        " exceeds 1: a trunk cannot run faster than the one-word-per-cycle "
        "line it feeds");
  }
  if (link_capacity_words == 0) {
    throw std::invalid_argument(
        "ClusterConfig.link_capacity_words must be positive: a zero-capacity "
        "link can never carry a word");
  }
  if (epoch_cycles > link_latency) {
    throw std::invalid_argument(
        "ClusterConfig.epoch_cycles (" + std::to_string(epoch_cycles) +
        ") must not exceed link_latency (" + std::to_string(link_latency) +
        "): an epoch longer than the link latency lets a word arrive inside "
        "the epoch it was sent in, breaking the conservative schedule");
  }
  if (threads < 0) {
    throw std::invalid_argument(
        "ClusterConfig.threads must be >= 0 (0 resolves RAWSIM_THREADS); "
        "got " + std::to_string(threads));
  }
  if (link_fifo_depth < net::Ipv4Header::kWords) {
    throw std::invalid_argument(
        "ClusterConfig.link_fifo_depth must be >= " +
        std::to_string(net::Ipv4Header::kWords) +
        " (edge FIFOs hold a full IP header); got " +
        std::to_string(link_fifo_depth));
  }
  if (line_card_queue_words == 0) {
    throw std::invalid_argument(
        "ClusterConfig.line_card_queue_words must be positive: a "
        "zero-capacity card queue drops every packet before it reaches a "
        "chip");
  }
  if (traffic.remote_fraction < 0.0 || traffic.remote_fraction > 1.0) {
    throw std::invalid_argument(
        "ClusterConfig.traffic.remote_fraction must be in [0, 1]; got " +
        std::to_string(traffic.remote_fraction));
  }
  if (reliable_links && link_retransmit_limit == 0) {
    throw std::invalid_argument(
        "ClusterConfig.link_retransmit_limit must be >= 1 when "
        "reliable_links is on: a zero retransmit budget delivers every "
        "corrupt word anyway, which is the unreliable link spelled "
        "expensively");
  }
  if (reliable_links && link_retransmit_rtt == 0) {
    throw std::invalid_argument(
        "ClusterConfig.link_retransmit_rtt must be >= 1 when reliable_links "
        "is on: a retransmit takes at least one cycle of round trip");
  }
  if (failover && watchdog_interval == 0) {
    throw std::invalid_argument(
        "ClusterConfig.watchdog_interval must be positive when failover is "
        "on: the watchdog samples chip and link health once per interval, "
        "and a zero interval never samples at all");
  }
  if (!faults.empty()) {
    // Check the fault targets against the topology this config actually
    // builds (every earlier check has passed, so the build is well-defined).
    const Topology topo = Topology::build(*this);
    sim::FaultPlan(faults).bind(topo.links.size(), num_chips);
  }
}

}  // namespace raw::cluster
