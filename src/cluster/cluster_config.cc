#include "cluster/cluster_config.h"

#include <stdexcept>
#include <string>

#include "cluster/topology.h"

namespace raw::cluster {

void ClusterConfig::validate() const {
  if (num_chips < 2 || num_chips > 32) {
    throw std::invalid_argument(
        "ClusterConfig.num_chips must be in [2, 32] (one chip is not a "
        "cluster; host addressing allots 10.<host>/16 prefixes below 128); "
        "got " + std::to_string(num_chips));
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
  if (threads < 0) {
    throw std::invalid_argument(
        "ClusterConfig.threads must be >= 0 (0 resolves RAWSIM_THREADS); "
        "got " + std::to_string(threads));
  }
  if (traffic.remote_fraction < 0.0 || traffic.remote_fraction > 1.0) {
    throw std::invalid_argument(
        "ClusterConfig.traffic.remote_fraction must be in [0, 1]; got " +
        std::to_string(traffic.remote_fraction));
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
