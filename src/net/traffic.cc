#include "net/traffic.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"

namespace raw::net {

TrafficGen::TrafficGen(TrafficConfig config, std::uint64_t seed)
    : config_(std::move(config)) {
  RAW_ASSERT_MSG(config_.num_ports > 0, "need at least one port");
  RAW_ASSERT_MSG(config_.load > 0.0 && config_.load <= 1.0,
                 "load must be in (0, 1]");
  RAW_ASSERT_MSG(config_.mean_burst_packets >= 1.0, "burst mean below 1");
  if (config_.pattern == DestPattern::kPermutation && config_.permutation.empty()) {
    for (int p = 0; p < config_.num_ports; ++p) {
      config_.permutation.push_back((p + 1) % config_.num_ports);
    }
  }
  if (config_.pattern == DestPattern::kPermutation) {
    RAW_ASSERT_MSG(
        config_.permutation.size() == static_cast<std::size_t>(config_.num_ports),
        "permutation size must equal port count");
    std::vector<bool> seen(static_cast<std::size_t>(config_.num_ports), false);
    for (const int d : config_.permutation) {
      RAW_ASSERT_MSG(d >= 0 && d < config_.num_ports, "permutation out of range");
      RAW_ASSERT_MSG(!seen[static_cast<std::size_t>(d)], "not a permutation");
      seen[static_cast<std::size_t>(d)] = true;
    }
  }
  if (!config_.group_of.empty()) {
    RAW_ASSERT_MSG(
        config_.group_of.size() == static_cast<std::size_t>(config_.num_ports),
        "group_of must name a group per port");
    RAW_ASSERT_MSG(config_.remote_fraction >= 0.0 &&
                       config_.remote_fraction <= 1.0,
                   "remote_fraction must be in [0, 1]");
    int num_groups = 0;
    for (const int g : config_.group_of) {
      RAW_ASSERT_MSG(g >= 0, "group ids must be non-negative");
      num_groups = std::max(num_groups, g + 1);
    }
    local_ports_.resize(static_cast<std::size_t>(num_groups));
    remote_ports_.resize(static_cast<std::size_t>(num_groups));
    for (int g = 0; g < num_groups; ++g) {
      for (int p = 0; p < config_.num_ports; ++p) {
        if (config_.group_of[static_cast<std::size_t>(p)] == g) {
          local_ports_[static_cast<std::size_t>(g)].push_back(p);
        } else {
          remote_ports_[static_cast<std::size_t>(g)].push_back(p);
        }
      }
    }
  }
  if (config_.pareto_flows) {
    RAW_ASSERT_MSG(config_.pareto_alpha > 0.0, "pareto_alpha must be > 0");
    RAW_ASSERT_MSG(config_.flow_min_packets >= 1 &&
                       config_.flow_min_packets <= config_.flow_max_packets,
                   "flow packet bounds must satisfy 1 <= min <= max");
  }
  for (int p = 0; p < config_.num_ports; ++p) {
    per_port_rng_.emplace_back(seed * std::uint64_t{0x9e3779b97f4a7c15} +
                               static_cast<std::uint64_t>(p) + 1);
    burst_left_.push_back(0);
    flow_left_.push_back(0);
    flow_dst_.push_back(0);
  }
}

std::uint64_t TrafficGen::draw_flow_packets(common::Rng& rng) const {
  const double lo = static_cast<double>(config_.flow_min_packets);
  const double hi = static_cast<double>(config_.flow_max_packets);
  if (config_.flow_min_packets == config_.flow_max_packets) {
    return config_.flow_min_packets;
  }
  // Bounded-Pareto inverse CDF: x = L / (1 - U (1 - (L/H)^a))^(1/a).
  const double a = config_.pareto_alpha;
  const double ratio = std::pow(lo / hi, a);
  const double u = rng.uniform();
  const double x = lo / std::pow(1.0 - u * (1.0 - ratio), 1.0 / a);
  const double clamped = std::min(std::max(x, lo), hi);
  return static_cast<std::uint64_t>(clamped);
}

int TrafficGen::draw_grouped(int src_port, common::Rng& rng) {
  const int g = config_.group_of[static_cast<std::size_t>(src_port)];
  const auto& remote = remote_ports_[static_cast<std::size_t>(g)];
  const auto& local = local_ports_[static_cast<std::size_t>(g)];
  // A single-group cluster has no remote candidates: stay local without
  // consuming the coin draw (deterministic either way).
  const bool go_remote = !remote.empty() && rng.chance(config_.remote_fraction);
  const auto& cand = go_remote ? remote : local;
  return cand[rng.below(cand.size())];
}

int TrafficGen::draw_dest(int src_port, common::Rng& rng) {
  const auto n = static_cast<std::uint64_t>(config_.num_ports);
  switch (config_.pattern) {
    case DestPattern::kPermutation:
      return config_.permutation[static_cast<std::size_t>(src_port)];
    case DestPattern::kUniform:
      if (!config_.group_of.empty()) return draw_grouped(src_port, rng);
      return static_cast<int>(rng.below(n));
    case DestPattern::kHotspot:
      if (rng.chance(config_.hotspot_fraction)) return config_.hotspot_port;
      if (!config_.group_of.empty()) return draw_grouped(src_port, rng);
      return static_cast<int>(rng.below(n));
    case DestPattern::kLoopback:
      return src_port;
  }
  RAW_UNREACHABLE("bad DestPattern");
}

common::ByteCount max_packet_bytes(const TrafficConfig& config) {
  switch (config.size) {
    case SizeDist::kFixed:
      return config.fixed_bytes;
    case SizeDist::kBimodal:
      return std::max(config.small_bytes, config.large_bytes);
    case SizeDist::kImix:
      return 1500;
    case SizeDist::kUniformRange:
      return config.max_bytes;
  }
  RAW_UNREACHABLE("bad SizeDist");
}

common::ByteCount TrafficGen::draw_size(common::Rng& rng) {
  switch (config_.size) {
    case SizeDist::kFixed:
      return config_.fixed_bytes;
    case SizeDist::kBimodal:
      return rng.chance(config_.bimodal_small_fraction) ? config_.small_bytes
                                                        : config_.large_bytes;
    case SizeDist::kImix: {
      // 7:4:1 over 40 / 576 / 1500 bytes; IP packets here are >= 20 bytes
      // header so 40 stays valid.
      const std::uint64_t r = rng.below(12);
      if (r < 7) return 40;
      if (r < 11) return 576;
      return 1500;
    }
    case SizeDist::kUniformRange:
      return config_.min_bytes +
             rng.below(config_.max_bytes - config_.min_bytes + 1);
  }
  RAW_UNREACHABLE("bad SizeDist");
}

PacketDesc TrafficGen::next(int src_port) {
  RAW_ASSERT(src_port >= 0 && src_port < config_.num_ports);
  common::Rng& rng = per_port_rng_[static_cast<std::size_t>(src_port)];
  PacketDesc desc;
  if (config_.pareto_flows) {
    auto& left = flow_left_[static_cast<std::size_t>(src_port)];
    auto& dst = flow_dst_[static_cast<std::size_t>(src_port)];
    if (left == 0) {
      left = draw_flow_packets(rng);
      dst = draw_dest(src_port, rng);
    }
    --left;
    desc.dst_port = dst;
  } else {
    desc.dst_port = draw_dest(src_port, rng);
  }
  desc.bytes = draw_size(rng);

  if (config_.load < 1.0) {
    const auto words = static_cast<double>(common::words_for_bytes(desc.bytes));
    const double mean_gap_per_packet = words * (1.0 - config_.load) / config_.load;
    auto& burst = burst_left_[static_cast<std::size_t>(src_port)];
    if (burst == 0) {
      // Start a new burst: draw its length, and take the entire inter-burst
      // idle period up front.
      burst = 1 + rng.geometric(1.0 / config_.mean_burst_packets);
      const double mean_burst_gap =
          mean_gap_per_packet * config_.mean_burst_packets;
      // Exponential-ish gap via geometric draw on cycles.
      const double p = 1.0 / (1.0 + mean_burst_gap);
      desc.gap_cycles = rng.geometric(p);
    }
    --burst;
  }
  return desc;
}

}  // namespace raw::net
