#include "sim/fault_plan.h"

#include <algorithm>
#include <stdexcept>

#include "common/assert.h"
#include "common/json.h"
#include "sim/chip.h"

namespace raw::sim {

namespace {

namespace json = common::json;

// The one kind-name table. The first entry of each kind is its name; the
// rest are the spellings cluster bundles of schema v1 used for link and
// chip events, which imply `permanent` where they name a cut or a death.
struct KindName {
  const char* name;
  FaultKind kind;
  bool permanent;
};
constexpr KindName kKindNames[] = {
    {"bit_flip", FaultKind::kBitFlip, false},
    {"link_stall", FaultKind::kLinkStall, false},
    {"tile_freeze", FaultKind::kTileFreeze, false},
    {"overrun", FaultKind::kOverrun, false},
    {"trunk_corrupt", FaultKind::kBitFlip, false},
    {"trunk_stall", FaultKind::kLinkStall, false},
    {"trunk_cut", FaultKind::kLinkStall, true},
    {"chip_freeze", FaultKind::kTileFreeze, true},
};

// The one target check: which target each kind takes, which tier a target
// belongs to, its range in the bound geometry (`chip` null for a fabric),
// and which windows `permanent` may replace. Returns "" when `e` is valid.
std::string target_error(const FaultEvent& e, const Chip* chip, int num_ports,
                         std::size_t num_links, int num_chips) {
  const bool channel = !e.channel.empty();
  const bool tile = e.tile >= 0;
  const bool port = e.port >= 0;
  const bool link = e.link >= 0;
  const bool dead = e.chip >= 0;
  if (channel + tile + port + link + dead != 1) {
    return "needs exactly one target (a channel, tile, port, link or chip)";
  }
  const std::string target = channel ? "channel" : tile ? "tile" : port ? "port"
                             : link  ? "link" : "chip";
  const bool fits = e.kind == FaultKind::kOverrun      ? port
                    : e.kind == FaultKind::kTileFreeze ? tile || dead
                                                       : channel || link;
  if (!fits) return "cannot target a " + target;
  if ((chip != nullptr) != (channel || tile || port)) {
    return "targets a " + target + ", but the plan is bound to " +
           (chip != nullptr ? "one chip" : "a fabric");
  }
  const auto outside = [](const std::string& what, int v, std::size_t n) {
    return "targets " + what + " " + std::to_string(v) +
           (n == 0 ? " but there are no " + what + "s"
                   : " outside " + what + "s 0.." + std::to_string(n - 1));
  };
  if (channel && chip->find_channel(e.channel) == nullptr) {
    return "targets unknown channel '" + e.channel + "'";
  }
  if (tile && e.tile >= chip->num_tiles()) {
    return outside("tile", e.tile, static_cast<std::size_t>(chip->num_tiles()));
  }
  if (port && e.port >= num_ports) {
    return outside("port", e.port, static_cast<std::size_t>(num_ports));
  }
  if (link && static_cast<std::size_t>(e.link) >= num_links) {
    return outside("link", e.link, num_links);
  }
  if (dead && e.chip >= num_chips) {
    return outside("chip", e.chip, static_cast<std::size_t>(num_chips));
  }
  if (e.permanent && !tile && !dead && !(link && e.kind == FaultKind::kLinkStall)) {
    return "cannot be permanent (only a link stall or a freeze can)";
  }
  if (dead && !e.permanent) return "freezes a chip, which is always permanent";
  if (e.kind == FaultKind::kLinkStall && !e.permanent && e.duration == 0) {
    return "is a transient stall with a zero-cycle duration";
  }
  return "";
}

}  // namespace

const char* fault_kind_name(FaultKind k) {
  for (const KindName& n : kKindNames) {
    if (n.kind == k) return n.name;
  }
  return "?";
}

void append_fault_event(std::string& s, const FaultEvent& e) {
  s += "{\"kind\": ";
  json::append_escaped(s, fault_kind_name(e.kind));
  json::append_field(s, "at", e.at);
  json::append_field(s, "duration", e.duration);
  json::append_field(s, "permanent", e.permanent);
  json::append_field(s, "channel", e.channel);
  json::append_field(s, "tile", e.tile);
  json::append_field(s, "port", e.port);
  json::append_field(s, "link", e.link);
  json::append_field(s, "chip", e.chip);
  json::append_field(s, "bit", e.bit);
  json::append_field(s, "factor", e.factor);
  s += "}";
}

bool parse_fault_event(json::Parser& p, FaultEvent* out) {
  FaultEvent e;
  bool implied_permanent = false;
  const bool ok = p.parse_object([&](const std::string& k) {
    if (k == "kind") {
      std::string name;
      if (!p.parse(&name)) return false;
      for (const KindName& n : kKindNames) {
        if (name == n.name) {
          e.kind = n.kind;
          implied_permanent = n.permanent;
          return true;
        }
      }
      return p.reject("unknown fault kind");
    }
    if (k == "at") return p.parse(&e.at);
    if (k == "duration") return p.parse(&e.duration);
    if (k == "permanent") return p.parse(&e.permanent);
    if (k == "channel") return p.parse(&e.channel);
    if (k == "tile") return p.parse(&e.tile);
    if (k == "port") return p.parse(&e.port);
    if (k == "link") return p.parse(&e.link);
    if (k == "chip") return p.parse(&e.chip);
    if (k == "bit") return p.parse(&e.bit);
    if (k == "factor") return p.parse(&e.factor);
    return p.skip_value();
  });
  e.permanent = e.permanent || implied_permanent;
  *out = std::move(e);
  return ok;
}

bool FaultPlan::has_permanent_fault() const {
  return std::any_of(events_.begin(), events_.end(),
                     [](const FaultEvent& e) { return e.permanent; });
}

void FaultPlan::set_tracer(common::PacketTracer* tracer) {
  tracer_ = tracer;
  if (tracer_ != nullptr) tracer_->set_track_name(kFaultTrack, "faults");
}

void FaultPlan::check_and_sort(const Chip* chip, int num_ports,
                               std::size_t num_links, int num_chips) {
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const FaultEvent& e = events_[i];
    const std::string why = target_error(e, chip, num_ports, num_links, num_chips);
    if (!why.empty()) {
      throw std::invalid_argument("fault event " + std::to_string(i) + " (" +
                                  fault_kind_name(e.kind) + " at cycle " +
                                  std::to_string(e.at) + ") " + why);
    }
  }
  std::stable_sort(events_.begin(), events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
  next_ = 0;
  bound_ = true;
}

void FaultPlan::bind(Chip& chip, int num_ports) {
  check_and_sort(&chip, num_ports, 0, 0);
  targets_.assign(events_.size(), nullptr);
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const FaultEvent& e = events_[i];
    if (!e.channel.empty()) targets_[i] = chip.find_channel(e.channel);
  }
  freezes_.clear();
  frozen_.assign(static_cast<std::size_t>(chip.num_tiles()), 0);
}

void FaultPlan::bind(std::size_t num_links, int num_chips) {
  check_and_sort(nullptr, 0, num_links, num_chips);
}

void FaultPlan::step(Chip& chip) {
  RAW_ASSERT_MSG(bound_, "FaultPlan stepped before bind()");
  const common::Cycle now = chip.cycle();
  fire_due(now, [&](const FaultEvent& e) { return fire(chip, e); });
  std::erase_if(freezes_, [this, now](const FreezeWindow& w) {
    if (w.permanent || now < w.until) return false;
    --frozen_[static_cast<std::size_t>(w.tile)];
    return true;
  });
  std::erase_if(overruns_, [now](const OverrunWindow& w) { return now >= w.until; });
  frozen_tile_cycles_ += freezes_.size();
}

bool FaultPlan::fire(Chip& chip, const FaultEvent& e) {
  const common::Cycle now = chip.cycle();
  const std::size_t idx = static_cast<std::size_t>(&e - events_.data());
  bool hit = true;
  switch (e.kind) {
    case FaultKind::kBitFlip:
      // An empty channel misses: the upset hit no live word.
      hit = targets_[idx]->fault_flip(e.bit);
      break;
    case FaultKind::kLinkStall:
      targets_[idx]->fault_stall(e.duration);
      break;
    case FaultKind::kTileFreeze:
      freezes_.push_back({e.tile, now + e.duration, e.permanent});
      ++frozen_[static_cast<std::size_t>(e.tile)];
      break;
    case FaultKind::kOverrun:
      overruns_.push_back({e.port, now + e.duration, e.factor});
      break;
  }
  if (tracer_ != nullptr) {
    tracer_->record(fired_, now, common::PacketEvent::kFault, kFaultTrack,
                    static_cast<std::uint32_t>(e.kind));
  }
  return hit;
}

void FaultPlan::count(const FaultEvent& e, bool hit) {
  switch (e.kind) {
    case FaultKind::kBitFlip:
      hit ? ++bit_flips_applied_ : ++bit_flips_missed_;
      break;
    case FaultKind::kLinkStall:
      e.permanent ? ++link_cuts_ : ++link_stalls_;
      break;
    case FaultKind::kTileFreeze:
      e.chip >= 0 ? ++chip_freezes_ : ++tile_freezes_;
      break;
    case FaultKind::kOverrun:
      ++overrun_bursts_;
      break;
  }
}

std::vector<int> FaultPlan::permanently_frozen_tiles() const {
  std::vector<int> tiles;
  for (const FreezeWindow& w : freezes_) {
    if (w.permanent) tiles.push_back(w.tile);
  }
  std::sort(tiles.begin(), tiles.end());
  tiles.erase(std::unique(tiles.begin(), tiles.end()), tiles.end());
  return tiles;
}

std::uint32_t FaultPlan::overrun_factor(int port, common::Cycle now) const {
  std::uint32_t factor = 1;
  for (const OverrunWindow& w : overruns_) {
    if (w.port == port && now < w.until) factor = std::max(factor, w.factor);
  }
  return factor;
}

void FaultPlan::export_metrics(common::MetricRegistry& registry,
                               const std::string& prefix) const {
  registry.counter(prefix + "/injected").set(fired_);
  registry.counter(prefix + "/bit_flips").set(bit_flips_applied_);
  registry.counter(prefix + "/bit_flips_missed").set(bit_flips_missed_);
  registry.counter(prefix + "/link_stalls").set(link_stalls_);
  registry.counter(prefix + "/link_cuts").set(link_cuts_);
  registry.counter(prefix + "/tile_freezes").set(tile_freezes_);
  registry.counter(prefix + "/chip_freezes").set(chip_freezes_);
  registry.counter(prefix + "/frozen_tile_cycles").set(frozen_tile_cycles_);
  registry.counter(prefix + "/overrun_bursts").set(overrun_bursts_);
}

}  // namespace raw::sim
