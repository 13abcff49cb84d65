// §8.2: "the ability to get work done while the processor is blocked on
// external memory accesses" — Raw's exposed memory system gives the
// advantages of a multithreaded network processor without threads, by
// sending load messages over the dynamic network and consuming replies as
// they arrive.
//
// One tile plays the DRAM controller: it serves one-word load messages
// (the address) with one-word replies (the value). A worker tile issues
// its loads either one at a time or all at once.
//
//   ./build/examples/nonblocking_memory
#include <algorithm>
#include <array>
#include <cstdio>
#include <deque>

#include "sim/chip.h"
#include "sim/memory_model.h"
#include "sim/tile_task.h"

namespace {

using raw::common::Cycle;
using raw::common::Word;
using raw::sim::Chip;
using raw::sim::DynamicNetwork;
using raw::sim::TileTask;
using raw::sim::task::delay;
using raw::sim::task::mem_delay;

constexpr int kLookups = 16;
constexpr int kDramTile = 3;
constexpr int kWorkerTile = 12;

// A request arriving at cycle a completes at max(previous completion + bank
// occupancy, a + miss latency): an isolated load sees the full latency,
// back-to-back loads pipeline at the occupancy rate.
TileTask dram(Chip& chip) {
  DynamicNetwork& dyn = chip.dynamic_network();
  const raw::sim::MemoryModel model;
  struct Request {
    int from;
    Word addr;
    Cycle arrival;
  };
  std::deque<Request> queue;
  // Stamp every arrival, also while an access is in flight.
  const auto drain = [&] {
    while (dyn.eject_size(kDramTile) >= 2) {
      const int from = raw::sim::dyn_header_src(dyn.pop_eject(kDramTile));
      queue.push_back({from, dyn.pop_eject(kDramTile), chip.cycle()});
    }
  };
  Cycle completion = 0;
  for (;;) {
    drain();
    if (queue.empty()) {
      co_await delay(1);
      continue;
    }
    const Request r = queue.front();
    queue.pop_front();
    completion = std::max(completion + model.dram_occupancy_cycles,
                          r.arrival + model.cache_miss_cycles);
    while (chip.cycle() < completion) {
      drain();
      co_await mem_delay(1);
    }
    const std::array<Word, 1> value{100 + r.addr};
    while (!dyn.can_inject(kDramTile, 1)) co_await delay(1);
    dyn.inject(kDramTile, r.from, value);
  }
}

TileTask worker(Chip& chip, bool non_blocking, Cycle* finished) {
  DynamicNetwork& dyn = chip.dynamic_network();
  Word sent = 0;
  Word got = 0;
  while (got < kLookups) {
    // Blocking: the processor idles through every DRAM round trip.
    const bool may_issue = sent < kLookups && (non_blocking || sent == got);
    if (may_issue && dyn.can_inject(kWorkerTile, 1)) {
      const std::array<Word, 1> load{sent++};
      dyn.inject(kWorkerTile, kDramTile, load);
    } else if (dyn.eject_size(kWorkerTile) >= 2) {
      (void)dyn.pop_eject(kWorkerTile);  // header
      (void)dyn.pop_eject(kWorkerTile);  // value
      ++got;
    }
    co_await delay(1);
  }
  *finished = chip.cycle();
}

Cycle run(bool non_blocking) {
  Chip chip;
  Cycle finished = 0;
  chip.tile(kDramTile).set_program(dram(chip));
  chip.tile(kWorkerTile).set_program(worker(chip, non_blocking, &finished));
  chip.run_until([&] { return finished != 0; }, 100000);
  return finished;
}

}  // namespace

int main() {
  const Cycle blocking = run(false);
  const Cycle pipelined = run(true);
  std::printf("%d dependent-free DRAM loads over the dynamic network:\n",
              kLookups);
  std::printf("  blocking (one at a time): %llu cycles (%.1f per load)\n",
              static_cast<unsigned long long>(blocking),
              static_cast<double>(blocking) / kLookups);
  std::printf("  non-blocking (all in flight): %llu cycles (%.1f per load)\n",
              static_cast<unsigned long long>(pipelined),
              static_cast<double>(pipelined) / kLookups);
  std::printf("  speedup: %.1fx\n",
              static_cast<double>(blocking) / static_cast<double>(pipelined));
  std::printf("\nThis is how a Raw Lookup Processor would hide route-table\n"
              "memory latency to compete with multithreaded network\n"
              "processors (thesis section 8.2).\n");
  return blocking > pipelined ? 0 : 1;
}
