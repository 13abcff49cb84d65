// The engine clock outside a chip, for unit tests of the parts that run on
// it (channels, switch processors, tile tasks, the dynamic network). A cycle
// is the same as in Chip's cycle loop: the test does the cycle's work at
// `engine.now`, then tick() commits the channels written during it and
// advances the clock.
#pragma once

#include "sim/channel.h"

namespace raw::sim {

struct TestClock {
  EngineState engine;

  void tick() {
    (void)engine.commit_dirty();
    ++engine.now;
  }
};

}  // namespace raw::sim
