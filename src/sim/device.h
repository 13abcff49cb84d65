// Off-chip devices attached to the chip-edge static network ports.
#pragma once

namespace raw::sim {

class Chip;

/// A device stepped once per chip cycle, before the on-chip agents. Devices
/// interact with the chip exclusively through edge I/O channels, whose
/// two-phase semantics make the device/agent stepping order irrelevant.
class Device {
 public:
  virtual ~Device() = default;
  virtual void step(Chip& chip) = 0;
};

}  // namespace raw::sim
