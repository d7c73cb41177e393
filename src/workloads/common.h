// Shared helpers for the scientific kernels.
#pragma once

#include <cstddef>
#include <memory>

#include "cpu/sync.h"
#include "sim/system.h"

namespace dresar::workloads {

/// Contiguous block partition of [0, n) across `parts` workers.
struct Range {
  std::size_t begin = 0;
  std::size_t end = 0;
  [[nodiscard]] std::size_t size() const { return end - begin; }
};

inline Range blockPartition(std::size_t n, std::uint32_t parts, std::uint32_t who) {
  const std::size_t base = n / parts;
  const std::size_t extra = n % parts;
  const std::size_t begin = who * base + std::min<std::size_t>(who, extra);
  return Range{begin, begin + base + (who < extra ? 1 : 0)};
}

/// Builds the per-run hardware barrier sized to the system.
inline std::unique_ptr<HwBarrier> makeBarrier(System& sys) {
  return std::make_unique<HwBarrier>(sys.sched(), sys.config().numNodes,
                                     sys.config().barrierLatencyCycles);
}

}  // namespace dresar::workloads
