// When the coordinator aggregated the node reports (probe.cpp).
#pragma once

#include <chrono>
#include <cstdint>

namespace perfbench {

struct AggregateProbe {
  std::chrono::steady_clock::time_point start{};
  std::chrono::steady_clock::time_point end{};
  std::uint64_t calls = 0;
};

AggregateProbe& aggregate_probe();

}  // namespace perfbench
