// Link-time probe on core::aggregate_node_reports (see CMakeLists.txt).
// The multiprocess coordinator calls it exactly once, after the drain has
// completed and makespan has been taken, so its start time marks the end
// of the run and its duration is the report aggregation.
#include "probe.hpp"

#include <chrono>

#include "dsjoin/core/experiment.hpp"

namespace perfbench {

AggregateProbe& aggregate_probe() {
  static AggregateProbe probe;
  return probe;
}

}  // namespace perfbench

extern "C" {

void __real__ZN6dsjoin4core22aggregate_node_reportsESt4spanIKNS0_10NodeReportELm18446744073709551615EEPNS0_16ExperimentResultEb(
    std::span<const dsjoin::core::NodeReport> reports,
    dsjoin::core::ExperimentResult* result, bool merge_traffic);

void __wrap__ZN6dsjoin4core22aggregate_node_reportsESt4spanIKNS0_10NodeReportELm18446744073709551615EEPNS0_16ExperimentResultEb(
    std::span<const dsjoin::core::NodeReport> reports,
    dsjoin::core::ExperimentResult* result, bool merge_traffic) {
  perfbench::AggregateProbe& probe = perfbench::aggregate_probe();
  probe.start = std::chrono::steady_clock::now();
  __real__ZN6dsjoin4core22aggregate_node_reportsESt4spanIKNS0_10NodeReportELm18446744073709551615EEPNS0_16ExperimentResultEb(
      reports, result, merge_traffic);
  probe.end = std::chrono::steady_clock::now();
  ++probe.calls;
}

}  // extern "C"
