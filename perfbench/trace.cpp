// The traced driver's process-wide tracer, and the link-time wrapper that
// puts a span around MetricsCollector::record_pair. core::Node calls
// record_pair from inside NodeHost::ingest/deliver, so no driver-side span
// can reach it; GNU ld's --wrap (CMakeLists.txt) redirects every call that
// crosses an object-file boundary to __wrap_<symbol> below, which forwards
// to the real definition (__real_<symbol>).
#include "trace.hpp"

#include <pthread.h>

#include "dsjoin/core/metrics.hpp"

perfbench::Tracer& perfbench::tracer() {
  static Tracer instance;
  return instance;
}

namespace {

// The multiprocess backend forks its daemons from inside
// runtime::run_experiment; only the parent process traces.
[[maybe_unused]] const int kChildrenUntraced = pthread_atfork(
    nullptr, nullptr, [] { perfbench::tracer().disable(); });

}  // namespace

extern "C" {

// dsjoin::core::MetricsCollector::record_pair(const stream::ResultPair&,
//                                             net::NodeId, double)
void __real__ZN6dsjoin4core16MetricsCollector11record_pairERKNS_6stream10ResultPairEjd(
    dsjoin::core::MetricsCollector* self, const dsjoin::stream::ResultPair& pair,
    dsjoin::net::NodeId discoverer, double now);

void __wrap__ZN6dsjoin4core16MetricsCollector11record_pairERKNS_6stream10ResultPairEjd(
    dsjoin::core::MetricsCollector* self, const dsjoin::stream::ResultPair& pair,
    dsjoin::net::NodeId discoverer, double now) {
  perfbench::Span span(perfbench::Layer::kRecord);
  __real__ZN6dsjoin4core16MetricsCollector11record_pairERKNS_6stream10ResultPairEjd(
      self, pair, discoverer, now);
}

}  // extern "C"
