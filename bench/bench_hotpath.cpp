// Scalar vs. batch vs. SIMD ingestion cost for every hot-path operator
// (sliding DFT, AGMS / Fast-AGMS sketches, counting Bloom filter, window
// stores), plus the DFTT receiver's summary math (reconstruction,
// lag-max correlation, the CoeffStore membership index).
//
// Each operator runs the same value/key stream through three paths:
//   scalar  the tuple-at-a-time reference path
//   batch   the batch API with the simd:: kernels forced to their scalar
//           level — i.e. the PR-2 batch path, kept comparable across PRs
//   simd    the batch API at the best kernel level the host dispatches
//           (avx512 / avx2 / neon; identical bits by construction)
// and reports ns per item plus the scalar/batch and batch/simd speedups.
// Results go to stdout as an aligned table and to BENCH_hotpath.json (one
// entry per operator per config) so later PRs have a machine-readable perf
// trajectory. Operators without dedicated kernels (counting_bloom,
// count_window, tuple_store insert+evict) run the same code in both batch
// and simd columns; the tuple_store probe rows dispatch the §16 match-scan
// kernels.
//
// Two harness rows time what every simulated run pays around the join:
// metrics_collector (the global pair dedup, MetricsCollector::record_pair,
// one item per report; scalar column: a std::unordered_set of the pairs)
// and event_queue (one run_one plus one schedule_at at 16k pending
// events; scalar column: a std::priority_queue holding the std::function
// callbacks in its entries). Neither uses a simd:: kernel.
//
// The summary-math rows (reconstruct_rounded, lag_max_correlation,
// coeff_store) run at W=2048, K=8 — DFTT's default window and kappa=256 —
// and count one call as an item. Their scalar column is the dense
// reference: the full-length inverse of the zero-filled spectrum and, for
// coeff_store, a key -> count hash map probed once per key of the
// tolerance band. Their batch and simd columns time the library path (the
// input-pruned low-pass inverse, the sorted index), which uses no simd::
// kernel, so only the scalar-vs-batch ratio is gated.
//
// Flags:
//   --quick      fewer configs, shorter timing windows (CI smoke)
//   --check      exit 1 if any operator's batch path is >10% slower than
//                scalar, or a kernel-backed operator's simd path is >10%
//                slower than batch (regression guard, not an absolute-speed
//                gate; operators without kernels time identical code in
//                both columns, so their simd ratio is noise and is not
//                gated — and the probe rows' scalar-vs-batch ratio is
//                likewise ungated, see Entry::gate_batch)
//   --out=PATH   JSON output path (default BENCH_hotpath.json)
#include <algorithm>
#include <chrono>

#include "bench_util.hpp"
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <optional>
#include <queue>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dsjoin/common/rng.hpp"
#include "dsjoin/common/simd.hpp"
#include "dsjoin/core/metrics.hpp"
#include "dsjoin/core/summary_state.hpp"
#include "dsjoin/dsp/compression.hpp"
#include "dsjoin/dsp/sliding_dft.hpp"
#include "dsjoin/dsp/spectrum.hpp"
#include "dsjoin/net/event_queue.hpp"
#include "dsjoin/sketch/agms.hpp"
#include "dsjoin/sketch/bloom.hpp"
#include "dsjoin/stream/tuple.hpp"
#include "dsjoin/stream/window.hpp"

namespace {

using namespace dsjoin;

// Matches SystemConfig::summary_epoch_tuples — the batch size the simulator
// driver actually forms between summary refreshes.
constexpr std::size_t kBatchSize = 256;

struct Entry {
  std::string op;      // operator name
  std::string config;  // human-readable config, e.g. "W=2048 K=32"
  double scalar_ns = 0.0;
  double batch_ns = 0.0;  // batch API, kernels forced scalar (PR-2 path)
  double simd_ns = 0.0;   // batch API at the dispatched kernel level
  // Whether the operator has a dedicated simd:: kernel. When false the
  // batch and simd columns time identical code (counting Bloom stays on
  // the per-key path at every level — it is touch-bound, DESIGN.md §13),
  // so their ratio is pure measurement noise and --check must not gate it.
  bool has_kernel = false;
  // Whether the scalar-vs-batch ratio is meaningful. The tuple_store probe
  // rows set this false: their batch column (batched API, kernels forced
  // scalar) does the same per-probe work as the scalar point loop, so the
  // ratio hovers around 1.0 and --check gates only the kernel ratio there.
  bool gate_batch = true;
  std::size_t batch_size = kBatchSize;

  double speedup() const { return batch_ns > 0.0 ? scalar_ns / batch_ns : 0.0; }
  double simd_speedup() const { return simd_ns > 0.0 ? batch_ns / simd_ns : 0.0; }
};

/// Runs fn() (which processes `items` items per call) repeatedly for at
/// least `min_time_s`, three repetitions, and returns the best ns/item.
template <typename F>
double measure_ns_per_item(std::size_t items, double min_time_s, F&& fn) {
  using clock = std::chrono::steady_clock;
  fn();  // warmup
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    std::size_t calls = 0;
    const auto start = clock::now();
    double elapsed = 0.0;
    do {
      fn();
      ++calls;
      elapsed = std::chrono::duration<double>(clock::now() - start).count();
    } while (elapsed < min_time_s);
    const double ns =
        elapsed * 1e9 / (static_cast<double>(calls) * static_cast<double>(items));
    best = std::min(best, ns);
  }
  return best;
}

/// Measures one batch-path lambda twice: once with the kernels forced to
/// scalar (the `batch` column) and once at the default dispatched level
/// (the `simd` column). `make_fresh` re-creates operator state between the
/// two so neither measurement runs on the other's warmed allocations.
template <typename MakeFresh, typename Run>
void measure_batch_and_simd(Entry& e, std::size_t items, double min_time_s,
                            MakeFresh&& make_fresh, Run&& run) {
  make_fresh();
  common::simd::force_level(common::simd::Level::kScalar);
  e.batch_ns = measure_ns_per_item(items, min_time_s, run);
  common::simd::reset_level();
  make_fresh();
  e.simd_ns = measure_ns_per_item(items, min_time_s, run);
}

std::vector<double> random_values(std::size_t n, std::uint64_t seed) {
  common::Xoshiro256 rng(seed);
  std::vector<double> out(n);
  for (auto& v : out) v = rng.next_double_in(-1000.0, 1000.0);
  return out;
}

std::vector<std::uint64_t> random_keys(std::size_t n, std::uint64_t seed) {
  common::Xoshiro256 rng(seed);
  std::vector<std::uint64_t> out(n);
  for (auto& v : out) v = rng.next() % 100000;
  return out;
}

std::vector<stream::Tuple> random_tuples(std::size_t n, std::uint64_t seed) {
  common::Xoshiro256 rng(seed);
  std::vector<stream::Tuple> out(n);
  double ts = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    out[i].id = i + 1;
    out[i].key = static_cast<std::int64_t>(rng.next() % 100000);
    ts += 0.001;
    out[i].timestamp = ts;
    out[i].origin = 0;
    out[i].side = stream::StreamSide::kR;
  }
  return out;
}

Entry bench_sliding_dft(std::size_t window, std::size_t retained,
                        double min_time_s) {
  Entry e;
  e.op = "sliding_dft";
  e.has_kernel = true;
  e.config = "W=" + std::to_string(window) + " K=" + std::to_string(retained);
  const auto values = random_values(4 * kBatchSize, 11);

  dsp::SlidingDft scalar(window, retained);
  e.scalar_ns = measure_ns_per_item(values.size(), min_time_s, [&] {
    for (double v : values) scalar.push(v);
  });

  std::optional<dsp::SlidingDft> batch;
  measure_batch_and_simd(
      e, values.size(), min_time_s, [&] { batch.emplace(window, retained); },
      [&] {
        for (std::size_t base = 0; base < values.size(); base += kBatchSize) {
          batch->push_batch(
              std::span<const double>(values).subspan(base, kBatchSize));
        }
      });
  return e;
}

Entry bench_agms(std::size_t budget_counters, double min_time_s) {
  Entry e;
  const auto shape = sketch::AgmsShape::for_budget(budget_counters);
  e.op = "agms";
  e.has_kernel = true;
  e.config = "s0=" + std::to_string(shape.s0) + " s1=" + std::to_string(shape.s1);
  const auto keys = random_keys(4 * kBatchSize, 12);

  sketch::AgmsSketch scalar(shape, 42);
  e.scalar_ns = measure_ns_per_item(keys.size(), min_time_s, [&] {
    for (std::uint64_t k : keys) scalar.update(k, +1);
  });

  std::optional<sketch::AgmsSketch> batch;
  measure_batch_and_simd(
      e, keys.size(), min_time_s, [&] { batch.emplace(shape, 42); },
      [&] {
        for (std::size_t base = 0; base < keys.size(); base += kBatchSize) {
          batch->update_batch(
              std::span<const std::uint64_t>(keys).subspan(base, kBatchSize), +1);
        }
      });
  return e;
}

Entry bench_fast_agms(std::uint32_t rows, std::uint32_t buckets,
                      double min_time_s) {
  Entry e;
  e.op = "fast_agms";
  e.has_kernel = true;
  e.config =
      "rows=" + std::to_string(rows) + " buckets=" + std::to_string(buckets);
  const auto keys = random_keys(4 * kBatchSize, 13);

  sketch::FastAgmsSketch scalar(rows, buckets, 42);
  e.scalar_ns = measure_ns_per_item(keys.size(), min_time_s, [&] {
    for (std::uint64_t k : keys) scalar.update(k, +1);
  });

  std::optional<sketch::FastAgmsSketch> batch;
  measure_batch_and_simd(
      e, keys.size(), min_time_s, [&] { batch.emplace(rows, buckets, 42); },
      [&] {
        for (std::size_t base = 0; base < keys.size(); base += kBatchSize) {
          batch->update_batch(
              std::span<const std::uint64_t>(keys).subspan(base, kBatchSize), +1);
        }
      });
  return e;
}

Entry bench_counting_bloom(std::size_t counters, std::size_t expected_keys,
                           double min_time_s) {
  Entry e;
  const auto hashes = sketch::optimal_hash_count(counters, expected_keys);
  e.op = "counting_bloom";
  e.config = "m=" + std::to_string(counters) + " k=" + std::to_string(hashes);
  const auto keys = random_keys(4 * kBatchSize, 14);

  // Insert + erase of the same keys per round keeps counter state bounded,
  // so both paths measure the steady-state branch pattern.
  sketch::CountingBloomFilter scalar(counters, hashes, 42);
  e.scalar_ns = measure_ns_per_item(2 * keys.size(), min_time_s, [&] {
    for (std::uint64_t k : keys) scalar.insert(k);
    for (std::uint64_t k : keys) scalar.erase(k);
  });

  std::optional<sketch::CountingBloomFilter> batch;
  measure_batch_and_simd(
      e, 2 * keys.size(), min_time_s,
      [&] { batch.emplace(counters, hashes, 42); },
      [&] {
        for (std::size_t base = 0; base < keys.size(); base += kBatchSize) {
          batch->insert_batch(
              std::span<const std::uint64_t>(keys).subspan(base, kBatchSize));
        }
        for (std::size_t base = 0; base < keys.size(); base += kBatchSize) {
          batch->erase_batch(
              std::span<const std::uint64_t>(keys).subspan(base, kBatchSize));
        }
      });
  return e;
}

Entry bench_count_window(std::size_t capacity, double min_time_s) {
  Entry e;
  e.op = "count_window";
  e.config = "W=" + std::to_string(capacity);
  const auto tuples = random_tuples(4 * kBatchSize, 15);

  stream::CountWindow scalar(capacity);
  e.scalar_ns = measure_ns_per_item(tuples.size(), min_time_s, [&] {
    for (const auto& t : tuples) (void)scalar.insert(t);
  });

  std::optional<stream::CountWindow> batch;
  std::vector<stream::Tuple> evicted;
  measure_batch_and_simd(
      e, tuples.size(), min_time_s, [&] { batch.emplace(capacity); },
      [&] {
        for (std::size_t base = 0; base < tuples.size(); base += kBatchSize) {
          evicted.clear();
          batch->insert_batch(
              std::span<const stream::Tuple>(tuples).subspan(base, kBatchSize),
              evicted);
        }
      });
  return e;
}

Entry bench_tuple_store(double min_time_s) {
  Entry e;
  e.op = "tuple_store";
  e.config = "insert+evict";
  const auto tuples = random_tuples(4 * kBatchSize, 16);
  const double horizon = tuples.back().timestamp + 1.0;

  stream::TupleStore scalar;
  e.scalar_ns = measure_ns_per_item(tuples.size(), min_time_s, [&] {
    for (const auto& t : tuples) scalar.insert(t);
    scalar.evict_before(horizon);
  });

  std::optional<stream::TupleStore> batch;
  measure_batch_and_simd(
      e, tuples.size(), min_time_s, [&] { batch.emplace(); },
      [&] {
        batch->insert_batch(tuples);
        batch->evict_before(horizon);
      });
  return e;
}

// Fig. 11 scale: a retention window's worth of stored tuples (Zipf-ish key
// reuse via `% 512`) probed by an arrival slice. The scalar column is the
// point probe with kernels forced scalar (the pre-§16 reference path); the
// batch column is the batched probe API still forced scalar; the simd
// column dispatches the match-scan kernels.
Entry bench_tuple_store_probe(double min_time_s) {
  Entry e;
  e.op = "tuple_store";
  e.config = "probe count";
  e.has_kernel = true;
  e.gate_batch = false;

  common::Xoshiro256 rng(17);
  std::vector<stream::Tuple> stored(4096);
  double ts = 0.0;
  for (std::size_t i = 0; i < stored.size(); ++i) {
    stored[i].id = i + 1;
    stored[i].key = static_cast<std::int64_t>(rng.next() % 512);
    ts += 0.001;
    stored[i].timestamp = ts;
    stored[i].origin = 0;
    stored[i].side = stream::StreamSide::kR;
  }
  std::vector<stream::Tuple> probes(4 * kBatchSize);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    probes[i].id = 100000 + i;
    probes[i].key = static_cast<std::int64_t>(rng.next() % 512);
    probes[i].timestamp = rng.next_double_in(0.0, ts);
    probes[i].side = stream::StreamSide::kS;
  }
  const double half_width = 0.5;

  stream::TupleStore store;
  store.insert_batch(stored);

  volatile std::uint64_t sink = 0;
  common::simd::force_level(common::simd::Level::kScalar);
  e.scalar_ns = measure_ns_per_item(probes.size(), min_time_s, [&] {
    std::uint64_t total = 0;
    for (const auto& p : probes) {
      total += store.count_matches(p.key, p.timestamp, half_width);
    }
    sink = sink + total;
  });
  common::simd::reset_level();

  std::vector<std::uint64_t> counts(probes.size());
  measure_batch_and_simd(
      e, probes.size(), min_time_s, [] {},
      [&] {
        for (std::size_t base = 0; base < probes.size(); base += kBatchSize) {
          store.count_matches_batch(
              std::span<const stream::Tuple>(probes).subspan(base, kBatchSize),
              half_width, counts.data() + base);
        }
        sink = sink + counts[0];
      });
  return e;
}

// Same store and probe slice through the materializing path
// (for_each_match / for_each_match_batch), which is what the node's result
// shipping runs on.
Entry bench_tuple_store_collect(double min_time_s) {
  Entry e;
  e.op = "tuple_store";
  e.config = "probe collect";
  e.has_kernel = true;
  e.gate_batch = false;

  common::Xoshiro256 rng(18);
  std::vector<stream::Tuple> stored(4096);
  double ts = 0.0;
  for (std::size_t i = 0; i < stored.size(); ++i) {
    stored[i].id = i + 1;
    stored[i].key = static_cast<std::int64_t>(rng.next() % 512);
    ts += 0.001;
    stored[i].timestamp = ts;
    stored[i].origin = 0;
    stored[i].side = stream::StreamSide::kR;
  }
  std::vector<stream::Tuple> probes(4 * kBatchSize);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    probes[i].id = 100000 + i;
    probes[i].key = static_cast<std::int64_t>(rng.next() % 512);
    probes[i].timestamp = rng.next_double_in(0.0, ts);
    probes[i].side = stream::StreamSide::kS;
  }
  const double half_width = 0.5;

  stream::TupleStore store;
  store.insert_batch(stored);

  volatile std::uint64_t sink = 0;
  common::simd::force_level(common::simd::Level::kScalar);
  e.scalar_ns = measure_ns_per_item(probes.size(), min_time_s, [&] {
    std::uint64_t total = 0;
    for (const auto& p : probes) {
      store.for_each_match(p.key, p.timestamp, half_width,
                           [&](const stream::StoredTuple& m) { total += m.id; });
    }
    sink = sink + total;
  });
  common::simd::reset_level();

  measure_batch_and_simd(
      e, probes.size(), min_time_s, [] {},
      [&] {
        std::uint64_t total = 0;
        for (std::size_t base = 0; base < probes.size(); base += kBatchSize) {
          store.for_each_match_batch(
              std::span<const stream::Tuple>(probes).subspan(base, kBatchSize),
              half_width,
              [&](std::size_t, const stream::StoredTuple& m) { total += m.id; });
        }
        sink = sink + total;
      });
  return e;
}

// DFTT's operating point: W=2048, kappa=256.
constexpr std::uint32_t kSummaryWindow = 2048;
constexpr std::uint32_t kSummaryRetained = 8;
constexpr std::int64_t kSummaryTolerance = 32;  // SystemConfig default

// A smooth key-valued window (random walk) compressed to K coefficients.
dsp::CompressedSpectrum summary_spectrum(std::uint64_t seed) {
  common::Xoshiro256 rng(seed);
  std::vector<double> signal(kSummaryWindow);
  double x = 50000.0;
  for (auto& v : signal) {
    x += rng.next_double_in(-30.0, 30.0);
    v = x;
  }
  return dsp::compress(signal, static_cast<double>(kSummaryWindow) / kSummaryRetained,
                       dsp::Fft::plan(kSummaryWindow));
}

std::string summary_config() {
  return "W=" + std::to_string(kSummaryWindow) +
         " K=" + std::to_string(kSummaryRetained);
}

// Dense reference: every bin of the zero-filled mirrored spectrum through
// the full-length inverse.
void dense_inverse_truncated(const dsp::CompressedSpectrum& spectrum,
                             std::vector<dsp::Complex>& full) {
  const std::size_t w = spectrum.window;
  full.assign(w, dsp::Complex{});
  full[0] = spectrum.coeffs[0];
  for (std::size_t k = 1; k < spectrum.coeffs.size(); ++k) {
    full[k] = spectrum.coeffs[k];
    if (w - k != k) full[w - k] = std::conj(spectrum.coeffs[k]);
  }
  dsp::Fft::plan(w).inverse(full);
}

Entry bench_reconstruct(double min_time_s) {
  Entry e;
  e.op = "reconstruct_rounded";
  e.config = summary_config();
  e.batch_size = 1;
  const auto spectrum = summary_spectrum(21);
  std::vector<dsp::Complex> full;
  std::vector<std::int64_t> out(kSummaryWindow);
  volatile std::int64_t sink = 0;
  e.scalar_ns = measure_ns_per_item(1, min_time_s, [&] {
    dense_inverse_truncated(spectrum, full);
    for (std::size_t n = 0; n < full.size(); ++n) out[n] = std::llround(full[n].real());
    sink = sink + out[0];
  });
  measure_batch_and_simd(e, 1, min_time_s, [] {}, [&] {
    dsp::reconstruct_rounded(spectrum, out);
    sink = sink + out[0];
  });
  return e;
}

Entry bench_lag_correlation(double min_time_s) {
  Entry e;
  e.op = "lag_max_correlation";
  e.config = summary_config();
  e.batch_size = 1;
  const auto x = summary_spectrum(22);
  const auto y = summary_spectrum(23);
  std::vector<dsp::Complex> full;
  volatile double sink = 0.0;
  e.scalar_ns = measure_ns_per_item(1, min_time_s, [&] {
    full.assign(kSummaryWindow, dsp::Complex{});
    for (std::size_t k = 1; k < kSummaryRetained; ++k) {
      const dsp::Complex s = x.coeffs[k] * std::conj(y.coeffs[k]);
      full[k] = s;
      full[kSummaryWindow - k] = std::conj(s);
    }
    dsp::Fft::plan(kSummaryWindow).inverse(full);
    double best = 0.0;
    for (const auto& v : full) best = std::max(best, std::abs(v));
    sink = sink + best;
  });
  measure_batch_and_simd(e, 1, min_time_s, [] {}, [&] {
    sink = sink + dsp::lag_max_correlation(x.coeffs, y.coeffs, kSummaryWindow).rho;
  });
  return e;
}

// One coefficient update (invalidating the index) per kProbes membership
// estimates, about the probe-to-rebuild ratio of a DFTT simulation.
Entry bench_coeff_store(double min_time_s) {
  constexpr std::size_t kProbes = 64;
  Entry e;
  e.op = "coeff_store";
  e.config = summary_config() + " rebuild+" + std::to_string(kProbes);
  e.batch_size = kProbes;
  const auto spectrum = summary_spectrum(24);
  std::vector<dsp::CoeffDelta> deltas;
  for (std::uint32_t k = 0; k < kSummaryRetained; ++k) {
    deltas.push_back(dsp::CoeffDelta{k, spectrum.coeffs[k]});
  }
  std::vector<std::int64_t> keys(kProbes);
  common::Xoshiro256 rng(25);
  const double mean = spectrum.coeffs[0].real() / kSummaryWindow;
  for (auto& k : keys) k = std::llround(mean + rng.next_double_in(-400.0, 400.0));

  std::vector<dsp::Complex> full;
  std::unordered_map<std::int64_t, std::uint32_t> counts;
  volatile std::uint64_t sink = 0;
  e.scalar_ns = measure_ns_per_item(kProbes, min_time_s, [&] {
    dense_inverse_truncated(spectrum, full);
    counts.clear();
    for (const auto& v : full) ++counts[std::llround(v.real())];
    std::uint64_t total = 0;
    for (std::int64_t key : keys) {
      for (std::int64_t k = key - kSummaryTolerance; k <= key + kSummaryTolerance; ++k) {
        const auto it = counts.find(k);
        if (it != counts.end()) total += it->second;
      }
    }
    sink = sink + total;
  });

  std::optional<core::CoeffStore> store;
  measure_batch_and_simd(
      e, kProbes, min_time_s,
      [&] { store.emplace(kSummaryWindow, kSummaryRetained); },
      [&] {
        store->apply(deltas);
        std::uint64_t total = 0;
        for (std::int64_t key : keys) {
          total += store->estimate_count(key, kSummaryTolerance);
        }
        sink = sink + total;
      });
  return e;
}

// About 300k distinct pairs, each reported 2 or 3 times (2.3 on average,
// about the duplication of a sim-mq run), in shuffled order; one item is
// one report into a fresh collector.
Entry bench_metrics_collector(double min_time_s) {
  constexpr std::size_t kDistinct = 300000;
  Entry e;
  e.op = "metrics_collector";
  e.config = "300k pairs x2.3";
  e.batch_size = 1;
  common::Xoshiro256 rng(26);
  std::vector<stream::ResultPair> reports;
  for (std::size_t i = 0; i < kDistinct; ++i) {
    const stream::ResultPair pair{rng.next() % (1u << 22), rng.next() % (1u << 22)};
    const int copies = rng.next_below(10) < 3 ? 3 : 2;
    for (int c = 0; c < copies; ++c) reports.push_back(pair);
  }
  for (std::size_t i = reports.size(); i > 1; --i) {
    std::swap(reports[i - 1], reports[rng.next_below(i)]);
  }
  volatile std::uint64_t sink = 0;
  e.scalar_ns = measure_ns_per_item(reports.size(), min_time_s, [&] {
    std::unordered_set<stream::ResultPair, stream::ResultPairHash> seen;
    for (const auto& pair : reports) seen.insert(pair);
    sink = sink + seen.size();
  });
  measure_batch_and_simd(e, reports.size(), min_time_s, [] {}, [&] {
    core::MetricsCollector collector;
    collector.set_node_count(8);
    for (std::size_t i = 0; i < reports.size(); ++i) {
      collector.record_pair(reports[i], static_cast<net::NodeId>(i & 7), 0.0);
    }
    sink = sink + collector.distinct_pairs();
  });
  return e;
}

// Steady state at 16k pending events (sim-mq's peak): each item runs the
// earliest event and schedules one more at a random delay on a coarse grid
// (exact-time ties included).
Entry bench_event_queue(double min_time_s) {
  constexpr std::size_t kPending = 16384;
  constexpr std::size_t kOps = 65536;
  Entry e;
  e.op = "event_queue";
  e.config = "16k pending";
  e.batch_size = 1;
  common::Xoshiro256 rng(27);
  std::vector<double> delays(4096);
  for (auto& d : delays) d = 0.001 * static_cast<double>(rng.next_below(2000));
  std::uint64_t fired = 0;

  // Reference: the callbacks ride in the heap entries.
  struct Event {
    double when;
    std::uint64_t sequence;
    bool barrier;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.sequence > b.sequence;
    }
  };
  std::priority_queue<Event, std::vector<Event>, Later> heap;
  std::uint64_t sequence = 0;
  double now = 0.0;
  for (std::size_t i = 0; i < kPending; ++i) {
    heap.push(Event{delays[i % delays.size()], sequence++, false,
                    [&fired, i] { fired += i & 1; }});
  }
  std::size_t next = 0;
  e.scalar_ns = measure_ns_per_item(kOps, min_time_s, [&] {
    for (std::size_t op = 0; op < kOps; ++op) {
      Event ev = std::move(const_cast<Event&>(heap.top()));
      heap.pop();
      now = ev.when;
      ev.fn();
      const double delay = delays[next++ % delays.size()];
      heap.push(Event{now + delay, sequence++, false,
                      [&fired, op] { fired += op & 1; }});
    }
  });

  std::optional<net::EventQueue> queue;
  measure_batch_and_simd(
      e, kOps, min_time_s,
      [&] {
        queue.emplace();
        for (std::size_t i = 0; i < kPending; ++i) {
          queue->schedule_at(delays[i % delays.size()],
                             [&fired, i] { fired += i & 1; });
        }
      },
      [&] {
        for (std::size_t op = 0; op < kOps; ++op) {
          queue->run_one();
          const double delay = delays[next++ % delays.size()];
          queue->schedule_at(queue->now() + delay,
                             [&fired, op] { fired += op & 1; });
        }
      });
  volatile std::uint64_t sink = fired;
  (void)sink;
  return e;
}

void write_json(const std::vector<Entry>& entries, const std::string& path) {
  const char* level = common::simd::level_name(common::simd::detected_level());
  std::ofstream out(path);
  // Kernel micro-bench: no engine backplane behind these numbers.
  out << "{\n  \"meta\": " << bench::json_meta("none")
      << ",\n  \"entries\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "  {\"operator\": \"%s\", \"config\": \"%s\", "
                  "\"scalar_ns_per_item\": %.2f, \"batch_ns_per_item\": %.2f, "
                  "\"simd_ns_per_item\": %.2f, \"speedup\": %.3f, "
                  "\"simd_speedup\": %.3f, \"simd_level\": \"%s\", "
                  "\"has_kernel\": %s, \"gate_batch\": %s, "
                  "\"batch_size\": %zu}%s\n",
                  e.op.c_str(), e.config.c_str(), e.scalar_ns, e.batch_ns,
                  e.simd_ns, e.speedup(), e.simd_speedup(), level,
                  e.has_kernel ? "true" : "false",
                  e.gate_batch ? "true" : "false", e.batch_size,
                  i + 1 < entries.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool check = false;
  std::string out_path = "BENCH_hotpath.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      std::fprintf(stderr, "usage: bench_hotpath [--quick] [--check] [--out=PATH]\n");
      return 2;
    }
  }

  const double min_time_s = quick ? 0.05 : 0.2;
  std::printf(
      "Hot-path ingestion: scalar vs batch (kernels forced scalar) vs simd "
      "(dispatched level: %s).\n",
      common::simd::level_name(common::simd::detected_level()));
  std::vector<Entry> entries;

  if (quick) {
    entries.push_back(bench_sliding_dft(2048, 32, min_time_s));
    entries.push_back(bench_agms(80, min_time_s));
    entries.push_back(bench_fast_agms(5, 256, min_time_s));
    entries.push_back(bench_counting_bloom(16384, 2048, min_time_s));
    entries.push_back(bench_count_window(2048, min_time_s));
    entries.push_back(bench_tuple_store(min_time_s));
    entries.push_back(bench_tuple_store_probe(min_time_s));
    entries.push_back(bench_tuple_store_collect(min_time_s));
    entries.push_back(bench_reconstruct(min_time_s));
    entries.push_back(bench_lag_correlation(min_time_s));
    entries.push_back(bench_coeff_store(min_time_s));
    entries.push_back(bench_metrics_collector(min_time_s));
    entries.push_back(bench_event_queue(min_time_s));
  } else {
    entries.push_back(bench_sliding_dft(2048, 8, min_time_s));
    entries.push_back(bench_sliding_dft(2048, 32, min_time_s));
    entries.push_back(bench_sliding_dft(2048, 128, min_time_s));
    entries.push_back(bench_sliding_dft(8192, 256, min_time_s));
    entries.push_back(bench_agms(20, min_time_s));
    entries.push_back(bench_agms(80, min_time_s));
    entries.push_back(bench_agms(320, min_time_s));
    entries.push_back(bench_fast_agms(5, 64, min_time_s));
    entries.push_back(bench_fast_agms(5, 256, min_time_s));
    entries.push_back(bench_fast_agms(7, 512, min_time_s));
    entries.push_back(bench_counting_bloom(16384, 2048, min_time_s));
    entries.push_back(bench_counting_bloom(65536, 2048, min_time_s));
    entries.push_back(bench_count_window(2048, min_time_s));
    entries.push_back(bench_count_window(8192, min_time_s));
    entries.push_back(bench_tuple_store(min_time_s));
    entries.push_back(bench_tuple_store_probe(min_time_s));
    entries.push_back(bench_tuple_store_collect(min_time_s));
    entries.push_back(bench_reconstruct(min_time_s));
    entries.push_back(bench_lag_correlation(min_time_s));
    entries.push_back(bench_coeff_store(min_time_s));
    entries.push_back(bench_metrics_collector(min_time_s));
    entries.push_back(bench_event_queue(min_time_s));
  }

  std::printf("%-20s %-22s %12s %12s %12s %9s %9s\n", "operator", "config",
              "scalar ns/it", "batch ns/it", "simd ns/it", "speedup",
              "simd spd");
  bool regression = false;
  for (const Entry& e : entries) {
    std::printf("%-20s %-22s %12.2f %12.2f %12.2f %8.2fx %8.2fx\n",
                e.op.c_str(), e.config.c_str(), e.scalar_ns, e.batch_ns,
                e.simd_ns, e.speedup(), e.simd_speedup());
    if (e.gate_batch && e.speedup() < 0.9) regression = true;
    if (e.has_kernel && e.simd_speedup() < 0.9) regression = true;
  }
  write_json(entries, out_path);
  std::printf("\nwrote %s (%zu entries, batch size %zu)\n", out_path.c_str(),
              entries.size(), kBatchSize);

  if (check && regression) {
    std::fprintf(stderr,
                 "FAIL: batch path >10%% slower than scalar, or simd path "
                 ">10%% slower than batch, on at least one operator\n");
    return 1;
  }
  return 0;
}
