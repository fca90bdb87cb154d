#include "dsjoin/core/summary_state.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <numbers>
#include <unordered_map>

#include "dsjoin/common/rng.hpp"
#include "dsjoin/common/thread_pool.hpp"
#include "dsjoin/dsp/fft.hpp"
#include "dsjoin/dsp/spectrum.hpp"

namespace dsjoin::core {
namespace {

using stream::StreamSide;

TEST(SummaryCodec, DftRoundTrip) {
  common::BufferWriter w;
  std::vector<dsp::CoeffDelta> deltas{
      {0, dsp::Complex(1.5, -2.5)}, {3, dsp::Complex(0.0, 4.0)}};
  summary_codec::encode_dft(w, StreamSide::kS, 2048, 8, deltas);

  bool visited = false;
  summary_codec::Visitor visitor;
  visitor.on_dft = [&](StreamSide side, std::uint32_t window,
                       std::uint32_t retained,
                       const std::vector<dsp::CoeffDelta>& decoded) {
    visited = true;
    EXPECT_EQ(side, StreamSide::kS);
    EXPECT_EQ(window, 2048u);
    EXPECT_EQ(retained, 8u);
    ASSERT_EQ(decoded.size(), 2u);
    EXPECT_EQ(decoded[0].index, 0u);
    EXPECT_EQ(decoded[0].value, dsp::Complex(1.5, -2.5));
    EXPECT_EQ(decoded[1].index, 3u);
  };
  SummaryBlock block{std::move(w).take()};
  ASSERT_TRUE(summary_codec::decode_blocks(block, visitor));
  EXPECT_TRUE(visited);
}

TEST(SummaryCodec, MultipleSubBlocksDecodeInOrder) {
  common::BufferWriter w;
  summary_codec::encode_dft(w, StreamSide::kR, 64, 4, {});
  sketch::CountingBloomFilter counting(512, 3, 5);
  counting.insert(42);
  summary_codec::encode_bloom(w, StreamSide::kS, counting.snapshot());
  sketch::AgmsSketch agms(sketch::AgmsShape{5, 1}, 9);
  agms.update(7);
  summary_codec::encode_sketch(w, StreamSide::kR, agms);

  int dft = 0, bloom = 0, sk = 0;
  summary_codec::Visitor visitor;
  visitor.on_dft = [&](auto, auto, auto, const auto&) { ++dft; };
  visitor.on_bloom = [&](StreamSide side, sketch::BloomFilter filter) {
    ++bloom;
    EXPECT_EQ(side, StreamSide::kS);
    EXPECT_TRUE(filter.contains(42));
  };
  visitor.on_sketch = [&](StreamSide side, sketch::AgmsSketch decoded) {
    ++sk;
    EXPECT_EQ(side, StreamSide::kR);
    EXPECT_EQ(decoded.counters(), agms.counters());
  };
  SummaryBlock block{std::move(w).take()};
  ASSERT_TRUE(summary_codec::decode_blocks(block, visitor));
  EXPECT_EQ(dft, 1);
  EXPECT_EQ(bloom, 1);
  EXPECT_EQ(sk, 1);
}

TEST(SummaryCodec, QuantDftRoundTripWithinStepBound) {
  // Encode at both widths; decoded values must sit within half a
  // quantization step of the originals and re-encoding must be
  // byte-identical (determinism is what backend parity rests on).
  std::vector<dsp::CoeffDelta> deltas{
      {0, dsp::Complex(1200.5, -300.25)},
      {3, dsp::Complex(0.0, 987.125)},
      {65535, dsp::Complex(-1250.0, 1.0)}};
  std::vector<dsp::Complex> values;
  for (const auto& d : deltas) values.push_back(d.value);
  const double scale = dsp::quant_scale(values);
  for (unsigned bits : {8u, 16u}) {
    const double step = scale / dsp::quant_mantissa_max(bits);
    common::BufferWriter w;
    summary_codec::encode_dft_quant(w, StreamSide::kR, 2048, 8, deltas, bits,
                                    scale);
    const auto bytes = std::move(w).take();
    // 10-byte header + u8 bits + f64 scale + u16 count, then
    // (u16 index + 2 mantissas) per delta.
    const std::size_t per = 2 + 2 * (bits / 8);
    EXPECT_EQ(bytes.size(), 1 + 1 + 4 + 4 + 1 + 8 + 2 + deltas.size() * per);

    common::BufferWriter again;
    summary_codec::encode_dft_quant(again, StreamSide::kR, 2048, 8, deltas,
                                    bits, scale);
    EXPECT_EQ(bytes, std::move(again).take());

    bool visited = false;
    summary_codec::Visitor visitor;
    visitor.on_dft = [&](StreamSide side, std::uint32_t window,
                         std::uint32_t retained,
                         const std::vector<dsp::CoeffDelta>& decoded) {
      visited = true;
      EXPECT_EQ(side, StreamSide::kR);
      EXPECT_EQ(window, 2048u);
      EXPECT_EQ(retained, 8u);
      ASSERT_EQ(decoded.size(), deltas.size());
      for (std::size_t i = 0; i < deltas.size(); ++i) {
        EXPECT_EQ(decoded[i].index, deltas[i].index);
        EXPECT_LE(std::abs(decoded[i].value.real() - deltas[i].value.real()),
                  0.5 * step * (1 + 1e-9));
        EXPECT_LE(std::abs(decoded[i].value.imag() - deltas[i].value.imag()),
                  0.5 * step * (1 + 1e-9));
      }
    };
    ASSERT_TRUE(summary_codec::decode_blocks(SummaryBlock{bytes}, visitor));
    EXPECT_TRUE(visited);
  }
}

TEST(SummaryCodec, QuantHistSpectrumRoundTrip) {
  std::vector<dsp::Complex> coeffs{{512.0, -64.0}, {0.0, 0.0}, {-17.5, 3.25}};
  const double scale = dsp::quant_scale(coeffs);
  for (unsigned bits : {8u, 16u}) {
    const double step = scale / dsp::quant_mantissa_max(bits);
    common::BufferWriter w;
    summary_codec::encode_hist_spectrum_quant(w, StreamSide::kS, 4096, coeffs,
                                              bits, scale);
    bool visited = false;
    summary_codec::Visitor visitor;
    visitor.on_hist_spectrum = [&](StreamSide side, std::uint32_t buckets,
                                   std::vector<dsp::Complex> decoded) {
      visited = true;
      EXPECT_EQ(side, StreamSide::kS);
      EXPECT_EQ(buckets, 4096u);
      ASSERT_EQ(decoded.size(), coeffs.size());
      for (std::size_t i = 0; i < coeffs.size(); ++i) {
        EXPECT_LE(std::abs(decoded[i] - coeffs[i]),
                  std::sqrt(2.0) * 0.5 * step * (1 + 1e-9));
      }
    };
    ASSERT_TRUE(
        summary_codec::decode_blocks(SummaryBlock{std::move(w).take()}, visitor));
    EXPECT_TRUE(visited);
  }
}

TEST(SummaryCodec, QuantZeroScaleDecodesToExactZeros) {
  std::vector<dsp::CoeffDelta> deltas{{2, dsp::Complex(0.0, 0.0)}};
  common::BufferWriter w;
  summary_codec::encode_dft_quant(w, StreamSide::kR, 64, 4, deltas, 16, 0.0);
  summary_codec::Visitor visitor;
  visitor.on_dft = [&](StreamSide, std::uint32_t, std::uint32_t,
                       const std::vector<dsp::CoeffDelta>& decoded) {
    ASSERT_EQ(decoded.size(), 1u);
    EXPECT_EQ(decoded[0].value, dsp::Complex(0.0, 0.0));
  };
  ASSERT_TRUE(
      summary_codec::decode_blocks(SummaryBlock{std::move(w).take()}, visitor));
}

TEST(SummaryCodec, QuantRejectsBadWidthAndScale) {
  // Valid frame, then surgically corrupt the width / scale fields.
  std::vector<dsp::CoeffDelta> deltas{{1, dsp::Complex(2.0, -2.0)}};
  common::BufferWriter w;
  summary_codec::encode_dft_quant(w, StreamSide::kR, 64, 4, deltas, 8, 2.0);
  const auto clean = std::move(w).take();
  constexpr std::size_t kBitsOff = 1 + 1 + 4 + 4;  // tag, side, window, retained
  constexpr std::size_t kScaleOff = kBitsOff + 1;

  auto bad_bits = clean;
  bad_bits[kBitsOff] = 12;
  EXPECT_FALSE(summary_codec::decode_blocks(SummaryBlock{bad_bits}, {}).is_ok());

  for (double bad : {std::nan(""), -1.0,
                     std::numeric_limits<double>::infinity()}) {
    auto bad_scale = clean;
    std::uint64_t raw = 0;
    std::memcpy(&raw, &bad, sizeof(raw));
    for (std::size_t b = 0; b < 8; ++b) {
      bad_scale[kScaleOff + b] = static_cast<std::uint8_t>(raw >> (8 * b));
    }
    EXPECT_FALSE(
        summary_codec::decode_blocks(SummaryBlock{bad_scale}, {}).is_ok())
        << "scale=" << bad;
  }

  auto truncated = clean;
  truncated.resize(truncated.size() - 1);
  EXPECT_FALSE(
      summary_codec::decode_blocks(SummaryBlock{truncated}, {}).is_ok());
}

TEST(SummaryCodec, RejectsUnknownTag) {
  SummaryBlock block;
  block.bytes = {0x5a, 0x00};
  EXPECT_FALSE(summary_codec::decode_blocks(block, {}).is_ok());
}

TEST(SummaryCodec, RejectsBadSide) {
  SummaryBlock block;
  block.bytes = {summary_codec::kTagDft, 0x07};
  EXPECT_FALSE(summary_codec::decode_blocks(block, {}).is_ok());
}

TEST(SummaryCodec, RejectsTruncatedDft) {
  common::BufferWriter w;
  summary_codec::encode_dft(w, StreamSide::kR, 64, 4,
                            {{dsp::CoeffDelta{1, dsp::Complex(1, 1)}}});
  auto bytes = std::move(w).take();
  bytes.resize(bytes.size() - 4);
  SummaryBlock block{std::move(bytes)};
  EXPECT_FALSE(summary_codec::decode_blocks(block, {}).is_ok());
}

TEST(SummaryCodec, EmptyBlockIsOk) {
  EXPECT_TRUE(summary_codec::decode_blocks(SummaryBlock{}, {}).is_ok());
}

sampling::SampleSummary sample_summary_fixture() {
  sampling::SampleSummary summary;
  summary.strata = 8;
  summary.capacity = 128;
  summary.population = 1000;
  summary.keys = {{-40, 2.5, 0.75}, {7, 12.0, 0.0}, {900, 1.0, 4.0}};
  return summary;
}

TEST(SummaryCodec, SampleRoundTrip) {
  common::BufferWriter w;
  const auto original = sample_summary_fixture();
  summary_codec::encode_sample(w, StreamSide::kS, original);

  bool visited = false;
  summary_codec::Visitor visitor;
  visitor.on_sample = [&](StreamSide side, sampling::SampleSummary decoded) {
    visited = true;
    EXPECT_EQ(side, StreamSide::kS);
    EXPECT_EQ(decoded.strata, original.strata);
    EXPECT_EQ(decoded.capacity, original.capacity);
    EXPECT_EQ(decoded.population, original.population);
    ASSERT_EQ(decoded.keys.size(), original.keys.size());
    for (std::size_t i = 0; i < decoded.keys.size(); ++i) {
      EXPECT_EQ(decoded.keys[i].key, original.keys[i].key);
      EXPECT_DOUBLE_EQ(decoded.keys[i].weight, original.keys[i].weight);
      EXPECT_DOUBLE_EQ(decoded.keys[i].variance, original.keys[i].variance);
    }
  };
  SummaryBlock block{std::move(w).take()};
  ASSERT_TRUE(summary_codec::decode_blocks(block, visitor));
  EXPECT_TRUE(visited);
}

TEST(SummaryCodec, SampleRejectsHostileFields) {
  common::BufferWriter w;
  summary_codec::encode_sample(w, StreamSide::kR, sample_summary_fixture());
  const auto clean = std::move(w).take();
  ASSERT_TRUE(
      summary_codec::decode_blocks(SummaryBlock{clean}, {}).is_ok());

  // In-block layout: tag(1) side(1) version(1) strata(4) capacity(4)
  // population(8) count(2), then (key i64, weight f64, variance f64) each.
  constexpr std::size_t kVersionOff = 2;
  constexpr std::size_t kStrataOff = 3;
  constexpr std::size_t kCapacityOff = 7;
  constexpr std::size_t kPopulationOff = 11;
  constexpr std::size_t kEntriesOff = 21;

  const auto expect_rejected = [&](std::size_t at, std::uint8_t with,
                                   const char* what) {
    auto bad = clean;
    bad[at] = with;
    EXPECT_FALSE(summary_codec::decode_blocks(SummaryBlock{bad}, {}).is_ok())
        << what;
  };
  expect_rejected(kVersionOff, 9, "future version");
  expect_rejected(kStrataOff + 2, 0xff, "strata out of range");
  expect_rejected(kCapacityOff + 3, 0xff, "capacity out of range");
  expect_rejected(kPopulationOff + 7, 0xff, "population out of range");
  // Zero geometry: strata and capacity are single-byte little-endian here.
  expect_rejected(kStrataOff, 0, "zero strata");
  expect_rejected(kCapacityOff, 0, "zero capacity");
  // Break key ordering: raise the first key above the second (-40 -> huge).
  expect_rejected(kEntriesOff + 7, 0x7f, "keys not ascending");

  // NaN / negative masses.
  const auto expect_bad_mass = [&](std::size_t f64_at, double value) {
    auto bad = clean;
    std::uint64_t raw = 0;
    std::memcpy(&raw, &value, sizeof(raw));
    for (std::size_t b = 0; b < 8; ++b) {
      bad[f64_at + b] = static_cast<std::uint8_t>(raw >> (8 * b));
    }
    EXPECT_FALSE(summary_codec::decode_blocks(SummaryBlock{bad}, {}).is_ok())
        << value;
  };
  constexpr std::size_t kFirstWeightOff = kEntriesOff + 8;
  constexpr std::size_t kFirstVarianceOff = kEntriesOff + 16;
  expect_bad_mass(kFirstWeightOff, std::nan(""));
  expect_bad_mass(kFirstWeightOff, -1.0);
  expect_bad_mass(kFirstVarianceOff,
                  std::numeric_limits<double>::infinity());

  // Every truncation must fail loudly, never decode a partial sample.
  for (std::size_t cut = 1; cut < clean.size(); ++cut) {
    auto truncated = clean;
    truncated.resize(clean.size() - cut);
    EXPECT_FALSE(
        summary_codec::decode_blocks(SummaryBlock{truncated}, {}).is_ok())
        << "cut " << cut;
  }
}

TEST(SampleStore, UnseededThenHoldsLatest) {
  SampleStore store;
  EXPECT_FALSE(store.seeded());
  EXPECT_EQ(store.summary(), nullptr);
  store.update(sample_summary_fixture());
  ASSERT_TRUE(store.seeded());
  EXPECT_EQ(store.summary()->population, 1000u);
  auto newer = sample_summary_fixture();
  newer.population = 2000;
  store.update(std::move(newer));
  EXPECT_EQ(store.summary()->population, 2000u);
}

TEST(CoeffStore, StartsUnseeded) {
  CoeffStore store(64, 8);
  EXPECT_FALSE(store.seeded());
  EXPECT_EQ(store.estimate_count(5, 2), 0u);
}

TEST(CoeffStore, ReconstructsAppliedSpectrum) {
  // Build a real spectrum for a constant-100 window; apply it as deltas;
  // every estimate near 100 must see the full window.
  constexpr std::uint32_t kW = 64;
  std::vector<double> signal(kW, 100.0);
  dsp::Fft fft(kW);
  const auto spectrum = fft.forward_real(signal);
  CoeffStore store(kW, 8);
  std::vector<dsp::CoeffDelta> deltas;
  for (std::uint32_t k = 0; k < 8; ++k) {
    deltas.push_back(dsp::CoeffDelta{k, spectrum[k]});
  }
  store.apply(deltas);
  EXPECT_TRUE(store.seeded());
  EXPECT_EQ(store.estimate_count(100, 0), kW);
  EXPECT_EQ(store.estimate_count(100, 5), kW);
  EXPECT_EQ(store.estimate_count(200, 5), 0u);
}

TEST(CoeffStore, ToleranceWidensMatches) {
  // Ramp 0..63 reconstructed from the full half-spectrum: estimates around
  // key k with tolerance t must count ~2t+1 values.
  constexpr std::uint32_t kW = 64;
  std::vector<double> signal(kW);
  for (std::uint32_t i = 0; i < kW; ++i) signal[i] = i;
  dsp::Fft fft(kW);
  const auto spectrum = fft.forward_real(signal);
  CoeffStore store(kW, kW / 2 + 1);
  std::vector<dsp::CoeffDelta> deltas;
  for (std::uint32_t k = 0; k < kW / 2 + 1; ++k) {
    deltas.push_back(dsp::CoeffDelta{k, spectrum[k]});
  }
  store.apply(deltas);
  const auto narrow = store.estimate_count(32, 1);
  const auto wide = store.estimate_count(32, 8);
  EXPECT_GT(wide, narrow);
  EXPECT_GE(narrow, 2u);
  EXPECT_LE(wide, 20u);
}

TEST(CoeffStore, IgnoresOutOfRangeIndices) {
  CoeffStore store(64, 4);
  store.apply({dsp::CoeffDelta{99, dsp::Complex(1, 1)}});
  EXPECT_FALSE(store.seeded());
}

TEST(CoeffStore, UpdatesInvalidateCache) {
  constexpr std::uint32_t kW = 32;
  CoeffStore store(kW, 1);
  // DC for constant 10: X0 = 320.
  store.apply({dsp::CoeffDelta{0, dsp::Complex(320, 0)}});
  EXPECT_EQ(store.estimate_count(10, 0), kW);
  // Move the window to constant 20.
  store.apply({dsp::CoeffDelta{0, dsp::Complex(640, 0)}});
  EXPECT_EQ(store.estimate_count(10, 0), 0u);
  EXPECT_EQ(store.estimate_count(20, 0), kW);
  EXPECT_EQ(store.updates_applied(), 2u);
}

// The index CoeffStore used to keep: the dense inverse of the zero-filled
// mirrored spectrum, rounded, as a key -> count hash map probed once per key
// of the tolerance band.
class HashMapCoeffIndex {
 public:
  explicit HashMapCoeffIndex(const dsp::CompressedSpectrum& spectrum) {
    const std::size_t w = spectrum.window;
    std::vector<dsp::Complex> full(w, dsp::Complex{});
    if (!spectrum.coeffs.empty()) full[0] = spectrum.coeffs[0];
    for (std::size_t k = 1; k < spectrum.coeffs.size(); ++k) {
      full[k] = spectrum.coeffs[k];
      if (w - k != k) full[w - k] = std::conj(spectrum.coeffs[k]);
    }
    dsp::Fft(w).inverse(full);
    for (const auto& v : full) ++counts_[std::llround(v.real())];
  }

  std::uint64_t count(std::int64_t key, std::int64_t tolerance) const {
    std::uint64_t total = 0;
    for (std::int64_t k = key - tolerance; k <= key + tolerance; ++k) {
      const auto it = counts_.find(k);
      if (it != counts_.end()) total += it->second;
    }
    return total;
  }

  std::int64_t min_key() const {
    std::int64_t m = std::numeric_limits<std::int64_t>::max();
    for (const auto& [k, c] : counts_) m = std::min(m, k);
    return m;
  }
  std::int64_t max_key() const {
    std::int64_t m = std::numeric_limits<std::int64_t>::min();
    for (const auto& [k, c] : counts_) m = std::max(m, k);
    return m;
  }

 private:
  std::unordered_map<std::int64_t, std::uint32_t> counts_;
};

// A random low-pass window's truncated spectrum: a random walk around
// `level` (the smooth, key-valued shape DFTT summarizes) compressed to
// `retained` coefficients.
dsp::CompressedSpectrum random_window_spectrum(std::uint32_t window,
                                               std::uint32_t retained,
                                               double level, std::uint64_t seed) {
  common::Xoshiro256 rng(seed);
  std::vector<double> signal(window);
  double x = level;
  for (auto& v : signal) {
    x += rng.next_double_in(-30.0, 30.0);
    v = x;
  }
  return dsp::compress(signal,
                       static_cast<double>(window) / static_cast<double>(retained),
                       dsp::Fft::plan(window));
}

void apply_spectrum(CoeffStore& store, const dsp::CompressedSpectrum& spectrum) {
  std::vector<dsp::CoeffDelta> deltas;
  for (std::uint32_t k = 0; k < spectrum.coeffs.size(); ++k) {
    deltas.push_back(dsp::CoeffDelta{k, spectrum.coeffs[k]});
  }
  store.apply(deltas);
}

void expect_counts_match(CoeffStore& store, const HashMapCoeffIndex& reference,
                         std::uint64_t seed) {
  const std::int64_t lo = reference.min_key();
  const std::int64_t hi = reference.max_key();
  common::Xoshiro256 rng(seed);
  std::vector<std::int64_t> keys{lo - 1000, lo - 65, lo - 1, lo,
                                 hi,        hi + 1,  hi + 65, hi + 1000};
  for (int i = 0; i < 24; ++i) {
    keys.push_back(lo + static_cast<std::int64_t>(
                            rng.next() % static_cast<std::uint64_t>(hi - lo + 1)));
  }
  for (std::int64_t key : keys) {
    for (std::int64_t tolerance = 0; tolerance <= 64; ++tolerance) {
      ASSERT_EQ(store.estimate_count(key, tolerance), reference.count(key, tolerance))
          << "key=" << key << " tolerance=" << tolerance << " range=[" << lo
          << ", " << hi << "]";
    }
  }
}

TEST(CoeffStore, SortedIndexMatchesHashMapMultiset) {
  struct Case {
    std::uint32_t window, retained;
  };
  for (const Case c : {Case{2048, 8}, Case{2048, 64}, Case{256, 129}, Case{64, 1}}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const auto spectrum =
          random_window_spectrum(c.window, c.retained, 5000.0, 100 * seed + c.retained);
      CoeffStore store(c.window, c.retained);
      apply_spectrum(store, spectrum);
      expect_counts_match(store, HashMapCoeffIndex(spectrum), seed);

      // apply() must invalidate the index: move the window elsewhere.
      const auto moved = random_window_spectrum(c.window, c.retained, -700.0,
                                                200 * seed + c.retained);
      apply_spectrum(store, moved);
      expect_counts_match(store, HashMapCoeffIndex(moved), seed + 10);
    }
  }
}

TEST(CoeffStore, NegativeToleranceCountsNothing) {
  CoeffStore store(32, 1);
  store.apply({dsp::CoeffDelta{0, dsp::Complex(320, 0)}});
  EXPECT_EQ(store.estimate_count(10, 0), 32u);
  EXPECT_EQ(store.estimate_count(10, -1), 0u);
}

// Node strands of the parallel driver run DFTT summary math concurrently:
// each strand owns its CoeffStores, while transform plans and scratch are
// process- or thread-scoped. Run the pruned inverse (on one shared plan and
// through the thread-local plan/scratch paths) and CoeffStore estimates on
// a thread pool and require the serial answers; under TSan, any scratch
// state shared across strands is a reported race.
TEST(DftSummaryConcurrency, PrunedInverseAndCoeffStoreAcrossPoolThreads) {
  constexpr std::uint32_t kW = 2048;
  constexpr std::uint32_t kK = 8;
  constexpr std::size_t kTasks = 16;
  const dsp::Fft shared_plan(kW);

  struct Result {
    std::vector<dsp::Complex> inverse;
    std::vector<std::uint64_t> counts;
    double rho = 0.0;
  };
  const auto work = [&](std::size_t t) {
    const auto a = random_window_spectrum(kW, kK, 1000.0 + 50.0 * t, 31 + t);
    const auto b = random_window_spectrum(kW, kK, 1000.0, 77 + t);
    Result r;
    r.inverse.assign(kW, dsp::Complex{});
    for (std::size_t k = 0; k < kK; ++k) {
      r.inverse[k] = a.coeffs[k];
      if (k > 0) r.inverse[kW - k] = std::conj(a.coeffs[k]);
    }
    shared_plan.inverse_lowpass(r.inverse, kK);
    CoeffStore store(kW, kK);
    for (int round = 0; round < 3; ++round) {
      apply_spectrum(store, round % 2 == 0 ? a : b);
      for (std::int64_t key = 900; key <= 1900; key += 25) {
        r.counts.push_back(store.estimate_count(key, 32));
      }
    }
    r.rho = dsp::lag_max_correlation(a.coeffs, b.coeffs, kW).rho;
    return r;
  };

  std::vector<Result> serial(kTasks);
  for (std::size_t t = 0; t < kTasks; ++t) serial[t] = work(t);

  std::vector<Result> parallel(kTasks);
  common::ThreadPool pool(4);
  std::vector<std::function<void()>> tasks;
  for (std::size_t t = 0; t < kTasks; ++t) {
    tasks.emplace_back([&, t] { parallel[t] = work(t); });
  }
  pool.run_batch(tasks);

  for (std::size_t t = 0; t < kTasks; ++t) {
    EXPECT_TRUE(parallel[t].inverse == serial[t].inverse) << "task " << t;
    EXPECT_EQ(parallel[t].counts, serial[t].counts) << "task " << t;
    EXPECT_EQ(parallel[t].rho, serial[t].rho) << "task " << t;
  }
}

TEST(BloomStore, UnseededContainsNothing) {
  BloomStore store;
  EXPECT_FALSE(store.seeded());
  EXPECT_FALSE(store.contains(5, 3));
}

TEST(BloomStore, ToleranceScansNeighbourhood) {
  sketch::BloomFilter filter(4096, 3, 1);
  filter.insert(100);
  BloomStore store;
  store.update(std::move(filter));
  EXPECT_TRUE(store.seeded());
  EXPECT_TRUE(store.contains(100, 0));
  EXPECT_TRUE(store.contains(98, 2));
  EXPECT_FALSE(store.contains(90, 2));
}

TEST(SketchStore, HoldsLatestSketch) {
  SketchStore store;
  EXPECT_FALSE(store.seeded());
  EXPECT_EQ(store.sketch(), nullptr);
  sketch::AgmsSketch sketch(sketch::AgmsShape{5, 1}, 3);
  sketch.update(9);
  store.update(std::move(sketch));
  ASSERT_TRUE(store.seeded());
  EXPECT_DOUBLE_EQ(store.sketch()->estimate_self_join(), 1.0);
}

}  // namespace
}  // namespace dsjoin::core
