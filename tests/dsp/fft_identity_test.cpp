// Bit-identity of the radix-2 engine against the std::complex formulation it
// replaced, and of the input-pruned low-pass inverse against the dense one.
//
// RefFft below is the transform as it stood before the butterflies moved to
// raw doubles: an std::complex radix-2 loop with a separate 1/N scaling pass,
// the Bluestein chirp-z wrapper and the packed real transform on top of it.
// The library must reproduce its output byte for byte (memcmp) — that is
// what keeps the golden vectors, which pin routed tuples downstream of every
// transform, unchanged. The pruned inverse may differ from the dense one
// only in the sign of an exact zero, so it is compared with ==.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numbers>
#include <vector>

#include "dsjoin/common/rng.hpp"
#include "dsjoin/dsp/fft.hpp"

namespace dsjoin::dsp {
namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;

std::vector<std::size_t> ref_bit_reversal(std::size_t n) {
  std::vector<std::size_t> rev(n, 0);
  std::size_t bits = 0;
  while ((std::size_t{1} << bits) < n) ++bits;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t r = 0;
    for (std::size_t b = 0; b < bits; ++b) {
      if (i & (std::size_t{1} << b)) r |= std::size_t{1} << (bits - 1 - b);
    }
    rev[i] = r;
  }
  return rev;
}

std::vector<Complex> ref_twiddles(std::size_t n) {
  std::vector<Complex> tw(n / 2);
  for (std::size_t j = 0; j < n / 2; ++j) {
    const double angle = -kTwoPi * static_cast<double>(j) / static_cast<double>(n);
    tw[j] = Complex(std::cos(angle), std::sin(angle));
  }
  return tw;
}

// The pre-change butterfly loop, verbatim.
void ref_radix2(std::span<Complex> data, const std::vector<std::size_t>& rev,
                const std::vector<Complex>& twiddles, bool invert) {
  const std::size_t n = data.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (i < rev[i]) std::swap(data[i], data[rev[i]]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len >> 1;
    const std::size_t step = n / len;
    for (std::size_t start = 0; start < n; start += len) {
      for (std::size_t j = 0; j < half; ++j) {
        Complex w = twiddles[j * step];
        if (invert) w = std::conj(w);
        const Complex u = data[start + j];
        const Complex v = data[start + j + half] * w;
        data[start + j] = u + v;
        data[start + j + half] = u - v;
      }
    }
  }
}

class RefFft {
 public:
  explicit RefFft(std::size_t size) : size_(size), pow2_(is_power_of_two(size)) {
    if (pow2_) {
      rev_ = ref_bit_reversal(size_);
      tw_ = ref_twiddles(size_);
      if (size_ >= 4) {
        half_ = std::make_unique<RefFft>(size_ / 2);
        real_tw_.resize(size_ / 4 + 1);
        for (std::size_t k = 0; k <= size_ / 4; ++k) {
          const double angle =
              -kTwoPi * static_cast<double>(k) / static_cast<double>(size_);
          real_tw_[k] = Complex(std::cos(angle), std::sin(angle));
        }
      }
      return;
    }
    conv_ = next_power_of_two(2 * size_ - 1);
    rev_ = ref_bit_reversal(conv_);
    tw_ = ref_twiddles(conv_);
    chirp_.resize(size_);
    for (std::size_t n = 0; n < size_; ++n) {
      const std::size_t sq = (n * n) % (2 * size_);
      const double angle =
          -std::numbers::pi * static_cast<double>(sq) / static_cast<double>(size_);
      chirp_[n] = Complex(std::cos(angle), std::sin(angle));
    }
    std::vector<Complex> kernel(conv_, Complex{});
    kernel[0] = std::conj(chirp_[0]);
    for (std::size_t n = 1; n < size_; ++n) {
      kernel[n] = std::conj(chirp_[n]);
      kernel[conv_ - n] = std::conj(chirp_[n]);
    }
    ref_radix2(kernel, rev_, tw_, false);
    chirp_spectrum_ = std::move(kernel);
  }

  void forward(std::span<Complex> data) const {
    if (size_ == 1) return;
    if (pow2_) {
      ref_radix2(data, rev_, tw_, false);
    } else {
      bluestein(data, false);
    }
  }

  void inverse(std::span<Complex> data) const {
    if (size_ == 1) return;
    if (pow2_) {
      ref_radix2(data, rev_, tw_, true);
    } else {
      bluestein(data, true);
    }
    const double scale = 1.0 / static_cast<double>(size_);
    for (auto& v : data) v *= scale;
  }

  std::vector<Complex> forward_real(std::span<const double> signal) const {
    if (half_ == nullptr) {
      std::vector<Complex> data(signal.begin(), signal.end());
      forward(data);
      return data;
    }
    const std::size_t h = size_ / 2;
    std::vector<Complex> packed(h);
    for (std::size_t n = 0; n < h; ++n) {
      packed[n] = Complex(signal[2 * n], signal[2 * n + 1]);
    }
    half_->forward(packed);
    std::vector<Complex> out(size_);
    auto twiddle = [&](std::size_t k) -> Complex {
      if (k <= size_ / 4) return real_tw_[k];
      const Complex t = real_tw_[size_ / 2 - k];
      return Complex(-t.real(), t.imag());
    };
    for (std::size_t k = 0; k <= h; ++k) {
      const Complex zk = packed[k % h];
      const Complex zmk = std::conj(packed[(h - k) % h]);
      const Complex even = 0.5 * (zk + zmk);
      const Complex odd = Complex(0, -0.5) * (zk - zmk);
      out[k] = even + twiddle(k) * odd;
    }
    for (std::size_t k = h + 1; k < size_; ++k) out[k] = std::conj(out[size_ - k]);
    return out;
  }

 private:
  void bluestein(std::span<Complex> data, bool invert) const {
    if (invert) {
      for (auto& v : data) v = std::conj(v);
    }
    std::vector<Complex> a(conv_, Complex{});
    for (std::size_t n = 0; n < size_; ++n) a[n] = data[n] * chirp_[n];
    ref_radix2(a, rev_, tw_, false);
    for (std::size_t i = 0; i < conv_; ++i) a[i] *= chirp_spectrum_[i];
    ref_radix2(a, rev_, tw_, true);
    const double scale = 1.0 / static_cast<double>(conv_);
    for (std::size_t k = 0; k < size_; ++k) data[k] = a[k] * scale * chirp_[k];
    if (invert) {
      for (auto& v : data) v = std::conj(v);
    }
  }

  std::size_t size_;
  bool pow2_;
  std::size_t conv_ = 0;
  std::vector<std::size_t> rev_;
  std::vector<Complex> tw_;
  std::unique_ptr<RefFft> half_;
  std::vector<Complex> real_tw_;
  std::vector<Complex> chirp_;
  std::vector<Complex> chirp_spectrum_;
};

std::vector<Complex> random_complex(std::size_t n, std::uint64_t seed) {
  common::Xoshiro256 rng(seed);
  std::vector<Complex> out(n);
  for (auto& v : out) {
    v = Complex(rng.next_double_in(-1e4, 1e4), rng.next_double_in(-1e4, 1e4));
  }
  return out;
}

bool same_bytes(std::span<const Complex> a, std::span<const Complex> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Complex)) == 0;
}

std::vector<std::size_t> identity_sizes() {
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 8192; n <<= 1) sizes.push_back(n);
  for (std::size_t n : {3, 5, 100, 1000}) sizes.push_back(n);  // Bluestein
  return sizes;
}

TEST(FftIdentity, ForwardMatchesComplexReferenceBitForBit) {
  for (std::size_t n : identity_sizes()) {
    const auto input = random_complex(n, 100 + n);
    auto expected = input;
    RefFft(n).forward(expected);
    auto actual = input;
    Fft(n).forward(actual);
    EXPECT_TRUE(same_bytes(actual, expected)) << "n=" << n;
  }
}

TEST(FftIdentity, InverseMatchesComplexReferenceBitForBit) {
  for (std::size_t n : identity_sizes()) {
    const auto input = random_complex(n, 200 + n);
    auto expected = input;
    RefFft(n).inverse(expected);
    auto actual = input;
    Fft(n).inverse(actual);
    EXPECT_TRUE(same_bytes(actual, expected)) << "n=" << n;
  }
}

TEST(FftIdentity, ForwardRealMatchesComplexReferenceBitForBit) {
  for (std::size_t n : identity_sizes()) {
    common::Xoshiro256 rng(300 + n);
    std::vector<double> signal(n);
    for (auto& v : signal) v = rng.next_double_in(-1e4, 1e4);
    EXPECT_TRUE(same_bytes(Fft(n).forward_real(signal),
                           RefFft(n).forward_real(signal)))
        << "n=" << n;
  }
}

// The two spectrum shapes the library inverts: a reconstruction (DC kept,
// Nyquist kept as is) and a cross spectrum (DC zeroed, Nyquist slot holding
// the mirror's conjugate, as lag_max_correlation writes it).
enum class Shape { kReconstruction, kCrossSpectrum };

std::vector<Complex> lowpass_spectrum(std::size_t n, std::size_t bins,
                                      Shape shape, std::uint64_t seed) {
  const auto low = random_complex(bins, seed);
  std::vector<Complex> full(n, Complex{});
  if (bins > 0 && shape == Shape::kReconstruction) full[0] = low[0];
  for (std::size_t k = 1; k < bins; ++k) {
    full[k] = low[k];
    if (shape == Shape::kCrossSpectrum || n - k != k) full[n - k] = std::conj(low[k]);
  }
  return full;
}

void expect_pruned_equals_dense(std::size_t n, std::size_t bins, Shape shape) {
  const auto spectrum = lowpass_spectrum(n, bins, shape, 7 * n + bins);
  const Fft& fft = Fft::plan(n);
  auto dense = spectrum;
  fft.inverse(dense);
  auto pruned = spectrum;
  fft.inverse_lowpass(pruned, bins);
  for (std::size_t i = 0; i < n; ++i) {
    // == treats +0 and -0 as equal: the sign of an exact zero is the only
    // freedom the pruned transform has.
    ASSERT_TRUE(pruned[i] == dense[i])
        << "n=" << n << " bins=" << bins << " i=" << i << " pruned=" << pruned[i]
        << " dense=" << dense[i];
  }
}

TEST(FftIdentity, PrunedLowpassInverseEqualsDenseInverse) {
  for (std::size_t n = 2; n <= 4096; n <<= 1) {
    // 0 (all zero), 1 (DC only), up to n/2 + 1 (Nyquist included: the
    // dense fallback).
    for (std::size_t bins = 0; bins <= n / 2 + 1; ++bins) {
      expect_pruned_equals_dense(n, bins, Shape::kReconstruction);
      expect_pruned_equals_dense(n, bins, Shape::kCrossSpectrum);
    }
  }
}

TEST(FftIdentity, PrunedLowpassInverseFallsBackOffPowersOfTwo) {
  for (std::size_t n : {3, 12, 100}) {
    for (std::size_t bins = 0; bins <= n / 2 + 1; ++bins) {
      expect_pruned_equals_dense(n, bins, Shape::kReconstruction);
    }
  }
}

}  // namespace
}  // namespace dsjoin::dsp
