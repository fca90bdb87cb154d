#include "dsjoin/dsp/fft.hpp"

#include <cassert>
#include <cmath>
#include <map>
#include <numbers>
#include <stdexcept>

namespace dsjoin::dsp {

namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;

std::vector<std::size_t> make_bit_reversal(std::size_t n) {
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

std::vector<Complex> make_twiddles(std::size_t n) {
  std::vector<Complex> tw(n / 2);
  for (std::size_t j = 0; j < n / 2; ++j) {
    const double angle = -kTwoPi * static_cast<double>(j) / static_cast<double>(n);
    tw[j] = Complex(std::cos(angle), std::sin(angle));
  }
  return tw;
}

// One radix-2 butterfly pass over a block: `lo` and `hi` are the block's two
// halves (`half` complex values each, interleaved re/im — the standard lets
// an array of std::complex<double> be accessed as doubles), twiddle j of the
// block is tw[j * step]. The arithmetic is the fast path of the std::complex
// multiply, operation for operation (v = hi * w, then u +/- v), on raw
// doubles; the inverse conjugates the twiddle by exact negation. Scaled
// multiplies both outputs by `scale` after the add, as a separate scaling
// pass over the stored results would.
template <bool Invert, bool Scaled>
inline void butterfly_block(double* __restrict lo, double* __restrict hi,
                            const double* __restrict tw, std::size_t half,
                            std::size_t step, double scale) {
  for (std::size_t j = 0; j < half; ++j) {
    const double wr = tw[2 * j * step];
    const double wi = Invert ? -tw[2 * j * step + 1] : tw[2 * j * step + 1];
    const double xr = hi[2 * j];
    const double xi = hi[2 * j + 1];
    const double vr = xr * wr - xi * wi;
    const double vi = xr * wi + xi * wr;
    const double ur = lo[2 * j];
    const double ui = lo[2 * j + 1];
    if constexpr (Scaled) {
      lo[2 * j] = (ur + vr) * scale;
      lo[2 * j + 1] = (ui + vi) * scale;
      hi[2 * j] = (ur - vr) * scale;
      hi[2 * j + 1] = (ui - vi) * scale;
    } else {
      lo[2 * j] = ur + vr;
      lo[2 * j + 1] = ui + vi;
      hi[2 * j] = ur - vr;
      hi[2 * j + 1] = ui - vi;
    }
  }
}

// Butterflies of one stage (block length `len`) on the block starting at
// complex index `start`.
template <bool Invert, bool Scaled>
inline void stage_block(double* d, const double* tw, std::size_t n,
                        std::size_t len, std::size_t start, double scale) {
  const std::size_t half = len >> 1;
  butterfly_block<Invert, Scaled>(d + 2 * start, d + 2 * (start + half), tw,
                                  half, n / len, scale);
}

// Every block of the stages from block length `len` up to n. Scaled folds
// `scale` into the last stage (the inverse's exact 2^-n).
template <bool Invert, bool Scaled>
void dense_stages(double* d, const double* tw, std::size_t n, std::size_t len,
                  double scale) {
  for (; len < n; len <<= 1) {
    for (std::size_t start = 0; start < n; start += len) {
      stage_block<Invert, false>(d, tw, n, len, start, 1.0);
    }
  }
  if (n >= 2) stage_block<Invert, Scaled>(d, tw, n, n, 0, scale);
}

// Core iterative radix-2 transform over precomputed tables. Invert flips
// the twiddle sign; without Scaled, scaling is the caller's responsibility.
template <bool Invert, bool Scaled = false>
void radix2(std::span<Complex> data, const std::vector<std::size_t>& rev,
            const std::vector<Complex>& twiddles, double scale = 1.0) {
  const std::size_t n = data.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (i < rev[i]) std::swap(data[i], data[rev[i]]);
  }
  dense_stages<Invert, Scaled>(reinterpret_cast<double*>(data.data()),
                               reinterpret_cast<const double*>(twiddles.data()),
                               n, 2, scale);
}

}  // namespace

std::size_t next_power_of_two(std::size_t n) noexcept {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

const Fft& Fft::plan(std::size_t size) {
  // Keyed by exact size; experiments use a handful of sizes (the DFT
  // window, histogram bucket counts), so the map stays tiny. Thread-local
  // so parallel node strands never contend or share plans.
  thread_local std::map<std::size_t, Fft> cache;
  const auto it = cache.find(size);
  if (it != cache.end()) return it->second;
  return cache.emplace(size, Fft(size)).first->second;
}

Fft::Fft(std::size_t size) : size_(size), pow2_(is_power_of_two(size)) {
  if (size_ == 0) throw std::invalid_argument("Fft size must be >= 1");
  if (pow2_) {
    bit_reversal_ = make_bit_reversal(size_);
    twiddles_ = make_twiddles(size_);
    if (size_ >= 4) {
      half_ = std::make_unique<Fft>(size_ / 2);
      real_twiddles_.resize(size_ / 4 + 1);
      for (std::size_t k = 0; k <= size_ / 4; ++k) {
        const double angle =
            -kTwoPi * static_cast<double>(k) / static_cast<double>(size_);
        real_twiddles_[k] = Complex(std::cos(angle), std::sin(angle));
      }
    }
    return;
  }
  // Bluestein: x[n]*chirp[n] convolved with conj(chirp) over a power-of-two
  // length >= 2n-1, then multiplied by chirp[k].
  conv_size_ = next_power_of_two(2 * size_ - 1);
  conv_bit_reversal_ = make_bit_reversal(conv_size_);
  conv_twiddles_ = make_twiddles(conv_size_);
  chirp_.resize(size_);
  for (std::size_t n = 0; n < size_; ++n) {
    // n^2 mod 2N keeps the angle argument small for large sizes.
    const std::size_t sq = (n * n) % (2 * size_);
    const double angle =
        -std::numbers::pi * static_cast<double>(sq) / static_cast<double>(size_);
    chirp_[n] = Complex(std::cos(angle), std::sin(angle));
  }
  std::vector<Complex> kernel(conv_size_, Complex{});
  kernel[0] = std::conj(chirp_[0]);
  for (std::size_t n = 1; n < size_; ++n) {
    kernel[n] = std::conj(chirp_[n]);
    kernel[conv_size_ - n] = std::conj(chirp_[n]);
  }
  radix2<false>(kernel, conv_bit_reversal_, conv_twiddles_);
  chirp_spectrum_ = std::move(kernel);
}

void Fft::forward(std::span<Complex> data) const {
  assert(data.size() == size_);
  if (size_ == 1) return;
  if (pow2_) {
    radix2<false>(data, bit_reversal_, twiddles_);
  } else {
    transform_bluestein(data, /*invert=*/false);
  }
}

void Fft::inverse(std::span<Complex> data) const {
  assert(data.size() == size_);
  if (size_ == 1) return;
  const double scale = 1.0 / static_cast<double>(size_);
  if (pow2_) {
    radix2<true, true>(data, bit_reversal_, twiddles_, scale);
    return;
  }
  transform_bluestein(data, /*invert=*/true);
  for (auto& v : data) v *= scale;
}

void Fft::inverse_lowpass(std::span<Complex> data, std::size_t bins) const {
  assert(data.size() == size_);
  const std::size_t n = size_;
  if (bins == 0) return;  // all zero in, all zero out
  // Dense unless some stage has a block without input: at the first stage
  // the n/2 two-point blocks must outnumber the 2*bins - 1 nonzero inputs.
  if (!pow2_ || 2 * bins - 1 >= n / 2) {
    inverse(data);
    return;
  }
  // Move the 2*bins - 1 inputs to their bit-reversed slots. Every other
  // slot holds zero, so a swap with a slot outside the support is a move,
  // and a pair inside it is swapped once (from its smaller index).
  const auto in_support = [&](std::size_t i) { return i < bins || i > n - bins; };
  const auto place = [&](std::size_t i) {
    const std::size_t r = bit_reversal_[i];
    if (i < r || (r != i && !in_support(r))) std::swap(data[i], data[r]);
  };
  for (std::size_t i = 0; i < bins; ++i) place(i);
  for (std::size_t i = n - bins + 1; i < n; ++i) place(i);
  // At the stage with block length len there are m = n/len blocks, and the
  // block starting at slot bit_reversal_[r] (r < m) holds exactly the inputs
  // whose index is r mod m. The support [-(bins-1), bins-1] mod n therefore
  // touches the blocks of residues r < bins and r > m - bins; while those
  // are fewer than m, the other blocks hold only zeros and are skipped.
  double* d = reinterpret_cast<double*>(data.data());
  const double* tw = reinterpret_cast<const double*>(twiddles_.data());
  std::size_t len = 2;
  for (; 2 * bins - 1 < n / len; len <<= 1) {
    const std::size_t m = n / len;
    for (std::size_t r = 0; r < bins; ++r) {
      stage_block<true, false>(d, tw, n, len, bit_reversal_[r], 1.0);
    }
    for (std::size_t r = m - bins + 1; r < m; ++r) {
      stage_block<true, false>(d, tw, n, len, bit_reversal_[r], 1.0);
    }
  }
  dense_stages<true, true>(d, tw, n, len, 1.0 / static_cast<double>(n));
}

void Fft::transform_bluestein(std::span<Complex> data, bool invert) const {
  // The inverse transform is the conjugate of the forward transform of the
  // conjugated input (scaling applied by the caller).
  if (invert) {
    for (auto& v : data) v = std::conj(v);
  }
  std::vector<Complex> a(conv_size_, Complex{});
  for (std::size_t n = 0; n < size_; ++n) a[n] = data[n] * chirp_[n];
  radix2<false>(a, conv_bit_reversal_, conv_twiddles_);
  for (std::size_t i = 0; i < conv_size_; ++i) a[i] *= chirp_spectrum_[i];
  radix2<true>(a, conv_bit_reversal_, conv_twiddles_);
  const double scale = 1.0 / static_cast<double>(conv_size_);
  for (std::size_t k = 0; k < size_; ++k) {
    data[k] = a[k] * scale * chirp_[k];
  }
  if (invert) {
    for (auto& v : data) v = std::conj(v);
  }
}

std::vector<Complex> Fft::forward_real(std::span<const double> signal) const {
  assert(signal.size() == size_);
  if (half_ == nullptr) {
    // Odd/small/Bluestein sizes: plain complex transform.
    std::vector<Complex> data(signal.begin(), signal.end());
    forward(data);
    return data;
  }
  // Pack pairs of real samples into one complex stream, transform at half
  // length, then split the even/odd spectra and butterfly them together.
  const std::size_t h = size_ / 2;
  std::vector<Complex> packed(h);
  for (std::size_t n = 0; n < h; ++n) {
    packed[n] = Complex(signal[2 * n], signal[2 * n + 1]);
  }
  half_->forward(packed);

  std::vector<Complex> out(size_);
  auto twiddle = [&](std::size_t k) -> Complex {
    // e^{-2*pi*i*k/N} for k <= N/2, via the stored quarter table.
    if (k <= size_ / 4) return real_twiddles_[k];
    const Complex t = real_twiddles_[size_ / 2 - k];
    return Complex(-t.real(), t.imag());
  };
  for (std::size_t k = 0; k <= h / 2; ++k) {
    const Complex zk = packed[k % h];
    const Complex zmk = std::conj(packed[(h - k) % h]);
    const Complex even = 0.5 * (zk + zmk);
    const Complex odd = Complex(0, -0.5) * (zk - zmk);
    const Complex upper = even + twiddle(k) * odd;
    out[k] = upper;
    // X[N/2 + k'] values come from the second period of E + W*O; the
    // conjugate-symmetry fill below covers them.
  }
  for (std::size_t k = h / 2 + 1; k <= h; ++k) {
    const Complex zk = packed[k % h];
    const Complex zmk = std::conj(packed[(h - k) % h]);
    const Complex even = 0.5 * (zk + zmk);
    const Complex odd = Complex(0, -0.5) * (zk - zmk);
    out[k] = even + twiddle(k) * odd;
  }
  for (std::size_t k = h + 1; k < size_; ++k) {
    out[k] = std::conj(out[size_ - k]);
  }
  return out;
}

std::span<Complex> thread_scratch(std::size_t n) {
  thread_local std::vector<Complex> buffer;
  if (buffer.size() < n) buffer.resize(n);
  return {buffer.data(), n};
}

std::vector<Complex> direct_dft(std::span<const Complex> input) {
  const std::size_t n = input.size();
  std::vector<Complex> out(n, Complex{});
  for (std::size_t k = 0; k < n; ++k) {
    Complex acc{};
    for (std::size_t m = 0; m < n; ++m) {
      const double angle =
          -kTwoPi * static_cast<double>(k) * static_cast<double>(m) / static_cast<double>(n);
      acc += input[m] * Complex(std::cos(angle), std::sin(angle));
    }
    out[k] = acc;
  }
  return out;
}

std::vector<Complex> direct_dft_real(std::span<const double> input) {
  std::vector<Complex> complex_in(input.begin(), input.end());
  return direct_dft(complex_in);
}

}  // namespace dsjoin::dsp
