#include "dsjoin/dsp/spectrum.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace dsjoin::dsp {

std::vector<Complex> cross_power_spectrum(std::span<const Complex> x,
                                          std::span<const Complex> y) {
  assert(x.size() == y.size());
  std::vector<Complex> s(x.size());
  for (std::size_t k = 0; k < x.size(); ++k) {
    s[k] = x[k] * std::conj(y[k]);
  }
  return s;
}

double spectral_energy(std::span<const Complex> x) {
  double e = 0.0;
  for (std::size_t k = 1; k < x.size(); ++k) {
    e += std::norm(x[k]);
  }
  return e;
}

CorrelationEstimate lag_max_correlation(std::span<const Complex> x,
                                        std::span<const Complex> y,
                                        std::size_t window) {
  assert(x.size() == y.size());
  assert(x.size() <= window / 2 + 1);
  const double ex = spectral_energy(x);
  const double ey = spectral_energy(y);
  if (ex <= 0.0 || ey <= 0.0) return {};

  // Build the conjugate-symmetric cross spectrum of the two real signals
  // with DC suppressed, then inverse-transform: r[n] is the circular
  // cross-correlation of the mean-removed low-passed signals.
  // Only bins below K and their mirrors are nonzero, so the pruned inverse
  // applies; it runs in the calling thread's scratch buffer.
  std::span<Complex> full = thread_scratch(window);
  std::fill(full.begin(), full.end(), Complex{});
  for (std::size_t k = 1; k < x.size(); ++k) {
    const Complex s = x[k] * std::conj(y[k]);
    full[k] = s;
    full[window - k] = std::conj(s);
  }
  Fft::plan(window).inverse_lowpass(full, x.size());

  // First lag of the peak |r[n]|. std::abs is a hypot call, so a cheap
  // pass over the squared magnitudes q[n] bounds the peak first: any lag
  // with q[n] < (1 - 2^-30) * max q has |r[n]| below the peak by far more
  // than the rounding of q or of hypot, so it can neither hold nor precede
  // the first peak, and is skipped. Out-of-range or non-finite q (where
  // that rounding bound fails) disables the filter.
  const auto sq = [](Complex z) { return z.real() * z.real() + z.imag() * z.imag(); };
  double max_q = 0.0;
  bool q_in_range = true;
  for (std::size_t n = 0; n < window; ++n) {
    const double q = sq(full[n]);
    max_q = std::max(max_q, q);
    q_in_range &= q <= 0x1p900;
  }
  const double keep_q = q_in_range && max_q >= 0x1p-900 ? max_q * (1.0 - 0x1p-30) : 0.0;
  double best = 0.0;
  std::size_t best_lag = 0;
  for (std::size_t n = 0; n < window; ++n) {
    if (sq(full[n]) < keep_q) continue;
    const double mag = std::abs(full[n]);
    if (mag > best) {
      best = mag;
      best_lag = n;
    }
  }
  // full[] carries a 1/W from the inverse transform; r_xy's natural
  // normalization against sqrt(sigma_x*sigma_y) uses the same convention on
  // both sides, so scale back by W before normalizing by the energies.
  const double rho = best * static_cast<double>(window) / std::sqrt(ex * ey);
  return CorrelationEstimate{rho < 1.0 ? rho : 1.0, best_lag};
}

double spectral_mean(std::span<const Complex> x, std::size_t window) noexcept {
  if (x.empty() || window == 0) return 0.0;
  return x[0].real() / static_cast<double>(window);
}

double spectral_stddev(std::span<const Complex> x, std::size_t window) noexcept {
  if (window == 0) return 0.0;
  return std::sqrt(spectral_energy(x)) / static_cast<double>(window);
}

double spectral_magnitude_cosine(std::span<const Complex> x,
                                 std::span<const Complex> y) {
  assert(x.size() == y.size());
  double dot = 0.0, nx = 0.0, ny = 0.0;
  for (std::size_t k = 1; k < x.size(); ++k) {
    const double a = std::abs(x[k]);
    const double b = std::abs(y[k]);
    dot += a * b;
    nx += a * a;
    ny += b * b;
  }
  if (nx <= 0.0 || ny <= 0.0) return 0.0;
  return dot / std::sqrt(nx * ny);
}

}  // namespace dsjoin::dsp
