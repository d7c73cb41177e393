// Parallel 1-D FFT (radix-2, binary exchange, double-buffered). Each
// processor owns a contiguous block of points; once the butterfly distance
// reaches the block size every point update reads one element freshly
// written by another processor — the pairwise producer/consumer pattern that
// makes FFT one of the most cache-to-cache-intensive kernels in Figure 1.
#include <cmath>
#include <complex>
#include <numbers>
#include <vector>

#include "workloads/common.h"
#include "workloads/workload.h"

namespace dresar::workloads {

namespace {

struct Cplx {
  double re = 0.0;
  double im = 0.0;
};

std::size_t bitReverse(std::size_t x, unsigned bits) {
  std::size_t r = 0;
  for (unsigned b = 0; b < bits; ++b) {
    r = (r << 1) | (x & 1);
    x >>= 1;
  }
  return r;
}

/// Serial reference FFT (same algorithm) over std::complex.
void serialFft(std::vector<std::complex<double>>& a, bool inverse) {
  const std::size_t n = a.size();
  unsigned bits = 0;
  while ((std::size_t{1} << bits) < n) ++bits;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = bitReverse(i, bits);
    if (j > i) std::swap(a[i], a[j]);
  }
  for (std::size_t m = 2; m <= n; m <<= 1) {
    const double ang = (inverse ? 2.0 : -2.0) * std::numbers::pi / static_cast<double>(m);
    const std::complex<double> wm(std::cos(ang), std::sin(ang));
    for (std::size_t k = 0; k < n; k += m) {
      std::complex<double> w(1.0, 0.0);
      for (std::size_t j = 0; j < m / 2; ++j) {
        const auto t = w * a[k + j + m / 2];
        const auto u = a[k + j];
        a[k + j] = u + t;
        a[k + j + m / 2] = u - t;
        w *= wm;
      }
    }
  }
  if (inverse) {
    for (auto& v : a) v /= static_cast<double>(n);
  }
}

class FftWorkload final : public Workload {
 public:
  explicit FftWorkload(std::size_t points) : n_(points) {
    if (n_ < 2 || (n_ & (n_ - 1)) != 0) throw std::invalid_argument("fft: points must be 2^k");
    while ((std::size_t{1} << bits_) < n_) ++bits_;
  }

  [[nodiscard]] std::string name() const override { return "FFT"; }

  void setup(System& sys) override {
    barrier_ = makeBarrier(sys);
    buf_[0] = SharedArray<Cplx>(sys.mem(), n_);
    buf_[1] = SharedArray<Cplx>(sys.mem(), n_);
    input_.resize(n_);
    // Deterministic test signal, bit-reverse permuted into buffer 0
    // (decimation-in-time input ordering).
    for (std::size_t i = 0; i < n_; ++i) {
      const double t = static_cast<double>(i);
      input_[i] = {std::sin(0.03 * t) + 0.5 * std::cos(0.11 * t), 0.25 * std::sin(0.07 * t)};
    }
    for (std::size_t i = 0; i < n_; ++i) {
      const auto src = input_[bitReverse(i, bits_)];
      buf_[0][i] = Cplx{src.real(), src.imag()};
    }
  }

  SimTask body(System& sys, ThreadContext& ctx) override {
    const Range mine = blockPartition(n_, sys.config().numNodes, ctx.id());
    unsigned src = 0;
    for (unsigned s = 1; s <= bits_; ++s) {
      const std::size_t m = std::size_t{1} << s;
      const std::size_t half = m / 2;
      const unsigned dst = src ^ 1u;
      const double ang = -2.0 * std::numbers::pi / static_cast<double>(m);
      for (std::size_t i = mine.begin; i < mine.end; ++i) {
        const std::size_t p = i & (m - 1);
        if (p < half) {
          const std::size_t partner = i + half;
          co_await ctx.load(buf_[src].addr(i));
          co_await ctx.load(buf_[src].addr(partner));
          const double wr = std::cos(ang * static_cast<double>(p));
          const double wi = std::sin(ang * static_cast<double>(p));
          const Cplx a = buf_[src][i];
          const Cplx b = buf_[src][partner];
          buf_[dst][i] = Cplx{a.re + wr * b.re - wi * b.im, a.im + wr * b.im + wi * b.re};
        } else {
          const std::size_t partner = i - half;
          const std::size_t q = p - half;
          co_await ctx.load(buf_[src].addr(partner));
          co_await ctx.load(buf_[src].addr(i));
          const double wr = std::cos(ang * static_cast<double>(q));
          const double wi = std::sin(ang * static_cast<double>(q));
          const Cplx a = buf_[src][partner];
          const Cplx b = buf_[src][i];
          buf_[dst][i] = Cplx{a.re - (wr * b.re - wi * b.im), a.im - (wr * b.im + wi * b.re)};
        }
        co_await ctx.store(buf_[dst].addr(i));
        co_await ctx.compute(20);
      }
      co_await ctx.fence();
      co_await barrier_->arrive();
      src = dst;
    }
    result_ = src;
  }

  [[nodiscard]] WorkloadResult verify(System&) override {
    // Round-trip: inverse-transform the parallel result (serially, outside
    // simulated time) and compare with the original signal.
    std::vector<std::complex<double>> out(n_);
    for (std::size_t i = 0; i < n_; ++i) out[i] = {buf_[result_][i].re, buf_[result_][i].im};
    serialFft(out, /*inverse=*/true);
    double maxErr = 0.0;
    for (std::size_t i = 0; i < n_; ++i) {
      maxErr = std::max(maxErr, std::abs(out[i] - input_[i]));
    }
    if (maxErr > 1e-6) {
      return {false, "fft round-trip max error " + std::to_string(maxErr)};
    }
    return {true, "max round-trip error " + std::to_string(maxErr)};
  }

 private:
  std::size_t n_;
  unsigned bits_ = 0;
  unsigned result_ = 0;
  SharedArray<Cplx> buf_[2];
  std::vector<std::complex<double>> input_;
  std::unique_ptr<HwBarrier> barrier_;
};

}  // namespace

std::unique_ptr<Workload> makeFft(std::size_t points) {
  return std::make_unique<FftWorkload>(points);
}

}  // namespace dresar::workloads
