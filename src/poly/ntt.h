// Radix-2 number-theoretic transform over the root-of-unity domains of the
// Prio fields.
//
// The SNIP construction (Section 4.2 + Appendix I of the paper) places the
// t-th multiplication gate at the domain point w^t, so "interpolate the wire
// polynomials f and g" is one inverse NTT each. The prover then needs h = f*g
// on the double-size domain. Its even points are the N-domain itself (where
// f and g are already known), and its odd points w_{2N}^{2i+1} form the
// coset w_{2N} * <w_N>, so one N-point coset transform per polynomial
// (odd_coset_evals) covers them: half the work of zero-padding to 2N and
// running a 2N-point forward transform.
// This is the FFT fast path the paper implements in C on top of FLINT; here
// it is a self-contained iterative transform.
#pragma once

#include <array>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "field/field.h"
#include "util/common.h"

namespace prio {

// Precomputed twiddle factors for a fixed power-of-two domain size.
//
// The O(n) tables are built once per (field, size) in a process-wide cache
// and shared by every NttDomain instance: a deployment constructs one
// SnipProver plus one VerificationContext per server, each wanting the same
// domains, and rebuilding the twiddles per instance was pure waste.
// Instances hold a shared_ptr, so the tables are immutable and safe to read
// from any number of threads.
//
// Twiddles are stored per butterfly layer: the layer whose butterflies span
// half-width m reads w_{2m}^j for j < m from the contiguous slice
// [m, 2m) of the table, so the inner loop walks memory sequentially.
template <PrimeField F>
class NttDomain {
 public:
  // n must be a power of two with n <= 2^F::kTwoAdicity.
  explicit NttDomain(size_t n) : n_(n), log_n_(log2_exact(n)) {
    require(n >= 1 && next_pow2(n) == n, "NttDomain: size must be a power of two");
    require(log_n_ <= F::kTwoAdicity, "NttDomain: size exceeds field 2-adicity");
    tables_ = shared_tables(n_, log_n_);
  }

  size_t size() const { return n_; }

  // w^i for the domain generator w.
  const F& root(size_t i) const { return tables_->roots[i % n_]; }

  // In-place forward transform: coefficients -> evaluations, i.e.
  // a[i] <- sum_j a[j] * w^(ij).
  void forward(std::span<F> a) const {
    check_size(a);
    bit_reverse(a);
    dit<1>({a.data()}, tables_->fwd.data());
  }

  // In-place inverse transform without the 1/n scaling: evaluations ->
  // n * coefficients.
  void inverse_unscaled(std::span<F> a) const {
    check_size(a);
    bit_reverse(a);
    dit<1>({a.data()}, tables_->inv.data());
  }

  // In-place inverse transform: evaluations -> coefficients.
  void inverse(std::span<F> a) const {
    inverse_unscaled(a);
    for (F& x : a) x *= tables_->n_inv;
  }

  // Maps the evaluations of two polynomials P of degree < n on this domain,
  // P(w_n^i), to their evaluations at the odd points of the 2n-domain,
  // P(w_{2n}^{2i+1}) = P(w_{2n} * w_n^i), in place and in natural order:
  // an inverse transform, a coefficient scaling by n^{-1} * w_{2n}^j, and a
  // forward transform. The inverse runs decimation-in-frequency (natural
  // order in, bit-reversed out) and the forward decimation-in-time
  // (bit-reversed in, natural out), with the scaling table stored
  // bit-reversed, so no permutation pass is needed. The butterflies of a
  // and b are interleaved, so the two independent multiplies of each step
  // can overlap.
  void odd_coset_evals(std::span<F> a, std::span<F> b) const {
    check_size(a);
    check_size(b);
    require(!tables_->coset.empty(),
            "NttDomain: 2n exceeds field 2-adicity, no odd coset");
    dif<2>({a.data(), b.data()}, tables_->inv.data());
    const F* c = tables_->coset.data();
    for (size_t k = 0; k < n_; ++k) {
      a[k] *= c[k];
      b[k] *= c[k];
    }
    dit<2>({a.data(), b.data()}, tables_->fwd.data());
  }

 private:
  struct Tables {
    std::vector<F> roots;  // w^i, i < n
    std::vector<F> fwd;    // fwd[m + j] = w_{2m}^j,  j < m, m = 1, 2, ..., n/2
    std::vector<F> inv;    // inv[m + j] = w_{2m}^-j
    // coset[k] = n^{-1} * w_{2n}^{rev(k)}; empty when 2n exceeds the field's
    // 2-adicity.
    std::vector<F> coset;
    F n_inv;
  };

  static std::shared_ptr<const Tables> shared_tables(size_t n, int log_n) {
    static std::mutex mu;
    static std::unordered_map<size_t, std::shared_ptr<const Tables>> cache;
    std::lock_guard<std::mutex> lock(mu);
    auto it = cache.find(n);
    if (it != cache.end()) return it->second;
    auto t = std::make_shared<Tables>();
    F w = F::root_of_unity(log_n);
    t->roots.resize(n);
    t->roots[0] = F::one();
    for (size_t i = 1; i < n; ++i) t->roots[i] = t->roots[i - 1] * w;
    // w_{2m}^j = w_n^{j * n/(2m)}; w_{2m}^-j = w_n^{n - j * n/(2m)}.
    t->fwd.resize(n);
    t->inv.resize(n);
    for (size_t m = 1; m < n; m <<= 1) {
      const size_t step = n / (2 * m);
      for (size_t j = 0; j < m; ++j) {
        t->fwd[m + j] = t->roots[j * step];
        t->inv[m + j] = t->roots[(n - j * step) % n];
      }
    }
    t->n_inv = F::from_u64(n).inv();
    if (log_n < F::kTwoAdicity) {
      const F w2 = F::root_of_unity(log_n + 1);
      t->coset.resize(n);
      F acc = t->n_inv;
      for (size_t j = 0; j < n; ++j, acc *= w2) t->coset[j] = acc;
      bit_reverse(t->coset);
    }
    cache.emplace(n, t);
    return t;
  }

  void check_size(std::span<F> a) const {
    require(a.size() == n_, "NttDomain: input size mismatch");
  }

  static void bit_reverse(std::span<F> a) {
    const size_t n = a.size();
    for (size_t i = 1, j = 0; i < n; ++i) {
      size_t bit = n >> 1;
      for (; j & bit; bit >>= 1) j ^= bit;
      j ^= bit;
      if (i < j) std::swap(a[i], a[j]);
    }
  }

  // Decimation-in-time layers over K arrays at once: bit-reversed input,
  // natural-order output. Butterfly (u, v) -> (u + w*v, u - w*v). The first
  // butterfly of every group has w = 1 and skips the multiply (all of the
  // first layer, about 2/log2(n) of the multiplies overall).
  template <size_t K>
  void dit(std::array<F*, K> a, const F* tw) const {
    for (size_t m = 1; m < n_; m <<= 1) {
      const F* w = tw + m;
      for (size_t i = 0; i < n_; i += 2 * m) {
        for (size_t q = 0; q < K; ++q) {
          F* x = a[q] + i;
          const F u = x[0], v = x[m];
          x[0] = u + v;
          x[m] = u - v;
        }
        for (size_t j = 1; j < m; ++j) {
          for (size_t q = 0; q < K; ++q) {
            F* x = a[q] + i + j;
            const F u = x[0];
            const F v = x[m] * w[j];
            x[0] = u + v;
            x[m] = u - v;
          }
        }
      }
    }
  }

  // Decimation-in-frequency layers over K arrays: natural-order input,
  // bit-reversed output. Butterfly (u, v) -> (u + v, (u - v)*w), with the
  // same w = 1 shortcut.
  template <size_t K>
  void dif(std::array<F*, K> a, const F* tw) const {
    for (size_t m = n_ >> 1; m >= 1; m >>= 1) {
      const F* w = tw + m;
      for (size_t i = 0; i < n_; i += 2 * m) {
        for (size_t q = 0; q < K; ++q) {
          F* x = a[q] + i;
          const F u = x[0], v = x[m];
          x[0] = u + v;
          x[m] = u - v;
        }
        for (size_t j = 1; j < m; ++j) {
          for (size_t q = 0; q < K; ++q) {
            F* x = a[q] + i + j;
            const F u = x[0];
            const F v = x[m];
            x[0] = u + v;
            x[m] = (u - v) * w[j];
          }
        }
      }
    }
  }

  size_t n_;
  int log_n_;
  std::shared_ptr<const Tables> tables_;
};

}  // namespace prio
