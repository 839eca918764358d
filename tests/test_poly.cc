// NTT and Lagrange-row tests, cross-checked against the O(n^2) classical
// Lagrange reference implementation.

#include <gtest/gtest.h>

#include <random>

#include "poly/lagrange.h"
#include "poly/ntt.h"

namespace prio {
namespace {

template <PrimeField F>
std::vector<F> random_poly(size_t n, std::mt19937_64& rng) {
  std::vector<F> out(n);
  for (auto& x : out) x = random_field_element<F>(rng);
  return out;
}

template <typename F>
class NttTest : public ::testing::Test {};

using FieldTypes = ::testing::Types<Fp64, Fp128>;
TYPED_TEST_SUITE(NttTest, FieldTypes);

TYPED_TEST(NttTest, ForwardMatchesNaiveEvaluation) {
  using F = TypeParam;
  std::mt19937_64 rng(1);
  for (size_t n : {1, 2, 4, 8, 32}) {
    NttDomain<F> dom(n);
    auto coeffs = random_poly<F>(n, rng);
    auto evals = coeffs;
    dom.forward(evals);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(evals[i], poly_eval(coeffs, dom.root(i))) << "n=" << n << " i=" << i;
    }
  }
}

TYPED_TEST(NttTest, RoundTrip) {
  using F = TypeParam;
  std::mt19937_64 rng(2);
  for (size_t n : {1, 2, 16, 64, 256}) {
    NttDomain<F> dom(n);
    auto coeffs = random_poly<F>(n, rng);
    auto work = coeffs;
    dom.forward(work);
    dom.inverse(work);
    EXPECT_EQ(work, coeffs) << "n=" << n;
  }
}

TYPED_TEST(NttTest, InverseUnscaledIsNTimesCoefficients) {
  using F = TypeParam;
  std::mt19937_64 rng(7);
  for (size_t n : {1, 2, 8, 128}) {
    NttDomain<F> dom(n);
    auto coeffs = random_poly<F>(n, rng);
    auto work = coeffs;
    dom.forward(work);
    dom.inverse_unscaled(work);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(work[i], coeffs[i] * F::from_u64(n)) << "n=" << n << " i=" << i;
    }
  }
}

TYPED_TEST(NttTest, OddCosetMatchesNaiveEvaluation) {
  using F = TypeParam;
  std::mt19937_64 rng(8);
  for (size_t n : {1, 2, 4, 8, 32, 256, 512}) {
    NttDomain<F> dom(n);
    NttDomain<F> dom2(2 * n);
    auto ca = random_poly<F>(n, rng);
    auto cb = random_poly<F>(n, rng);
    auto a = ca, b = cb;
    dom.forward(a);
    dom.forward(b);
    dom.odd_coset_evals(a, b);
    for (size_t i = 0; i < n; ++i) {
      const F pt = dom2.root(2 * i + 1);
      ASSERT_EQ(a[i], poly_eval(ca, pt)) << "n=" << n << " i=" << i;
      ASSERT_EQ(b[i], poly_eval(cb, pt)) << "n=" << n << " i=" << i;
    }
  }
}

TYPED_TEST(NttTest, SpanTransformsWorkInsideLargerBuffers) {
  using F = TypeParam;
  std::mt19937_64 rng(10);
  const size_t n = 16;
  NttDomain<F> dom(n);
  auto buf = random_poly<F>(3 * n, rng);
  const auto orig = buf;
  std::span<F> mid = std::span<F>(buf).subspan(n, n);
  dom.forward(mid);
  dom.inverse(mid);
  EXPECT_EQ(buf, orig);
  EXPECT_THROW(dom.forward(std::span<F>(buf).first(n - 1)),
               std::invalid_argument);
}

TYPED_TEST(NttTest, ConvolutionMultipliesPolynomials) {
  using F = TypeParam;
  std::mt19937_64 rng(3);
  const size_t n = 16;
  NttDomain<F> dom2(2 * n);
  auto a = random_poly<F>(n, rng);
  auto b = random_poly<F>(n, rng);
  // Schoolbook product.
  std::vector<F> ref(2 * n, F::zero());
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) ref[i + j] += a[i] * b[j];
  }
  // NTT product.
  std::vector<F> fa(a), fb(b);
  fa.resize(2 * n, F::zero());
  fb.resize(2 * n, F::zero());
  dom2.forward(fa);
  dom2.forward(fb);
  for (size_t i = 0; i < 2 * n; ++i) fa[i] *= fb[i];
  dom2.inverse(fa);
  EXPECT_EQ(fa, ref);
}

TYPED_TEST(NttTest, RejectsBadSizes) {
  using F = TypeParam;
  EXPECT_THROW(NttDomain<F>(3), std::invalid_argument);
  if constexpr (F::kTwoAdicity + 1 < 64) {
    EXPECT_THROW(NttDomain<F>(static_cast<size_t>(1) << (F::kTwoAdicity + 1)),
                 std::invalid_argument);
  }
}

TYPED_TEST(NttTest, LagrangeRowEvaluatesFromPointValues) {
  using F = TypeParam;
  std::mt19937_64 rng(4);
  for (size_t n : {1, 2, 8, 64}) {
    NttDomain<F> dom(n);
    auto coeffs = random_poly<F>(n, rng);
    auto evals = coeffs;
    dom.forward(evals);
    // Random off-domain point.
    F r;
    for (;;) {
      r = random_field_element<F>(rng);
      F x = r;
      for (size_t m = 1; m < n; m <<= 1) x *= x;
      if (!(x == F::one())) break;
    }
    auto row = lagrange_eval_row(dom, r);
    EXPECT_EQ(inner_product(row, std::span<const F>(evals)),
              poly_eval(coeffs, r))
        << "n=" << n;
  }
}

TYPED_TEST(NttTest, LagrangeRowRejectsDomainPoint) {
  using F = TypeParam;
  NttDomain<F> dom(8);
  EXPECT_THROW(lagrange_eval_row(dom, dom.root(3)), std::invalid_argument);
}

TYPED_TEST(NttTest, BatchInvertMatchesScalarInvert) {
  using F = TypeParam;
  std::mt19937_64 rng(5);
  auto xs = random_poly<F>(33, rng);
  for (auto& x : xs) {
    if (x.is_zero()) x = F::one();
  }
  auto inverted = xs;
  batch_invert(inverted);
  for (size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(inverted[i], xs[i].inv());
  }
}

TYPED_TEST(NttTest, ClassicInterpolationAgrees) {
  using F = TypeParam;
  std::mt19937_64 rng(6);
  // Interpolate through 6 arbitrary distinct points and re-evaluate.
  std::vector<F> xs, ys;
  for (u64 i = 0; i < 6; ++i) {
    xs.push_back(F::from_u64(i * 7 + 1));
    ys.push_back(random_field_element<F>(rng));
  }
  auto coeffs = lagrange_interpolate(xs, ys);
  for (size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(poly_eval(coeffs, xs[i]), ys[i]);
  }
}

}  // namespace
}  // namespace prio
