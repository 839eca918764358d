// Field-axiom and implementation-correctness tests for Fp64 and Fp128.
//
// Fp64 results are cross-checked against naive __int128 modular arithmetic;
// Fp128 (Montgomery) results are cross-checked against a slow binary-long-
// division reference on 256-bit intermediates.

#include <gtest/gtest.h>

#include <random>

#include "field/field.h"

namespace prio {
namespace {

// ---------- slow reference arithmetic ----------

u64 ref_mulmod64(u64 a, u64 b, u64 p) {
  return static_cast<u64>(static_cast<u128>(a) % p * (static_cast<u128>(b) % p) % p);
}

struct U256 {
  u128 hi, lo;
};

U256 mul_128x128(u128 a, u128 b) {
  u64 a0 = static_cast<u64>(a), a1 = static_cast<u64>(a >> 64);
  u64 b0 = static_cast<u64>(b), b1 = static_cast<u64>(b >> 64);
  u128 p00 = static_cast<u128>(a0) * b0;
  u128 p01 = static_cast<u128>(a0) * b1;
  u128 p10 = static_cast<u128>(a1) * b0;
  u128 p11 = static_cast<u128>(a1) * b1;
  u128 mid = p01 + p10;
  u128 carry = (mid < p01) ? (static_cast<u128>(1) << 64) : 0;
  u128 lo = p00 + (mid << 64);
  u128 c2 = (lo < p00) ? 1 : 0;
  u128 hi = p11 + (mid >> 64) + carry + c2;
  return {hi, lo};
}

u128 mod_256(U256 x, u128 m) {
  u128 rem = 0;
  for (int i = 255; i >= 0; --i) {
    int bit = i < 128 ? static_cast<int>((x.lo >> i) & 1)
                      : static_cast<int>((x.hi >> (i - 128)) & 1);
    u128 top = rem >> 127;
    rem = (rem << 1) | static_cast<u128>(bit);
    if (top || rem >= m) rem -= m;
  }
  return rem;
}

u128 ref_mulmod128(u128 a, u128 b, u128 p) { return mod_256(mul_128x128(a % p, b % p), p); }

u128 ref_powmod128(u128 a, u128 e, u128 p) {
  u128 r = 1 % p;
  a %= p;
  while (e) {
    if (e & 1) r = ref_mulmod128(r, a, p);
    a = ref_mulmod128(a, a, p);
    e >>= 1;
  }
  return r;
}

// ---------- modulus sanity (Miller-Rabin witnesses) ----------

bool miller_rabin(u128 n) {
  if (n < 2) return false;
  for (u64 q : {2ull, 3ull, 5ull, 7ull, 11ull, 13ull}) {
    if (n % q == 0) return n == q;
  }
  u128 d = n - 1;
  int s = 0;
  while (!(d & 1)) {
    d >>= 1;
    ++s;
  }
  for (u64 a : {2ull, 3ull, 5ull, 7ull, 11ull, 13ull, 17ull, 19ull, 23ull,
                29ull, 31ull, 37ull, 41ull, 43ull, 47ull, 53ull, 59ull, 61ull}) {
    u128 x = ref_powmod128(a % n, d, n);
    if (x == 1 || x == n - 1) continue;
    bool composite = true;
    for (int i = 1; i < s; ++i) {
      x = ref_mulmod128(x, x, n);
      if (x == n - 1) {
        composite = false;
        break;
      }
    }
    if (composite) return false;
  }
  return true;
}

TEST(FieldModuli, BothModuliArePrime) {
  EXPECT_TRUE(miller_rabin(Fp64::kP));
  EXPECT_TRUE(miller_rabin(Fp128::modulus()));
}

TEST(FieldModuli, TwoAdicityIsExact) {
  // p - 1 must be divisible by 2^kTwoAdicity but not 2^(kTwoAdicity+1).
  u128 d64 = Fp64::kP - 1;
  EXPECT_EQ(d64 % (static_cast<u128>(1) << Fp64::kTwoAdicity), 0u);
  EXPECT_NE(d64 % (static_cast<u128>(1) << (Fp64::kTwoAdicity + 1)), 0u);
  u128 d128 = Fp128::modulus() - 1;
  EXPECT_EQ(d128 % (static_cast<u128>(1) << Fp128::kTwoAdicity), 0u);
  EXPECT_NE(d128 % (static_cast<u128>(1) << (Fp128::kTwoAdicity + 1)), 0u);
}

// ---------- Fp64 ----------

class Fp64Random : public ::testing::TestWithParam<u64> {};

TEST(Fp64Basics, Identities) {
  EXPECT_EQ(Fp64::zero() + Fp64::one(), Fp64::one());
  EXPECT_EQ(Fp64::one() * Fp64::one(), Fp64::one());
  EXPECT_EQ(Fp64::from_u64(5) - Fp64::from_u64(5), Fp64::zero());
  EXPECT_TRUE(Fp64::zero().is_zero());
  EXPECT_FALSE(Fp64::one().is_zero());
}

TEST(Fp64Basics, ReductionAtBoundaries) {
  EXPECT_EQ(Fp64::from_u64(Fp64::kP).to_u64(), 0u);
  EXPECT_EQ(Fp64::from_u64(Fp64::kP - 1) + Fp64::one(), Fp64::zero());
  EXPECT_EQ(Fp64::from_u128(static_cast<u128>(Fp64::kP) * Fp64::kP).to_u64(), 0u);
  // 2^64 mod p = 2^32 - 1.
  EXPECT_EQ(Fp64::from_u128(static_cast<u128>(1) << 64).to_u64(), 0xFFFFFFFFull);
}

TEST(Fp64Basics, NegationAndSub) {
  Fp64 a = Fp64::from_u64(123456789);
  EXPECT_EQ(a + (-a), Fp64::zero());
  EXPECT_EQ(-Fp64::zero(), Fp64::zero());
  EXPECT_EQ(Fp64::zero() - a, -a);
}

TEST(Fp64Basics, KnownProducts) {
  std::mt19937_64 rng(7);
  for (int i = 0; i < 5000; ++i) {
    u64 a = rng(), b = rng();
    Fp64 fa = Fp64::from_u64(a % Fp64::kP), fb = Fp64::from_u64(b % Fp64::kP);
    EXPECT_EQ((fa * fb).to_u64(), ref_mulmod64(a % Fp64::kP, b % Fp64::kP, Fp64::kP));
  }
}

// +, -, * and unary - against plain u128 arithmetic for canonical a, b.
void expect_fp64_ops_match_reference(u64 a, u64 b) {
  const u128 p = Fp64::kP;
  const Fp64 fa = Fp64::from_u64(a), fb = Fp64::from_u64(b);
  EXPECT_EQ((fa + fb).to_u64(), static_cast<u64>((static_cast<u128>(a) + b) % p))
      << a << " + " << b;
  EXPECT_EQ((fa - fb).to_u64(), static_cast<u64>((static_cast<u128>(a) + p - b) % p))
      << a << " - " << b;
  EXPECT_EQ((fa * fb).to_u64(), static_cast<u64>(static_cast<u128>(a) * b % p))
      << a << " * " << b;
  EXPECT_EQ((-fa).to_u64(), static_cast<u64>((p - a) % p)) << "-" << a;
}

TEST(Fp64Basics, OpsMatchU128ReferenceOnRandomPairs) {
  std::mt19937_64 rng(19);
  for (int i = 0; i < 20000; ++i) {
    expect_fp64_ops_match_reference(rng() % Fp64::kP, rng() % Fp64::kP);
  }
}

// Every carry, borrow and final-subtract path of the masked arithmetic,
// driven from a table of values around 0, 2^32, 2^63 and p.
TEST(Fp64Basics, OpsMatchU128ReferenceOnBoundaryTable) {
  const u64 p = Fp64::kP;
  const u64 eps = 0xFFFFFFFFull;  // 2^64 - p
  const std::vector<u64> table = {
      0, 1, 2, eps - 1, eps, eps + 1, u64{1} << 32, (u64{1} << 32) + 1,
      u64{1} << 63, (u64{1} << 63) - 1, (u64{1} << 63) + 1, p / 2, p / 2 + 1,
      p - eps - 1, p - eps, p - eps + 1, p - 2, p - 1};
  int wraps = 0, in_gap = 0, borrows = 0;
  for (u64 a : table) {
    for (u64 b : table) {
      const u128 sum = static_cast<u128>(a) + b;
      wraps += sum >> 64 != 0;
      in_gap += sum >= p && sum < (static_cast<u128>(1) << 64);
      borrows += a < b;
      expect_fp64_ops_match_reference(a, b);
    }
  }
  // The table must actually reach each correction path.
  EXPECT_GT(wraps, 0);   // a + b overflows 2^64
  EXPECT_GT(in_gap, 0);  // a + b lands in [p, 2^64)
  EXPECT_GT(borrows, 0);
  // reduce128 folds on raw 128-bit inputs: Fp64Reduce in test_kernels.cc.
}

// The masked reduction stays usable in constant expressions.
static_assert(Fp64::from_u128(static_cast<u128>(Fp64::kP) * Fp64::kP).to_u64() == 0);
static_assert(Fp64::from_u128(static_cast<u128>(1) << 64).to_u64() == 0xFFFFFFFFull);
static_assert(Fp64::from_u128(~static_cast<u128>(0)).to_u64() ==
              static_cast<u64>(~static_cast<u128>(0) % Fp64::kP));

TEST(Fp64Basics, PowMatchesRepeatedMul) {
  Fp64 g = Fp64::from_u64(Fp64::kGenerator);
  Fp64 acc = Fp64::one();
  for (u64 e = 0; e < 64; ++e) {
    EXPECT_EQ(g.pow(e), acc);
    acc *= g;
  }
}

TEST(Fp64Basics, FermatLittleTheorem) {
  std::mt19937_64 rng(11);
  for (int i = 0; i < 32; ++i) {
    Fp64 a = random_field_element<Fp64>(rng);
    if (a.is_zero()) continue;
    EXPECT_EQ(a.pow(Fp64::kP - 1), Fp64::one());
  }
}

TEST(Fp64Basics, InverseRoundTrips) {
  std::mt19937_64 rng(13);
  for (int i = 0; i < 64; ++i) {
    Fp64 a = random_field_element<Fp64>(rng);
    if (a.is_zero()) continue;
    EXPECT_EQ(a * a.inv(), Fp64::one());
  }
  EXPECT_THROW(Fp64::zero().inv(), std::invalid_argument);
}

TEST(Fp64Basics, RootsOfUnityHaveExactOrder) {
  for (int k : {0, 1, 2, 5, 16, 32}) {
    Fp64 w = Fp64::root_of_unity(k);
    // w^(2^k) == 1
    Fp64 x = w;
    for (int i = 0; i < k; ++i) x *= x;
    EXPECT_EQ(x, Fp64::one()) << "k=" << k;
    if (k > 0) {
      // w^(2^(k-1)) == -1 (primitive)
      Fp64 y = w;
      for (int i = 0; i < k - 1; ++i) y *= y;
      EXPECT_EQ(y, -Fp64::one()) << "k=" << k;
    }
  }
}

TEST(Fp64Basics, SerializationRoundTrip) {
  std::mt19937_64 rng(17);
  for (int i = 0; i < 256; ++i) {
    Fp64 a = random_field_element<Fp64>(rng);
    u8 buf[8];
    a.to_bytes(buf);
    EXPECT_EQ(Fp64::from_bytes(buf), a);
  }
  // Non-canonical encodings are rejected.
  u8 bad[8];
  for (int i = 0; i < 8; ++i) bad[i] = 0xFF;
  EXPECT_THROW(Fp64::from_bytes(bad), std::invalid_argument);
}

// Field axioms on random triples, parameterized over seeds.
class Fp64Axioms : public ::testing::TestWithParam<int> {};

TEST_P(Fp64Axioms, RingAxioms) {
  std::mt19937_64 rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    Fp64 a = random_field_element<Fp64>(rng);
    Fp64 b = random_field_element<Fp64>(rng);
    Fp64 c = random_field_element<Fp64>(rng);
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a + Fp64::zero(), a);
    EXPECT_EQ(a * Fp64::one(), a);
    EXPECT_EQ(a * Fp64::zero(), Fp64::zero());
    EXPECT_EQ(a - b, a + (-b));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Fp64Axioms, ::testing::Values(1, 2, 3, 4, 5));

// ---------- Fp128 ----------

TEST(Fp128Basics, Identities) {
  EXPECT_EQ(Fp128::zero() + Fp128::one(), Fp128::one());
  EXPECT_EQ(Fp128::one() * Fp128::one(), Fp128::one());
  EXPECT_EQ(Fp128::one().to_u128(), 1u);
  EXPECT_EQ(Fp128::zero().to_u128(), 0u);
  EXPECT_EQ(Fp128::from_u64(42).to_u64(), 42u);
}

TEST(Fp128Basics, MontgomeryRoundTrip) {
  std::mt19937_64 rng(23);
  for (int i = 0; i < 1000; ++i) {
    u128 v = (static_cast<u128>(rng()) << 64 | rng()) % Fp128::modulus();
    EXPECT_EQ(Fp128::from_u128(v).to_u128(), v);
  }
}

TEST(Fp128Basics, MulMatchesReference) {
  std::mt19937_64 rng(29);
  const u128 p = Fp128::modulus();
  for (int i = 0; i < 1000; ++i) {
    u128 a = (static_cast<u128>(rng()) << 64 | rng()) % p;
    u128 b = (static_cast<u128>(rng()) << 64 | rng()) % p;
    EXPECT_EQ((Fp128::from_u128(a) * Fp128::from_u128(b)).to_u128(),
              ref_mulmod128(a, b, p));
  }
}

TEST(Fp128Basics, AddSubMatchReference) {
  std::mt19937_64 rng(31);
  const u128 p = Fp128::modulus();
  for (int i = 0; i < 1000; ++i) {
    u128 a = (static_cast<u128>(rng()) << 64 | rng()) % p;
    u128 b = (static_cast<u128>(rng()) << 64 | rng()) % p;
    u128 sum_ref = a + b >= p ? a + b - p : a + b;
    u128 diff_ref = a >= b ? a - b : a + p - b;
    EXPECT_EQ((Fp128::from_u128(a) + Fp128::from_u128(b)).to_u128(), sum_ref);
    EXPECT_EQ((Fp128::from_u128(a) - Fp128::from_u128(b)).to_u128(), diff_ref);
  }
}

TEST(Fp128Basics, FermatLittleTheorem) {
  std::mt19937_64 rng(37);
  for (int i = 0; i < 16; ++i) {
    Fp128 a = random_field_element<Fp128>(rng);
    if (a.is_zero()) continue;
    EXPECT_EQ(a.pow(Fp128::modulus() - 1), Fp128::one());
  }
}

TEST(Fp128Basics, InverseRoundTrips) {
  std::mt19937_64 rng(41);
  for (int i = 0; i < 32; ++i) {
    Fp128 a = random_field_element<Fp128>(rng);
    if (a.is_zero()) continue;
    EXPECT_EQ(a * a.inv(), Fp128::one());
  }
  EXPECT_THROW(Fp128::zero().inv(), std::invalid_argument);
}

TEST(Fp128Basics, RootsOfUnityHaveExactOrder) {
  for (int k : {0, 1, 2, 13, 32, 66}) {
    Fp128 w = Fp128::root_of_unity(k);
    Fp128 x = w;
    for (int i = 0; i < k; ++i) x *= x;
    EXPECT_EQ(x, Fp128::one()) << "k=" << k;
    if (k > 0) {
      Fp128 y = w;
      for (int i = 0; i < k - 1; ++i) y *= y;
      EXPECT_EQ(y, -Fp128::one()) << "k=" << k;
    }
  }
}

TEST(Fp128Basics, SerializationRoundTrip) {
  std::mt19937_64 rng(43);
  for (int i = 0; i < 256; ++i) {
    Fp128 a = random_field_element<Fp128>(rng);
    u8 buf[16];
    a.to_bytes(buf);
    EXPECT_EQ(Fp128::from_bytes(buf), a);
  }
  u8 bad[16];
  for (int i = 0; i < 16; ++i) bad[i] = 0xFF;
  EXPECT_THROW(Fp128::from_bytes(bad), std::invalid_argument);
}

class Fp128Axioms : public ::testing::TestWithParam<int> {};

TEST_P(Fp128Axioms, RingAxioms) {
  std::mt19937_64 rng(GetParam() + 100);
  for (int i = 0; i < 100; ++i) {
    Fp128 a = random_field_element<Fp128>(rng);
    Fp128 b = random_field_element<Fp128>(rng);
    Fp128 c = random_field_element<Fp128>(rng);
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a + Fp128::zero(), a);
    EXPECT_EQ(a * Fp128::one(), a);
    EXPECT_EQ(a * Fp128::zero(), Fp128::zero());
    EXPECT_EQ(a - b, a + (-b));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Fp128Axioms, ::testing::Values(1, 2, 3, 4, 5));

// ---------- op counters ----------

TEST(OpCounts, CountsMultiplicationsOnlyInsideScope) {
  Fp64 a = Fp64::from_u64(3), b = Fp64::from_u64(5);
  Fp64 x = a * b;  // outside scope: not counted
  OpCounts delta;
  {
    OpCountScope scope;
    for (int i = 0; i < 10; ++i) x *= a;
    delta = scope.delta();
  }
  x = x * b;  // outside again
  EXPECT_EQ(delta.field_mul, 10u);
  EXPECT_EQ(delta.group_exp, 0u);
}

}  // namespace
}  // namespace prio
