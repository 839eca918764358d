// Fp64: arithmetic in the prime field of order p = 2^64 - 2^32 + 1
// (the "Goldilocks" prime).
//
// This field plays the role of the paper's 87-bit FFT-friendly field: p - 1 =
// 2^32 * (2^32 - 1), so the multiplicative group contains a subgroup of order
// 2^32 and radix-2 NTTs of size up to 2^32 are available. The soundness error
// of a SNIP over this field is (2M+1)/|F| <= 2^-50 for circuits with up to
// M = 2^13 multiplication gates, and the servers can repeat the polynomial
// identity test to square it (Section 4.3 of the paper).
//
// Elements are stored in canonical form, i.e. as integers in [0, p).
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "field/opcount.h"
#include "util/common.h"

namespace prio {

class Fp64 {
 public:
  static constexpr u64 kP = 0xFFFFFFFF00000001ull;  // 2^64 - 2^32 + 1
  static constexpr int kTwoAdicity = 32;
  static constexpr u64 kGenerator = 7;  // generates the full group F_p^*
  static constexpr size_t kByteLen = 8;
  static constexpr int kBits = 64;

  constexpr Fp64() : v_(0) {}

  // Constructs from an unsigned integer, reducing mod p.
  static constexpr Fp64 from_u64(u64 x) { return Fp64(x >= kP ? x - kP : x); }
  static constexpr Fp64 from_u128(u128 x) { return Fp64(reduce128(x)); }

  static constexpr Fp64 zero() { return Fp64(0); }
  static constexpr Fp64 one() { return Fp64(1); }

  // Canonical integer representative in [0, p).
  constexpr u64 to_u64() const { return v_; }

  // Addition and subtraction compile to straight-line code: carries and
  // borrows come from __builtin_{add,sub}_overflow (the CPU's carry flag)
  // and every correction is an AND with an all-ones/all-zeros mask, which
  // GCC and Clang emit as sbb/and/add. Comparison-derived corrections
  // (`x += (r < a) * c`) look branch-free in C++, but GCC 12 at -O3 turns
  // them into conditional jumps, which mispredict about half the time on
  // uniformly random field elements.
  friend Fp64 operator+(Fp64 a, Fp64 b) {
    // a + b = a - (p - b): p - b lies in (0, p], and on borrow the wrapped
    // a - (p - b) + 2^64 plus p is a + b (mod 2^64), which is then < p.
    u64 r = 0;
    const bool borrow = __builtin_sub_overflow(a.v_, kP - b.v_, &r);
    return Fp64(r + (mask(borrow) & kP));
  }

  friend Fp64 operator-(Fp64 a, Fp64 b) {
    // On borrow the wrapped value is a - b + 2^64 = (a - b + p) + (2^32-1),
    // so subtracting 2^32 - 1 lands in [0, p).
    u64 r = 0;
    const bool borrow = __builtin_sub_overflow(a.v_, b.v_, &r);
    return Fp64(r - (mask(borrow) & kEpsilon));
  }

  friend Fp64 operator*(Fp64 a, Fp64 b) {
    opcount::bump_field_mul();
    return Fp64(reduce128(static_cast<u128>(a.v_) * b.v_));
  }

  Fp64 operator-() const { return Fp64((kP - v_) & mask(v_ != 0)); }

  Fp64& operator+=(Fp64 o) { return *this = *this + o; }
  Fp64& operator-=(Fp64 o) { return *this = *this - o; }
  Fp64& operator*=(Fp64 o) { return *this = *this * o; }

  friend bool operator==(Fp64 a, Fp64 b) { return a.v_ == b.v_; }
  friend bool operator!=(Fp64 a, Fp64 b) { return a.v_ != b.v_; }

  bool is_zero() const { return v_ == 0; }

  // Exponentiation by square-and-multiply.
  Fp64 pow(u64 e) const;

  // Multiplicative inverse; requires *this != 0. Fermat: x^(p-2).
  Fp64 inv() const;

  // Primitive 2^k-th root of unity, 0 <= k <= 32.
  static Fp64 root_of_unity(int k);

  // Little-endian canonical encoding.
  void to_bytes(std::span<u8> out) const;
  static Fp64 from_bytes(std::span<const u8> in);

  // Parses 8 little-endian bytes; false (and *out = 0) if the value is not
  // canonical. The non-throwing form behind bulk wire parsing: branch-free,
  // so a loop over a buffer of elements stays straight-line code.
  static bool from_canonical_bytes(const u8* in, Fp64* out) {
    const u64 v = load_le(in);
    const bool ok = v < kP;
    *out = Fp64(ok ? v : 0);
    return ok;
  }

  // Uniform field element from 8 bytes of PRG output via rejection sampling
  // driven by the caller (returns false if the sample must be rejected).
  // Inline: it runs once per element of every PRG share expansion.
  static bool from_random_bytes(std::span<const u8> in, Fp64* out) {
    require(in.size() >= kByteLen, "Fp64::from_random_bytes: need 8 bytes");
    return from_canonical_bytes(in.data(), out);
  }

  std::string to_string() const;

 private:
  explicit constexpr Fp64(u64 v) : v_(v) {}

  static u64 load_le(const u8* in) {
    u64 v = 0;
    for (size_t i = 0; i < kByteLen; ++i) v |= static_cast<u64>(in[i]) << (8 * i);
    return v;
  }

  static constexpr u64 kEpsilon = 0xFFFFFFFFull;  // 2^64 mod p = 2^32 - 1

  // All-ones if c, else zero: turns a carry/borrow flag into an AND mask.
  static constexpr u64 mask(bool c) { return 0 - static_cast<u64>(c); }

  // Reduces a 128-bit value mod p using 2^64 = 2^32 - 1 and 2^96 = -1 (mod p).
  // Straight-line code (see operator+): every correction is a flag-derived
  // mask, so back-to-back reductions (Lagrange-row inner products, the NTT
  // butterflies) execute with no data-dependent branches.
  static constexpr u64 reduce128(u128 x) {
    const u64 lo = static_cast<u64>(x);
    const u64 hi = static_cast<u64>(x >> 64);
    const u64 hi_hi = hi >> 32;
    const u64 hi_lo = hi & kEpsilon;
    // x = lo + 2^64*hi_lo + 2^96*hi_hi = lo + (2^32-1)*hi_lo - hi_hi (mod p).
    // Borrow correction: the wrapped lo - hi_hi is the true value + 2^64,
    // and 2^64 = 2^32 - 1 (mod p); the wrapped value is >= p > 2^32 - 1,
    // so this second subtraction cannot underflow.
    u64 t = 0;
    const bool borrow = __builtin_sub_overflow(lo, hi_hi, &t);
    t -= mask(borrow) & kEpsilon;
    // hi_lo * (2^32 - 1) <= (2^32-1)^2 = 2^64 - 2^33 + 1. Carry fold: the
    // wrapped sum is then < 2^64 - 2^33, so adding 2^32 - 1 cannot wrap
    // again, and the result stays < 2^64 < 2p.
    u64 r = 0;
    const bool carry = __builtin_add_overflow(t, hi_lo * kEpsilon, &r);
    r += mask(carry) & kEpsilon;
    // Final conditional subtract of p, as a borrow-masked add-back.
    u64 s = 0;
    const bool below_p = __builtin_sub_overflow(r, kP, &s);
    return s + (mask(below_p) & kP);
  }

  u64 v_;
};

}  // namespace prio
