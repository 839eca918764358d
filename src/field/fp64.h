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
  static Fp64 from_u128(u128 x) { return Fp64(reduce128(x)); }

  static constexpr Fp64 zero() { return Fp64(0); }
  static constexpr Fp64 one() { return Fp64(1); }

  // Canonical integer representative in [0, p).
  constexpr u64 to_u64() const { return v_; }

  friend Fp64 operator+(Fp64 a, Fp64 b) {
    // a.v_ + b.v_ < 2p < 2^65 may wrap; 2^64 = p + (2^32 - 1) mod p. The
    // corrections are mask arithmetic, not branches, so additions inside
    // the bulk kernels (field/kernels.h) stay straight-line code the
    // compiler can vectorize.
    u64 r = a.v_ + b.v_;
    r += static_cast<u64>(r < a.v_) * 0xFFFFFFFFull;  // fold 2^64 overflow
    r -= static_cast<u64>(r >= kP) * kP;
    return Fp64(r);
  }

  friend Fp64 operator-(Fp64 a, Fp64 b) {
    // On borrow the wrapped value is a - b + 2^64 = (a - b + p) + (2^32-1),
    // so subtracting 2^32 - 1 lands in [0, p). Branchless, as above.
    u64 r = a.v_ - b.v_;
    r -= static_cast<u64>(a.v_ < b.v_) * 0xFFFFFFFFull;
    return Fp64(r);
  }

  friend Fp64 operator*(Fp64 a, Fp64 b) {
    opcount::bump_field_mul();
    return Fp64(reduce128(static_cast<u128>(a.v_) * b.v_));
  }

  Fp64 operator-() const { return Fp64(v_ == 0 ? 0 : kP - v_); }

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

  // Reduces a 128-bit value mod p using 2^64 = 2^32 - 1 and 2^96 = -1 (mod p).
  // Branchless: every correction is a comparison-derived mask, so back-to-
  // back reductions (Lagrange-row inner products, the NTT butterflies)
  // execute as straight-line code with no data-dependent branches.
  static constexpr u64 reduce128(u128 x) {
    u64 lo = static_cast<u64>(x);
    u64 hi = static_cast<u64>(x >> 64);
    u64 hi_hi = hi >> 32;
    u64 hi_lo = hi & 0xFFFFFFFFull;
    // x = lo + 2^64*hi_lo + 2^96*hi_hi = lo + (2^32-1)*hi_lo - hi_hi (mod p).
    // Borrow correction: the wrapped lo - hi_hi is the true value + 2^64,
    // and 2^64 = 2^32 - 1 (mod p); the wrapped value is >= p > 2^32 - 1,
    // so this second subtraction cannot underflow.
    u64 t = lo - hi_hi;
    t -= static_cast<u64>(lo < hi_hi) * 0xFFFFFFFFull;
    u64 s = hi_lo * 0xFFFFFFFFull;  // <= (2^32-1)^2 = 2^64 - 2^33 + 1
    u64 r = t + s;
    // Overflow fold: r < 2^64 - 2^33 after a wrap, so adding 2^32 - 1
    // cannot wrap again, and the result stays < 2^64 < 2p.
    r += static_cast<u64>(r < t) * 0xFFFFFFFFull;
    r -= static_cast<u64>(r >= kP) * kP;
    return r;
  }

  u64 v_;
};

}  // namespace prio
