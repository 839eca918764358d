#include "field/fp128.h"

#include <array>

namespace prio {
namespace {

constexpr u64 kN0Inv = 0xFFFFFFFFFFFFFFFFull;  // -p^{-1} mod 2^64 (p = 1 mod 2^64)

// a + b*c + carry -> (low 64 bits, new carry)
inline u64 mac(u64 a, u64 b, u64 c, u64& carry) {
  u128 t = static_cast<u128>(b) * c + a + carry;
  carry = static_cast<u64>(t >> 64);
  return static_cast<u64>(t);
}

inline u64 adc(u64 a, u64 b, u64& carry) {
  u128 t = static_cast<u128>(a) + b + carry;
  carry = static_cast<u64>(t >> 64);
  return static_cast<u64>(t);
}

constexpr u128 kModulus = (static_cast<u128>(Fp128::kPHi) << 64) | Fp128::kPLo;

}  // namespace

Fp128 Fp128::add_raw(Fp128 a, Fp128 b) {
  u128 av = (static_cast<u128>(a.hi_) << 64) | a.lo_;
  u128 bv = (static_cast<u128>(b.hi_) << 64) | b.lo_;
  // p < 2^127, so av + bv < 2^128: no overflow of the u128 accumulator.
  u128 r = av + bv;
  if (r >= kModulus) r -= kModulus;
  return Fp128(static_cast<u64>(r), static_cast<u64>(r >> 64));
}

Fp128 Fp128::sub_raw(Fp128 a, Fp128 b) {
  u128 av = (static_cast<u128>(a.hi_) << 64) | a.lo_;
  u128 bv = (static_cast<u128>(b.hi_) << 64) | b.lo_;
  u128 r = av >= bv ? av - bv : av + kModulus - bv;
  return Fp128(static_cast<u64>(r), static_cast<u64>(r >> 64));
}

Fp128 operator+(Fp128 a, Fp128 b) { return Fp128::add_raw(a, b); }
Fp128 operator-(Fp128 a, Fp128 b) { return Fp128::sub_raw(a, b); }

Fp128 Fp128::operator-() const {
  return is_zero() ? *this : sub_raw(Fp128(kPLo, kPHi), *this);
}

// 2x2-limb CIOS Montgomery multiplication. Inputs/outputs are residues < p;
// since p < 2^127 = R/2, the pre-subtraction result is < 2p < 2^128 and one
// conditional subtract restores canonicity.
Fp128 Fp128::mont_mul(Fp128 a, Fp128 b) {
  opcount::bump_field_mul();
  u64 t0 = 0, t1 = 0, t2 = 0, t3 = 0;
  const u64 al[2] = {a.lo_, a.hi_};
  const u64 bl[2] = {b.lo_, b.hi_};
  for (int i = 0; i < 2; ++i) {
    // t += a_i * b
    u64 carry = 0;
    t0 = mac(t0, al[i], bl[0], carry);
    t1 = mac(t1, al[i], bl[1], carry);
    u64 c2 = 0;
    t2 = adc(t2, carry, c2);
    t3 += c2;
    // Montgomery reduction step: fold out the low limb.
    u64 m = t0 * kN0Inv;
    carry = 0;
    (void)mac(t0, m, kPLo, carry);  // low limb becomes 0
    t1 = mac(t1, m, kPHi, carry);
    c2 = 0;
    t2 = adc(t2, carry, c2);
    t3 += c2;
    t0 = t1;
    t1 = t2;
    t2 = t3;
    t3 = 0;
  }
  u128 r = (static_cast<u128>(t1) << 64) | t0;
  // t2 can be 0 or contribute via r >= p; with p < R/2 the result is < 2p.
  if (t2 != 0 || r >= kModulus) r -= kModulus;
  return Fp128(static_cast<u64>(r), static_cast<u64>(r >> 64));
}

Fp128 operator*(Fp128 a, Fp128 b) { return Fp128::mont_mul(a, b); }

namespace {

u128 double_mod(u128 x) {
  // x < p < 2^127, so 2x fits in u128.
  u128 d = x << 1;
  if (d >= kModulus) d -= kModulus;
  return d;
}

}  // namespace

struct Fp128::Consts {
  Fp128 r;   // 2^128 mod p, i.e. the Montgomery form of 1
  Fp128 r2;  // 2^256 mod p, used to convert into Montgomery form
};

// R mod p and R^2 mod p, computed once by repeated modular doubling of 1
// (no Montgomery machinery needed, so no bootstrapping problem).
const Fp128::Consts& Fp128::consts() {
  static const Consts kConst = [] {
    u128 x = 1;
    for (int i = 0; i < 128; ++i) x = double_mod(x);
    u128 r = x;
    for (int i = 0; i < 128; ++i) x = double_mod(x);
    Consts c;
    // Construct raw residues directly (bypassing from_u128, which converts).
    c.r = Fp128(static_cast<u64>(r), static_cast<u64>(r >> 64));
    c.r2 = Fp128(static_cast<u64>(x), static_cast<u64>(x >> 64));
    return c;
  }();
  return kConst;
}

Fp128 Fp128::one() { return consts().r; }

Fp128 Fp128::from_u64(u64 x) { return from_u128(x); }

Fp128 Fp128::from_u128(u128 x) {
  if (x >= kModulus) x %= kModulus;
  Fp128 raw(static_cast<u64>(x), static_cast<u64>(x >> 64));
  return mont_mul(raw, consts().r2);
}

u128 Fp128::to_u128() const {
  // Multiply by 1 (non-Montgomery) to divide out R.
  Fp128 canon = mont_mul(*this, Fp128(1, 0));
  return (static_cast<u128>(canon.hi_) << 64) | canon.lo_;
}

u64 Fp128::to_u64() const {
  u128 v = to_u128();
  require((v >> 64) == 0, "Fp128::to_u64: value does not fit in 64 bits");
  return static_cast<u64>(v);
}

Fp128 Fp128::pow(u128 e) const {
  Fp128 base = *this;
  Fp128 acc = one();
  while (e != 0) {
    if (e & 1) acc *= base;
    base *= base;
    e >>= 1;
  }
  return acc;
}

Fp128 Fp128::inv() const {
  require(!is_zero(), "Fp128::inv: zero has no inverse");
  opcount::bump_field_inv();
  return pow(kModulus - 2);
}

Fp128 Fp128::root_of_unity(int k) {
  require(k >= 0 && k <= kTwoAdicity, "Fp128::root_of_unity: bad order");
  static const std::array<Fp128, kTwoAdicity + 1> kRoots = [] {
    std::array<Fp128, kTwoAdicity + 1> roots{};
    Fp128 w = from_u64(kGenerator).pow((kModulus - 1) >> kTwoAdicity);
    roots[kTwoAdicity] = w;
    for (int i = kTwoAdicity - 1; i >= 0; --i) {
      roots[i] = roots[i + 1] * roots[i + 1];
    }
    return roots;
  }();
  return kRoots[k];
}

void Fp128::to_bytes(std::span<u8> out) const {
  require(out.size() >= kByteLen, "Fp128::to_bytes: buffer too small");
  u128 v = to_u128();
  for (size_t i = 0; i < kByteLen; ++i) {
    out[i] = static_cast<u8>(v >> (8 * i));
  }
}

Fp128 Fp128::from_bytes(std::span<const u8> in) {
  require(in.size() >= kByteLen, "Fp128::from_bytes: buffer too small");
  Fp128 out;
  require(from_canonical_bytes(in.data(), &out),
          "Fp128::from_bytes: non-canonical encoding");
  return out;
}

std::string Fp128::to_string() const {
  u128 v = to_u128();
  if (v == 0) return "0";
  std::string s;
  while (v != 0) {
    s.insert(s.begin(), static_cast<char>('0' + static_cast<int>(v % 10)));
    v /= 10;
  }
  return s;
}

}  // namespace prio
