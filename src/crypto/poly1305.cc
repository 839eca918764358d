#include "crypto/poly1305.h"

#include <cstring>

namespace prio {
namespace {

constexpr u64 kMask44 = (u64{1} << 44) - 1;
constexpr u64 kMask42 = (u64{1} << 42) - 1;

inline u64 load64_le(const u8* p) {
  u64 v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<u64>(p[i]) << (8 * i);
  return v;
}

inline void store64_le(u8* p, u64 v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<u8>(v >> (8 * i));
}

}  // namespace

Poly1305::Poly1305(std::span<const u8> key32) : buf_len_(0) {
  require(key32.size() == kKeyLen, "Poly1305: key must be 32 bytes");
  const u8* key = key32.data();
  // r with the RFC clamp, split into 44/44/42-bit limbs.
  const u64 t0 = load64_le(key);
  const u64 t1 = load64_le(key + 8);
  r_[0] = t0 & 0xffc0fffffffull;
  r_[1] = ((t0 >> 44) | (t1 << 20)) & 0xfffffc0ffffull;
  r_[2] = (t1 >> 24) & 0x00ffffffc0full;
  h_[0] = h_[1] = h_[2] = 0;
  pad_[0] = load64_le(key + 16);
  pad_[1] = load64_le(key + 24);
}

void Poly1305::blocks(const u8* m, size_t bytes, u64 hibit) {
  const u64 r0 = r_[0], r1 = r_[1], r2 = r_[2];
  // 2^130 = 5 (mod p); the limbs above 2^128 carry an extra factor of 4
  // from the 44+44+42 split, hence 5 << 2.
  const u64 s1 = r1 * (5 << 2), s2 = r2 * (5 << 2);
  u64 h0 = h_[0], h1 = h_[1], h2 = h_[2];
  for (; bytes >= 16; bytes -= 16, m += 16) {
    const u64 t0 = load64_le(m);
    const u64 t1 = load64_le(m + 8);
    h0 += t0 & kMask44;
    h1 += ((t0 >> 44) | (t1 << 20)) & kMask44;
    h2 += ((t1 >> 24) & kMask42) | hibit;

    const u128 d0 = static_cast<u128>(h0) * r0 + static_cast<u128>(h1) * s2 +
                    static_cast<u128>(h2) * s1;
    u128 d1 = static_cast<u128>(h0) * r1 + static_cast<u128>(h1) * r0 +
              static_cast<u128>(h2) * s2;
    u128 d2 = static_cast<u128>(h0) * r2 + static_cast<u128>(h1) * r1 +
              static_cast<u128>(h2) * r0;

    u64 c = static_cast<u64>(d0 >> 44);
    h0 = static_cast<u64>(d0) & kMask44;
    d1 += c; c = static_cast<u64>(d1 >> 44); h1 = static_cast<u64>(d1) & kMask44;
    d2 += c; c = static_cast<u64>(d2 >> 42); h2 = static_cast<u64>(d2) & kMask42;
    h0 += c * 5; c = h0 >> 44; h0 &= kMask44;
    h1 += c;
  }
  h_[0] = h0;
  h_[1] = h1;
  h_[2] = h2;
}

Poly1305& Poly1305::update(std::span<const u8> data) {
  if (data.empty()) return *this;  // keep memcpy away from a null span
  constexpr u64 kHibit = u64{1} << 40;
  size_t off = 0;
  if (buf_len_ > 0) {
    size_t n = std::min(data.size(), buf_.size() - buf_len_);
    std::memcpy(buf_.data() + buf_len_, data.data(), n);
    buf_len_ += n;
    off = n;
    if (buf_len_ == 16) {
      blocks(buf_.data(), 16, kHibit);
      buf_len_ = 0;
    }
  }
  const size_t whole = (data.size() - off) & ~size_t{15};
  blocks(data.data() + off, whole, kHibit);
  off += whole;
  if (off < data.size()) {
    std::memcpy(buf_.data(), data.data() + off, data.size() - off);
    buf_len_ = data.size() - off;
  }
  return *this;
}

std::array<u8, Poly1305::kTagLen> Poly1305::finalize() {
  if (buf_len_ > 0) {
    u8 block[16] = {0};
    std::memcpy(block, buf_.data(), buf_len_);
    block[buf_len_] = 1;
    blocks(block, 16, 0);
  }
  // Full carry propagation (twice round the 2^130 = 5 fold), then compute
  // g = h + 5 - 2^130 = h - p and select it iff it did not borrow (h >= p).
  u64 h0 = h_[0], h1 = h_[1], h2 = h_[2];
  u64 c = h1 >> 44; h1 &= kMask44;
  h2 += c; c = h2 >> 42; h2 &= kMask42;
  h0 += c * 5; c = h0 >> 44; h0 &= kMask44;
  h1 += c; c = h1 >> 44; h1 &= kMask44;
  h2 += c; c = h2 >> 42; h2 &= kMask42;
  h0 += c * 5; c = h0 >> 44; h0 &= kMask44;
  h1 += c;

  u64 g0 = h0 + 5; c = g0 >> 44; g0 &= kMask44;
  u64 g1 = h1 + c; c = g1 >> 44; g1 &= kMask44;
  const u64 g2 = h2 + c - (u64{1} << 42);

  const u64 mask = (g2 >> 63) - 1;  // all-ones if h >= p
  h0 = (h0 & ~mask) | (g0 & mask);
  h1 = (h1 & ~mask) | (g1 & mask);
  h2 = (h2 & ~mask) | (g2 & mask);

  // tag = (h + pad) mod 2^128.
  const u64 p0 = pad_[0], p1 = pad_[1];
  h0 += p0 & kMask44; c = h0 >> 44; h0 &= kMask44;
  h1 += (((p0 >> 44) | (p1 << 20)) & kMask44) + c; c = h1 >> 44; h1 &= kMask44;
  h2 += ((p1 >> 24) & kMask42) + c; h2 &= kMask42;

  std::array<u8, kTagLen> tag;
  store64_le(tag.data(), h0 | (h1 << 44));
  store64_le(tag.data() + 8, (h1 >> 20) | (h2 << 24));
  return tag;
}

std::array<u8, Poly1305::kTagLen> Poly1305::mac(std::span<const u8> key32,
                                                std::span<const u8> data) {
  Poly1305 p(key32);
  p.update(data);
  return p.finalize();
}

bool tags_equal(std::span<const u8> a, std::span<const u8> b) {
  if (a.size() != b.size()) return false;
  u8 acc = 0;
  for (size_t i = 0; i < a.size(); ++i) acc |= a[i] ^ b[i];
  return acc == 0;
}

}  // namespace prio
