// Poly1305 one-time authenticator (RFC 8439 §2.5).
#pragma once

#include <array>
#include <span>

#include "util/common.h"

namespace prio {

class Poly1305 {
 public:
  static constexpr size_t kKeyLen = 32;
  static constexpr size_t kTagLen = 16;

  explicit Poly1305(std::span<const u8> key32);

  Poly1305& update(std::span<const u8> data);
  std::array<u8, kTagLen> finalize();

  static std::array<u8, kTagLen> mac(std::span<const u8> key32,
                                     std::span<const u8> data);

 private:
  // Absorbs `bytes` / 16 whole blocks; `hibit` is 2^128 as seen from the
  // top limb (1 << 40), or 0 for the final, already-padded partial block.
  void blocks(const u8* m, size_t bytes, u64 hibit);

  // Accumulator and key in 44/44/42-bit limbs, multiplied with 64x64->128
  // products (the poly1305-donna-64 layout): 9 multiplies per block
  // instead of the 25 of 26-bit limbs.
  u64 r_[3];
  u64 h_[3];
  u64 pad_[2];
  std::array<u8, 16> buf_;
  size_t buf_len_;
};

// Constant-time tag comparison.
bool tags_equal(std::span<const u8> a, std::span<const u8> b);

}  // namespace prio
