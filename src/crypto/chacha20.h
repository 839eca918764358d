// ChaCha20 stream cipher (RFC 8439) and a counter-mode PRG built on it.
//
// Prio uses ChaCha20 in two places:
//  * the PRG share-compression optimization of Appendix I, where s-1 of the
//    s additive shares are expanded from 32-byte seeds, and
//  * the ChaCha20-Poly1305 AEAD that seals client->server submissions (our
//    stand-in for NaCl's "box").
#pragma once

#include <array>
#include <span>

#include "util/common.h"

namespace prio {

class ChaCha20 {
 public:
  static constexpr size_t kKeyLen = 32;
  static constexpr size_t kNonceLen = 12;
  static constexpr size_t kBlockLen = 64;

  // Computes one 64-byte keystream block (RFC 8439 §2.3).
  static void block(std::span<const u8> key, u32 counter,
                    std::span<const u8> nonce, std::span<u8> out);

  // XORs `data` in place with the keystream starting at block `counter`.
  static void xor_stream(std::span<const u8> key, u32 counter,
                         std::span<const u8> nonce, std::span<u8> data);

  // Out-of-place form: out = in XOR keystream (out.size() == in.size();
  // the two may alias exactly, never partially).
  static void xor_stream(std::span<const u8> key, u32 counter,
                         std::span<const u8> nonce, std::span<const u8> in,
                         std::span<u8> out);
};

// The multi-block keystream core behind ChaCha20::xor_stream and
// ChaChaPrg::fill_blocks. Three paths compute the same bytes: AVX-512F
// (16 blocks per call), AVX2 (8) and a portable 4-lane generic-vector
// core. The widest one the CPU supports is chosen once, at first use, by
// __builtin_cpu_supports; the wide paths are compiled with per-function
// target attributes, so a default (baseline x86-64) build carries them.
// This namespace is the internal entry point the differential tests and
// the kernel benches use to run one specific path.
namespace chacha_core {

enum class Path : u8 { kGeneric4 = 0, kAvx2x8 = 1, kAvx512x16 = 2 };

bool supported(Path p);
Path selected();
const char* name(Path p);

// out = in XOR keystream (in == nullptr: out = keystream) for `len` bytes
// starting at block `counter`, through path `p` (which must be supported)
// with narrower paths taking the tail.
void stream(Path p, std::span<const u8> key, u32 counter,
            std::span<const u8> nonce, const u8* in, u8* out, size_t len);

}  // namespace chacha_core

// Deterministic expanding PRG: an endless ChaCha20 keystream under a fixed
// seed. Used to expand secret-share seeds and to derive per-submission
// randomness; NOT a general-purpose RNG (see SecureRng in rng.h).
class ChaChaPrg {
 public:
  explicit ChaChaPrg(std::span<const u8> seed32);

  // Fills `out` with the next keystream bytes.
  void fill(std::span<u8> out);

  // Bulk path: produces exactly the same byte stream as fill(), but whole
  // 64-byte keystream blocks are generated directly into `out` instead of
  // round-tripping through the internal one-block buffer. The two entry
  // points share the stream position, so they can be interleaved freely.
  void fill_blocks(std::span<u8> out);

  u64 next_u64();

 private:
  void refill();

  std::array<u8, ChaCha20::kKeyLen> key_;
  std::array<u8, ChaCha20::kNonceLen> nonce_;
  std::array<u8, ChaCha20::kBlockLen> buf_;
  size_t pos_;
  u32 counter_;
};

}  // namespace prio
