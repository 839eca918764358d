// ChaCha20-Poly1305 AEAD (RFC 8439 §2.8).
//
// This is the sealing primitive for client->server submissions (the paper
// uses NaCl "box"; we use the same AEAD construction with pairwise static
// keys derived via HKDF — see net/channel.h for the substitution note).
#pragma once

#include <array>
#include <optional>
#include <span>
#include <vector>

#include "util/common.h"

namespace prio {

// A ciphertext whose tag has been checked (Aead::verify), decrypted on
// demand: read() runs the keystream straight into a caller buffer, so a
// large plaintext can be consumed in cache-sized chunks without ever being
// copied to the heap. Borrows the ciphertext; it must outlive this object.
class AeadPlaintext {
 public:
  size_t size() const { return ct_.size(); }

  // Decrypts plaintext bytes [pos, pos + out.size()) into `out`. `pos`
  // must be a multiple of the 64-byte ChaCha20 block.
  void read(size_t pos, std::span<u8> out) const;

 private:
  friend class Aead;
  AeadPlaintext(std::span<const u8> key, std::span<const u8> nonce,
                std::span<const u8> ct);

  std::array<u8, 32> key_;
  std::array<u8, 12> nonce_;
  std::span<const u8> ct_;
};

class Aead {
 public:
  static constexpr size_t kKeyLen = 32;
  static constexpr size_t kNonceLen = 12;
  static constexpr size_t kTagLen = 16;

  // Returns ciphertext || 16-byte tag.
  static std::vector<u8> seal(std::span<const u8> key, std::span<const u8> nonce,
                              std::span<const u8> aad,
                              std::span<const u8> plaintext);

  // Checks the tag of `sealed` (ciphertext || tag) without decrypting;
  // nullopt if authentication fails.
  static std::optional<AeadPlaintext> verify(std::span<const u8> key,
                                             std::span<const u8> nonce,
                                             std::span<const u8> aad,
                                             std::span<const u8> sealed);

  // Returns the plaintext, or nullopt if authentication fails.
  static std::optional<std::vector<u8>> open(std::span<const u8> key,
                                             std::span<const u8> nonce,
                                             std::span<const u8> aad,
                                             std::span<const u8> ciphertext);
};

}  // namespace prio
