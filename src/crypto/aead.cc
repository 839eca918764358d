#include "crypto/aead.h"

#include <cstring>

#include "crypto/chacha20.h"
#include "crypto/poly1305.h"

namespace prio {
namespace {

// Poly1305 key generation (RFC 8439 §2.6): first 32 bytes of the block-0
// keystream.
std::array<u8, 32> poly_key(std::span<const u8> key, std::span<const u8> nonce) {
  u8 block[ChaCha20::kBlockLen];
  ChaCha20::block(key, 0, nonce, block);
  std::array<u8, 32> out;
  std::memcpy(out.data(), block, 32);
  return out;
}

std::array<u8, Poly1305::kTagLen> compute_tag(std::span<const u8> otk,
                                              std::span<const u8> aad,
                                              std::span<const u8> ct) {
  Poly1305 mac(otk);
  static constexpr u8 kZeros[16] = {0};
  mac.update(aad);
  if (aad.size() % 16 != 0) {
    mac.update(std::span<const u8>(kZeros, 16 - aad.size() % 16));
  }
  mac.update(ct);
  if (ct.size() % 16 != 0) {
    mac.update(std::span<const u8>(kZeros, 16 - ct.size() % 16));
  }
  u8 lens[16];
  u64 alen = aad.size(), clen = ct.size();
  for (int i = 0; i < 8; ++i) {
    lens[i] = static_cast<u8>(alen >> (8 * i));
    lens[8 + i] = static_cast<u8>(clen >> (8 * i));
  }
  mac.update(lens);
  return mac.finalize();
}

}  // namespace

std::vector<u8> Aead::seal(std::span<const u8> key, std::span<const u8> nonce,
                           std::span<const u8> aad,
                           std::span<const u8> plaintext) {
  require(key.size() == kKeyLen, "Aead::seal: key must be 32 bytes");
  require(nonce.size() == kNonceLen, "Aead::seal: nonce must be 12 bytes");
  std::vector<u8> out(plaintext.size() + kTagLen);
  ChaCha20::xor_stream(key, 1, nonce, plaintext,
                       std::span<u8>(out.data(), plaintext.size()));
  auto otk = poly_key(key, nonce);
  auto tag = compute_tag(otk, aad,
                         std::span<const u8>(out.data(), plaintext.size()));
  std::memcpy(out.data() + plaintext.size(), tag.data(), kTagLen);
  return out;
}

std::optional<AeadPlaintext> Aead::verify(std::span<const u8> key,
                                          std::span<const u8> nonce,
                                          std::span<const u8> aad,
                                          std::span<const u8> sealed) {
  require(key.size() == kKeyLen, "Aead::verify: key must be 32 bytes");
  require(nonce.size() == kNonceLen, "Aead::verify: nonce must be 12 bytes");
  if (sealed.size() < kTagLen) return std::nullopt;
  const size_t ct_len = sealed.size() - kTagLen;
  auto otk = poly_key(key, nonce);
  auto expect = compute_tag(otk, aad, sealed.first(ct_len));
  if (!tags_equal(expect, sealed.subspan(ct_len))) return std::nullopt;
  return AeadPlaintext(key, nonce, sealed.first(ct_len));
}

std::optional<std::vector<u8>> Aead::open(std::span<const u8> key,
                                          std::span<const u8> nonce,
                                          std::span<const u8> aad,
                                          std::span<const u8> ciphertext) {
  auto pt = verify(key, nonce, aad, ciphertext);
  if (!pt) return std::nullopt;
  std::vector<u8> out(pt->size());
  pt->read(0, out);
  return out;
}

AeadPlaintext::AeadPlaintext(std::span<const u8> key, std::span<const u8> nonce,
                             std::span<const u8> ct)
    : ct_(ct) {
  std::memcpy(key_.data(), key.data(), key_.size());
  std::memcpy(nonce_.data(), nonce.data(), nonce_.size());
}

void AeadPlaintext::read(size_t pos, std::span<u8> out) const {
  require(pos % ChaCha20::kBlockLen == 0 && pos <= ct_.size() &&
              out.size() <= ct_.size() - pos,
          "AeadPlaintext::read: range outside the ciphertext");
  // Block 0 keyed the tag; the plaintext keystream starts at block 1.
  ChaCha20::xor_stream(key_, static_cast<u32>(1 + pos / ChaCha20::kBlockLen),
                       nonce_, ct_.subspan(pos, out.size()), out);
}

}  // namespace prio
