// Client submissions and their sealing, shared by every pipeline variant:
// the in-process deployments (core/deployment.h, core/mpc_deployment.h),
// the per-input client encoder (core/client.h), and the distributed
// multi-process runtime (server/node.h).
//
// A submission is one sealed blob per server. One PRF-derived key per
// (client, server) pair -- cacheable, so the verification hot path pays
// the key derivation at most once per client instead of once per blob -- and
// the submission counter supplies the AEAD nonce, so two submissions from
// an honest client never reuse a (key, nonce) pair, and a blob sealed for
// server j never opens at server i != j. Blob layout: [u64 seq (LE)] ||
// AEAD ciphertext; tampering with the cleartext seq changes the nonce and
// the AEAD open fails. (A malicious client could re-seal different
// payloads under its own repeated seq and leak the XOR of its own
// plaintexts to the server that legitimately decrypts them -- a
// self-inflicted non-issue, and the replay floor keeps at most one of
// them aggregatable.)
#pragma once

#include <algorithm>
#include <cstring>
#include <map>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "crypto/aead.h"
#include "crypto/chacha20.h"
#include "net/wire.h"
#include "share/share.h"
#include "util/common.h"

namespace prio {

// Client-side upload kinds: PRG seed share or explicit share.
inline constexpr u8 kShareSeed = 0;
inline constexpr u8 kShareExplicit = 1;

// One client submission as the servers receive it: the client id plus one
// sealed blob per server.
struct Submission {
  u64 client_id = 0;
  std::vector<std::vector<u8>> blobs;
};

// Expands the 64-bit deployment master seed into the 32-byte master secret
// the sealing keys derive from.
inline std::vector<u8> master_seed_bytes(u64 seed) {
  std::vector<u8> m(32, 0);
  for (int i = 0; i < 8; ++i) m[i] = static_cast<u8>(seed >> (8 * i));
  return m;
}

// Client->server submission sealing, shared by the pipeline variants.
class SubmissionSealer {
 public:
  explicit SubmissionSealer(std::span<const u8> master)
      : master_(master.begin(), master.end()) {
    require(master_.size() == ChaCha20::kKeyLen,
            "SubmissionSealer: master secret must be 32 bytes");
  }

  // Advances the per-client submission counter (thread-safe).
  u64 next_seq(u64 client_id) const {
    std::lock_guard<std::mutex> lock(mu_);
    return next_seq_[client_id]++;
  }

  std::vector<u8> seal(u64 client_id, size_t server, u64 seq,
                       std::span<const u8> payload) const {
    net::Writer blob;
    blob.u64_(seq);
    blob.raw(Aead::seal(key(client_id, server), nonce(seq), {}, payload));
    return blob.take();
  }

  // Authenticates a blob without decrypting it; the returned plaintext
  // view borrows `blob`. *seq_out (if given) receives the blob's
  // submission counter so the caller can enforce replay freshness.
  std::optional<AeadPlaintext> verify(u64 client_id, size_t server,
                                      std::span<const u8> blob,
                                      u64* seq_out = nullptr) const {
    net::Reader prefix(blob);
    u64 seq = prefix.u64_();
    if (!prefix.ok()) return std::nullopt;
    if (seq_out) *seq_out = seq;
    return Aead::verify(key(client_id, server), nonce(seq), {},
                        blob.subspan(8));
  }

  std::optional<std::vector<u8>> open(u64 client_id, size_t server,
                                      std::span<const u8> blob,
                                      u64* seq_out = nullptr) const {
    auto pt = verify(client_id, server, blob, seq_out);
    if (!pt) return std::nullopt;
    std::vector<u8> out(pt->size());
    pt->read(0, out);
    return out;
  }

 private:
  // Derives (and caches) the key sealing client->server traffic: one
  // ChaCha20 block under the 32-byte master secret, with the (client,
  // server) pair as the nonce. The master secret is itself uniform, so a
  // single keyed-PRF invocation yields independent per-pair keys --
  // HKDF's SHA256 extract+expand added several microseconds per cold
  // derivation to the verification hot path for no additional security.
  // The seq is deliberately NOT part of the derivation: it varies per
  // submission, and keying on it would defeat the cache. Uniqueness of
  // the (key, nonce) pair comes from seq supplying the AEAD nonce.
  std::array<u8, 32> key(u64 client_id, size_t server) const {
    const std::pair<u64, u64> id{client_id, server};
    {
      std::lock_guard<std::mutex> lock(key_mu_);
      auto it = key_cache_.find(id);
      if (it != key_cache_.end()) return it->second;
    }
    std::array<u8, 12> label{};
    for (int i = 0; i < 8; ++i) label[i] = static_cast<u8>(client_id >> (8 * i));
    for (int i = 0; i < 4; ++i) {
      label[8 + i] = static_cast<u8>(static_cast<u32>(server) >> (8 * i));
    }
    u8 block[ChaCha20::kBlockLen];
    ChaCha20::block(master_, /*counter=*/0, label, block);
    std::array<u8, 32> out;
    std::copy(block, block + 32, out.begin());
    std::lock_guard<std::mutex> lock(key_mu_);
    // Hard cap so a flood of distinct client ids cannot exhaust memory;
    // dropping the cache only costs re-derivation.
    if (key_cache_.size() >= kMaxCachedKeys) key_cache_.clear();
    key_cache_.emplace(id, out);
    return out;
  }

  static std::array<u8, 12> nonce(u64 seq) {
    std::array<u8, 12> n{};
    for (int i = 0; i < 8; ++i) n[i] = static_cast<u8>(seq >> (8 * i));
    return n;
  }

  static constexpr size_t kMaxCachedKeys = 1 << 16;

  std::vector<u8> master_;
  mutable std::mutex mu_;
  mutable std::unordered_map<u64, u64> next_seq_;
  mutable std::mutex key_mu_;
  mutable std::map<std::pair<u64, u64>, std::array<u8, 32>> key_cache_;
};

// Splits a flat extended vector into PRG-compressed per-server shares
// (Appendix I: shares 0..s-2 are seeds, share s-1 is explicit) and seals
// each one for its server under the given submission counter. Both
// deployment variants and the standalone client encoder build their uploads
// through this single path.
template <PrimeField F>
std::vector<std::vector<u8>> seal_shared_vector(const SubmissionSealer& sealer,
                                                std::span<const F> flat,
                                                size_t num_servers,
                                                u64 client_id, u64 seq,
                                                SecureRng& rng) {
  auto cs = share_vector_compressed<F>(flat, num_servers, rng);
  std::vector<std::vector<u8>> blobs;
  blobs.reserve(num_servers);
  for (size_t j = 0; j < num_servers; ++j) {
    net::Writer w;
    if (j + 1 < num_servers) {
      w.u8_(kShareSeed);
      w.raw(cs.seeds[j]);
    } else {
      w.u8_(kShareExplicit);
      w.field_vector<F>(std::span<const F>(cs.explicit_share));
    }
    blobs.push_back(sealer.seal(client_id, j, seq, w.data()));
  }
  return blobs;
}

// Opens a sealed blob and decodes it into the caller-owned `out` buffer --
// the batch pipelines point this at their SnipVerifier's landing buffer.
// Nothing is allocated: the tag is checked over the ciphertext first, a
// PRG-seed share is then bulk-expanded in place, and an explicit share is
// decrypted in L1-sized keystream chunks and parsed straight into `out`
// with one canonical-element check per chunk. Returns false (leaving `out`
// unspecified) on a bad tag, an unknown kind, a wrong count or length, or
// a non-canonical element -- exactly the blobs a parse of the whole
// plaintext with net::Reader rejects, decoding the rest to identical
// elements.
template <PrimeField F>
bool open_sealed_share_into(const SubmissionSealer& sealer, u64 client_id,
                            size_t server, std::span<const u8> blob,
                            std::span<F> out, u64* seq_out = nullptr) {
  auto pt = sealer.verify(client_id, server, blob, seq_out);
  if (!pt || pt->size() == 0) return false;
  // Plaintext: [u8 kind] then a 32-byte seed, or [u32 count] and `count`
  // elements. The chunk is a whole number of keystream blocks; a partial
  // element at a chunk's end is carried to the front of the next one.
  constexpr size_t kChunk = 4096;
  constexpr size_t kHeader = 5;
  u8 buf[kChunk + F::kByteLen];
  size_t have = std::min(pt->size(), kChunk);
  pt->read(0, std::span<u8>(buf, have));
  if (buf[0] == kShareSeed) {
    if (pt->size() != 1 + 32) return false;
    expand_share_seed_into<F>(std::span<const u8>(buf + 1, 32), out);
    return true;
  }
  if (buf[0] != kShareExplicit ||
      pt->size() != kHeader + out.size() * F::kByteLen) {
    return false;
  }
  u32 count = 0;
  for (int i = 0; i < 4; ++i) count |= static_cast<u32>(buf[1 + i]) << (8 * i);
  if (count != out.size()) return false;
  bool canonical = true;
  size_t done = 0, at = kHeader, pos = have;
  for (;;) {
    const size_t n = (have - at) / F::kByteLen;
    for (size_t i = 0; i < n; ++i) {
      canonical &= F::from_canonical_bytes(buf + at + i * F::kByteLen,
                                           &out[done + i]);
    }
    done += n;
    at += n * F::kByteLen;
    if (pos == pt->size()) break;
    const size_t carry = have - at;
    std::memmove(buf, buf + at, carry);
    const size_t next = std::min(pt->size() - pos, kChunk);
    pt->read(pos, std::span<u8>(buf + carry, next));
    pos += next;
    have = carry + next;
    at = 0;
  }
  return canonical;
}

// Opens a sealed blob and decodes it into a length-`len` share vector
// (PRG-seed shares are expanded, explicit shares parsed).
template <PrimeField F>
std::optional<std::vector<F>> open_sealed_share(const SubmissionSealer& sealer,
                                                u64 client_id, size_t server,
                                                std::span<const u8> blob,
                                                size_t len,
                                                u64* seq_out = nullptr) {
  std::vector<F> out(len, F::zero());
  if (!open_sealed_share_into<F>(sealer, client_id, server, blob,
                                 std::span<F>(out), seq_out)) {
    return std::nullopt;
  }
  return out;
}

// Server-side replay guard (replicated high-water mark over the cleartext
// submission counters): a submission is fresh iff its counter is at or
// above the client's floor. The floor advances only when a submission is
// accepted, so a byte-identical replay of an accepted submission can never
// be aggregated twice, while a rejected counter does not burn the slot.
// Every server in a distributed run applies the same rule to the same
// (client, seq) stream in the same order, so the floors stay replicated
// without coordination; floors() / set_floor() serialize them across a
// server restart.
class ReplayGuard {
 public:
  bool fresh(u64 client_id, u64 seq) const {
    // The all-ones counter is never fresh: accepting it would wrap the
    // floor to 0 and make its own replays fresh forever. Honest clients
    // count up from 0 and cannot reach it.
    if (seq == ~u64{0}) return false;
    auto it = floor_.find(client_id);
    return it == floor_.end() || seq >= it->second;
  }
  void accept(u64 client_id, u64 seq) { floor_[client_id] = seq + 1; }

  const std::unordered_map<u64, u64>& floors() const { return floor_; }
  void set_floor(u64 client_id, u64 floor) { floor_[client_id] = floor; }

 private:
  std::unordered_map<u64, u64> floor_;
};

}  // namespace prio
