// Workloads, the seeded submission generator with its cheat catalogue, and
// the plaintext reference oracle.
//
// Every submission is a pure function of (workload, seed, arrival index),
// so two runs with one seed offer the servers the same inputs whatever the
// producer threads' interleaving. Cheats are built only from public client
// pieces (SnipProver::build_extended_input, seal_shared_vector and the
// SubmissionSealer a client holds). The oracle sums Afe::encode(x) over the
// inputs the generator knows are honest and shares no code with the
// sealer, share expansion or the SNIP verifier.
#pragma once

#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "afe/bitvec_sum.h"
#include "afe/countmin.h"
#include "afe/registry.h"
#include "core/client.h"
#include "core/submission.h"
#include "server/protocol.h"
#include "snip/snip.h"
#include "util.h"

namespace perfbench {

using F = prio::Fp64;

// ---- workloads --------------------------------------------------------------

struct Workload {
  std::string name;
  std::string afe;           // spec with every parameter explicit
  size_t shards = 1;         // --shards
  u64 delay_us = 0;          // one-way delay on every server pair
  size_t epoch_size = 128;   // --epoch-size
  static constexpr size_t batch = 64;  // --batch (the server default)
  bool durable = false;      // --data-dir + --fsync always
  bool paced = false;        // open-loop Poisson arrivals (else backlog)
  double rate = 0;           // paced arrivals per second
  double cheat_frac = 0;     // share of arrivals drawn from the catalogue
  size_t producers = 2;      // upload threads in the generator
  // Distinct (input, proof) pairs honest submissions draw from; 0 builds
  // every submission with its own PrioClient::upload.
  size_t proof_bank = 0;
};

inline std::optional<Workload> find_workload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "lan_backlog") {
    w.afe = "bitvec_sum:len=256";
    w.epoch_size = 128;
    w.proof_bank = 512;
    return w;
  }
  if (name == "wan_paced_durable") {
    w.afe = "countmin:d=4,seed=7369327,w=32";
    w.shards = 2;
    w.delay_us = 5000;
    w.epoch_size = 64;
    w.durable = true;
    w.paced = true;
    w.rate = 400;
    w.cheat_frac = 0.05;
    w.producers = 1;
    return w;
  }
  return std::nullopt;
}

// ---- deterministic randomness ----------------------------------------------

inline u64 mix64(u64 x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

class SplitMix {
 public:
  explicit SplitMix(u64 seed) : s_(seed) {}
  u64 next() { return mix64(s_++ * 0x2545f4914f6cdd1dull + 0x632be59bd9b4e019ull); }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  u64 s_;
};

inline std::vector<u8> random_input(const prio::afe::BitVectorSum<F>& a,
                                    SplitMix& r) {
  std::vector<u8> bits(a.length());
  for (size_t i = 0; i < bits.size(); i += 64) {
    const u64 word = r.next();
    for (size_t b = 0; b < 64 && i + b < bits.size(); ++b) {
      bits[i + b] = static_cast<u8>((word >> b) & 1);
    }
  }
  return bits;
}

inline u64 random_input(const prio::afe::CountMinSketch<F>&, SplitMix& r) {
  // A skewed item stream: a quarter of the arrivals are 8 heavy hitters.
  const u64 x = r.next();
  return (x & 3) == 0 ? (x >> 2) % 8 : (x >> 2) % 1'000'000;
}

// ---- the submission catalogue ----------------------------------------------

enum class Kind : u8 {
  kHonest,
  kOutOfRange,  // invalid encoding with an honest proof
  kBadProof,    // valid encoding, one proof point corrupted
  kDisagree,    // servers hold shares of two different sharings
  kTruncated,   // one server's blob cut in half
  kPadded,      // one server's blob grown past its sealed length
  kFlipped,     // one ciphertext byte flipped at one server
  kOverCap,     // blobs over the server's intake size cap (nacked)
  kReplay,      // byte-identical resend of an accepted submission
};

inline const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kHonest: return "honest";
    case Kind::kOutOfRange: return "out_of_range";
    case Kind::kBadProof: return "bad_proof";
    case Kind::kDisagree: return "disagreeing_shares";
    case Kind::kTruncated: return "truncated";
    case Kind::kPadded: return "oversized_padded";
    case Kind::kFlipped: return "flipped_byte";
    case Kind::kOverCap: return "oversized_over_cap";
    case Kind::kReplay: return "replay";
  }
  return "?";
}
inline constexpr size_t kNumKinds = 9;

// Cheats that reach the SNIP with every blob opening: the verifier, not the
// AEAD or the replay floor, must reject them.
inline bool snip_level(Kind k) {
  return k == Kind::kOutOfRange || k == Kind::kBadProof || k == Kind::kDisagree;
}

// The runtime's default intake cap (RuntimeOptions::max_blob_bytes).
inline constexpr size_t kIntakeBlobCap = size_t{1} << 20;

struct Item {
  u64 index = 0;
  Kind kind = Kind::kHonest;
  u64 cid = 0;
  std::vector<std::vector<u8>> blobs;  // one per server; empty for replays
  std::vector<F> contribution;         // k' encoding prefix (honest only)
  u64 upload_cpu_ns = 0;               // PrioClient::upload (honest only)
  u64 replay_of = 0;                   // arrival index of the original
};

// Builds submissions for one AFE. Not thread-safe: each producer thread
// owns one Generator.
template <typename Afe>
class Generator {
 public:
  static constexpr size_t kServers = 3;
  // Replays resend the submission this many arrivals earlier.
  static constexpr u64 kReplayLag = 512;
  // With a proof bank, every this-many-th arrival is still a full
  // PrioClient::upload, timed for the client-cost metric.
  static constexpr u64 kUploadSampleEvery = 16;
  static constexpr u64 kOverCapStride = 2000;

  Generator(const Afe* afe, const Workload& w, u64 seed, u64 master_seed)
      : afe_(afe), w_(w), seed_(seed),
        client_(afe, kServers, master_seed),
        prover_(&afe->valid_circuit()),
        sealer_(prio::master_seed_bytes(master_seed)) {}

  // Records a span around every PrioClient::upload (traced run).
  void set_spans(SpanLog* spans) { spans_ = spans; }

  // The arrival at `index`: its kind, client id and sealed blobs.
  Item make(u64 index) {
    SplitMix r(mix64(seed_ ^ mix64(index)));
    prio::SecureRng rng(mix64(seed_ * 31 + index));
    Item it;
    it.index = index;
    it.cid = index + 1;
    it.kind = pick_kind(index);
    if (it.kind == Kind::kReplay) {
      if (index < kReplayLag) {
        it.kind = Kind::kHonest;  // nothing old enough to replay yet
      } else {
        it.replay_of = index - kReplayLag;
        return it;
      }
    }
    if (it.kind == Kind::kHonest && w_.proof_bank > 0 &&
        index % kUploadSampleEvery != 0) {
      // Fresh shares and seals of a banked (input, proof): the servers'
      // work is the same as for a fresh input, at half the client cost.
      const Banked& b = banked(r.next() % w_.proof_bank);
      it.blobs = seal(b.ext, it.cid, rng);
      it.contribution = b.contribution;
      return it;
    }
    const auto input = random_input(*afe_, r);
    std::vector<F> enc = afe_->encode(input);
    if (it.kind == Kind::kHonest) {
      const u64 c0 = thread_cpu_ns();
      {
        ScopedSpan span(spans_, "client.upload");
        it.blobs = client_.upload(input, it.cid, rng);
      }
      it.upload_cpu_ns = thread_cpu_ns() - c0;
      it.contribution.assign(enc.begin(), enc.begin() + afe_->k_prime());
      return it;
    }
    if (it.kind == Kind::kOutOfRange) {
      // Every catalogue AFE used here ends its encoding with a range-
      // checked bit; 2 is out of range.
      enc.back() = F::from_u64(2);
      it.contribution.assign(enc.begin(), enc.begin() + afe_->k_prime());
    }
    std::vector<F> ext = prover_.build_extended_input(enc, rng);
    if (it.kind == Kind::kBadProof) {
      // An odd h point enters only h-hat(r), never a wire value.
      ext[prover_.layout().off_h() + 1] += F::one();
    }
    it.blobs = seal(ext, it.cid, rng);
    const size_t victim = r.next() % kServers;
    switch (it.kind) {
      case Kind::kDisagree: {
        auto other = seal(ext, it.cid, rng);
        for (size_t j = 1; j < kServers; ++j) it.blobs[j] = std::move(other[j]);
        break;
      }
      case Kind::kTruncated:
        it.blobs[victim].resize(it.blobs[victim].size() / 2);
        break;
      case Kind::kPadded:
        it.blobs[victim].resize(it.blobs[victim].size() + 16, 0);
        break;
      case Kind::kFlipped:
        it.blobs[victim][12] ^= 1;
        break;
      case Kind::kOverCap:
        // Every server must refuse it: a blob buffered at some servers
        // only would be announced and then waited for at the others.
        for (auto& b : it.blobs) b.resize(kIntakeBlobCap + 1, 0);
        break;
      default:
        break;
    }
    return it;
  }

 private:
  // A fixed share of arrivals are cheats, on a fixed stride that cycles
  // through the catalogue (the seed only shifts the phase), so every run of
  // a given length offers the same number of each kind.
  Kind pick_kind(u64 index) const {
    if (w_.cheat_frac <= 0) return Kind::kHonest;
    static constexpr Kind kCycle[] = {
        Kind::kOutOfRange, Kind::kBadProof, Kind::kDisagree, Kind::kReplay,
        Kind::kTruncated,  Kind::kPadded,   Kind::kFlipped};
    // Over-cap blobs put 3 MiB on the wire each: one per kOverCapStride.
    const u64 phase = mix64(seed_) % kOverCapStride;
    if ((index + phase) % kOverCapStride == 0) return Kind::kOverCap;
    const u64 stride = static_cast<u64>(1.0 / w_.cheat_frac + 0.5);
    if ((index + phase) % stride != 0) return Kind::kHonest;
    return kCycle[((index + phase) / stride) % std::size(kCycle)];
  }

  struct Banked {
    std::vector<F> ext;
    std::vector<F> contribution;
  };

  const Banked& banked(size_t slot) {
    if (bank_.size() <= slot) bank_.resize(w_.proof_bank);
    Banked& b = bank_[slot];
    if (b.ext.empty()) {
      SplitMix r(mix64(seed_ ^ 0xba4cull ^ mix64(slot)));
      prio::SecureRng rng(mix64(seed_ * 37 + slot));
      const std::vector<F> enc = afe_->encode(random_input(*afe_, r));
      b.ext = prover_.build_extended_input(enc, rng);
      b.contribution.assign(enc.begin(), enc.begin() + afe_->k_prime());
    }
    return b;
  }

  std::vector<std::vector<u8>> seal(const std::vector<F>& ext, u64 cid,
                                    prio::SecureRng& rng) const {
    return prio::seal_shared_vector<F>(sealer_, std::span<const F>(ext),
                                       kServers, cid, /*seq=*/0, rng);
  }

  const Afe* afe_;
  Workload w_;
  u64 seed_;
  prio::PrioClient<F, Afe> client_;
  prio::SnipProver<F> prover_;
  prio::SubmissionSealer sealer_;
  SpanLog* spans_ = nullptr;
  std::vector<Banked> bank_;
};

// ---- the plaintext reference oracle ----------------------------------------

// Tracks, per shard lane, the submissions server 0 buffered in intake
// order (a lane consumes its buffer first-in first-out), and checks each
// published epoch: the cumulative published sigma and accepted count must
// equal the encoding sums of the honest, first-seen submissions in SOME
// split of the cumulative epoch quota into per-lane prefixes. With one
// lane the split is forced; with several, the lanes draw quota in an order
// that depends on timing, so the oracle searches the consistent splits.
//
// Entries with equal contributions (repeated items, empty cheats) can let
// more than one split match, and a shifted split could absorb a wrongly
// dropped or accepted entry. Such an epoch is left unresolved: only the
// prefix every matching split shares is folded, and the check stays
// cumulative. The last epoch's quota is everything entered, so its split
// is forced; settled() says it was reached, pinning every earlier epoch.
class Oracle {
 public:
  Oracle(size_t shards, size_t k_prime)
      : kp_(k_prime), lanes_(shards) {
    for (auto& l : lanes_) l.base_sum.assign(kp_, F::zero());
    cum_sigma_.assign(kp_, F::zero());
  }

  // One submission entered server 0's intake. `contribution` is empty for
  // anything that must not be aggregated.
  void entered(size_t lane, const std::vector<F>& contribution) {
    lanes_[lane].pending.push_back(contribution);
  }

  // Lane position below which every entry is known to be consumed.
  u64 consumed(size_t lane) const { return lanes_[lane].base_count; }
  u64 entered_count(size_t lane) const {
    return lanes_[lane].base_count + lanes_[lane].pending.size();
  }
  // Every entered submission is folded into a checked prefix.
  bool settled() const {
    for (const auto& l : lanes_) {
      if (!l.pending.empty()) return false;
    }
    return true;
  }
  u64 ambiguous() const { return ambiguous_; }

  // Checks published epoch `epoch` (per-epoch sigma and accepted count),
  // given the epoch quota. Returns false if no consistent split exists.
  bool check_epoch(u32 epoch, size_t epoch_size, const std::vector<F>& sigma,
                   u64 accepted) {
    for (size_t c = 0; c < kp_; ++c) cum_sigma_[c] += sigma[c];
    cum_accepted_ += accepted;
    const u64 quota = u64{epoch + 1} * epoch_size;
    // Prefix sums of every lane's pending entries.
    std::vector<std::vector<std::vector<F>>> pre(lanes_.size());
    std::vector<std::vector<u64>> acc(lanes_.size());
    for (size_t l = 0; l < lanes_.size(); ++l) {
      const Lane& ln = lanes_[l];
      pre[l].push_back(ln.base_sum);
      acc[l].push_back(ln.base_accepted);
      for (const auto& c : ln.pending) {
        std::vector<F> next = pre[l].back();
        if (!c.empty()) {
          for (size_t i = 0; i < kp_; ++i) next[i] += c[i];
        }
        pre[l].push_back(std::move(next));
        acc[l].push_back(acc[l].back() + (c.empty() ? 0 : 1));
      }
    }
    // Enumerate splits of the quota over lanes (at most two lanes are
    // searched jointly; more lanes are not used by any workload).
    prio::require(lanes_.size() <= 2, "Oracle: at most two lanes");
    std::vector<u64> best_min(lanes_.size(), ~u64{0});
    size_t matches = 0;
    auto try_split = [&](const std::vector<u64>& n) {
      u64 a = 0;
      for (size_t l = 0; l < lanes_.size(); ++l) {
        a += acc[l][n[l] - lanes_[l].base_count];
      }
      if (a != cum_accepted_) return;
      for (size_t i = 0; i < kp_; ++i) {
        F s = F::zero();
        for (size_t l = 0; l < lanes_.size(); ++l) {
          s += pre[l][n[l] - lanes_[l].base_count][i];
        }
        if (!(s == cum_sigma_[i])) return;
      }
      ++matches;
      for (size_t l = 0; l < lanes_.size(); ++l) {
        best_min[l] = std::min(best_min[l], n[l]);
      }
    };
    if (lanes_.size() == 1) {
      if (quota >= lanes_[0].base_count && quota <= entered_count(0)) {
        try_split({quota});
      }
    } else {
      for (u64 n0 = lanes_[0].base_count; n0 <= entered_count(0); ++n0) {
        if (n0 > quota) break;
        const u64 n1 = quota - n0;
        if (n1 < lanes_[1].base_count || n1 > entered_count(1)) continue;
        try_split({n0, n1});
      }
    }
    if (matches == 0) return false;
    if (matches > 1) ++ambiguous_;
    // Collapse the prefix every matching split agrees was consumed.
    for (size_t l = 0; l < lanes_.size(); ++l) {
      Lane& ln = lanes_[l];
      const u64 drop = best_min[l] - ln.base_count;
      ln.base_sum = pre[l][drop];
      ln.base_accepted = acc[l][drop];
      ln.base_count = best_min[l];
      ln.pending.erase(ln.pending.begin(),
                       ln.pending.begin() + static_cast<long>(drop));
    }
    return true;
  }

 private:
  struct Lane {
    u64 base_count = 0;     // entries folded into base_sum
    u64 base_accepted = 0;  // honest entries among them
    std::vector<F> base_sum;
    std::deque<std::vector<F>> pending;
  };
  size_t kp_;
  std::vector<Lane> lanes_;
  std::vector<F> cum_sigma_;
  u64 cum_accepted_ = 0;
  u64 ambiguous_ = 0;
};

}  // namespace perfbench
