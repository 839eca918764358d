// The full Prio pipeline (Section 5.1 "Putting it all together" and
// Appendix H): Upload -> Validate -> Aggregate -> Publish, over the
// simulated multi-datacenter network.
//
// One PrioDeployment owns s server instances, the SimNetwork connecting
// them, and per-server busy-time clocks. Clients are stateless helpers that
// produce sealed uploads. The leader for submission i is server i mod s
// (Section 6.1's load-balancing: the leader relays the Beaver broadcast, so
// rotating it spreads the extra traffic evenly and throughput stays flat as
// servers are added -- Figure 5).
//
// Validation runs the four SNIP rounds of core/snip_rounds.h (described
// there) for all s servers in lock-step (simulate_snip_rounds below).
// process_batch amortizes them over Q submissions (Section 6 / Appendix I):
// the secret point r and its Lagrange rows are reused across the batch,
// per-server local work fans out over a thread pool, and each round ships
// one coalesced message instead of Q.
#pragma once

#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "afe/afe.h"
#include "core/snip_rounds.h"
#include "core/submission.h"
#include "crypto/rng.h"
#include "net/channel.h"
#include "net/simnet.h"
#include "net/wire.h"
#include "util/thread_pool.h"

namespace prio {

struct DeploymentOptions {
  size_t num_servers = 5;
  u64 master_seed = 1;          // deployment master secret (tests/benches)
  u64 latency_us = 250;         // one-way link latency for the simulation
  size_t refresh_every = 1024;  // resample r after this many submissions
  size_t batch_threads = 0;     // process_batch pool size; 0 = hardware
  // Test-only override for the servers' local differential-privacy noise
  // RNGs. Production (nullopt) draws every server's noise from its own OS
  // entropy, so noise is unpredictable even to someone who knows
  // master_seed.
  std::optional<u64> noise_seed;
};

// Submission sealing, the Submission struct, and the replay guard live in
// core/submission.h, shared with the standalone client encoder and the
// distributed multi-process runtime.

// Splits a batch into refresh-window-sized chunks so the servers' secret
// point r never serves more than `window` submissions, concatenating the
// per-chunk verdicts.
template <typename ChunkFn>
std::vector<u8> process_in_refresh_chunks(std::span<const Submission> batch,
                                          size_t window, ChunkFn&& chunk_fn) {
  require(window > 0, "process_in_refresh_chunks: refresh window must be > 0");
  if (batch.size() <= window) return chunk_fn(batch);
  std::vector<u8> verdicts;
  verdicts.reserve(batch.size());
  for (size_t off = 0; off < batch.size(); off += window) {
    const size_t q = std::min(window, batch.size() - off);
    auto v = chunk_fn(batch.subspan(off, q));
    verdicts.insert(verdicts.end(), v.begin(), v.end());
  }
  return verdicts;
}

// r may serve at most refresh_every submissions; `upcoming` are about to be
// verified under the current r, so refresh every server's context first if
// that would overrun (batch-safe, unlike a processed % refresh_every test).
// ServerRange elements must expose a VerificationContext member `ctx`.
template <typename ServerRange>
void refresh_contexts_if_due(ServerRange& servers, size_t refresh_every,
                             size_t upcoming) {
  if (servers.front().ctx.refresh_due(refresh_every, upcoming)) {
    for (auto& srv : servers) srv.ctx.refresh();
  }
  for (auto& srv : servers) srv.ctx.note_submissions(upcoming);
}

// Wire accounting for server-to-server traffic (TLS in the paper): payload
// plus AEAD framing, one physical message carrying `logical` protocol-level
// messages.
inline void framed_send(net::SimNetwork& net, size_t from, size_t to,
                        size_t payload_len, u64 logical = 1) {
  net.send_coalesced(from, to, payload_len + net::SecureChannel::kOverhead,
                     logical);
}

inline void framed_broadcast(net::SimNetwork& net, size_t num_servers,
                             size_t from, size_t payload_len,
                             u64 logical = 1) {
  for (size_t to = 0; to < num_servers; ++to) {
    if (to != from) framed_send(net, from, to, payload_len, logical);
  }
}

// Runs fn(task, worker) for every task in [0, n): on the pool, or inline
// on the caller as worker 0 when there is none (the serial pipelines).
template <typename Fn>
void run_tasks(ThreadPool* pool, size_t n, Fn&& fn) {
  if (pool) {
    pool->parallel_for(n, fn);
  } else {
    for (size_t task = 0; task < n; ++task) fn(task, size_t{0});
  }
}

// Runs one batch's four SNIP rounds (core/snip_rounds.h) for all s
// servers in lock-step and returns the leader's decision bitmap. checks[i]
// is server i's round-1 input; ServerRange elements expose the server's
// VerificationContext as `ctx`. Traffic is accounted on `net` only when
// some submission is live: with nothing to verify, the simulated servers
// send nothing. `coalesced` accounts the batch pipeline's length-prefixed
// vectors (one message carrying ql logical ones); otherwise the serial
// pipeline's bare fields of a batch of one.
template <PrimeField F, typename ServerRange>
std::vector<u8> simulate_snip_rounds(net::SimNetwork& net,
                                     net::BusyClock& clocks,
                                     const ServerRange& servers,
                                     std::span<const SnipLocalChecks<F>> checks,
                                     size_t leader, bool coalesced) {
  const size_t s = checks.size();
  std::vector<SnipRound1<F>> r1;
  r1.reserve(s);
  for (const auto& c : checks) r1.push_back(snip_round1(c));
  const SnipRound2<F> r2 = snip_combine<F>(r1);
  const size_t ql = r2.de.size();
  if (ql == 0) return std::vector<u8>(r2.live.size(), 0);
  const size_t pairs_len =
      coalesced ? net::field_pairs_len<F>(ql) : 2 * F::kByteLen;
  for (size_t i = 0; i < s; ++i) {
    if (i != leader) framed_send(net, i, leader, pairs_len, ql);
  }
  net.end_round(ql);
  framed_broadcast(net, s, leader, pairs_len, ql);
  net.end_round(ql);

  std::vector<SnipRound3<F>> r3;
  r3.reserve(s);
  for (size_t i = 0; i < s; ++i) {
    auto scope = clocks.measure(i);
    auto m = snip_round3(servers[i].ctx, checks[i], r2);
    require(m.has_value(), "simulate_snip_rounds: server refused round 2");
    r3.push_back(std::move(*m));
    if (i != leader) framed_send(net, i, leader, pairs_len, ql);
  }
  net.end_round(ql);

  SnipRound4 r4;
  {
    auto scope = clocks.measure(leader);
    r4 = snip_decide<F>(r2, r3);
  }
  framed_broadcast(net, s, leader, coalesced ? net::bitmap_len(ql) : 1, ql);
  net.end_round(ql);
  return std::move(r4.accept);
}

template <PrimeField F, typename Afe>
class PrioDeployment {
 public:
  PrioDeployment(const Afe* afe, DeploymentOptions opts)
      : afe_(afe),
        opts_(opts),
        prover_(&afe->valid_circuit()),
        net_(opts.num_servers, opts.latency_us),
        clocks_(opts.num_servers),
        sealer_(master_seed_bytes(opts.master_seed)) {
    require(opts.num_servers >= 2, "PrioDeployment: need >= 2 servers");
    for (size_t i = 0; i < opts.num_servers; ++i) {
      servers_.push_back(ServerState{
          VerificationContext<F>(&afe->valid_circuit(), opts.num_servers,
                                 opts.master_seed ^ 0x5eed),
          std::vector<F>(afe->k_prime(), F::zero()), make_noise_rng(i)});
    }
  }

  const Afe& afe() const { return *afe_; }
  net::SimNetwork& network() { return net_; }
  net::BusyClock& clocks() { return clocks_; }
  size_t accepted() const { return accepted_; }
  size_t processed() const { return processed_; }

  // The servers' current summed accumulators, without publish()'s network
  // accounting. The deployment accumulates across batches, so an oracle
  // checking a PER-EPOCH aggregate (the multi-process runtime resets its
  // accumulator every epoch) diffs this at the epoch boundaries.
  std::vector<F> sigma_now() const {
    std::vector<F> sigma(afe_->k_prime(), F::zero());
    for (const auto& srv : servers_) {
      for (size_t c = 0; c < afe_->k_prime(); ++c) {
        sigma[c] += srv.accumulator[c];
      }
    }
    return sigma;
  }

  // -------------------------------------------------------------------
  // Client side. Returns one sealed blob per server. Shares 0..s-2 are PRG
  // seeds; share s-1 is explicit (Appendix I compression). Each call
  // advances the client's submission counter, which keys the sealing (see
  // seal_for_server), so repeated submissions never reuse a (key, nonce).
  // -------------------------------------------------------------------
  std::vector<std::vector<u8>> client_upload(const typename Afe::Input& in,
                                             u64 client_id,
                                             SecureRng& rng) const {
    std::vector<F> encoding = afe_->encode(in);
    std::vector<F> ext = prover_.build_extended_input(encoding, rng);
    return seal_shared_vector<F>(sealer_, std::span<const F>(ext),
                                 opts_.num_servers, client_id,
                                 sealer_.next_seq(client_id), rng);
  }

  // -------------------------------------------------------------------
  // Server side: feeds one submission through validation + aggregation.
  // Returns true iff the servers accepted (and accumulated) it.
  // -------------------------------------------------------------------
  bool process_submission(u64 client_id,
                          const std::vector<std::vector<u8>>& blobs) {
    const Submission sub{client_id, blobs};
    return verify_chunk(std::span<const Submission>(&sub, 1),
                        static_cast<size_t>(client_id % opts_.num_servers),
                        /*coalesced=*/false)[0] != 0;
  }

  // -------------------------------------------------------------------
  // Batched server pipeline. Verifies Q submissions with per-server local
  // work spread over a thread pool and the four protocol rounds coalesced:
  // a non-leader sends one message of Q (d, e) pairs instead of Q
  // messages, and the decision broadcast is a packed Q-bit bitmap.
  // Accept/reject decisions are identical to feeding each submission
  // through process_submission. Returns one 0/1 verdict per submission.
  // -------------------------------------------------------------------
  std::vector<u8> process_batch(std::span<const Submission> batch) {
    return process_in_refresh_chunks(
        batch, opts_.refresh_every,
        [this](std::span<const Submission> chunk) -> std::vector<u8> {
          if (chunk.empty()) return {};
          // One leader per batch; rotating it batch-to-batch spreads the
          // relay traffic the way the serial path's per-client rotation
          // does.
          const u64 leader = batch_counter_++ % opts_.num_servers;
          return verify_chunk(chunk, static_cast<size_t>(leader),
                              /*coalesced=*/true);
        });
  }

 private:
  // One refresh-window-sized chunk, with `leader` relaying its rounds. The
  // serial path is a batch of one (coalesced = false): its local checks run
  // inline on the caller and a replayed counter is rejected before round 1,
  // like a malformed blob. A coalesced batch runs its local checks on the
  // pool and applies the replay floor after round 4, in submission order.
  std::vector<u8> verify_chunk(std::span<const Submission> batch,
                               size_t leader, bool coalesced) {
    const size_t q_total = batch.size();
    const size_t s = opts_.num_servers;
    for (const auto& sub : batch) {
      require(sub.blobs.size() == s, "PrioDeployment: blob count");
    }
    const size_t kp = afe_->k_prime();
    refresh_contexts_if_due(servers_, opts_.refresh_every, q_total);
    ThreadPool* pool = coalesced ? &ensure_pool() : nullptr;
    ensure_verifiers(pool ? pool->size() : 1);

    // Decrypt + expand + SNIP local check per (submission, server) pair.
    // Task (q, i) writes only slot q of server i's checks and row q*s+i of
    // the x-shares. Each worker owns one SnipVerifier: share expansion
    // lands in its buffer and the check itself performs no heap
    // allocations; the only per-task write outside scratch is the x-share
    // slice kept for aggregation.
    std::vector<SnipLocalChecks<F>> checks(s, SnipLocalChecks<F>(q_total));
    std::vector<F> x_shares(q_total * s * kp, F::zero());
    std::vector<u64> seqs(q_total, 0);
    run_tasks(pool, q_total * s, [&](size_t task, size_t worker) {
      const size_t q = task / s, i = task % s;
      const auto t0 = std::chrono::steady_clock::now();
      SnipVerifier<F>& ver = verifiers_[worker];
      if (open_sealed_share_into<F>(sealer_, batch[q].client_id, i,
                                    batch[q].blobs[i], ver.ext_buffer(),
                                    i == 0 ? &seqs[q] : nullptr)) {
        checks[i].set(q, ver.local_check(servers_[i].ctx, i));
        std::copy(ver.ext_buffer().begin(), ver.ext_buffer().begin() + kp,
                  x_shares.begin() + task * kp);
      }
      clocks_.add_busy(i, net::BusyClock::us_since(t0));
    });
    if (!coalesced && !replay_.fresh(batch[0].client_id, seqs[0])) {
      checks[0].parsed[0] = 0;
    }

    std::vector<u8> verdicts = simulate_snip_rounds<F>(
        net_, clocks_, servers_, std::span<const SnipLocalChecks<F>>(checks),
        leader, coalesced);

    // The replay floor, in submission order: a replayed counter flips the
    // verdict to reject and is never aggregated; only accepted submissions
    // advance it. Then every server adds its accepted x-shares.
    std::vector<size_t> accepted_subs;
    for (size_t q = 0; q < q_total; ++q) {
      if (!verdicts[q]) continue;
      if (!replay_.fresh(batch[q].client_id, seqs[q])) {
        verdicts[q] = 0;
        continue;
      }
      replay_.accept(batch[q].client_id, seqs[q]);
      accepted_subs.push_back(q);
    }
    for (size_t i = 0; i < s; ++i) {
      auto scope = clocks_.measure(i);
      for (size_t q : accepted_subs) {
        kernels::vec_add_inplace<F>(
            std::span<F>(servers_[i].accumulator),
            std::span<const F>(x_shares.data() + (q * s + i) * kp, kp));
      }
    }
    accepted_ += accepted_subs.size();
    processed_ += q_total;
    return verdicts;
  }

 public:
  // -------------------------------------------------------------------
  // Publish: servers reveal accumulators; anyone can decode.
  // -------------------------------------------------------------------
  typename Afe::Result publish() {
    std::vector<F> sigma(afe_->k_prime(), F::zero());
    for (size_t i = 0; i < opts_.num_servers; ++i) {
      if (i != 0) {
        framed_send(net_, i, 0, 4 + afe_->k_prime() * F::kByteLen);
      }
      for (size_t c = 0; c < afe_->k_prime(); ++c) {
        sigma[c] += servers_[i].accumulator[c];
      }
    }
    net_.end_round();
    return afe_->decode(sigma, accepted_);
  }

  // Publishes only once a quorum of accepted (registered) clients is in --
  // the paper's defense against selective denial-of-service (Section 7):
  // without a quorum gate, an adversary who isolates a single honest
  // client could read that client's value out of the "aggregate".
  std::optional<typename Afe::Result> publish_if_quorum(size_t min_clients) {
    if (accepted_ < min_clients) return std::nullopt;
    return publish();
  }

  // Publishes with distributed differential-privacy noise (Section 7):
  // before revealing its accumulator, every server adds an independent
  // noise share; the published totals carry discrete-Laplace noise and no
  // server ever sees the un-noised aggregate. NoiseGen must expose
  // noise_share_field<F>(SecureRng&) (see core/dp.h). Each server draws
  // from its own local SecureRng (OS entropy unless the test-only
  // noise_seed override is set) -- never from the shared master seed,
  // which the aggregate's consumers may know.
  template <typename NoiseGen>
  typename Afe::Result publish_with_noise(const NoiseGen& noise) {
    for (size_t i = 0; i < opts_.num_servers; ++i) {
      for (size_t c = 0; c < afe_->k_prime(); ++c) {
        servers_[i].accumulator[c] +=
            noise.template noise_share_field<F>(servers_[i].noise_rng);
      }
    }
    return publish();
  }

 private:
  struct ServerState {
    VerificationContext<F> ctx;
    std::vector<F> accumulator;
    SecureRng noise_rng;  // local, secret randomness for DP noise shares
  };

  SecureRng make_noise_rng(size_t server) const {
    if (opts_.noise_seed) {
      return SecureRng(*opts_.noise_seed * 0x9e3779b97f4a7c15ull + server + 1);
    }
    return SecureRng::from_os_entropy();
  }

  ThreadPool& ensure_pool() {
    if (!pool_) pool_ = std::make_unique<ThreadPool>(opts_.batch_threads);
    return *pool_;
  }

  // One verification-engine scratch object per pool worker (index 0 serves
  // the serial path); grown once and reused for every later batch.
  void ensure_verifiers(size_t count) {
    while (verifiers_.size() < count) {
      verifiers_.emplace_back(&afe_->valid_circuit());
    }
  }

  const Afe* afe_;
  DeploymentOptions opts_;
  SnipProver<F> prover_;
  net::SimNetwork net_;
  net::BusyClock clocks_;
  std::vector<ServerState> servers_;
  SubmissionSealer sealer_;
  ReplayGuard replay_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<SnipVerifier<F>> verifiers_;  // per-worker engine scratch
  u64 batch_counter_ = 0;
  size_t accepted_ = 0;
  size_t processed_ = 0;
};

}  // namespace prio
