// The "Prio-MPC" pipeline variant (Section 4.4 / Appendix E): the servers
// evaluate Valid themselves with Beaver MPC instead of checking a SNIP.
//
// Upload: the client sends shares of (encoding x || M Beaver triples), plus
// a SNIP *over the triple list* proving a_t * b_t = c_t for every t, so
// that malformed triples cannot break robustness. Validation then runs the
// circuit across servers: one broadcast round of (d, e) per circuit depth
// level, Theta(M) field elements of server-to-server traffic per
// submission -- the growing Prio-MPC curve of Figure 6 (vs. Prio's flat
// line).
//
// process_batch mirrors core/deployment.h: per-server local work (decrypt,
// triple-SNIP checks, Beaver round messages) fans out over a thread pool
// and every broadcast round ships one coalesced message for the whole
// batch. The Beaver evaluations advance in lock-step, so a batch of Q
// submissions still pays only one round-trip per circuit depth level.
#pragma once

#include "core/deployment.h"
#include "snip/mpc.h"

namespace prio {

template <PrimeField F, typename Afe>
class PrioMpcDeployment {
 public:
  PrioMpcDeployment(const Afe* afe, DeploymentOptions opts)
      : afe_(afe),
        opts_(opts),
        triple_circuit_(
            make_triple_check_circuit<F>(afe->valid_circuit().num_mul_gates())),
        triple_prover_(&triple_circuit_),
        net_(opts.num_servers, opts.latency_us),
        clocks_(opts.num_servers),
        sealer_(master_seed_bytes(opts.master_seed)) {
    require(opts.num_servers >= 2, "PrioMpcDeployment: need >= 2 servers");
    for (size_t i = 0; i < opts.num_servers; ++i) {
      servers_.push_back(ServerState{
          VerificationContext<F>(&triple_circuit_, opts.num_servers,
                                 opts.master_seed ^ 0x3e3d),
          std::vector<F>(afe->k_prime(), F::zero())});
    }
  }

  net::SimNetwork& network() { return net_; }
  net::BusyClock& clocks() { return clocks_; }
  size_t accepted() const { return accepted_; }
  size_t processed() const { return processed_; }

  // Client upload: flat vector [ x-encoding (k) || triple-SNIP extended
  // input (3M + proof) ], PRG-compressed shares, sealed per server with a
  // per-(client, submission) key and counter nonce (see core/deployment.h).
  std::vector<std::vector<u8>> client_upload(const typename Afe::Input& in,
                                             u64 client_id,
                                             SecureRng& rng) const {
    std::vector<F> encoding = afe_->encode(in);
    std::vector<F> triples =
        make_beaver_triples<F>(afe_->valid_circuit().num_mul_gates(), rng);
    std::vector<F> triple_ext = triple_prover_.build_extended_input(triples, rng);

    std::vector<F> flat;
    flat.reserve(encoding.size() + triple_ext.size());
    flat.insert(flat.end(), encoding.begin(), encoding.end());
    flat.insert(flat.end(), triple_ext.begin(), triple_ext.end());
    return seal_shared_vector<F>(sealer_, std::span<const F>(flat),
                                 opts_.num_servers, client_id,
                                 sealer_.next_seq(client_id), rng);
  }

  bool process_submission(u64 client_id,
                          const std::vector<std::vector<u8>>& blobs) {
    const Submission sub{client_id, blobs};
    return verify_chunk(std::span<const Submission>(&sub, 1),
                        static_cast<size_t>(client_id % opts_.num_servers),
                        /*coalesced=*/false)[0] != 0;
  }

  // Batched Prio-MPC pipeline: thread-pooled local work, coalesced rounds,
  // lock-step Beaver evaluation across the batch. Decisions match feeding
  // each submission through process_submission.
  std::vector<u8> process_batch(std::span<const Submission> batch) {
    return process_in_refresh_chunks(
        batch, opts_.refresh_every,
        [this](std::span<const Submission> chunk) -> std::vector<u8> {
          if (chunk.empty()) return {};
          const u64 leader = batch_counter_++ % opts_.num_servers;
          return verify_chunk(chunk, static_cast<size_t>(leader),
                              /*coalesced=*/true);
        });
  }

 private:
  // One refresh-window-sized chunk, with `leader` relaying its rounds; the
  // serial path is a batch of one (coalesced = false), as in
  // PrioDeployment::verify_chunk.
  std::vector<u8> verify_chunk(std::span<const Submission> batch,
                               size_t leader, bool coalesced) {
    const size_t q_total = batch.size();
    std::vector<u8> verdicts(q_total, 0);
    const size_t s = opts_.num_servers;
    for (const auto& sub : batch) {
      require(sub.blobs.size() == s, "PrioMpcDeployment: blob count");
    }
    const size_t k = afe_->k();
    const size_t m = afe_->valid_circuit().num_mul_gates();
    const size_t flat_len = k + triple_prover_.layout().total_len();
    const size_t kp = afe_->k_prime();
    refresh_contexts_if_due(servers_, opts_.refresh_every, q_total);
    ThreadPool* pool = coalesced ? &ensure_pool() : nullptr;
    ensure_verifiers(pool ? pool->size() : 1);
    // Round payloads: the batch ships length-prefixed vectors, the serial
    // path's batch of one bare fields.
    const auto pairs_len = [&](size_t n) {
      return coalesced ? net::field_pairs_len<F>(n) : n * 2 * F::kByteLen;
    };

    // Phase 0: decrypt + expand + triple-SNIP local check. The flat share
    // vector outlives this phase (the Beaver MPC and the aggregation read
    // it), so it is materialized per (q, i); the local check itself runs
    // on each worker's reusable engine scratch.
    std::vector<std::vector<F>> flat(q_total * s);
    std::vector<SnipLocalChecks<F>> checks(s, SnipLocalChecks<F>(q_total));
    std::vector<u64> seqs(q_total, 0);
    run_tasks(pool, q_total * s, [&](size_t task, size_t worker) {
      const size_t q = task / s, i = task % s;
      const auto t0 = std::chrono::steady_clock::now();
      auto share = open_sealed_share<F>(sealer_, batch[q].client_id, i,
                                        batch[q].blobs[i], flat_len,
                                        i == 0 ? &seqs[q] : nullptr);
      if (share) {
        flat[task] = std::move(*share);
        checks[i].set(q, verifiers_[worker].local_check(
                             servers_[i].ctx, i,
                             std::span<const F>(flat[task].data() + k,
                                                flat_len - k)));
      }
      clocks_.add_busy(i, net::BusyClock::us_since(t0));
    });
    if (!coalesced && !replay_.fresh(batch[0].client_id, seqs[0])) {
      checks[0].parsed[0] = 0;  // the serial path rejects replays up front
    }
    processed_ += q_total;

    // Phase 1: the triple-SNIP rounds. Submissions whose triple SNIP
    // verified advance to the Beaver MPC.
    const std::vector<u8> snip_ok = simulate_snip_rounds<F>(
        net_, clocks_, servers_, std::span<const SnipLocalChecks<F>>(checks),
        leader, coalesced);
    std::vector<size_t> mpc_live;
    for (size_t q = 0; q < q_total; ++q) {
      if (snip_ok[q]) mpc_live.push_back(q);
    }
    if (mpc_live.empty()) return verdicts;
    const size_t ml = mpc_live.size();

    // Phase 2 (lock-step): one Beaver session per (submission, server);
    // all sessions share the circuit, so their round schedules are
    // identical and each depth level costs the batch one round-trip.
    std::vector<std::optional<BeaverMpcSession<F>>> sessions(ml * s);
    run_tasks(pool, ml * s, [&](size_t task, size_t) {
      const size_t v = task / s, i = task % s;
      const auto t0 = std::chrono::steady_clock::now();
      const std::vector<F>& f = flat[mpc_live[v] * s + i];
      sessions[task].emplace(&afe_->valid_circuit(), s, i,
                             std::span<const F>(f.data(), k),
                             std::span<const F>(f.data() + k, 3 * m));
      clocks_.add_busy(i, net::BusyClock::us_since(t0));
    });

    while (!sessions[0]->done()) {
      std::vector<std::vector<std::pair<F, F>>> msgs(ml * s);
      run_tasks(pool, ml * s, [&](size_t task, size_t) {
        const size_t i = task % s;
        const auto t0 = std::chrono::steady_clock::now();
        msgs[task] = sessions[task]->round_messages();
        clocks_.add_busy(i, net::BusyClock::us_since(t0));
      });
      const size_t gates = msgs[0].size();
      std::vector<std::vector<std::pair<F, F>>> totals(
          ml, std::vector<std::pair<F, F>>(gates, {F::zero(), F::zero()}));
      for (size_t v = 0; v < ml; ++v) {
        for (size_t i = 0; i < s; ++i) {
          for (size_t j = 0; j < gates; ++j) {
            totals[v][j].first += msgs[v * s + i][j].first;
            totals[v][j].second += msgs[v * s + i][j].second;
          }
        }
      }
      for (size_t i = 0; i < s; ++i) {
        if (i != leader) framed_send(net_, i, leader, pairs_len(ml * gates), ml);
      }
      net_.end_round(ml);
      framed_broadcast(net_, s, leader, pairs_len(ml * gates), ml);
      net_.end_round(ml);
      run_tasks(pool, ml * s, [&](size_t task, size_t) {
        const size_t v = task / s, i = task % s;
        const auto t0 = std::chrono::steady_clock::now();
        sessions[task]->resolve_round(totals[v]);
        clocks_.add_busy(i, net::BusyClock::us_since(t0));
      });
    }

    // Output check + decision bitmap, one round: every output wire must
    // sum to zero.
    const size_t n_out = afe_->valid_circuit().outputs().size();
    std::vector<u8> decisions(ml, 1);
    for (size_t v = 0; v < ml; ++v) {
      std::vector<F> outs(n_out, F::zero());
      for (size_t i = 0; i < s; ++i) {
        auto scope = clocks_.measure(i);
        auto o = sessions[v * s + i]->output_shares();
        for (size_t j = 0; j < n_out; ++j) outs[j] += o[j];
      }
      for (const auto& o : outs) {
        if (!o.is_zero()) {
          decisions[v] = 0;
          break;
        }
      }
    }
    const size_t outs_len = (coalesced ? 4 : 0) + ml * n_out * F::kByteLen;
    for (size_t i = 0; i < s; ++i) {
      if (i != leader) framed_send(net_, i, leader, outs_len, ml);
    }
    net_.end_round(ml);
    framed_broadcast(net_, s, leader, coalesced ? net::bitmap_len(ml) : 1, ml);
    net_.end_round(ml);

    // The replay floor, in submission order: replayed counters flip to
    // reject, accepts advance the floor. Then every server adds its
    // accepted x-shares.
    std::vector<size_t> accepted_subs;
    for (size_t v = 0; v < ml; ++v) {
      const size_t q = mpc_live[v];
      if (!decisions[v] || !replay_.fresh(batch[q].client_id, seqs[q])) {
        continue;
      }
      replay_.accept(batch[q].client_id, seqs[q]);
      verdicts[q] = 1;
      accepted_subs.push_back(q);
    }
    for (size_t i = 0; i < s; ++i) {
      auto scope = clocks_.measure(i);
      for (size_t q : accepted_subs) {
        kernels::vec_add_inplace<F>(
            std::span<F>(servers_[i].accumulator),
            std::span<const F>(flat[q * s + i].data(), kp));
      }
    }
    accepted_ += accepted_subs.size();
    return verdicts;
  }

 public:
  typename Afe::Result publish() {
    std::vector<F> sigma(afe_->k_prime(), F::zero());
    for (size_t i = 0; i < opts_.num_servers; ++i) {
      for (size_t c = 0; c < afe_->k_prime(); ++c) {
        sigma[c] += servers_[i].accumulator[c];
      }
      if (i != 0) send(i, 0, afe_->k_prime() * F::kByteLen);
    }
    net_.end_round();
    return afe_->decode(sigma, accepted_);
  }

 private:
  struct ServerState {
    VerificationContext<F> ctx;  // for the triple-check SNIP
    std::vector<F> accumulator;
  };

  ThreadPool& ensure_pool() {
    if (!pool_) pool_ = std::make_unique<ThreadPool>(opts_.batch_threads);
    return *pool_;
  }

  // Per-worker engine scratch for the triple-check SNIP (index 0 serves
  // the serial path).
  void ensure_verifiers(size_t count) {
    while (verifiers_.size() < count) verifiers_.emplace_back(&triple_circuit_);
  }

  void send(size_t from, size_t to, size_t payload_len) {
    framed_send(net_, from, to, payload_len);
  }

  const Afe* afe_;
  DeploymentOptions opts_;
  Circuit<F> triple_circuit_;
  SnipProver<F> triple_prover_;
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
