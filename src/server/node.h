// One Prio server as a distributed protocol node.
//
// PrioDeployment (core/deployment.h) simulates all s servers from one
// thread and only accounts traffic. ServerNode is the real thing: it holds
// ONE server's secret state (verification context, accumulator, replay
// floors) and runs the batched four-round SNIP protocol by actually
// exchanging frames with its peers through a net::Transport -- loopback
// queues in tests and benches, TCP sockets in the prio_server binary. Every
// frame body between servers is sealed with net::SecureChannel (fresh
// per-batch keys, counter nonces riding on the link's in-order delivery),
// standing in for the paper's TLS.
//
// Batch flow (leader rotates with the shared batch counter; `q` inputs,
// `ql` of them parsed by every server):
//   round 1: non-leader -> leader: parse bitmap(q) + q (d, e) pairs
//   round 2: leader -> all: live bitmap(q) + ql (d, e) totals
//   round 3: non-leader -> leader: ql (sigma, out) pairs
//   round 4: leader -> all: decision bitmap(q)
// After round 4 every node applies the replay floor and aggregates its own
// x-shares in submission order, so all nodes return identical verdicts and
// hold consistent epoch state with no further coordination.
//
// Epochs: process_batch accumulates; publish_epoch reveals the per-server
// accumulators to server 0, which decodes and returns the aggregate, and
// every node then rolls into the next epoch. Publication is two-phase:
// server 0 broadcasts a commit frame once it holds every accumulator, and
// the other nodes reset their epoch state only after seeing it -- so an
// aborted publication (a peer died mid-round) leaves every surviving node
// in its pre-publish state and the round can simply be retried.
//
// Crash recovery: snapshot()/restore_state() serialize a node's full
// protocol state (CRC-framed) so a server can restart at an epoch boundary;
// apply_batch_record()/close_epoch_local() replay committed history --
// from the WAL (store/recovery.h) or from a peer's rejoin catch-up record
// (server/shard.h) -- without touching the network. A batch attempt that
// dies mid-round (net::TransportError) is rolled back to the exact
// pre-batch state, including the deterministic r-refresh schedule, so the
// mesh can re-run the same batch after the peer rejoins. All sealed
// server-to-server traffic keys are scoped by a mesh generation number
// (bumped on every rejoin sync) so a retried round never reuses a
// (key, nonce) pair on different plaintext.
#pragma once

#include <algorithm>
#include <functional>
#include <optional>

#include "core/submission.h"
#include "net/channel.h"
#include "net/transport.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "snip/snip.h"
#include "store/wal.h"
#include "util/thread_pool.h"

namespace prio {

// One server's view of a client submission: its own sealed blob. An empty
// blob (client never delivered, or intake timed out) parses as malformed
// and votes reject, which the protocol already handles.
struct SubmissionShare {
  u64 client_id = 0;
  std::vector<u8> blob;
};

// Projects full Submissions (all blobs) onto server i's view -- test and
// bench helper for driving nodes with PrioDeployment-style workloads.
inline std::vector<SubmissionShare> node_view(
    std::span<const Submission> batch, size_t server) {
  std::vector<SubmissionShare> out;
  out.reserve(batch.size());
  for (const auto& sub : batch) {
    out.push_back({sub.client_id, sub.blobs.at(server)});
  }
  return out;
}

// The CPU-heavy, network-free front half of a batch, double-buffered by the
// pipelined runtime (server/shard.h): every sealed blob decrypted and
// PRG-expanded into ONE flat preallocated buffer (q * ext_len field
// elements; the x-share aggregation slice is the prefix of each row), plus
// the per-submission sequence numbers and the parse bitmap. Owning the
// expansion here -- instead of inside the per-worker SnipVerifier scratch --
// is what lets batch N+1 be prepared on a prefetch thread while batch N's
// rounds are still reading its own PreparedBatch: the two batches never
// share scratch, and nothing is allocated per submission.
template <PrimeField F>
struct PreparedBatch {
  std::vector<F> ext;      // count * ext_len expanded shares, row-major
  std::vector<u64> seqs;   // per-submission client sequence numbers
  std::vector<u8> parsed;  // 1 iff the blob opened and parsed
  size_t count = 0;
  size_t ext_len = 0;
  std::span<F> share(size_t v) {
    return {ext.data() + v * ext_len, ext_len};
  }
  std::span<const F> share(size_t v) const {
    return {ext.data() + v * ext_len, ext_len};
  }
};

struct ServerNodeConfig {
  size_t num_servers = 0;
  size_t self = 0;
  u64 master_seed = 1;
  size_t refresh_every = 1024;  // resample r after this many submissions
  size_t batch_threads = 1;     // local-check pool; 0 = hardware
  // Sharded runtime (server/shard.h): which batch lane this node runs on.
  // Lane 0 is byte-for-byte the unsharded protocol (same context seed,
  // same channel endpoints); lanes > 0 mix the lane id into the context
  // seed and scope every sealed channel by "/L<lane>", so concurrent lanes
  // walk independent r schedules and never share a (key, nonce).
  size_t lane = 0;
  // If set, parallel_for runs on this pool instead of a private one (the
  // router shares one pool across all lanes; ThreadPool::parallel_for is
  // safe from concurrent callers). Not owned.
  ThreadPool* shared_pool = nullptr;
  // If set, the node registers per-lane stage histograms and verdict
  // counters (label shard="<lane>") and records into them; null leaves the
  // node uninstrumented at the cost of one predictable branch per batch.
  // Not owned; must outlive the node.
  obs::Registry* metrics = nullptr;
};

// Decodes a published epoch aggregate. An epoch with no accepted
// submission has nothing to decode for the AFEs whose decoders divide by
// the client count (linreg, stats, product, r2 throw on 0): it publishes
// accepted = 0 with a default result instead of taking the server down.
template <PrimeField F, typename Afe>
typename Afe::Result decode_aggregate(const Afe& afe, std::span<const F> sigma,
                                      u64 accepted) {
  if (accepted == 0) {
    try {
      return afe.decode(sigma, 0);
    } catch (const std::invalid_argument&) {
      return {};
    }
  }
  return afe.decode(sigma, accepted);
}

template <PrimeField F, typename Afe>
class ServerNode {
 public:
  // The published aggregate, as seen by server 0 after an epoch closes.
  struct EpochAggregate {
    u32 epoch = 0;
    u64 accepted = 0;
    std::vector<F> sigma;  // summed accumulators (what a verifier decodes)
    typename Afe::Result result;
  };

  ServerNode(const Afe* afe, ServerNodeConfig cfg, net::Transport* transport)
      : afe_(afe),
        cfg_(cfg),
        transport_(transport),
        master_(master_seed_bytes(cfg.master_seed)),
        // Same shared-context seed as PrioDeployment, so a node mesh and a
        // simnet deployment over the same inputs walk identical r schedules
        // (lane 0 exactly; higher lanes mix in the lane id).
        ctx_(&afe->valid_circuit(), cfg.num_servers, context_seed(cfg)),
        sealer_(master_),
        accumulator_(afe->k_prime(), F::zero()) {
    require(cfg.num_servers >= 2, "ServerNode: need >= 2 servers");
    require(cfg.self < cfg.num_servers, "ServerNode: bad self id");
    require(transport->num_nodes() == cfg.num_servers &&
                transport->self() == cfg.self,
            "ServerNode: transport/config mismatch");
    // Created eagerly, not on first use: prepare_batch may run on a
    // prefetch thread concurrently with the lane thread's rounds, and a
    // lazy first-touch pool creation would race.
    if (!cfg_.shared_pool) {
      pool_ = std::make_unique<ThreadPool>(cfg_.batch_threads);
    }
    if (cfg_.metrics) {
      obs::Registry* reg = cfg_.metrics;
      const std::string label = obs::label_kv("shard", cfg_.lane);
      m_prepare_ = reg->histogram(
          "prio_stage_prepare_seconds",
          "Batch prepare latency (decrypt + PRG expansion)", label);
      m_rounds_ = reg->histogram(
          "prio_stage_rounds_seconds",
          "Batch verification latency (local checks + 4 mesh rounds); "
          "committed attempts only",
          label);
      m_accepted_ = reg->counter("prio_verify_accepted_total",
                                 "Submissions accepted by verification",
                                 label);
      m_rejected_ = reg->counter(
          "prio_verify_rejected_total",
          "Submissions rejected by verification (incl. replay hits)", label);
      m_replay_hits_ = reg->counter(
          "prio_replay_hits_total",
          "Verified submissions dropped by the replay floor", label);
    }
  }

  size_t self() const { return cfg_.self; }
  size_t lane() const { return cfg_.lane; }
  u32 epoch() const { return epoch_; }
  u64 accepted() const { return accepted_; }
  u64 processed() const { return processed_; }
  // Submissions processed within the CURRENT epoch (the router's epoch
  // quota works off this; resets at every epoch close, survives restarts
  // because restore + WAL replay rebuild it the same way a live run does).
  u64 epoch_processed() const { return processed_ - epoch_start_; }
  u64 batch_counter() const { return batch_counter_; }

  // Mesh generation: every sealed channel key is scoped by it, and the
  // runtime bumps it (identically on every node, negotiated in the rejoin
  // sync round) each time the mesh is re-established, so retried rounds
  // never reuse a (key, nonce) pair across attempts. A store-attached
  // runtime makes every bump durable before the first frame sealed under
  // it leaves the process (kWalGeneration record; snapshots carry it too),
  // so even a full-mesh restart renegotiates strictly above every
  // generation ever used.
  u64 generation() const { return gen_; }
  void set_generation(u64 gen) { gen_ = gen; }

  // -------------------------------------------------------------------
  // Batched verification, split into a network-free prepare phase and the
  // four mesh rounds so the runtime can software-pipeline batches:
  //
  //   prepare_batch       decrypt + PRG-expand every blob into a caller-
  //                       owned PreparedBatch. Touches NO protocol state
  //                       (sealer keys only), so it is safe to run on a
  //                       prefetch thread for batch N+1 while this node's
  //                       lane thread is inside commit_or_rollback for
  //                       batch N.
  //   commit_or_rollback  the SNIP rounds + aggregation over a prepared
  //                       batch, with the PR 4 two-phase abort story: a
  //                       mid-round TransportError rolls the node back to
  //                       its exact pre-batch state (batch counter,
  //                       r-refresh schedule and all) and rethrows, so the
  //                       runtime can re-establish the mesh and retry. The
  //                       PreparedBatch is left intact: a retry under a
  //                       fresh generation may reuse it.
  //   process_batch       prepare + commit_or_rollback back-to-back; the
  //                       depth-1 (unpipelined) path, bit-identical on the
  //                       wire and in every state transition to the
  //                       pre-split implementation.
  //
  // All nodes must process the same ordered batch (same client ids, each
  // holding its own blob); the runtime's leader announcement guarantees
  // that. Returns one 0/1 verdict per submission, identical on every node.
  // -------------------------------------------------------------------
  void prepare_batch(std::span<const SubmissionShare> batch,
                     PreparedBatch<F>& prep) {
    obs::ScopedTimer prepare_timer(m_prepare_);
    const size_t q = batch.size();
    prep.count = q;
    prep.ext_len = ctx_.layout().total_len();
    prep.ext.assign(q * prep.ext_len, F::zero());
    prep.seqs.assign(q, 0);
    prep.parsed.assign(q, 0);
    if (q == 0) return;
    const size_t me = cfg_.self;
    // ThreadPool::parallel_for is safe from concurrent callers, and the
    // workers only do crypto (never a mesh recv), so a prefetch-side
    // prepare can share the pool with in-flight rounds without deadlock.
    ensure_pool().parallel_for(q, [&](size_t v, size_t) {
      if (!open_sealed_share_into<F>(sealer_, batch[v].client_id, me,
                                     batch[v].blob, prep.share(v),
                                     &prep.seqs[v])) {
        return;
      }
      prep.parsed[v] = 1;
    });
  }

  std::vector<u8> commit_or_rollback(std::span<const SubmissionShare> batch,
                                     const PreparedBatch<F>& prep) {
    const u64 counter_before = batch_counter_;
    const u64 refreshes_before = refreshes_;
    const size_t since_before = ctx_.submissions_since_refresh();
    try {
      return run_rounds(batch, prep);
    } catch (const net::TransportError&) {
      batch_counter_ = counter_before;
      if (refreshes_ != refreshes_before) {
        rebuild_context(refreshes_before);
      }
      ctx_.set_submissions_since_refresh(since_before);
      throw;
    }
  }

  std::vector<u8> process_batch(std::span<const SubmissionShare> batch) {
    PreparedBatch<F> prep;
    prepare_batch(batch, prep);
    return commit_or_rollback(batch, prep);
  }

 private:
  std::vector<u8> run_rounds(std::span<const SubmissionShare> batch,
                             const PreparedBatch<F>& prep) {
    const size_t q = batch.size();
    require(prep.count == q, "run_rounds: prepared batch size mismatch");
    std::vector<u8> verdicts(q, 0);
    if (q == 0) return verdicts;
    // Recorded only on commit (the observe at the bottom): an aborted
    // attempt shows up in the abort counters, not the latency histogram.
    const u64 rounds_t0 = m_rounds_ ? obs::now_ns() : 0;
    const size_t s = cfg_.num_servers;
    const size_t me = cfg_.self;
    const u64 batch_no = batch_counter_++;
    const size_t leader = static_cast<size_t>(batch_no % s);
    const size_t kp = afe_->k_prime();

    // The refresh decision stays HERE, not in prepare_batch: r is secret
    // protocol state walked in lockstep across the mesh, so it must
    // advance in commit order even when batches were prepared ahead.
    if (ctx_.refresh_due(cfg_.refresh_every, q)) {
      ctx_.refresh();
      ++refreshes_;
    }
    ctx_.note_submissions(q);

    // Local checks (pooled) over the prepared expansion. The check reads
    // the caller's PreparedBatch rows and allocates nothing; the x-share
    // aggregation slice is the row prefix, so nothing is copied out.
    ThreadPool& pool = ensure_pool();
    ensure_verifiers(pool.size());
    std::vector<std::optional<SnipLocalState<F>>> states(q);
    const std::vector<u8>& parsed = prep.parsed;
    pool.parallel_for(q, [&](size_t v, size_t worker) {
      if (!parsed[v]) return;
      states[v] = verifiers_[worker].local_check(ctx_, me, prep.share(v));
    });

    std::string tag = "b";  // per-batch channel-key tag (gcc 12 dislikes
    tag += std::to_string(batch_no);  // operator+ chains here: PR 105651)

    // Rounds 1+2: (d, e) pairs to the leader; live set + totals back. A
    // submission is live iff every server parsed it, so the leader ANDs
    // the parse bitmaps before summing.
    std::vector<u8> live(q, 0);
    std::vector<F> d_total, e_total;
    if (me == leader) {
      live = parsed;
      std::vector<F> d_all(q, F::zero()), e_all(q, F::zero());
      for (size_t v = 0; v < q; ++v) {
        if (parsed[v]) {
          d_all[v] = states[v]->d_share;
          e_all[v] = states[v]->e_share;
        }
      }
      for (size_t j = 0; j < s; ++j) {
        if (j == me) continue;
        const auto body = recv_sealed(j, tag, kRound1);
        net::Reader r(body);
        auto peer_parsed = r.bitmap(q);
        auto pairs = r.field_pairs<F>(q);
        if (!r.ok() || !r.at_end() || peer_parsed.size() != q ||
            pairs.size() != q) {
          throw net::TransportError("round 1: malformed frame from peer");
        }
        for (size_t v = 0; v < q; ++v) {
          live[v] = live[v] && peer_parsed[v];
          d_all[v] += pairs[v].first;
          e_all[v] += pairs[v].second;
        }
      }
      transport_->end_round(q);
      for (size_t v = 0; v < q; ++v) {
        if (live[v]) {
          d_total.push_back(d_all[v]);
          e_total.push_back(e_all[v]);
        }
      }
      net::Writer w;
      w.bitmap(live);
      w.field_pairs<F>(std::span<const std::pair<F, F>>(zip(d_total, e_total)));
      broadcast_sealed(tag, kRound2, w.data(), d_total.size());
      transport_->end_round(d_total.size());
    } else {
      net::Writer w;
      w.bitmap(parsed);
      std::vector<std::pair<F, F>> pairs(q, {F::zero(), F::zero()});
      for (size_t v = 0; v < q; ++v) {
        if (parsed[v]) pairs[v] = {states[v]->d_share, states[v]->e_share};
      }
      w.field_pairs<F>(std::span<const std::pair<F, F>>(pairs));
      send_sealed(leader, tag, kRound1, w.data(), q);
      transport_->end_round(q);

      const auto body = recv_sealed(leader, tag, kRound2);
      net::Reader r(body);
      live = r.bitmap(q);
      auto totals = r.field_pairs<F>(q);
      size_t n_live = 0;
      for (u8 b : live) n_live += b;
      if (!r.ok() || !r.at_end() || live.size() != q ||
          totals.size() != n_live) {
        throw net::TransportError("round 2: malformed frame from leader");
      }
      for (auto& [d, e] : totals) {
        d_total.push_back(d);
        e_total.push_back(e);
      }
      transport_->end_round(n_live);
    }
    // A submission the leader marked live must have parsed here too --
    // anything else means the leader equivocated.
    std::vector<size_t> live_idx;
    for (size_t v = 0; v < q; ++v) {
      if (live[v]) {
        if (!parsed[v]) {
          throw net::TransportError("round 2: leader marked unparsed live");
        }
        live_idx.push_back(v);
      }
    }
    const size_t ql = live_idx.size();

    // Round 3: sigma + output-combination shares for the live set.
    std::vector<F> sigma_shares(ql), out_shares(ql);
    pool.parallel_for(ql, [&](size_t v, size_t) {
      const auto& st = *states[live_idx[v]];
      sigma_shares[v] = snip_sigma_share(ctx_, st, d_total[v], e_total[v]);
      out_shares[v] = st.out_combo;
    });

    std::vector<u8> decisions(q, 0);
    if (me == leader) {
      std::vector<F> sigma(sigma_shares), out(out_shares);
      for (size_t j = 0; j < s; ++j) {
        if (j == me) continue;
        const auto body = recv_sealed(j, tag, kRound3);
        net::Reader r(body);
        auto pairs = r.field_pairs<F>(ql);
        if (!r.ok() || !r.at_end() || pairs.size() != ql) {
          throw net::TransportError("round 3: malformed frame from peer");
        }
        for (size_t v = 0; v < ql; ++v) {
          sigma[v] += pairs[v].first;
          out[v] += pairs[v].second;
        }
      }
      transport_->end_round(ql);
      for (size_t v = 0; v < ql; ++v) {
        decisions[live_idx[v]] = snip_accept(sigma[v], out[v]) ? 1 : 0;
      }
      net::Writer w;
      w.bitmap(decisions);
      broadcast_sealed(tag, kRound4, w.data(), ql);
      transport_->end_round(ql);
    } else {
      net::Writer w;
      w.field_pairs<F>(
          std::span<const std::pair<F, F>>(zip(sigma_shares, out_shares)));
      send_sealed(leader, tag, kRound3, w.data(), ql);
      transport_->end_round(ql);

      const auto body = recv_sealed(leader, tag, kRound4);
      net::Reader r(body);
      decisions = r.bitmap(q);
      if (!r.ok() || !r.at_end() || decisions.size() != q) {
        throw net::TransportError("round 4: malformed frame from leader");
      }
      transport_->end_round(ql);
    }

    // Replay floor + aggregation, in submission order -- deterministic, so
    // every node converges on the same verdicts and accumulator updates.
    u64 batch_accepted = 0;
    for (size_t v = 0; v < q; ++v) {
      if (!decisions[v] || !live[v]) continue;
      if (!replay_.fresh(batch[v].client_id, prep.seqs[v])) {
        if (m_replay_hits_) m_replay_hits_->inc();
        continue;
      }
      replay_.accept(batch[v].client_id, prep.seqs[v]);
      verdicts[v] = 1;
      kernels::vec_add_inplace<F>(std::span<F>(accumulator_),
                                  prep.share(v).first(kp));
      ++accepted_;
      ++batch_accepted;
    }
    processed_ += q;
    if (m_rounds_) {
      m_rounds_->observe_ns(obs::now_ns() - rounds_t0);
      m_accepted_->inc(batch_accepted);
      m_rejected_->inc(q - batch_accepted);
    }
    return verdicts;
  }

  // Lane-scoped verification-context seed. Lane 0 keeps the exact seed
  // PrioDeployment uses (simnet equivalence depends on it); higher lanes
  // mix the lane id in with a splitmix-style odd multiplier so each lane
  // walks its own independent r schedule.
  static u64 context_seed(const ServerNodeConfig& cfg) {
    u64 seed = cfg.master_seed ^ 0x5eed;
    if (cfg.lane != 0) {
      seed ^= u64{cfg.lane} * 0x9e3779b97f4a7c15ull + 0x5eedULL;
    }
    return seed;
  }

  // Rebuilds the verification context by replaying its deterministic
  // refresh schedule up to `refreshes` (rollback of an aborted batch that
  // had already resampled r).
  void rebuild_context(u64 refreshes) {
    ctx_ = VerificationContext<F>(&afe_->valid_circuit(), cfg_.num_servers,
                                  context_seed(cfg_));
    refreshes_ = 1;  // the context constructor performs the first refresh
    while (refreshes_ < refreshes) {
      ctx_.refresh();
      ++refreshes_;
    }
  }

 public:
  // -------------------------------------------------------------------
  // Epoch publication: every non-zero server reveals its accumulator to
  // server 0, which -- once it holds all of them -- decodes the aggregate
  // and broadcasts a commit frame. Every node resets its epoch state
  // (accumulator + accepted count) and advances the epoch only at commit,
  // so an aborted publication leaves all survivors retriable. Returns the
  // aggregate on server 0, nullopt elsewhere.
  //
  // `durable_hook`, if set, runs at the commit point BEFORE any in-memory
  // state is reset -- on server 0 with the decoded aggregate (before the
  // commit broadcast, so the aggregate is durable before any peer can act
  // on it), elsewhere with nullptr after the commit frame arrives. The
  // runtime uses it to write the WAL epoch-close record.
  //
  // `decode` = false leaves the aggregate's result default-constructed: a
  // shard lane publishes only a partial sum, which the router decodes once
  // it has added every lane's (a lane may well have accepted nothing).
  // -------------------------------------------------------------------
  std::optional<EpochAggregate> publish_epoch(
      const std::function<void(const EpochAggregate*)>& durable_hook = {},
      bool decode = true) {
    const size_t s = cfg_.num_servers;
    std::string tag = "pub";
    tag += std::to_string(epoch_);
    std::optional<EpochAggregate> out;
    if (cfg_.self == 0) {
      EpochAggregate agg;
      agg.epoch = epoch_;
      agg.accepted = accepted_;
      agg.sigma = accumulator_;
      for (size_t j = 1; j < s; ++j) {
        const auto body = recv_sealed(j, tag, kPublish);
        net::Reader r(body);
        u64 peer_accepted = r.u64_();
        auto acc = r.field_vector<F>(afe_->k_prime());
        if (!r.ok() || !r.at_end() || acc.size() != afe_->k_prime()) {
          throw net::TransportError("publish: malformed accumulator frame");
        }
        if (peer_accepted != accepted_) {
          throw net::TransportError("publish: accepted-count divergence");
        }
        for (size_t c = 0; c < acc.size(); ++c) agg.sigma[c] += acc[c];
      }
      if (decode) {
        agg.result = decode_aggregate<F>(*afe_, std::span<const F>(agg.sigma),
                                         agg.accepted);
      }
      if (durable_hook) durable_hook(&agg);
      net::Writer cw;
      cw.u32_(epoch_);
      broadcast_sealed(tag, kCommit, cw.data(), 1);
      transport_->end_round(1);
      out = std::move(agg);
    } else {
      net::Writer w;
      w.u64_(accepted_);
      w.field_vector<F>(std::span<const F>(accumulator_));
      send_sealed(0, tag, kPublish, w.data(), 1);
      const auto body = recv_sealed(0, tag, kCommit);
      net::Reader r(body);
      if (r.u32_() != epoch_ || !r.ok() || !r.at_end()) {
        throw net::TransportError("publish: malformed commit frame");
      }
      if (durable_hook) durable_hook(nullptr);
      transport_->end_round(1);
    }
    std::fill(accumulator_.begin(), accumulator_.end(), F::zero());
    accepted_ = 0;
    ++epoch_;
    epoch_start_ = processed_;
    return out;
  }

  // -------------------------------------------------------------------
  // Committed-history replay, shared by WAL recovery (store/recovery.h)
  // and the rejoin catch-up path (server/shard.h): applies one committed
  // batch -- the announced batch in order, with the final verdicts every
  // node agreed on -- without any network rounds. Reproduces exactly the
  // state transitions process_batch would have made: batch counter, the
  // deterministic r-refresh schedule, replay floors, accumulator, and the
  // accepted/processed counts. Returns false (corrupt record) if an
  // accepted blob fails to open.
  // -------------------------------------------------------------------
  bool apply_batch_record(std::span<const SubmissionShare> batch,
                          std::span<const u8> verdicts) {
    const size_t q = batch.size();
    if (verdicts.size() != q || q == 0) return false;
    const size_t kp = afe_->k_prime();
    ensure_verifiers(1);
    SnipVerifier<F>& ver = verifiers_[0];
    // Validate first, commit second: every accepted blob must open before
    // ANY state moves, so a corrupt record leaves the node untouched --
    // the rejoin path may retry the same record after a resync, and a
    // half-applied batch would double-count its accepted prefix.
    std::vector<size_t> accepted_idx;
    std::vector<u64> seqs;
    std::vector<F> x_shares;
    for (size_t v = 0; v < q; ++v) {
      if (!verdicts[v]) continue;
      u64 seq = 0;
      if (!open_sealed_share_into<F>(sealer_, batch[v].client_id, cfg_.self,
                                     batch[v].blob, ver.ext_buffer(), &seq)) {
        return false;
      }
      accepted_idx.push_back(v);
      seqs.push_back(seq);
      x_shares.insert(x_shares.end(), ver.ext_buffer().begin(),
                      ver.ext_buffer().begin() + kp);
    }
    ++batch_counter_;
    if (ctx_.refresh_due(cfg_.refresh_every, q)) {
      ctx_.refresh();
      ++refreshes_;
    }
    ctx_.note_submissions(q);
    for (size_t i = 0; i < accepted_idx.size(); ++i) {
      replay_.accept(batch[accepted_idx[i]].client_id, seqs[i]);
      kernels::vec_add_inplace<F>(
          std::span<F>(accumulator_),
          std::span<const F>(x_shares.data() + i * kp, kp));
      ++accepted_;
    }
    processed_ += q;
    return true;
  }

  // Applies an epoch close this node missed (it crashed, or aborted, after
  // its peers committed the publication): reset the epoch state and
  // advance, exactly like the tail of publish_epoch.
  void close_epoch_local() {
    std::fill(accumulator_.begin(), accumulator_.end(), F::zero());
    accepted_ = 0;
    ++epoch_;
    epoch_start_ = processed_;
  }

  // Seals/opens a rejoin control-frame body under this node's generation-
  // scoped channel keys. The runtime's catch-up frames go through here:
  // unlike the batch announcement (which only names ids -- the verdicts
  // still come from the sealed SNIP rounds), a catch-up frame directly
  // commits verdicts into the accumulator and replay floors, so it must
  // be unforgeable by anyone without the mesh secret. Each (generation,
  // tag, direction) seals at most one frame, so the zero-counter nonce
  // never repeats.
  std::vector<u8> seal_control(size_t to, const std::string& tag,
                               std::span<const u8> body) const {
    return make_channel(cfg_.self, to, tag, kControl).seal(body);
  }
  std::optional<std::vector<u8>> open_control(
      size_t from, const std::string& tag, std::span<const u8> frame) const {
    return make_channel(from, cfg_.self, tag, kControl).open(frame);
  }

  // -------------------------------------------------------------------
  // Restart support: the full protocol state a server must carry across a
  // restart at a batch boundary, framed with a trailing CRC-32 so a
  // snapshot that rotted on disk (or was tampered with) is rejected as a
  // whole instead of half-parsed. The verification context is rebuilt by
  // replaying its deterministic refresh schedule, so the restored node
  // holds the same secret r as its peers.
  // -------------------------------------------------------------------
  std::vector<u8> snapshot() const {
    net::Writer w;
    w.u32_(epoch_);
    w.u64_(batch_counter_);
    w.u64_(refreshes_);
    w.u64_(ctx_.submissions_since_refresh());
    w.u64_(accepted_);
    w.u64_(processed_);
    // The mesh generation rides in the snapshot (and, for mid-epoch bumps,
    // in kWalGeneration records): a full-mesh restart that forgot it would
    // renegotiate a generation the interrupted run already used, and a
    // retried batch would reseal different plaintext under the same
    // (key, nonce).
    w.u64_(gen_);
    w.field_vector<F>(std::span<const F>(accumulator_));
    // Floors are serialized in sorted order so the encoding is canonical:
    // two nodes holding the same floors -- however they got there (live
    // run, WAL replay, snapshot restore) -- produce bit-identical
    // snapshots, which recovery tests and operators can compare directly.
    std::vector<std::pair<u64, u64>> floors(replay_.floors().begin(),
                                            replay_.floors().end());
    std::sort(floors.begin(), floors.end());
    w.u32_(static_cast<u32>(floors.size()));
    for (const auto& [cid, floor] : floors) {
      w.u64_(cid);
      w.u64_(floor);
    }
    w.u32_(store::crc32(w.data()));
    return w.take();
  }

  // Restores a freshly constructed node (same config) from snapshot().
  // Returns false on a malformed snapshot, leaving the node untouched:
  // snapshots now arrive from disk (or a peer), so every field is parsed
  // and bounds-checked into locals -- under the CRC, which catches any
  // bit flip outright -- before any member state is committed. The
  // plausibility bounds double as a cap on the refresh-replay loop, so a
  // hostile count cannot spin the restore.
  bool restore_state(std::span<const u8> snap) {
    if (snap.size() < 4) return false;
    const size_t body_len = snap.size() - 4;
    net::Reader crc_r(snap.subspan(body_len));
    if (crc_r.u32_() != store::crc32(snap.first(body_len))) return false;
    net::Reader r(snap.first(body_len));
    const u32 epoch = r.u32_();
    const u64 batch_counter = r.u64_();
    const u64 refreshes = r.u64_();
    const u64 since = r.u64_();
    const u64 accepted = r.u64_();
    const u64 processed = r.u64_();
    const u64 gen = r.u64_();
    auto acc = r.field_vector<F>(afe_->k_prime());
    const u32 floors = r.u32_();
    if (!r.ok() || acc.size() != afe_->k_prime()) return false;
    if (refreshes < 1 || refreshes > processed + 1 || since > processed ||
        accepted > processed || batch_counter > processed) {
      return false;  // impossible for any state a live node can reach
    }
    if (r.remaining() != u64{floors} * 16) return false;
    std::vector<std::pair<u64, u64>> floor_list;
    floor_list.reserve(floors);
    for (u32 i = 0; i < floors; ++i) {
      const u64 cid = r.u64_();
      const u64 floor = r.u64_();
      floor_list.emplace_back(cid, floor);
    }
    if (!r.ok() || !r.at_end()) return false;

    epoch_ = epoch;
    batch_counter_ = batch_counter;
    accepted_ = accepted;
    processed_ = processed;
    // Snapshots are taken at epoch boundaries, so the restored processed
    // count IS the epoch's starting count; WAL replay of the open epoch
    // then grows epoch_processed() exactly as the live run did.
    epoch_start_ = processed;
    gen_ = gen;
    accumulator_ = std::move(acc);
    for (const auto& [cid, floor] : floor_list) replay_.set_floor(cid, floor);
    while (refreshes_ < refreshes) {
      ctx_.refresh();
      ++refreshes_;
    }
    ctx_.note_submissions(since);
    return true;
  }

 private:
  // Server-to-server frame tags; each round's opener checks it saw the
  // frame it expected, so a desynchronized peer fails loudly.
  static constexpr u8 kRound1 = 1;
  static constexpr u8 kRound2 = 2;
  static constexpr u8 kRound3 = 3;
  static constexpr u8 kRound4 = 4;
  static constexpr u8 kPublish = 5;
  static constexpr u8 kCommit = 6;
  static constexpr u8 kControl = 7;  // runtime rejoin catch-up frames

  // Per-(generation, batch|publish, round) channel keys: the mesh
  // generation, the tag, and the round type are bound into the sending
  // endpoint's name, so every frame is sealed under its own key with a
  // zero counter -- no (key, nonce) pair ever repeats, a restarted
  // server's channels line right back up with its peers, and a batch
  // RETRIED after a rejoin (whose round payloads may legitimately differ,
  // e.g. a straggler blob arrived between attempts) runs under fresh keys
  // because the sync round bumped the generation.
  net::SecureChannel make_channel(size_t from, size_t to,
                                  const std::string& tag, u8 type) const {
    std::string from_ep = "s";
    from_ep += std::to_string(from);
    from_ep += "/g";
    from_ep += std::to_string(gen_);
    if (cfg_.lane != 0) {  // lane 0 keeps the unsharded endpoint names
      from_ep += "/L";
      from_ep += std::to_string(cfg_.lane);
    }
    from_ep += '/';
    from_ep += tag;
    from_ep += '/';
    from_ep += std::to_string(type);
    std::string to_ep = "s";
    to_ep += std::to_string(to);
    return net::SecureChannel(master_, from_ep, to_ep);
  }

  void send_sealed(size_t to, const std::string& tag, u8 type,
                   std::span<const u8> body, u64 logical) {
    net::Writer w;
    w.u8_(type);
    w.raw(body);
    transport_->send(to, make_channel(cfg_.self, to, tag, type).seal(w.data()),
                     logical);
  }

  void broadcast_sealed(const std::string& tag, u8 type,
                        std::span<const u8> body, u64 logical) {
    for (size_t j = 0; j < cfg_.num_servers; ++j) {
      if (j != cfg_.self) send_sealed(j, tag, type, body, logical);
    }
  }

  std::vector<u8> recv_sealed(size_t from, const std::string& tag, u8 type) {
    auto pt =
        make_channel(from, cfg_.self, tag, type).open(transport_->recv(from));
    if (!pt || pt->empty() || (*pt)[0] != type) {
      throw net::TransportError("server channel: bad frame seal or type");
    }
    pt->erase(pt->begin());
    return std::move(*pt);
  }

  static std::vector<std::pair<F, F>> zip(const std::vector<F>& a,
                                          const std::vector<F>& b) {
    std::vector<std::pair<F, F>> out;
    out.reserve(a.size());
    for (size_t i = 0; i < a.size(); ++i) out.emplace_back(a[i], b[i]);
    return out;
  }

  ThreadPool& ensure_pool() {
    return cfg_.shared_pool ? *cfg_.shared_pool : *pool_;  // built in ctor
  }

  // Per-worker engine scratch, grown once and reused across batches.
  void ensure_verifiers(size_t count) {
    while (verifiers_.size() < count) {
      verifiers_.emplace_back(&afe_->valid_circuit());
    }
  }

  const Afe* afe_;
  ServerNodeConfig cfg_;
  net::Transport* transport_;
  std::vector<u8> master_;
  VerificationContext<F> ctx_;
  SubmissionSealer sealer_;
  ReplayGuard replay_;
  std::vector<F> accumulator_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<SnipVerifier<F>> verifiers_;  // per-worker engine scratch
  obs::Histogram* m_prepare_ = nullptr;
  obs::Histogram* m_rounds_ = nullptr;
  obs::Counter* m_accepted_ = nullptr;
  obs::Counter* m_rejected_ = nullptr;
  obs::Counter* m_replay_hits_ = nullptr;
  u64 batch_counter_ = 0;
  u64 refreshes_ = 1;  // the context constructor performs the first refresh
  u64 accepted_ = 0;
  u64 processed_ = 0;
  u64 epoch_start_ = 0;  // processed_ at the last epoch boundary
  u32 epoch_ = 0;
  u64 gen_ = 0;  // mesh generation (see set_generation)
};

}  // namespace prio
