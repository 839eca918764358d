// Thin per-server router in front of N ShardRuntimes (server/shard.h).
//
// The router owns everything that must be global to the server process:
//
//   * the client listener and per-connection intake threads: a submission
//     is routed to shard_of(client_id) (protocol.h), so the same client
//     ALWAYS lands on the same shard and its replay floor lives in exactly
//     one shard's state;
//   * the epoch quota (server 0 only): an epoch closes after epoch_size
//     submissions ACROSS lanes, so the sequencer lanes draw per-batch
//     allowances from one shared counter and close their lane's epoch
//     when it runs dry;
//   * mesh repair: any lane's disruption interrupts the shared transport
//     and every lane's waits, ALL live lanes park on a barrier, exactly
//     one of them runs TcpMeshTransport::reestablish() (which must never
//     race a blocked reader), and then every lane re-syncs its own
//     protocol position;
//   * the published aggregate (server 0): per-lane epoch aggregates are
//     summed (field addition commutes, so the result is bit-identical to
//     an unsharded run over the same inputs) and served to clients.
//
// Lane threads are spawned by run_epochs, one per shard; the router
// rethrows the first lane error after all lanes finish, so a fatal lane
// (resync budget exhausted, traffic starvation) fails the server the way
// the single-lane runtime did.
#pragma once

#include <cstdio>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "afe/registry.h"
#include "server/shard.h"

namespace prio::server {

template <PrimeField F, typename Afe>
class ServerRouter {
 public:
  using Node = ServerNode<F, Afe>;
  using EpochAggregate = typename Node::EpochAggregate;
  using Shard = ShardRuntime<F, Afe, ServerRouter<F, Afe>>;

  // `mesh` is the SHARED multiplexed transport (each shard holds its own
  // net::LaneTransport view of it). Shards are registered with add_shard
  // in lane order; call finish_setup() after the last one (and after any
  // seed_recovered), before serve_clients/run_epochs.
  ServerRouter(const Afe* afe, net::Transport* mesh,
               net::TcpListener* client_listener, RuntimeOptions opts)
      : afe_(afe), mesh_(mesh), listener_(client_listener), opts_(opts) {
    if (opts_.metrics) {
      obs::Registry* reg = opts_.metrics;
      m_rej_malformed_ = reg->counter(
          "prio_intake_rejected_total",
          "Client submissions rejected at intake, by cause",
          obs::label_kv("cause", std::string("malformed")));
      m_rej_wal_ = reg->counter(
          "prio_intake_rejected_total",
          "Client submissions rejected at intake, by cause",
          obs::label_kv("cause", std::string("wal_refused")));
      g_conns_ = reg->gauge("prio_client_connections",
                            "Open client connections");
      m_shed_ = reg->counter(
          "prio_connections_shed_total",
          "Client connections dropped at the --max-connections bound");
      m_agg_queries_ = reg->counter("prio_aggregate_queries_total",
                                    "kGetAggregate queries received");
      m_agg_rejects_ = reg->counter(
          "prio_aggregate_rejects_total",
          "Aggregate queries refused over an AFE spec mismatch");
    }
  }

  ~ServerRouter() { stop(); }

  void add_shard(Shard* shard) {
    require(shard->lane() == shards_.size(), "add_shard: lanes out of order");
    shards_.push_back(shard);
  }

  size_t self() const { return mesh_->self(); }
  size_t shards() const { return shards_.size(); }

  // Single-threaded setup after all shards are registered and seeded:
  // derives each epoch's remaining quota from what the lanes already
  // committed (a restarted sequencer must not hand out quota the epoch
  // already consumed), and rebuilds the cross-lane published map from the
  // per-lane aggregates recovery handed back.
  void finish_setup() {
    require(!shards_.empty(), "ServerRouter: need >= 1 shard");
    if (opts_.metrics) {
      // Per-shard intake accepts live here, after every add_shard, so the
      // instance count matches the lane count.
      m_intake_ok_.reserve(shards_.size());
      for (size_t i = 0; i < shards_.size(); ++i) {
        m_intake_ok_.push_back(opts_.metrics->counter(
            "prio_intake_accepted_total",
            "Client submissions accepted at intake (WAL-backed ack)",
            obs::label_kv("shard", i)));
      }
    }
    if (self() != 0) return;
    for (Shard* s : shards_) {
      const u64 used = s->node()->epoch_processed();
      u64& rem = remaining_ref_locked(s->node()->epoch());
      rem -= std::min(rem, used);
      for (const auto& [epoch, agg] : s->recovered_published()) {
        lane_agg_[epoch][s->lane()] = agg;
      }
    }
    // combine_locked erases the epoch it combines: step past it first.
    for (auto it = lane_agg_.begin(); it != lane_agg_.end();) {
      const u32 epoch = it->first;
      const bool complete = it->second.size() == shards_.size();
      ++it;
      if (complete) combine_locked(epoch);
    }
  }

  // ---- epoch quota (sequencer lanes on server 0) -----------------------

  u64 quota_remaining(u32 epoch) {
    std::lock_guard<std::mutex> lock(q_mu_);
    return remaining_ref_locked(epoch);
  }

  // Reserves up to `want` submissions of `epoch`'s quota for one batch
  // announcement (clamped to what remains; 0 means the epoch is done on
  // this lane). Reserved quota is never returned: an aborted batch keeps
  // its reservation because the SAME ids are re-announced on retry.
  //
  // Lock order: a lane calls this while holding its own shard mutex, so
  // shard.mu_ -> q_mu_ is the one allowed order; the wake-ups below run
  // after q_mu_ is dropped and take no shard lock at all.
  size_t quota_acquire(u32 epoch, size_t want) {
    size_t grant;
    {
      std::lock_guard<std::mutex> lock(q_mu_);
      u64& rem = remaining_ref_locked(epoch);
      grant = static_cast<size_t>(std::min<u64>(want, rem));
      rem -= grant;
    }
    for (Shard* s : shards_) s->notify();  // quota moved: waiters re-check
    return grant;
  }

  // ---- mesh repair barrier ---------------------------------------------

  // Called by every lane that trips (or is interrupted into) a mesh
  // disruption. The first arrival interrupts the transport and every
  // lane's waits; all live lanes then park here; one is elected to run the
  // reestablish (TcpMeshTransport::reestablish must not race any blocked
  // reader, which the barrier guarantees); everyone returns once it
  // finished, throwing if the rebuild failed. Each caller then re-syncs
  // its own lane and, on failure, simply comes back here -- a new round
  // re-interrupts whatever lanes had already moved on, so the mesh
  // converges instead of ping-ponging.
  void repair_mesh(const std::string& /*reason: logged by the lane*/) {
    std::unique_lock<std::mutex> lock(rs_mu_);
    // A sibling lane already died with a non-mesh error (e.g. the
    // durability substrate refused a commit). The mesh cannot be repaired
    // around a dead lane -- peers would block on its traffic forever -- so
    // refuse to repair: every surviving lane fails out of its resync
    // budget fast, run_epochs rethrows the root cause, and the process
    // exits so a supervisor can restart it into recovery + rejoin.
    if (lane_fatal_) {
      throw net::TransportError("sibling lane failed; server going down");
    }
    if (!rs_active_) {
      rs_active_ = true;
      ++rs_round_;
      rs_parked_ = 0;
      rs_leader_chosen_ = false;
      rs_error_.clear();
      lock.unlock();
      mesh_->interrupt();
      for (Shard* s : shards_) s->interrupt_waiters();
      lock.lock();
    }
    const u64 round = rs_round_;
    ++rs_parked_;
    rs_cv_.notify_all();
    rs_cv_.wait(lock, [&] {
      return lane_fatal_ || rs_parked_ >= live_lanes_ || rs_round_ != round;
    });
    if (lane_fatal_) {
      throw net::TransportError("sibling lane failed; server going down");
    }
    if (rs_round_ == round && !rs_leader_chosen_) {
      rs_leader_chosen_ = true;
      lock.unlock();
      std::string err;
      // Prefetch threads (pipeline_depth >= 2) read the mesh from outside
      // the lane threads this barrier counts: cancel their queued work and
      // wait for any in-flight attempt to fail out of the interrupted
      // transport BEFORE a connection is destroyed under it.
      for (Shard* s : shards_) s->quiesce_prefetch();
      try {
        mesh_->reestablish();
      } catch (const std::exception& e) {
        err = e.what();
      }
      for (Shard* s : shards_) s->clear_interrupt();
      lock.lock();
      rs_error_ = err;
      rs_active_ = false;
      rs_cv_.notify_all();
    } else if (rs_round_ == round) {
      rs_cv_.wait(lock,
                  [&] { return !rs_active_ || rs_round_ != round; });
    }
    // If a newer round already started, this lane just proceeds; its next
    // mesh operation fails fast and brings it back here to park.
    if (rs_round_ == round && !rs_error_.empty()) {
      throw net::TransportError("reestablish failed: " + rs_error_);
    }
  }

  // ---- cross-lane publication (server 0) -------------------------------

  // A lane's durable hook reports its epoch aggregate here; once every
  // lane has reported an epoch, the global aggregate is the lane sum.
  void lane_closed(size_t lane, const EpochAggregate& agg) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      // A retried publication re-reports a close the router already
      // combined; the global aggregate stands.
      if (published_.count(agg.epoch) > 0) return;
      lane_agg_[agg.epoch][lane] = agg;
      if (lane_agg_[agg.epoch].size() == shards_.size()) {
        combine_locked(agg.epoch);
      }
    }
    cv_.notify_all();
  }

  // ---- lifecycle -------------------------------------------------------

  // Runs every lane through the configured epochs on its own thread;
  // rethrows the first lane error. Returns the last epoch's GLOBAL
  // aggregate on server 0 (nullopt elsewhere).
  std::optional<EpochAggregate> run_epochs() {
    require(!shards_.empty(), "ServerRouter: need >= 1 shard");
    {
      std::lock_guard<std::mutex> lock(rs_mu_);
      live_lanes_ = shards_.size();
      lane_fatal_ = false;
    }
    // first_error holds the ROOT-CAUSE exception: the first lane to die.
    // Siblings subsequently fail out of the poisoned repair barrier with
    // secondary "sibling lane failed" errors that must not mask it.
    std::exception_ptr first_error;
    std::vector<std::thread> threads;
    threads.reserve(shards_.size());
    for (size_t i = 0; i < shards_.size(); ++i) {
      threads.emplace_back([this, i, &first_error] {
        try {
          shards_[i]->run_lane();
        } catch (const std::exception& e) {
          lane_failed(i, e.what(), &first_error, std::current_exception());
        } catch (...) {
          lane_failed(i, "unknown error", &first_error,
                      std::current_exception());
        }
        lane_exited();
      });
    }
    for (auto& t : threads) t.join();
    if (first_error) {
      // A fatal lane can leave a sibling's prefetch thread blocked in a
      // mesh recv; interrupt so shard teardown joins it immediately
      // instead of waiting out the transport timeout.
      mesh_->interrupt();
      std::rethrow_exception(first_error);
    }
    if (self() == 0) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!published_.empty()) return published_.rbegin()->second;
    }
    return std::nullopt;
  }

  // Serves client connections until stop(); call from a dedicated thread.
  void serve_clients() {
    while (!stopped()) {
      reap_finished();
      try {
        auto sock = listener_->accept_conn(200);
        if (!sock || stopped()) continue;  // drop late arrivals on shutdown
        std::lock_guard<std::mutex> lock(mu_);
        if (active_conns_ >= opts_.max_connections) {  // shed load
          if (m_shed_) m_shed_->inc();
          continue;
        }
        ++active_conns_;
        if (g_conns_) g_conns_->set(static_cast<std::int64_t>(active_conns_));
        const u64 id = next_conn_id_++;
        // Frames from untrusted clients are bounded near the largest
        // acceptable blob, not the transport-wide 64 MiB ceiling.
        const size_t frame_cap = opts_.max_blob_bytes + 1024;
        conn_threads_.emplace(
            id, std::thread([this, id, frame_cap,
                             s = std::move(*sock)]() mutable {
              handle_client(net::FramedConn(std::move(s), frame_cap), id);
            }));
      } catch (const net::TransportError&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      } catch (const std::system_error&) {
        // Thread spawn failed (resource pressure): release the reserved
        // slot, shed the connection, let reaping catch up.
        {
          std::lock_guard<std::mutex> lock(mu_);
          if (active_conns_ > 0) --active_conns_;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    }
  }

  // After the epochs finish, lets in-flight aggregate queries drain before
  // shutdown, then stops the intake threads.
  void drain_and_stop(int grace_ms = 10'000) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_for(lock, std::chrono::milliseconds(grace_ms),
                   [&] { return active_conns_ == 0; });
    }
    stop();
  }

  // Idempotent; joins every intake thread, including ones spawned between
  // the flag flip and the accept loop noticing it.
  void stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (;;) {
      std::map<u64, std::thread> threads;
      {
        std::lock_guard<std::mutex> lock(mu_);
        threads.swap(conn_threads_);
        finished_.clear();
      }
      if (threads.empty()) break;
      for (auto& [id, t] : threads) t.join();
    }
  }

 private:
  bool stopped() {
    std::lock_guard<std::mutex> lock(mu_);
    return stop_;
  }

  void lane_exited() {
    {
      std::lock_guard<std::mutex> lock(rs_mu_);
      if (live_lanes_ > 0) --live_lanes_;
    }
    rs_cv_.notify_all();
  }

  // A lane died with an error the repair machinery cannot fix (a WAL or
  // snapshot failure, an exhausted resync budget). Without intervention
  // the process would stay half-alive: run_epochs joins ALL lanes before
  // rethrowing, and sibling lanes -- local and on peer servers -- would
  // block forever on the dead lane's mesh traffic. Poison the repair
  // barrier and wake everything, so every surviving lane fails fast,
  // run_epochs rethrows, and the server exits loudly for its supervisor
  // to restart into recovery + rejoin.
  void lane_failed(size_t lane, const char* what,
                   std::exception_ptr* first_error, std::exception_ptr err) {
    {
      std::lock_guard<std::mutex> lock(rs_mu_);
      if (!*first_error) *first_error = std::move(err);
      lane_fatal_ = true;
    }
    std::fprintf(stderr, "[server %zu] lane %zu failed (%s); shutting down\n",
                 self(), lane, what);
    rs_cv_.notify_all();
    mesh_->interrupt();
    for (Shard* s : shards_) s->interrupt_waiters();
  }

  // Callers hold q_mu_ (or run single-threaded setup).
  u64& remaining_ref_locked(u32 epoch) {
    auto [it, inserted] = quota_.try_emplace(epoch, u64{opts_.epoch_size});
    return it->second;
  }

  // Callers hold mu_ (or run single-threaded setup). The lane partials are
  // dropped once summed.
  void combine_locked(u32 epoch) {
    EpochAggregate g;
    g.epoch = epoch;
    g.accepted = 0;
    g.sigma.assign(afe_->k_prime(), F::zero());
    for (const auto& [lane, a] : lane_agg_[epoch]) {
      g.accepted += a.accepted;
      for (size_t c = 0; c < g.sigma.size(); ++c) g.sigma[c] += a.sigma[c];
    }
    lane_agg_.erase(epoch);
    g.result = decode_aggregate<F>(*afe_, std::span<const F>(g.sigma),
                                   g.accepted);
    published_[epoch] = std::move(g);
  }

  void handle_client(net::FramedConn conn, u64 conn_id) {
    try {
      while (!stopped() && !conn.eof()) {
        auto frame = conn.try_recv_frame(200);
        if (!frame) continue;
        net::Reader r(*frame);
        const u8 type = r.u8_();
        if (!r.ok()) break;
        if (type == kClientSubmit) {
          u64 cid = r.u64_();
          auto blob = r.bytes();
          bool ok = r.ok() && r.at_end() && blob.size() >= 8 &&
                    blob.size() <= opts_.max_blob_bytes;
          if (ok) {
            net::Reader seq_r(blob);
            const u64 seq = seq_r.u64_();
            // The shard's submit() does WAL-before-ack; the routing hash
            // is the one place intake picks a shard, so a given client's
            // blobs (and replay floor) can never straddle shards.
            const size_t shard_idx = shard_of(cid, shards_.size());
            ok = shards_[shard_idx]->submit(cid, seq, std::move(blob));
            if (!m_intake_ok_.empty()) {
              if (ok) {
                m_intake_ok_[shard_idx]->inc();
              } else {
                m_rej_wal_->inc();
              }
            }
          } else if (m_rej_malformed_) {
            m_rej_malformed_->inc();
          }
          net::Writer ack;
          ack.u8_(kSubmitAck);
          ack.u8_(ok ? 1 : 0);
          conn.send_frame(ack.data());
        } else if (type == kGetAggregate) {
          if (m_agg_queries_) m_agg_queries_->inc();
          u32 epoch = r.u32_();
          const u8 want_id = r.u8_();
          const std::string want_spec = r.str_();
          if (!r.ok() || !r.at_end()) break;
          // Only server 0 publishes; a follower drops the connection
          // instead of blocking on an epoch that never appears here.
          if (self() != 0) break;
          // A client configured with a different AFE must fail loudly
          // here, not decode this deployment's field elements as its own
          // encoding; the reject names our spec so the operator sees both
          // sides of the disagreement.
          if (want_id != afe::afe_wire_id(*afe_) ||
              want_spec != opts_.afe_spec) {
            if (m_agg_rejects_) m_agg_rejects_->inc();
            net::Writer w;
            w.u8_(kAggregateReject);
            w.u8_(afe::afe_wire_id(*afe_));
            w.str_(opts_.afe_spec);
            conn.send_frame(w.data());
            break;
          }
          auto agg = wait_published(epoch);
          if (!agg) break;  // shutting down before the epoch closed
          net::Writer w;
          w.u8_(kAggregate);
          w.u32_(agg->epoch);
          w.u64_(agg->accepted);
          w.u8_(afe::afe_wire_id(*afe_));
          w.str_(opts_.afe_spec);
          w.field_vector<F>(std::span<const F>(agg->sigma));
          net::Writer typed;
          afe::write_result(*afe_, agg->result, typed);
          w.bytes(typed.data());
          conn.send_frame(w.data());
        } else {
          break;  // unknown frame: drop the connection
        }
      }
    } catch (const net::TransportError&) {
      // A misbehaving or vanished client only costs its own connection.
    } catch (const std::exception& e) {
      // A WAL append failure must not std::terminate the server from an
      // intake thread; the submission goes un-acked.
      std::fprintf(stderr, "[server %zu] intake error: %s\n", self(),
                   e.what());
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_conns_;
      if (g_conns_) g_conns_->set(static_cast<std::int64_t>(active_conns_));
      finished_.push_back(conn_id);  // reaped by serve_clients or stop()
    }
    cv_.notify_all();
  }

  // Joins intake threads whose connections have closed.
  void reap_finished() {
    std::vector<std::thread> done;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (u64 id : finished_) {
        auto it = conn_threads_.find(id);
        if (it != conn_threads_.end()) {
          done.push_back(std::move(it->second));
          conn_threads_.erase(it);
        }
      }
      finished_.clear();
    }
    for (auto& t : done) t.join();
  }

  std::optional<EpochAggregate> wait_published(u32 epoch) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return stop_ || published_.count(epoch) > 0; });
    auto it = published_.find(epoch);
    if (it == published_.end()) return std::nullopt;
    return it->second;
  }

  const Afe* afe_;
  net::Transport* mesh_;
  net::TcpListener* listener_;
  RuntimeOptions opts_;
  std::vector<Shard*> shards_;  // indexed by lane id

  // Intake / publication state (ordering: never taken under a shard lock).
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  size_t active_conns_ = 0;
  u64 next_conn_id_ = 0;
  std::map<u64, std::thread> conn_threads_;
  std::vector<u64> finished_;  // conn ids whose handler has returned
  std::map<u32, std::map<size_t, EpochAggregate>> lane_agg_;
  std::map<u32, EpochAggregate> published_;  // global (lane-summed)

  // Epoch quota (server 0). shard.mu_ -> q_mu_ is the one allowed order.
  std::mutex q_mu_;
  std::map<u32, u64> quota_;  // epoch -> submissions not yet announced

  // Observability instruments (null/empty when opts_.metrics is unset).
  std::vector<obs::Counter*> m_intake_ok_;  // indexed by shard
  obs::Counter* m_rej_malformed_ = nullptr;
  obs::Counter* m_rej_wal_ = nullptr;
  obs::Gauge* g_conns_ = nullptr;
  obs::Counter* m_shed_ = nullptr;
  obs::Counter* m_agg_queries_ = nullptr;
  obs::Counter* m_agg_rejects_ = nullptr;

  // Repair barrier state.
  std::mutex rs_mu_;
  bool lane_fatal_ = false;  // terminal: a lane died, server is going down
  std::condition_variable rs_cv_;
  bool rs_active_ = false;
  bool rs_leader_chosen_ = false;
  u64 rs_round_ = 0;
  size_t rs_parked_ = 0;
  size_t live_lanes_ = 0;
  std::string rs_error_;
};

}  // namespace prio::server
