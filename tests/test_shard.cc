// Sharded-runtime tests: the client-id -> shard routing invariants, the
// multi-lane router over a loopback mesh checked against the simulated
// deployment, cross-shard replay/misroute rejection, and the TCP lane
// multiplexer's per-lane ordering.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "afe/bitvec_sum.h"
#include "afe/linreg.h"
#include "core/client.h"
#include "core/deployment.h"
#include "net/tcp_transport.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "server/router.h"

namespace prio {
namespace {

using F = Fp64;
using Afe = afe::BitVectorSum<F>;
using Node = ServerNode<F, Afe>;
using Router = server::ServerRouter<F, Afe>;

constexpr size_t kServers = 3;
constexpr u64 kMasterSeed = 91;

// ---------------------------------------------------------------------------
// shard_of: the one routing function every server (and the client-facing
// router) must agree on.
// ---------------------------------------------------------------------------

TEST(ShardOfTest, SameClientAlwaysSameShardAndInRange) {
  for (u64 cid : {u64{0}, u64{1}, u64{7}, u64{123456789}, ~u64{0}}) {
    EXPECT_EQ(server::shard_of(cid, 1), 0u);
    for (size_t shards : {size_t{2}, size_t{3}, size_t{4}, size_t{255}}) {
      const size_t s = server::shard_of(cid, shards);
      EXPECT_LT(s, shards);
      // Stable: the replay floor for a client lives in exactly one shard,
      // which only holds if re-hashing can never move the client.
      EXPECT_EQ(server::shard_of(cid, shards), s);
    }
  }
}

TEST(ShardOfTest, SequentialIdsSpreadAcrossShards) {
  // Clients get sequential ids in practice; the splitmix finalizer must
  // still spread them instead of striping them into one shard.
  constexpr size_t kShards = 4;
  constexpr u64 kIds = 4000;
  std::vector<size_t> hist(kShards, 0);
  for (u64 cid = 0; cid < kIds; ++cid) {
    ++hist[server::shard_of(cid, kShards)];
  }
  for (size_t s = 0; s < kShards; ++s) {
    EXPECT_GT(hist[s], kIds / kShards / 2) << "shard " << s;
    EXPECT_LT(hist[s], kIds / kShards * 2) << "shard " << s;
  }
}

// ---------------------------------------------------------------------------
// Multi-lane router over a loopback mesh
// ---------------------------------------------------------------------------

// One server process' worth of sharded runtime: base transport, router,
// and a node + shard runtime per lane -- the same wiring prio_server.cc
// does, minus sockets and stores. With opts.pipeline_depth >= 2 the mesh
// must carry 2 * nshards lanes; the upper half become the per-lane control
// lanes, exactly as prio_server.cc wires them. base_override lets a test
// interpose a wrapper transport (slow or flaky links).
template <typename A>
struct ShardedServerFor {
  using Node = ServerNode<F, A>;
  using Router = server::ServerRouter<F, A>;

  ShardedServerFor(const A& afe, net::LoopbackMesh& mesh, size_t self,
                   size_t nshards, server::RuntimeOptions opts,
                   net::Transport* base_override = nullptr,
                   size_t batch_threads = 1)
      : base(&mesh, self),
        router(&afe, base_override ? base_override : &base,
               /*client_listener=*/nullptr, opts) {
    net::Transport* bt = base_override ? base_override : &base;
    const bool pipelined = opts.pipeline_depth >= 2;
    for (size_t l = 0; l < nshards; ++l) {
      lanes.push_back(std::make_unique<net::LaneTransport>(bt, l));
      if (pipelined) {
        ctrls.push_back(std::make_unique<net::LaneTransport>(bt, nshards + l));
      }
      ServerNodeConfig cfg;
      cfg.num_servers = mesh.num_nodes();
      cfg.self = self;
      cfg.master_seed = kMasterSeed;
      cfg.lane = l;
      cfg.batch_threads = batch_threads;
      nodes.push_back(std::make_unique<Node>(&afe, cfg, lanes.back().get()));
      shards.push_back(std::make_unique<typename Router::Shard>(
          nodes.back().get(), lanes.back().get(), &router, opts, nshards,
          /*store=*/nullptr, pipelined ? ctrls.back().get() : nullptr));
      router.add_shard(shards.back().get());
    }
    router.finish_setup();
  }

  // What the router's intake path does with a client frame: hash the id,
  // hand the blob to that shard.
  void submit(u64 cid, u64 seq, std::vector<u8> blob) {
    shards[server::shard_of(cid, shards.size())]->submit(cid, seq,
                                                         std::move(blob));
  }

  net::LoopbackTransport base;
  Router router;
  std::vector<std::unique_ptr<net::LaneTransport>> lanes;
  std::vector<std::unique_ptr<net::LaneTransport>> ctrls;
  std::vector<std::unique_ptr<Node>> nodes;
  std::vector<std::unique_ptr<typename Router::Shard>> shards;
};
using ShardedServer = ShardedServerFor<Afe>;

struct Workload {
  std::vector<Submission> subs;
  std::vector<u8> expected;  // 1 = must be accepted
};

Workload make_workload(const Afe& afe, size_t n) {
  PrioClient<F, Afe> encoder(&afe, kServers, kMasterSeed);
  SecureRng rng(321);
  Workload w;
  const size_t len = afe.length();
  for (u64 cid = 0; cid < n; ++cid) {
    std::vector<u8> bits(len, 0);
    bits[cid % len] = 1;
    auto blobs = encoder.upload(bits, cid, rng);
    u8 expect = 1;
    if (cid % 4 == 3) {
      blobs[cid % kServers][12] ^= 1;  // tampered ciphertext -> reject
      expect = 0;
    }
    w.subs.push_back({cid, std::move(blobs)});
    w.expected.push_back(expect);
  }
  return w;
}

// The blob's cleartext prefix is the submission counter (core/submission.h);
// the intake path uses it as the buffer key, identical on every server.
u64 blob_seq(const std::vector<u8>& blob) {
  net::Reader r(blob);
  return r.u64_();
}

// Two lanes, three servers: the sharded runtime's global aggregate must be
// bit-identical to the simulated single-pipeline deployment over the same
// submissions -- lane 1 runs a different r schedule under lane-scoped
// channel keys, but field addition commutes, so the lane-summed sigma is
// the same. A replayed blob (same payload, bumped transport-level seq) is
// routed to the same shard and must be rejected there, never double
// counted.
TEST(ShardedRouterTest, TwoLanesMatchSimnetAndRejectReplay) {
  Afe afe(8);
  constexpr size_t kShards = 2;
  auto w = make_workload(afe, 24);

  DeploymentOptions sim_opts;
  sim_opts.num_servers = kServers;
  sim_opts.master_seed = kMasterSeed;
  PrioDeployment<F, Afe> sim(&afe, sim_opts);
  sim.process_batch(std::span<const Submission>(w.subs));
  auto sim_result = sim.publish();

  server::RuntimeOptions opts;
  opts.epoch_size = w.subs.size() + 1;  // +1: the replayed submission
  opts.max_batch = 8;
  opts.epochs = 1;
  opts.announce_wait_ms = 20'000;
  opts.assemble_wait_ms = 5'000;
  opts.linger_ms = 25;

  net::LoopbackMesh mesh(kServers, /*recv_timeout_ms=*/20'000, kShards);
  std::vector<std::unique_ptr<ShardedServer>> servers;
  for (size_t i = 0; i < kServers; ++i) {
    servers.push_back(
        std::make_unique<ShardedServer>(afe, mesh, i, kShards, opts));
  }

  // Every server gets its own sealed view of every submission, plus one
  // replay of an honest client's blob under a bumped intake seq.
  const u64 replay_cid = 1;
  for (size_t i = 0; i < kServers; ++i) {
    for (const auto& sub : w.subs) {
      servers[i]->submit(sub.client_id, blob_seq(sub.blobs[i]),
                         sub.blobs[i]);
    }
    servers[i]->submit(replay_cid, blob_seq(w.subs[replay_cid].blobs[i]) + 1,
                       w.subs[replay_cid].blobs[i]);
  }

  std::optional<Node::EpochAggregate> agg;
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kServers; ++i) {
    threads.emplace_back([&, i] {
      auto a = servers[i]->router.run_epochs();
      if (i == 0) agg = std::move(a);
    });
  }
  for (auto& t : threads) t.join();

  ASSERT_TRUE(agg.has_value());
  EXPECT_EQ(agg->accepted, sim.accepted());  // replay not double counted
  EXPECT_EQ(agg->result, sim_result);
  // Every server processed all 25 announced submissions, split over lanes.
  for (size_t i = 0; i < kServers; ++i) {
    u64 processed = 0;
    for (const auto& n : servers[i]->nodes) processed += n->processed();
    EXPECT_EQ(processed, w.subs.size() + 1) << "server " << i;
  }
}

// A blob smuggled into the WRONG shard's intake (bypassing the router's
// hash, as a compromised intake path might) is named by that lane's next
// announcement -- and every follower rejects the announcement, because the
// id does not hash to the lane. The mesh fails loudly on all servers; the
// misrouted submission is never aggregated anywhere.
// Runs one epoch of `subs` through a kShards-lane mesh of three servers
// and returns server 0's published aggregate.
template <typename A>
std::optional<typename ServerNode<F, A>::EpochAggregate> run_one_epoch(
    const A& afe, size_t nshards, const std::vector<Submission>& subs) {
  server::RuntimeOptions opts;
  opts.epoch_size = subs.size();
  opts.max_batch = 8;
  opts.epochs = 1;
  opts.announce_wait_ms = 20'000;
  opts.assemble_wait_ms = 5'000;
  opts.linger_ms = 25;
  net::LoopbackMesh mesh(kServers, /*recv_timeout_ms=*/20'000, nshards);
  std::vector<std::unique_ptr<ShardedServerFor<A>>> servers;
  for (size_t i = 0; i < kServers; ++i) {
    servers.push_back(
        std::make_unique<ShardedServerFor<A>>(afe, mesh, i, nshards, opts));
    for (const auto& sub : subs) {
      servers[i]->submit(sub.client_id, blob_seq(sub.blobs[i]), sub.blobs[i]);
    }
  }
  std::optional<typename ServerNode<F, A>::EpochAggregate> agg;
  std::vector<std::exception_ptr> errors(kServers);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kServers; ++i) {
    threads.emplace_back([&, i] {
      try {
        auto a = servers[i]->router.run_epochs();
        if (i == 0) agg = std::move(a);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return agg;
}

// An AFE whose decode needs clients (linreg), two lanes, and every client
// id hashing to lane 0: lane 1 closes the epoch having verified nothing.
// Lane partials are never decoded -- only the router's lane sum is -- so
// the empty lane neither throws nor changes the result: the published
// aggregate equals the single-lane run's. With every submission tampered,
// the epoch publishes accepted = 0 instead of throwing.
TEST(ShardedRouterTest, EmptyLaneDoesNotDecodeAndMatchesSingleLane) {
  afe::LinearRegression<F> afe(/*d=*/2, /*bits=*/6);
  PrioClient<F, afe::LinearRegression<F>> encoder(&afe, kServers,
                                                  kMasterSeed);
  SecureRng rng(77);
  std::vector<Submission> subs, tampered;
  for (u64 cid = 0; subs.size() < 12; ++cid) {
    if (server::shard_of(cid, 2) != 0) continue;
    afe::LinearRegression<F>::Input in{{cid % 50, (3 * cid) % 64},
                                       (2 * cid + 5) % 64};
    auto blobs = encoder.upload(in, cid, rng);
    subs.push_back({cid, blobs});
    blobs[2][12] ^= 1;  // tampered ciphertext -> reject
    tampered.push_back({cid, std::move(blobs)});
  }

  auto one = run_one_epoch(afe, 1, subs);
  auto two = run_one_epoch(afe, 2, subs);
  ASSERT_TRUE(one.has_value());
  ASSERT_TRUE(two.has_value());
  EXPECT_EQ(two->accepted, subs.size());
  EXPECT_EQ(two->accepted, one->accepted);
  EXPECT_EQ(two->sigma, one->sigma);
  EXPECT_TRUE(two->result.solvable);
  EXPECT_EQ(two->result.coeffs, one->result.coeffs);

  auto none = run_one_epoch(afe, 2, tampered);
  ASSERT_TRUE(none.has_value());
  EXPECT_EQ(none->accepted, 0u);
  EXPECT_FALSE(none->result.solvable);
}

TEST(ShardedRouterTest, MisroutedSubmissionFailsLoudlyEverywhere) {
  Afe afe(6);
  constexpr size_t kShards = 2;
  auto w = make_workload(afe, 4);

  // A client id that hashes to shard 0, to be injected into shard 1.
  u64 misrouted_cid = 1000;
  while (server::shard_of(misrouted_cid, kShards) != 0) ++misrouted_cid;
  PrioClient<F, Afe> encoder(&afe, kServers, kMasterSeed);
  SecureRng rng(77);
  auto mis_blobs =
      encoder.upload(std::vector<u8>(afe.length(), 0), misrouted_cid, rng);

  server::RuntimeOptions opts;
  opts.epoch_size = w.subs.size() + 1;
  opts.max_batch = 8;
  opts.epochs = 1;
  opts.announce_wait_ms = 5'000;
  opts.assemble_wait_ms = 500;
  opts.linger_ms = 25;
  opts.max_resyncs = 1;  // loopback cannot reestablish; fail fast

  net::LoopbackMesh mesh(kServers, /*recv_timeout_ms=*/1'000, kShards);
  std::vector<std::unique_ptr<obs::Registry>> regs;
  std::vector<std::unique_ptr<ShardedServer>> servers;
  for (size_t i = 0; i < kServers; ++i) {
    regs.push_back(std::make_unique<obs::Registry>());
    server::RuntimeOptions sopts = opts;
    sopts.metrics = regs.back().get();
    servers.push_back(
        std::make_unique<ShardedServer>(afe, mesh, i, kShards, sopts));
  }
  for (size_t i = 0; i < kServers; ++i) {
    for (const auto& sub : w.subs) {
      servers[i]->submit(sub.client_id, blob_seq(sub.blobs[i]),
                         sub.blobs[i]);
    }
    // Injected past the router's hash, into the wrong shard, everywhere.
    servers[i]->shards[1]->submit(misrouted_cid, blob_seq(mis_blobs[i]),
                                  mis_blobs[i]);
  }

  std::vector<int> failed(kServers, 0);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kServers; ++i) {
    threads.emplace_back([&, i] {
      try {
        servers[i]->router.run_epochs();
      } catch (const std::exception&) {
        failed[i] = 1;
      }
    });
  }
  for (auto& t : threads) t.join();

  for (size_t i = 0; i < kServers; ++i) {
    EXPECT_EQ(failed[i], 1) << "server " << i << " accepted a misroute";
  }
  // The misrouted blob never reached any node's accumulator.
  for (size_t i = 0; i < kServers; ++i) {
    EXPECT_EQ(servers[i]->nodes[1]->accepted(), 0u) << "server " << i;
  }
  // The reject is visible in the followers' metrics: the announcement
  // names the bad id, so every receiving server counts one misroute on
  // the injected lane. The announcer (server 0) never receives its own
  // announcement and counts nothing.
  EXPECT_EQ(regs[0]->total("prio_reject_misroute_total"), 0u);
  for (size_t i = 1; i < kServers; ++i) {
    EXPECT_GE(regs[i]->total("prio_reject_misroute_total"), 1u)
        << "server " << i;
  }
  for (size_t i = 0; i < kServers; ++i) {
    EXPECT_EQ(regs[i]->total("prio_reject_spec_mismatch_total"), 0u);
    EXPECT_GE(regs[i]->total("prio_batch_aborts_total"), 0u);
  }
}

// Divergent AFE configuration must fail every server at lane sync (the
// circuits would disagree on every batch) -- and the reject is counted
// under prio_reject_spec_mismatch_total on each server that saw the
// divergent peer's hello.
TEST(ShardedRouterTest, SpecMismatchFailsSyncAndCountsReject) {
  Afe afe(6);
  constexpr size_t kShards = 1;

  server::RuntimeOptions opts;
  opts.epoch_size = 4;
  opts.max_batch = 4;
  opts.epochs = 1;
  opts.announce_wait_ms = 2'000;
  opts.linger_ms = 25;
  opts.max_resyncs = 1;

  net::LoopbackMesh mesh(kServers, /*recv_timeout_ms=*/2'000, kShards);
  std::vector<std::unique_ptr<obs::Registry>> regs;
  std::vector<std::unique_ptr<ShardedServer>> servers;
  for (size_t i = 0; i < kServers; ++i) {
    regs.push_back(std::make_unique<obs::Registry>());
    server::RuntimeOptions sopts = opts;
    sopts.metrics = regs.back().get();
    // Server 1 is misconfigured with a different AFE spec.
    sopts.afe_spec = i == 1 ? "bitvec_sum:len=7" : "bitvec_sum:len=6";
    servers.push_back(
        std::make_unique<ShardedServer>(afe, mesh, i, kShards, sopts));
  }

  std::vector<int> failed(kServers, 0);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kServers; ++i) {
    threads.emplace_back([&, i] {
      try {
        servers[i]->router.run_epochs();
      } catch (const std::exception&) {
        failed[i] = 1;
      }
    });
  }
  for (auto& t : threads) t.join();

  for (size_t i = 0; i < kServers; ++i) {
    EXPECT_EQ(failed[i], 1) << "server " << i << " survived a spec mismatch";
  }
  // Servers 0 and 2 each saw server 1's divergent hello; server 1 saw two.
  EXPECT_GE(regs[0]->total("prio_reject_spec_mismatch_total"), 1u);
  EXPECT_GE(regs[1]->total("prio_reject_spec_mismatch_total"), 1u);
  EXPECT_GE(regs[2]->total("prio_reject_spec_mismatch_total"), 1u);
}

// ---------------------------------------------------------------------------
// Pipelined runtime (--pipeline-depth 2)
// ---------------------------------------------------------------------------

// Depth 2 must not change a single verdict or aggregate bit: the same
// two-lane workload (including a replay) through a pipelined cluster --
// announcements on the control lanes, a prefetch thread per lane -- still
// matches the simulated single-pipeline deployment exactly.
TEST(PipelinedShardTest, DepthTwoMatchesSimnetAndRejectReplay) {
  Afe afe(8);
  constexpr size_t kShards = 2;
  auto w = make_workload(afe, 24);

  DeploymentOptions sim_opts;
  sim_opts.num_servers = kServers;
  sim_opts.master_seed = kMasterSeed;
  PrioDeployment<F, Afe> sim(&afe, sim_opts);
  sim.process_batch(std::span<const Submission>(w.subs));
  auto sim_result = sim.publish();

  server::RuntimeOptions opts;
  opts.epoch_size = w.subs.size() + 1;  // +1: the replayed submission
  opts.max_batch = 8;
  opts.epochs = 1;
  opts.announce_wait_ms = 20'000;
  opts.assemble_wait_ms = 5'000;
  opts.linger_ms = 25;
  opts.pipeline_depth = 2;

  // Twice the lanes: the upper kShards are the control lanes.
  net::LoopbackMesh mesh(kServers, /*recv_timeout_ms=*/20'000, 2 * kShards);
  std::vector<std::unique_ptr<ShardedServer>> servers;
  for (size_t i = 0; i < kServers; ++i) {
    servers.push_back(
        std::make_unique<ShardedServer>(afe, mesh, i, kShards, opts));
  }

  const u64 replay_cid = 1;
  for (size_t i = 0; i < kServers; ++i) {
    for (const auto& sub : w.subs) {
      servers[i]->submit(sub.client_id, blob_seq(sub.blobs[i]),
                         sub.blobs[i]);
    }
    servers[i]->submit(replay_cid, blob_seq(w.subs[replay_cid].blobs[i]) + 1,
                       w.subs[replay_cid].blobs[i]);
  }

  std::optional<Node::EpochAggregate> agg;
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kServers; ++i) {
    threads.emplace_back([&, i] {
      auto a = servers[i]->router.run_epochs();
      if (i == 0) agg = std::move(a);
    });
  }
  for (auto& t : threads) t.join();

  ASSERT_TRUE(agg.has_value());
  EXPECT_EQ(agg->accepted, sim.accepted());
  EXPECT_EQ(agg->result, sim_result);
  for (size_t i = 0; i < kServers; ++i) {
    u64 processed = 0;
    for (const auto& n : servers[i]->nodes) processed += n->processed();
    EXPECT_EQ(processed, w.subs.size() + 1) << "server " << i;
  }
}

// Delays every outbound frame of one peer, so the other servers' lane
// threads spend most of the epoch blocked in mesh recvs while their
// prefetch threads run parallel_for on the nodes' thread pools (real
// workers, batch_threads=2). The epoch completing -- within the test
// timeout, with the right aggregate -- is the regression gate: a pool
// whose workers could end up waiting on a parked lane thread (or a
// prefetcher serialized against a blocked recv) would deadlock here.
TEST(PipelinedShardTest, SlowPeerDoesNotDeadlockPrefetchPool) {
  // Wraps one node's mesh view, sleeping before every send.
  struct SlowTransport final : net::Transport {
    net::LoopbackTransport inner;
    std::chrono::milliseconds delay;
    SlowTransport(net::LoopbackMesh* mesh, size_t self, int delay_ms)
        : inner(mesh, self), delay(delay_ms) {}
    size_t num_nodes() const override { return inner.num_nodes(); }
    size_t self() const override { return inner.self(); }
    size_t lanes() const override { return inner.lanes(); }
    void send(size_t to, std::vector<u8> f, u64 logical) override {
      std::this_thread::sleep_for(delay);
      inner.send(to, std::move(f), logical);
    }
    std::vector<u8> recv(size_t from) override { return inner.recv(from); }
    void send_lane(size_t lane, size_t to, std::vector<u8> f,
                   u64 logical) override {
      std::this_thread::sleep_for(delay);
      inner.send_lane(lane, to, std::move(f), logical);
    }
    std::vector<u8> recv_lane(size_t lane, size_t from) override {
      return inner.recv_lane(lane, from);
    }
    void end_round(u64 submissions) override { inner.end_round(submissions); }
  };

  Afe afe(8);
  constexpr size_t kShards = 2;
  auto w = make_workload(afe, 24);
  size_t expected_accepted = 0;
  for (u8 e : w.expected) expected_accepted += e;

  server::RuntimeOptions opts;
  opts.epoch_size = w.subs.size();
  opts.max_batch = 8;
  opts.epochs = 1;
  opts.announce_wait_ms = 20'000;
  opts.assemble_wait_ms = 5'000;
  opts.linger_ms = 25;
  opts.pipeline_depth = 2;

  net::LoopbackMesh mesh(kServers, /*recv_timeout_ms=*/20'000, 2 * kShards);
  SlowTransport slow(&mesh, kServers - 1, /*delay_ms=*/3);
  std::vector<std::unique_ptr<ShardedServer>> servers;
  for (size_t i = 0; i < kServers; ++i) {
    servers.push_back(std::make_unique<ShardedServer>(
        afe, mesh, i, kShards, opts,
        i == kServers - 1 ? &slow : nullptr, /*batch_threads=*/2));
  }
  for (size_t i = 0; i < kServers; ++i) {
    for (const auto& sub : w.subs) {
      servers[i]->submit(sub.client_id, blob_seq(sub.blobs[i]),
                         sub.blobs[i]);
    }
  }

  std::optional<Node::EpochAggregate> agg;
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kServers; ++i) {
    threads.emplace_back([&, i] {
      auto a = servers[i]->router.run_epochs();
      if (i == 0) agg = std::move(a);
    });
  }
  for (auto& t : threads) t.join();

  ASSERT_TRUE(agg.has_value());
  EXPECT_EQ(agg->accepted, expected_accepted);
}

// Abort and retry at the node layer, the exact sequence the pipelined
// shard runtime performs when a peer dies with a prefetched batch in
// flight: a TransportError mid-rounds must roll a node back to its exact
// pre-batch state (bit-identical snapshot), the PreparedBatch must survive
// for the retry, and -- after the generation bump every repair performs --
// the SAME prepared batch must verify successfully under fresh channel
// keys (the bump is what makes the retried batch's AEAD nonces fresh; a
// retry on the old generation would reuse (key, nonce) pairs).
TEST(PipelinedShardTest, AbortRollsBackToPreBatchStateAndRetries) {
  // Wraps the leader's mesh view; the Nth send of an armed attempt throws.
  struct FlakyTransport final : net::Transport {
    net::LoopbackTransport inner;
    int fail_countdown = -1;  // < 0: healthy
    FlakyTransport(net::LoopbackMesh* mesh, size_t self)
        : inner(mesh, self) {}
    size_t num_nodes() const override { return inner.num_nodes(); }
    size_t self() const override { return inner.self(); }
    void send(size_t to, std::vector<u8> f, u64 logical) override {
      if (fail_countdown >= 0 && fail_countdown-- == 0) {
        throw net::TransportError("injected send failure");
      }
      inner.send(to, std::move(f), logical);
    }
    std::vector<u8> recv(size_t from) override { return inner.recv(from); }
    void end_round(u64 submissions) override { inner.end_round(submissions); }
  };

  Afe afe(8);
  auto w = make_workload(afe, 8);

  // Short recv timeout: the followers' blocked recvs must fail fast once
  // the leader's broadcast never arrives.
  net::LoopbackMesh mesh(kServers, /*recv_timeout_ms=*/1'500, 1);
  FlakyTransport leader_link(&mesh, 0);
  std::vector<std::unique_ptr<net::LoopbackTransport>> links;
  std::vector<std::unique_ptr<Node>> nodes;
  for (size_t i = 0; i < kServers; ++i) {
    links.push_back(std::make_unique<net::LoopbackTransport>(&mesh, i));
    ServerNodeConfig cfg;
    cfg.num_servers = kServers;
    cfg.self = i;
    cfg.master_seed = kMasterSeed;
    nodes.push_back(std::make_unique<Node>(
        &afe, cfg, i == 0 ? static_cast<net::Transport*>(&leader_link)
                          : links[i].get()));
  }

  // Prepare once -- the prefetch product; it must survive the abort.
  std::vector<std::vector<SubmissionShare>> views(kServers);
  std::vector<PreparedBatch<F>> preps(kServers);
  std::vector<std::vector<u8>> pre_snap(kServers);
  for (size_t i = 0; i < kServers; ++i) {
    views[i] = node_view(std::span<const Submission>(w.subs), i);
    nodes[i]->prepare_batch(views[i], preps[i]);
    pre_snap[i] = nodes[i]->snapshot();
  }

  // Attempt 1: the leader (batch 0's leader is server 0) consumes every
  // round-1 frame, then its round-2 broadcast throws before anything is
  // shipped -- so the abort leaves NO stale frames in any queue, exactly
  // the state a TCP reestablish's queue flush guarantees the runtime.
  leader_link.fail_countdown = 0;
  std::vector<int> aborted(kServers, 0);
  {
    std::vector<std::thread> threads;
    for (size_t i = 0; i < kServers; ++i) {
      threads.emplace_back([&, i] {
        try {
          nodes[i]->commit_or_rollback(views[i], preps[i]);
        } catch (const net::TransportError&) {
          aborted[i] = 1;
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  for (size_t i = 0; i < kServers; ++i) {
    EXPECT_EQ(aborted[i], 1) << "server " << i << " did not abort";
    // Bit-identical pre-batch state: counters, context, replay floors,
    // accumulator -- everything the snapshot serializes.
    EXPECT_EQ(nodes[i]->snapshot(), pre_snap[i]) << "server " << i;
    EXPECT_EQ(nodes[i]->processed(), 0u);
  }

  // Attempt 2: generation bump (what lane_sync negotiates after a repair)
  // and the SAME prepared batches retry successfully.
  for (auto& n : nodes) n->set_generation(n->generation() + 1);
  std::vector<std::vector<u8>> verdicts(kServers);
  {
    std::vector<std::thread> threads;
    for (size_t i = 0; i < kServers; ++i) {
      threads.emplace_back([&, i] {
        verdicts[i] = nodes[i]->commit_or_rollback(views[i], preps[i]);
      });
    }
    for (auto& t : threads) t.join();
  }
  size_t expected_accepted = 0;
  for (u8 e : w.expected) expected_accepted += e;
  for (size_t i = 0; i < kServers; ++i) {
    ASSERT_EQ(verdicts[i].size(), w.subs.size());
    for (size_t q = 0; q < w.subs.size(); ++q) {
      EXPECT_EQ(verdicts[i][q], w.expected[q]) << "server " << i << " sub "
                                               << q;
    }
    EXPECT_EQ(nodes[i]->accepted(), expected_accepted);
    EXPECT_EQ(nodes[i]->processed(), w.subs.size());
  }
}

// ---------------------------------------------------------------------------
// TCP lane multiplexing
// ---------------------------------------------------------------------------

// Interleaved traffic on three lanes over one framed connection, consumed
// by three concurrent per-lane readers: each lane sees its own frames, in
// order, with none lost to another lane's reader.
TEST(TcpLaneMuxTest, InterleavedLanesDemuxInOrderAcrossThreads) {
  constexpr size_t kLanes = 3;
  constexpr size_t kPerLane = 16;
  std::vector<std::unique_ptr<net::TcpListener>> listeners;
  std::vector<net::TcpMeshTransport::PeerAddr> addrs;
  for (size_t i = 0; i < 2; ++i) {
    listeners.push_back(std::make_unique<net::TcpListener>(0));
    addrs.push_back({"127.0.0.1", listeners.back()->port()});
  }
  const std::vector<u8> secret = master_seed_bytes(kMasterSeed);

  std::vector<std::thread> nodes;
  for (size_t i = 0; i < 2; ++i) {
    nodes.emplace_back([&, i] {
      net::TcpMeshTransport mesh(i, addrs, listeners[i].get(), secret,
                                 10'000, 10'000, kLanes);
      if (i == 0) {
        // Round-robin across lanes, so consecutive frames on the wire
        // belong to different lanes.
        for (size_t k = 0; k < kLanes * kPerLane; ++k) {
          const size_t lane = k % kLanes;
          mesh.send_lane(lane, 1,
                         {static_cast<u8>(lane),
                          static_cast<u8>(k / kLanes)},
                         1);
        }
        for (size_t l = 0; l < kLanes; ++l) {
          EXPECT_EQ(mesh.recv_lane(l, 1),
                    (std::vector<u8>{static_cast<u8>(l), 0xAC}));
        }
      } else {
        std::vector<std::thread> readers;
        for (size_t l = 0; l < kLanes; ++l) {
          readers.emplace_back([&, l] {
            for (size_t k = 0; k < kPerLane; ++k) {
              auto f = mesh.recv_lane(l, 0);
              ASSERT_EQ(f.size(), 2u);
              EXPECT_EQ(f[0], static_cast<u8>(l));
              EXPECT_EQ(f[1], static_cast<u8>(k));  // per-lane order holds
            }
            mesh.send_lane(l, 0, {static_cast<u8>(l), 0xAC}, 1);
          });
        }
        for (auto& r : readers) r.join();
      }
    });
  }
  for (auto& t : nodes) t.join();
}

// interrupt() must wake a reader blocked in recv (it would otherwise sit
// out its full timeout) and fail fast until the links are re-established.
TEST(TcpLaneMuxTest, InterruptWakesBlockedLaneReader) {
  std::vector<std::unique_ptr<net::TcpListener>> listeners;
  std::vector<net::TcpMeshTransport::PeerAddr> addrs;
  for (size_t i = 0; i < 2; ++i) {
    listeners.push_back(std::make_unique<net::TcpListener>(0));
    addrs.push_back({"127.0.0.1", listeners.back()->port()});
  }
  const std::vector<u8> secret = master_seed_bytes(kMasterSeed);
  std::optional<net::TcpMeshTransport> peer;
  std::thread other([&] {
    peer.emplace(1, addrs, listeners[1].get(), secret, 10'000, 60'000,
                 size_t{2});
  });
  net::TcpMeshTransport mesh(0, addrs, listeners[0].get(), secret, 10'000,
                             60'000, 2);
  other.join();

  const auto start = std::chrono::steady_clock::now();
  std::thread reader([&] {
    EXPECT_THROW(mesh.recv_lane(1, 1), net::TransportError);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  mesh.interrupt();
  reader.join();
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(waited)
                .count(),
            30'000);  // nowhere near the 60 s recv timeout
  // Until reestablish, every lane operation fails fast.
  EXPECT_THROW(mesh.send_lane(0, 1, {1}, 1), net::TransportError);
}

}  // namespace
}  // namespace prio
