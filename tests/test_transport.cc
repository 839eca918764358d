// Transport-layer and distributed-runtime tests: frame decoding, real TCP
// sockets on localhost, and ServerNode meshes (loopback and TCP) checked
// against the simulated deployment for identical verdicts and aggregates.

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <thread>

#include "afe/bitvec_sum.h"
#include "core/client.h"
#include "core/deployment.h"
#include "net/channel.h"
#include "net/tcp_transport.h"
#include "net/transport.h"
#include "server/node.h"

namespace prio {
namespace {

using F = Fp64;
using Afe = afe::BitVectorSum<F>;

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

TEST(FrameDecoderTest, RoundTripMultipleFramesOneFeed) {
  std::vector<std::vector<u8>> frames = {{1, 2, 3}, {}, {9, 8, 7, 6}};
  std::vector<u8> stream;
  for (const auto& f : frames) {
    auto enc = net::encode_frame(f);
    stream.insert(stream.end(), enc.begin(), enc.end());
  }
  net::FrameDecoder dec;
  dec.feed(stream);
  for (const auto& f : frames) {
    auto got = dec.next();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, f);
  }
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_FALSE(dec.corrupt());
}

TEST(FrameDecoderTest, PartialReadsByteByByte) {
  std::vector<u8> payload(300);
  for (size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<u8>(i);
  auto enc = net::encode_frame(payload);
  net::FrameDecoder dec;
  size_t frames_seen = 0;
  for (u8 b : enc) {
    dec.feed(std::span<const u8>(&b, 1));
    while (auto f = dec.next()) {
      EXPECT_EQ(*f, payload);
      ++frames_seen;
    }
  }
  EXPECT_EQ(frames_seen, 1u);
}

TEST(FrameDecoderTest, SplitAcrossArbitraryChunks) {
  std::vector<u8> stream;
  for (int i = 0; i < 10; ++i) {
    auto enc = net::encode_frame(std::vector<u8>(17 * i + 1, static_cast<u8>(i)));
    stream.insert(stream.end(), enc.begin(), enc.end());
  }
  net::FrameDecoder dec;
  size_t got = 0;
  // Feed in uneven chunks that straddle every frame boundary.
  for (size_t off = 0; off < stream.size(); off += 13) {
    const size_t n = std::min<size_t>(13, stream.size() - off);
    dec.feed(std::span<const u8>(stream.data() + off, n));
    while (auto f = dec.next()) {
      EXPECT_EQ(f->size(), 17 * got + 1);
      ++got;
    }
  }
  EXPECT_EQ(got, 10u);
}

TEST(FrameDecoderTest, OversizedLengthPrefixMarksStreamCorrupt) {
  net::Writer w;
  w.u32_(0xFFFFFFFF);  // claims a 4 GiB frame
  w.raw(std::vector<u8>(64, 0));
  net::FrameDecoder dec;
  dec.feed(w.data());
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_TRUE(dec.corrupt());
  // No resynchronization: further bytes make no progress.
  dec.feed(net::encode_frame(std::vector<u8>{1, 2, 3}));
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_TRUE(dec.corrupt());
}

TEST(FrameDecoderTest, CustomLimitEnforced) {
  net::FrameDecoder dec(/*max_frame=*/16);
  dec.feed(net::encode_frame(std::vector<u8>(17, 0)));
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_TRUE(dec.corrupt());
}

// ---------------------------------------------------------------------------
// Real sockets on localhost
// ---------------------------------------------------------------------------

TEST(TcpTest, FramedRoundTripAndLargeFrames) {
  net::TcpListener listener(0);  // ephemeral port
  ASSERT_GT(listener.port(), 0);

  std::vector<u8> big(1 << 20);
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<u8>(i * 31);

  std::thread peer([&] {
    net::FramedConn conn(net::connect_tcp("127.0.0.1", listener.port(), 5000));
    conn.send_frame(std::vector<u8>{1, 2, 3});
    conn.send_frame(big);
    auto echo = conn.recv_frame(5000);
    conn.send_frame(echo);
  });

  auto sock = listener.accept_conn(5000);
  ASSERT_TRUE(sock.has_value());
  net::FramedConn conn(std::move(*sock));
  EXPECT_EQ(conn.recv_frame(5000), (std::vector<u8>{1, 2, 3}));
  // A 1 MiB frame arrives across many partial reads.
  EXPECT_EQ(conn.recv_frame(5000), big);
  conn.send_frame(std::vector<u8>{42});
  EXPECT_EQ(conn.recv_frame(5000), std::vector<u8>{42});
  peer.join();
}

TEST(TcpTest, EofAndTimeoutAreDistinguished) {
  net::TcpListener listener(0);
  std::thread peer([&] {
    net::Socket s = net::connect_tcp("127.0.0.1", listener.port(), 5000);
    // Connect, send nothing, close.
  });
  auto sock = listener.accept_conn(5000);
  ASSERT_TRUE(sock.has_value());
  net::FramedConn conn(std::move(*sock));
  peer.join();
  auto got = conn.try_recv_frame(2000);
  EXPECT_FALSE(got.has_value());
  EXPECT_TRUE(conn.eof());
  EXPECT_THROW(conn.recv_frame(100), net::TransportError);
}

TEST(TcpTest, ConnectToClosedPortTimesOut) {
  // Grab an ephemeral port, then close the listener so nothing is there.
  u16 dead_port;
  {
    net::TcpListener listener(0);
    dead_port = listener.port();
  }
  EXPECT_THROW(net::connect_tcp("127.0.0.1", dead_port, 300),
               net::TransportError);
}

// A dialer whose hello trails its connect (a relayed or slow peer) must not
// cost the acceptor a full listener wait: the acceptor polls the pending
// connection together with the listener, so the mesh is up as soon as the
// hello lands, about 20 ms here instead of the 200 ms listener wait.
TEST(TcpMeshTest, LateHelloDoesNotStallSetup) {
  net::TcpListener listener(0);
  const std::vector<u8> secret = master_seed_bytes(7);
  const std::vector<net::TcpMeshTransport::PeerAddr> addrs = {
      {"127.0.0.1", listener.port()}, {"127.0.0.1", 1}};
  std::promise<void> mesh_up;
  const auto t0 = std::chrono::steady_clock::now();
  std::thread dialer([&] {
    net::FramedConn conn(net::connect_tcp("127.0.0.1", listener.port(), 5000));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    // Server 1's hello to server 0, sealed the way establish() seals it.
    net::Writer hello;
    hello.u32_(1);
    conn.send_frame(
        net::SecureChannel(secret, "hello/s1", "s0").seal(hello.data()));
    mesh_up.get_future().wait();  // keep the link open until accepted
  });
  net::TcpMeshTransport mesh(0, addrs, &listener, secret, 5'000, 5'000);
  const auto setup_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
  mesh_up.set_value();
  dialer.join();
  EXPECT_GE(setup_ms, 20);
  EXPECT_LT(setup_ms, 150);
}

// ---------------------------------------------------------------------------
// Loopback transport semantics
// ---------------------------------------------------------------------------

TEST(LoopbackTest, PerLinkOrderingAndTimeout) {
  net::LoopbackMesh mesh(3, /*recv_timeout_ms=*/100);
  net::LoopbackTransport t0(&mesh, 0), t1(&mesh, 1);
  t0.send(1, {1}, 1);
  t0.send(1, {2}, 1);
  EXPECT_EQ(t1.recv(0), std::vector<u8>{1});
  EXPECT_EQ(t1.recv(0), std::vector<u8>{2});
  EXPECT_THROW(t1.recv(2), net::TransportError);  // nothing from node 2
  EXPECT_EQ(mesh.sim().total_messages(), 2u);
}

// A client-chosen all-ones counter must never be accepted: the floor would
// wrap to 0 and the submission's own replays would stay fresh forever.
TEST(ReplayGuardTest, MaxCounterNeverFresh) {
  ReplayGuard g;
  EXPECT_FALSE(g.fresh(1, ~u64{0}));
  EXPECT_TRUE(g.fresh(1, 5));
  g.accept(1, 5);
  EXPECT_FALSE(g.fresh(1, 5));
  EXPECT_TRUE(g.fresh(1, 6));
  EXPECT_FALSE(g.fresh(1, ~u64{0}));
}

// ---------------------------------------------------------------------------
// Distributed protocol nodes
// ---------------------------------------------------------------------------

constexpr size_t kServers = 3;
constexpr u64 kMasterSeed = 77;

struct Workload {
  std::vector<Submission> subs;
  std::vector<u8> expected;  // 1 = must be accepted
};

// Mixed valid/tampered submissions from many distinct clients, generated
// through the standalone client encoder (core/client.h).
Workload make_workload(const Afe& afe, size_t n, u64 first_cid = 0) {
  PrioClient<F, Afe> encoder(&afe, kServers, kMasterSeed);
  SecureRng rng(123 + first_cid);
  Workload w;
  const size_t len = afe.length();
  for (u64 k = 0; k < n; ++k) {
    const u64 cid = first_cid + k;
    std::vector<u8> bits(len, 0);
    bits[cid % len] = 1;
    auto blobs = encoder.upload(bits, cid, rng);
    u8 expect = 1;
    if (k % 4 == 3) {
      blobs[cid % kServers][12] ^= 1;  // tampered ciphertext -> reject
      expect = 0;
    }
    w.subs.push_back({cid, std::move(blobs)});
    w.expected.push_back(expect);
  }
  return w;
}

using Node = ServerNode<F, Afe>;

std::vector<std::unique_ptr<Node>> make_nodes(const Afe& afe,
                                              net::LoopbackMesh& mesh,
                                              std::vector<net::LoopbackTransport>& links,
                                              size_t refresh_every = 1024) {
  links.clear();
  links.reserve(kServers);
  std::vector<std::unique_ptr<Node>> nodes;
  for (size_t i = 0; i < kServers; ++i) {
    links.emplace_back(&mesh, i);
  }
  for (size_t i = 0; i < kServers; ++i) {
    ServerNodeConfig cfg;
    cfg.num_servers = kServers;
    cfg.self = i;
    cfg.master_seed = kMasterSeed;
    cfg.refresh_every = refresh_every;
    nodes.push_back(std::make_unique<Node>(&afe, cfg, &links[i]));
  }
  return nodes;
}

// Runs fn(i) concurrently on every node, as separate server threads.
template <typename Fn>
void on_all_nodes(size_t n, Fn fn) {
  std::vector<std::thread> threads;
  for (size_t i = 0; i < n; ++i) threads.emplace_back([&fn, i] { fn(i); });
  for (auto& t : threads) t.join();
}

TEST(ServerNodeTest, MatchesSimnetDeploymentVerdictsAndAggregate) {
  Afe afe(10);
  auto w = make_workload(afe, 24);

  // Ground truth: the simulated deployment over the same blobs, same batch
  // split, same master seed.
  DeploymentOptions opts;
  opts.num_servers = kServers;
  opts.master_seed = kMasterSeed;
  PrioDeployment<F, Afe> sim(&afe, opts);
  std::vector<u8> sim_verdicts;
  for (size_t off = 0; off < w.subs.size(); off += 8) {
    auto v = sim.process_batch(
        std::span<const Submission>(w.subs.data() + off, 8));
    sim_verdicts.insert(sim_verdicts.end(), v.begin(), v.end());
  }
  EXPECT_EQ(sim_verdicts, w.expected);
  auto sim_result = sim.publish();

  net::LoopbackMesh mesh(kServers);
  std::vector<net::LoopbackTransport> links;
  auto nodes = make_nodes(afe, mesh, links);

  std::vector<std::vector<u8>> node_verdicts(kServers);
  std::optional<Node::EpochAggregate> agg;
  on_all_nodes(kServers, [&](size_t i) {
    auto view = node_view(std::span<const Submission>(w.subs), i);
    for (size_t off = 0; off < view.size(); off += 8) {
      auto v = nodes[i]->process_batch(
          std::span<const SubmissionShare>(view.data() + off, 8));
      node_verdicts[i].insert(node_verdicts[i].end(), v.begin(), v.end());
    }
    auto a = nodes[i]->publish_epoch();
    if (i == 0) agg = std::move(a);
  });

  for (size_t i = 0; i < kServers; ++i) {
    EXPECT_EQ(node_verdicts[i], sim_verdicts) << "node " << i;
  }
  ASSERT_TRUE(agg.has_value());
  EXPECT_EQ(agg->accepted, sim.accepted());
  EXPECT_EQ(agg->result, sim_result);

  // Traffic is coalesced like the simulated batch pipeline: per batch the
  // mesh carries 2(s-1) point-to-point frames and 2(s-1) broadcast frames,
  // i.e. 4 rounds -- not 4 messages per submission.
  EXPECT_EQ(mesh.sim().rounds(), 4u * 3u + 1u);  // 3 batches + publish
}

TEST(ServerNodeTest, ReplayedSubmissionsRejectedAcrossBatches) {
  Afe afe(6);
  auto w = make_workload(afe, 8);
  net::LoopbackMesh mesh(kServers);
  std::vector<net::LoopbackTransport> links;
  auto nodes = make_nodes(afe, mesh, links);

  std::vector<std::vector<u8>> first(kServers), replay(kServers);
  on_all_nodes(kServers, [&](size_t i) {
    auto view = node_view(std::span<const Submission>(w.subs), i);
    first[i] = nodes[i]->process_batch(std::span<const SubmissionShare>(view));
    replay[i] = nodes[i]->process_batch(std::span<const SubmissionShare>(view));
  });
  for (size_t i = 0; i < kServers; ++i) {
    EXPECT_EQ(first[i], w.expected);
    EXPECT_EQ(replay[i], std::vector<u8>(w.subs.size(), 0)) << "node " << i;
  }
}

TEST(ServerNodeTest, RestartWithinEpochViaSnapshot) {
  Afe afe(8);
  auto batch1 = make_workload(afe, 8, /*first_cid=*/0);
  auto batch2 = make_workload(afe, 8, /*first_cid=*/100);

  // Reference: an uninterrupted mesh over both batches.
  std::vector<u64> expected_counts;
  {
    net::LoopbackMesh mesh(kServers);
    std::vector<net::LoopbackTransport> links;
    auto nodes = make_nodes(afe, mesh, links);
    std::optional<Node::EpochAggregate> agg;
    on_all_nodes(kServers, [&](size_t i) {
      for (auto* w : {&batch1, &batch2}) {
        auto view = node_view(std::span<const Submission>(w->subs), i);
        nodes[i]->process_batch(std::span<const SubmissionShare>(view));
      }
      auto a = nodes[i]->publish_epoch();
      if (i == 0) agg = std::move(a);
    });
    ASSERT_TRUE(agg.has_value());
    expected_counts = agg->result;
  }

  // Same run, but server 2 dies after batch 1 and a new process restores
  // its snapshot before batch 2.
  net::LoopbackMesh mesh(kServers);
  std::vector<net::LoopbackTransport> links;
  auto nodes = make_nodes(afe, mesh, links);
  on_all_nodes(kServers, [&](size_t i) {
    auto view = node_view(std::span<const Submission>(batch1.subs), i);
    nodes[i]->process_batch(std::span<const SubmissionShare>(view));
  });

  std::vector<u8> snap = nodes[2]->snapshot();
  nodes[2].reset();  // the server process dies
  ServerNodeConfig cfg;
  cfg.num_servers = kServers;
  cfg.self = 2;
  cfg.master_seed = kMasterSeed;
  nodes[2] = std::make_unique<Node>(&afe, cfg, &links[2]);
  ASSERT_TRUE(nodes[2]->restore_state(snap));

  std::optional<Node::EpochAggregate> agg;
  on_all_nodes(kServers, [&](size_t i) {
    auto view = node_view(std::span<const Submission>(batch2.subs), i);
    nodes[i]->process_batch(std::span<const SubmissionShare>(view));
    auto a = nodes[i]->publish_epoch();
    if (i == 0) agg = std::move(a);
  });
  ASSERT_TRUE(agg.has_value());
  EXPECT_EQ(agg->result, expected_counts);
  EXPECT_EQ(agg->accepted, 12u);  // 6 valid per batch of 8
}

TEST(ServerNodeTest, MissingBlobVotesRejectWithoutDesync) {
  Afe afe(6);
  auto w = make_workload(afe, 6);
  // Server 1 never received client 2's blob (delivery failure).
  net::LoopbackMesh mesh(kServers);
  std::vector<net::LoopbackTransport> links;
  auto nodes = make_nodes(afe, mesh, links);
  std::vector<std::vector<u8>> verdicts(kServers);
  on_all_nodes(kServers, [&](size_t i) {
    auto view = node_view(std::span<const Submission>(w.subs), i);
    if (i == 1) view[2].blob.clear();
    verdicts[i] = nodes[i]->process_batch(std::span<const SubmissionShare>(view));
  });
  auto expected = w.expected;
  expected[2] = 0;
  for (size_t i = 0; i < kServers; ++i) EXPECT_EQ(verdicts[i], expected);
}

TEST(ServerNodeTest, RefreshScheduleSurvivesBatchesAndRestart) {
  Afe afe(4);
  // refresh_every = 5 with batches of 4 forces refreshes at batch
  // boundaries 2 and 3 -- the schedule every node must agree on. Server 2
  // restarts after the second batch, when its context has refreshed twice,
  // so restore_state must actually replay the refresh schedule (refreshes
  // > 1) to hold the same secret r as its peers for batch 3.
  auto w1 = make_workload(afe, 4, 0);
  auto w2 = make_workload(afe, 4, 50);
  auto w3 = make_workload(afe, 4, 90);
  net::LoopbackMesh mesh(kServers);
  std::vector<net::LoopbackTransport> links;
  auto nodes = make_nodes(afe, mesh, links, /*refresh_every=*/5);
  on_all_nodes(kServers, [&](size_t i) {
    for (auto* w : {&w1, &w2}) {
      auto view = node_view(std::span<const Submission>(w->subs), i);
      auto v = nodes[i]->process_batch(std::span<const SubmissionShare>(view));
      EXPECT_EQ(v, w->expected);
    }
  });

  std::vector<u8> snap = nodes[2]->snapshot();
  nodes[2].reset();
  ServerNodeConfig cfg;
  cfg.num_servers = kServers;
  cfg.self = 2;
  cfg.master_seed = kMasterSeed;
  cfg.refresh_every = 5;
  nodes[2] = std::make_unique<Node>(&afe, cfg, &links[2]);
  ASSERT_TRUE(nodes[2]->restore_state(snap));

  std::optional<Node::EpochAggregate> agg;
  on_all_nodes(kServers, [&](size_t i) {
    auto view = node_view(std::span<const Submission>(w3.subs), i);
    auto v = nodes[i]->process_batch(std::span<const SubmissionShare>(view));
    EXPECT_EQ(v, w3.expected);
    auto a = nodes[i]->publish_epoch();
    if (i == 0) agg = std::move(a);
  });
  ASSERT_TRUE(agg.has_value());
  EXPECT_EQ(agg->accepted, 9u);  // 3 valid per batch of 4
}

// The full socket path: three server threads over a real TCP mesh on
// ephemeral localhost ports, multi-client batches, epoch publication.
TEST(ServerNodeTest, TcpMeshEndToEnd) {
  Afe afe(8);
  auto w = make_workload(afe, 16);

  DeploymentOptions opts;
  opts.num_servers = kServers;
  opts.master_seed = kMasterSeed;
  PrioDeployment<F, Afe> sim(&afe, opts);
  auto sim_verdicts = sim.process_batch(std::span<const Submission>(w.subs));
  auto sim_result = sim.publish();

  std::vector<std::unique_ptr<net::TcpListener>> listeners;
  std::vector<net::TcpMeshTransport::PeerAddr> addrs;
  for (size_t i = 0; i < kServers; ++i) {
    listeners.push_back(std::make_unique<net::TcpListener>(0));
    addrs.push_back({"127.0.0.1", listeners.back()->port()});
  }

  const std::vector<u8> mesh_secret = master_seed_bytes(kMasterSeed);
  std::vector<std::vector<u8>> verdicts(kServers);
  std::optional<Node::EpochAggregate> agg;
  on_all_nodes(kServers, [&](size_t i) {
    net::TcpMeshTransport mesh(i, addrs, listeners[i].get(), mesh_secret,
                               10'000, 10'000);
    ServerNodeConfig cfg;
    cfg.num_servers = kServers;
    cfg.self = i;
    cfg.master_seed = kMasterSeed;
    Node node(&afe, cfg, &mesh);
    auto view = node_view(std::span<const Submission>(w.subs), i);
    verdicts[i] = node.process_batch(std::span<const SubmissionShare>(view));
    auto a = node.publish_epoch();
    if (i == 0) agg = std::move(a);
  });

  for (size_t i = 0; i < kServers; ++i) EXPECT_EQ(verdicts[i], sim_verdicts);
  ASSERT_TRUE(agg.has_value());
  EXPECT_EQ(agg->accepted, sim.accepted());
  EXPECT_EQ(agg->result, sim_result);
}

}  // namespace
}  // namespace prio
