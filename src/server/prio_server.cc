// prio_server: one Prio server as an OS process.
//
// Runs the full distributed pipeline for any AFE in the runtime catalogue
// (afe/registry.h): accepts sealed client submissions over TCP,
// coordinates count-delimited epochs with its peer servers, runs the
// batched four-round SNIP verification protocol over the server mesh, and
// (on server 0) publishes each epoch's typed aggregate to asking clients.
//
// A three-server deployment on localhost:
//
//   SERVERS=127.0.0.1:9101:9201,127.0.0.1:9102:9202,127.0.0.1:9103:9203
//   AFE="--afe countmin:w=256,d=4"
//   ./prio_server --id 0 --servers $SERVERS $AFE --epoch-size 40 &
//   ... same for --id 1 and --id 2 ...
//   ./prio_client --servers $SERVERS $AFE --clients 40 --expect-clients 40
//
// Every server must be started with the same --servers list, --master-seed,
// --afe, --epoch-size, --batch, --epochs, --shards, and --pipeline-depth
// (--afe agreement is enforced at mesh sync; the rest fail loudly
// in-protocol). --len N is
// deprecated sugar for --afe bitvec_sum:len=N. Exit code 0 means all
// epochs completed (and, on server 0, were published).
//
// Sharding (--shards N, default 1): the runtime splits into N ShardRuntimes
// behind a ServerRouter (server/router.h) -- client ids are hashed to a
// shard, and N independent batch lanes run through the one peer mesh
// concurrently (the mesh multiplexes lanes over its framed connections).
// All servers must agree on N. With --shards 1 the wire protocol, store
// layout, and epoch semantics are exactly the unsharded runtime's.
//
// Durability: with --data-dir DIR the server WAL-logs every accepted
// intake blob and every committed batch, snapshots its protocol state at
// epoch boundaries, and -- restarted with the same --data-dir after a
// crash (even kill -9 mid-epoch) -- recovers, rejoins the mesh, and the
// epoch completes with the same published aggregate as an uninterrupted
// run. Sharded, the layout is DIR/shard-00 ... DIR/shard-NN, one store per
// shard, each recovered independently; --shards 1 keeps the flat DIR
// layout byte-compatible with pre-sharding deployments. --fsync
// always|epoch|off picks the durability/throughput trade-off (store/wal.h);
// --rejoin-timeout-ms bounds how long a surviving server waits for a
// crashed peer to come back.

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "afe/registry.h"
#include "obs/stats_server.h"
#include "obs/trace.h"
#include "server/cli.h"
#include "server/router.h"
#include "store/fault.h"
#include "store/recovery.h"

using namespace prio;

namespace {

using F = Fp64;

// The installed --fault-plan (chaos testing, store/fault.h). Process-wide
// and immortal: the seams may tick it from any thread until exit.
std::unique_ptr<store::FaultPlan> g_fault_plan;

// The whole runtime for one concrete AFE type; instantiated once per
// catalogue entry by the with_afe dispatch in main.
template <typename Afe>
int run_server(const Afe& afe, const afe::AfeSpec& spec,
               const server::Flags& flags,
               const server::CommonConfig& common) {
  const auto& endpoints = common.endpoints;
  const size_t id = flags.num("id", 0);
  require(id < endpoints.size(), "--id out of range of --servers");
  const size_t shards = common.shards;

  // Seeded fault injection (--fault-plan SPEC, store/fault.h): armed
  // before any store or mesh exists so the very first I/O can fault.
  if (flags.has("fault-plan")) {
    const std::string spec = flags.str("fault-plan", "");
    std::string err;
    auto plan = store::FaultPlan::parse(spec, &err);
    if (!plan) {
      std::fprintf(stderr, "prio_server: bad --fault-plan: %s\n", err.c_str());
      return 1;
    }
    g_fault_plan = std::make_unique<store::FaultPlan>(std::move(*plan));
    store::install_fault_plan(g_fault_plan.get());
    std::fprintf(stderr, "[server %zu] fault plan armed: %s\n", id,
                 spec.c_str());
  }

  ServerNodeConfig base_cfg;
  base_cfg.num_servers = endpoints.size();
  base_cfg.self = id;
  base_cfg.master_seed = common.master_seed;
  base_cfg.refresh_every = flags.num("refresh-every", 1024);
  base_cfg.batch_threads = flags.num("threads", 1);

  server::RuntimeOptions opts;
  opts.epoch_size = flags.num("epoch-size", 64);
  opts.max_batch = flags.num("batch", 64);
  opts.epochs = static_cast<u32>(flags.num("epochs", 1));
  opts.announce_wait_ms =
      static_cast<int>(flags.num("announce-wait-ms", 60'000));
  opts.linger_ms = static_cast<int>(flags.num("linger-ms", 50));
  opts.afe_spec = spec.canonical();
  opts.pipeline_depth = common.pipeline_depth;

  // Observability (src/obs/): the registry is always attached -- hot-path
  // recording is a relaxed atomic per event (bench_hotpath holds the
  // overhead under 2%) -- while the HTTP endpoint (--stats-port), the
  // JSONL trace (--trace-log FILE) and the periodic self-report
  // (--report-interval-s N) are opt-in.
  obs::Registry registry;
  opts.metrics = &registry;
  base_cfg.metrics = &registry;
  std::unique_ptr<obs::TraceLog> trace;
  if (flags.has("trace-log")) {
    trace = obs::TraceLog::open(flags.str("trace-log", ""));
    opts.trace = trace.get();
  }

  // Durable epoch stores (optional), one per shard: opened before the
  // mesh so a corrupt directory fails fast, recovered after the nodes
  // exist. One shard keeps the flat pre-sharding layout.
  std::vector<std::unique_ptr<store::EpochStore>> stores(shards);
  if (flags.has("data-dir")) {
    const auto policy = store::parse_fsync_policy(flags.str("fsync", "epoch"));
    require(policy.has_value(), "--fsync must be always, epoch, or off");
    const std::string root = flags.str("data-dir", "");
    // EpochStore mkdirs only its own directory; with per-shard subdirs
    // the root has to exist first.
    if (shards > 1) ::mkdir(root.c_str(), 0777);
    for (size_t l = 0; l < shards; ++l) {
      std::string dir = root;
      if (shards > 1) {
        char sub[32];
        std::snprintf(sub, sizeof(sub), "/shard-%02u",
                      static_cast<unsigned>(l));
        dir += sub;
      }
      stores[l] = std::make_unique<store::EpochStore>(dir, *policy);
      stores[l]->attach_metrics(&registry, obs::label_kv("shard", l));
    }
  }

  // Listen before dialing, so peers starting in any order can connect.
  // Binds all interfaces by default so the mesh can span hosts (the
  // --servers entries carry the routable addresses peers dial).
  const std::string bind_host = flags.str("bind", "0.0.0.0");
  net::TcpListener peer_listener(endpoints[id].peer_port, bind_host);
  net::TcpListener client_listener(endpoints[id].client_port, bind_host);
  std::fprintf(stderr,
               "[server %zu] afe=%s peers=%u clients=%u shards=%zu; joining "
               "mesh...\n",
               id, opts.afe_spec.c_str(), peer_listener.port(),
               client_listener.port(), shards);
  // Followers block in recv for the leader's next announcement while the
  // leader may legitimately wait announce_wait_ms for a batch to fill, so
  // the mesh recv timeout must comfortably exceed that.
  const std::vector<u8> mesh_secret = master_seed_bytes(base_cfg.master_seed);
  net::TcpMeshTransport mesh(
      id, server::peer_addrs(endpoints), &peer_listener, mesh_secret,
      static_cast<int>(flags.num("mesh-timeout-ms", 30'000)),
      static_cast<int>(
          flags.num("recv-timeout-ms", opts.announce_wait_ms + 60'000)),
      server::mesh_lane_count(common));
  // A crashed peer needs time to restart and redial before a surviving
  // server gives up on re-establishing the mesh.
  mesh.set_reestablish_timeout_ms(
      static_cast<int>(flags.num("rejoin-timeout-ms", 120'000)));
  mesh.attach_metrics(&registry);
  std::fprintf(stderr, "[server %zu] mesh up (%zu servers, %zu lanes)\n", id,
               mesh.num_nodes(), mesh.lanes());

  // One node + shard runtime per lane, all over single-lane views of the
  // shared mesh. The verification pool is shared across lanes (the
  // work-queue pool takes concurrent parallel_for callers); each lane's
  // channel keys and r schedule are lane-scoped inside the node.
  ThreadPool pool(base_cfg.batch_threads);
  using Router = server::ServerRouter<F, Afe>;
  Router router(&afe, &mesh, &client_listener, opts);
  std::vector<std::unique_ptr<net::LaneTransport>> lanes;
  std::vector<std::unique_ptr<net::LaneTransport>> ctrl_lanes;
  std::vector<std::unique_ptr<ServerNode<F, Afe>>> nodes;
  std::vector<std::unique_ptr<typename Router::Shard>> shard_runtimes;
  for (size_t l = 0; l < shards; ++l) {
    lanes.push_back(std::make_unique<net::LaneTransport>(&mesh, l));
    // Pipelining moves announcements/close markers to a control lane so
    // the prefetcher reads ahead of in-flight round frames.
    if (opts.pipeline_depth >= 2) {
      ctrl_lanes.push_back(
          std::make_unique<net::LaneTransport>(&mesh, shards + l));
    }
    ServerNodeConfig cfg = base_cfg;
    cfg.lane = l;
    cfg.shared_pool = &pool;
    nodes.push_back(
        std::make_unique<ServerNode<F, Afe>>(&afe, cfg, lanes.back().get()));
    shard_runtimes.push_back(std::make_unique<typename Router::Shard>(
        nodes.back().get(), lanes.back().get(), &router, opts, shards,
        stores[l].get(),
        opts.pipeline_depth >= 2 ? ctrl_lanes.back().get() : nullptr));
    if (stores[l]) {
      auto rec = store::recover_node<F, Afe>(nodes.back().get(), &afe,
                                             stores[l].get(),
                                             opts.max_buffered);
      if (!rec.ok) {
        std::fprintf(stderr,
                     "prio_server: recovery failed (shard %zu): %s\n", l,
                     rec.error.c_str());
        return 1;
      }
      if (rec.used_snapshot || rec.batches_applied > 0 ||
          rec.intake_records > 0) {
        std::fprintf(
            stderr,
            "[server %zu shard %zu] recovered: epoch=%u processed=%llu "
            "accepted=%llu (%llu batches, %llu intake records, %u torn "
            "tails truncated)\n",
            id, l, nodes.back()->epoch(),
            static_cast<unsigned long long>(nodes.back()->processed()),
            static_cast<unsigned long long>(nodes.back()->accepted()),
            static_cast<unsigned long long>(rec.batches_applied),
            static_cast<unsigned long long>(rec.intake_records),
            rec.truncated_tails);
      }
      shard_runtimes.back()->seed_recovered(std::move(rec));
    }
    router.add_shard(shard_runtimes.back().get());
  }
  router.finish_setup();

  // Live stats endpoint (--stats-port N; 0 picks an ephemeral port). The
  // handler thread only reads atomics -- per-lane protocol state is
  // mirrored into gauges by each lane thread at quiescent points
  // (ShardRuntime::update_lane_gauges), never read from the nodes here.
  std::unique_ptr<obs::StatsServer> stats;
  if (flags.has("stats-port")) {
    auto extra = [&registry, &opts, id, shards]() {
      std::string out;
      out += "\"server\": {\"id\": " + std::to_string(id) +
             ", \"shards\": " + std::to_string(shards) +
             ", \"epochs\": " + std::to_string(opts.epochs) +
             ", \"epoch_size\": " + std::to_string(opts.epoch_size) +
             ", \"pipeline_depth\": " + std::to_string(opts.pipeline_depth) +
             "},\n  \"shards\": [";
      for (size_t l = 0; l < shards; ++l) {
        const std::string lab = obs::label_kv("shard", l);
        out += l ? ", {" : "{";
        out += "\"shard\": " + std::to_string(l);
        out += ", \"epoch\": " +
               std::to_string(registry.gauge("prio_lane_epoch", "", lab)->get());
        out += ", \"generation\": " +
               std::to_string(
                   registry.gauge("prio_lane_generation", "", lab)->get());
        out += ", \"processed\": " +
               std::to_string(
                   registry.gauge("prio_lane_processed", "", lab)->get());
        out += ", \"accepted\": " +
               std::to_string(
                   registry.gauge("prio_lane_accepted", "", lab)->get());
        out += "}";
      }
      out += "],\n  \"totals\": {";
      out += "\"intake_accepted\": " +
             std::to_string(registry.total("prio_intake_accepted_total"));
      out += ", \"intake_rejected\": " +
             std::to_string(registry.total("prio_intake_rejected_total"));
      out += ", \"verify_accepted\": " +
             std::to_string(registry.total("prio_verify_accepted_total"));
      out += ", \"verify_rejected\": " +
             std::to_string(registry.total("prio_verify_rejected_total"));
      out += ", \"replay_hits\": " +
             std::to_string(registry.total("prio_replay_hits_total"));
      out += ", \"batches_committed\": " +
             std::to_string(registry.total("prio_batches_committed_total"));
      out += ", \"batch_aborts\": " +
             std::to_string(registry.total("prio_batch_aborts_total"));
      out += ", \"wal_rotations\": " +
             std::to_string(registry.total("prio_wal_rotations_total"));
      out += "}";
      return out;
    };
    stats = std::make_unique<obs::StatsServer>(
        static_cast<u16>(flags.num("stats-port", 0)), &registry,
        std::move(extra), bind_host);
    std::fprintf(stderr, "[server %zu] stats endpoint on port %u\n", id,
                 stats->port());
  }

  // Periodic one-line self-report on stderr (--report-interval-s N,
  // default off): submission rate over the interval, batch-verification
  // accept rate, and the p99 of the committed-round and WAL-fsync stage
  // histograms so an operator can watch a run without the HTTP endpoint.
  std::atomic<bool> report_stop{false};
  std::thread reporter;
  const u64 report_s = flags.num("report-interval-s", 0);
  if (report_s > 0) {
    reporter = std::thread([&registry, &report_stop, id, report_s] {
      u64 prev_subs = 0;
      auto next = std::chrono::steady_clock::now() +
                  std::chrono::seconds(report_s);
      while (!report_stop.load(std::memory_order_acquire)) {
        // Short sleeps keep shutdown prompt without a condvar handshake.
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        if (std::chrono::steady_clock::now() < next) continue;
        next += std::chrono::seconds(report_s);
        const u64 subs = registry.total("prio_intake_accepted_total");
        const u64 va = registry.total("prio_verify_accepted_total");
        const u64 vr = registry.total("prio_verify_rejected_total");
        const double rate =
            static_cast<double>(subs - prev_subs) / static_cast<double>(report_s);
        const double accept =
            va + vr ? static_cast<double>(va) / static_cast<double>(va + vr)
                    : 1.0;
        std::fprintf(stderr,
                     "[server %zu] report subs/s=%.1f accept_rate=%.3f "
                     "batch_p99_ms=%.3f wal_fsync_p99_ms=%.3f\n",
                     id, rate, accept,
                     registry.hist_quantile("prio_stage_rounds_seconds", 0.99) *
                         1e3,
                     registry.hist_quantile("prio_wal_fsync_seconds", 0.99) *
                         1e3);
        prev_subs = subs;
      }
    });
  }

  std::thread intake([&] { router.serve_clients(); });

  // The intake thread must be joined on every path out of the epoch loop;
  // letting an exception unwind past a joinable std::thread would turn a
  // reportable protocol failure into std::terminate.
  int rc = 0;
  try {
    auto last = router.run_epochs();
    if (last) {
      std::printf("[server %zu] epoch %u published: accepted=%llu sigma=[",
                  id, last->epoch,
                  static_cast<unsigned long long>(last->accepted));
      const size_t show = std::min<size_t>(last->sigma.size(), 8);
      for (size_t i = 0; i < show; ++i) {
        std::printf("%s%llu", i ? " " : "",
                    static_cast<unsigned long long>(last->sigma[i].to_u64()));
      }
      std::printf("%s]\n", last->sigma.size() > show ? " ..." : "");
      std::fflush(stdout);
    }
    router.drain_and_stop();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "prio_server: fatal: %s\n", e.what());
    router.stop();
    rc = 1;
  }
  intake.join();
  report_stop.store(true, std::memory_order_release);
  if (reporter.joinable()) reporter.join();
  u64 processed = 0;
  for (const auto& n : nodes) processed += n->processed();
  std::fprintf(stderr, "[server %zu] done (%llu submissions processed)\n",
               id, static_cast<unsigned long long>(processed));
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    server::Flags flags(argc, argv);
    const auto common = server::parse_common_config(flags);
    return afe::with_afe<F>(
        common.spec, [&](const auto& afe_obj, const afe::AfeSpec& norm) {
          return run_server(afe_obj, norm, flags, common);
        });
  } catch (const std::exception& e) {
    std::fprintf(stderr, "prio_server: fatal: %s\n", e.what());
    return 1;
  }
}
