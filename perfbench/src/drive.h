// The external run: three prio_server processes (plus the delay relay on
// WAN workloads), driven by this one generator process over four client
// connections -- one submission connection per server and one aggregate
// connection to server 0. Threads: the sender (caller), one I/O thread
// (acks and aggregate replies) and at most two upload producers.
#pragma once

#include <poll.h>

#include <atomic>
#include <condition_variable>
#include <map>
#include <optional>

#include "net/tcp_transport.h"
#include "obs/stats_server.h"
#include "relay.h"
#include "workload.h"

namespace perfbench {

namespace net = prio::net;

// Children the watchdog must kill if a run overstays its budget.
inline std::atomic<pid_t> g_children[8];

inline void track_child(pid_t pid) {
  for (auto& c : g_children) {
    pid_t empty = 0;
    if (c.compare_exchange_strong(empty, pid)) return;
  }
}

inline void untrack_child(pid_t pid) {
  for (auto& c : g_children) {
    pid_t p = pid;
    c.compare_exchange_strong(p, 0);
  }
}

struct RunContext {
  Workload w;
  u64 seed = 1;
  double seconds = 10;
  std::string server_bin;
  std::string self_bin;
  std::string work_dir;
  u64 master_seed = 0x5eedbeef;
  // Oracle self-check: count the first out-of-range cheat as if the
  // servers had accepted it (on a workload without cheats, add a phantom
  // unit to the first honest contribution), so a correct deployment must
  // FAIL the run.
  bool force_accept_cheat = false;
};

// ---- the server trio --------------------------------------------------------

// Port layout from one base: peer ports, client ports, stats ports, and the
// relay ports of links (1->0), (2->0), (2->1).
struct Ports {
  u16 base = 0;
  u16 peer(size_t i) const { return static_cast<u16>(base + i); }
  u16 client(size_t i) const { return static_cast<u16>(base + 3 + i); }
  u16 stats(size_t i) const { return static_cast<u16>(base + 6 + i); }
  u16 relay(size_t from, size_t to) const {
    const size_t link = from == 1 ? 0 : (to == 0 ? 1 : 2);
    return static_cast<u16>(base + 9 + link);
  }
  static constexpr int kCount = 12;
};

struct Cluster {
  pid_t server[3] = {0, 0, 0};
  pid_t relay = 0;
  Ports ports;
  std::string dir;
  double setup_s = 0;
  long rss_kb = 0;  // summed peak RSS, filled in by stop_cluster
  // conns[0..2]: submissions to server j; conns[3]: aggregates (server 0).
  std::vector<net::FramedConn> conns;
  std::vector<int> fds;
};

inline void stop_cluster(Cluster& c) {
  c.conns.clear();
  c.fds.clear();
  long rss = 0;
  for (pid_t& p : c.server) {
    if (p <= 0) continue;
    rss += kill_and_reap(p);
    untrack_child(p);
    p = 0;
  }
  if (c.relay > 0) {
    kill_and_reap(c.relay);
    untrack_child(c.relay);
    c.relay = 0;
  }
  c.rss_kb = rss;
}

inline std::vector<std::string> server_argv(const RunContext& ctx,
                                            const Cluster& c, size_t id,
                                            bool trace_log) {
  const Workload& w = ctx.w;
  std::string list;
  for (size_t j = 0; j < 3; ++j) {
    // A server dials only its lower-id peers; on WAN workloads those
    // entries name the relay port of the (id -> j) link.
    const u16 peer = (j < id && w.delay_us > 0) ? c.ports.relay(id, j)
                                                : c.ports.peer(j);
    list += (j ? "," : "") + std::string("127.0.0.1:") + std::to_string(peer) +
            ":" + std::to_string(c.ports.client(j));
  }
  std::vector<std::string> argv = {
      ctx.server_bin,      "--id",          std::to_string(id),
      "--servers",         list,            "--afe",
      w.afe,               "--epoch-size",  std::to_string(w.epoch_size),
      "--batch",           std::to_string(w.batch),
      "--epochs",          "1000000",       "--shards",
      std::to_string(w.shards), "--master-seed", std::to_string(ctx.master_seed),
      "--bind",            "127.0.0.1",     "--stats-port",
      std::to_string(c.ports.stats(id))};
  if (trace_log) {
    argv.push_back("--trace-log");
    argv.push_back(c.dir + "/trace-" + std::to_string(id) + ".jsonl");
  }
  if (w.durable) {
    argv.push_back("--data-dir");
    argv.push_back(c.dir + "/data-" + std::to_string(id));
    argv.push_back("--fsync");
    argv.push_back("always");
  }
  return argv;
}

// Starts relay (WAN) and servers, and times set-up: from spawning the
// servers until every server logged its mesh up and all four client
// connections are open.
inline std::optional<Cluster> start_cluster(const RunContext& ctx, int attempt,
                                            bool trace_log) {
  const Workload& w = ctx.w;
  for (int tries = 0; tries < 4; ++tries) {
    Cluster c;
    const u64 h = mix64(ctx.seed * 7919 + static_cast<u64>(attempt) * 131 +
                        static_cast<u64>(tries) * 17 +
                        static_cast<u64>(getpid()));
    for (u64 k = 0; k < 64 && c.ports.base == 0; ++k) {
      const u16 base = static_cast<u16>(20000 + (h + k * 977) % 11000);
      if (ports_free(base, Ports::kCount)) c.ports.base = base;
    }
    if (c.ports.base == 0) continue;
    c.dir = ctx.work_dir + "/setup-" + std::to_string(attempt) + "-" +
            std::to_string(tries);
    remove_tree(c.dir);
    ::mkdir(c.dir.c_str(), 0755);
    if (w.delay_us > 0) {
      std::vector<std::string> argv = {ctx.self_bin, "relay", "--delay-us",
                                       std::to_string(w.delay_us)};
      for (auto [from, to] : {std::pair<size_t, size_t>{1, 0}, {2, 0}, {2, 1}}) {
        argv.push_back("--route");
        argv.push_back(std::to_string(c.ports.relay(from, to)) + ":" +
                       std::to_string(c.ports.peer(to)));
      }
      c.relay = spawn(argv, c.dir + "/relay.log");
      track_child(c.relay);
      const u64 deadline = wall_ns() + 5'000'000'000ull;
      while (!file_contains(c.dir + "/relay.log", "relay ready") &&
             wall_ns() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    const u64 t0 = wall_ns();
    for (size_t i = 0; i < 3; ++i) {
      c.server[i] = spawn(server_argv(ctx, c, i, trace_log),
                          c.dir + "/server-" + std::to_string(i) + ".log");
      track_child(c.server[i]);
    }
    bool up = false, dead = false;
    const u64 deadline = t0 + 30'000'000'000ull;
    while (!up && !dead && wall_ns() < deadline) {
      up = true;
      for (size_t i = 0; i < 3; ++i) {
        up = up && file_contains(c.dir + "/server-" + std::to_string(i) + ".log",
                                 "mesh up");
        int st = 0;
        if (waitpid(c.server[i], &st, WNOHANG) == c.server[i]) {
          untrack_child(c.server[i]);
          c.server[i] = 0;
          dead = true;
        }
      }
      if (!up) std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    if (up) {
      try {
        for (size_t j = 0; j < 4; ++j) {
          net::Socket s =
              net::connect_tcp("127.0.0.1", c.ports.client(j % 3), 5000);
          c.fds.push_back(s.fd());
          c.conns.emplace_back(std::move(s));
        }
        c.setup_s = static_cast<double>(wall_ns() - t0) / 1e9;
        return c;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "client connect failed: %s\n", e.what());
      }
    }
    std::fprintf(stderr, "set-up attempt %d.%d failed (%s); retrying\n",
                 attempt, tries, dead ? "a server exited" : "mesh not up");
    stop_cluster(c);
  }
  return std::nullopt;
}

// ---- /metrics -----------------------------------------------------------------

// Prometheus text summed over label sets: plain series by name, histogram
// buckets by name and upper bound.
struct Scrape {
  std::map<std::string, double> totals;
  std::map<std::string, std::map<double, double>> buckets;

  void add(const std::string& text) {
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      const size_t sp = line.rfind(' ');
      if (sp == std::string::npos) continue;
      const double v = std::atof(line.c_str() + sp + 1);
      const size_t brace = line.find('{');
      const std::string name = line.substr(0, std::min(brace, sp));
      totals[name] += v;
      const size_t le = line.find("le=\"");
      if (le != std::string::npos && brace != std::string::npos) {
        const std::string bound = line.substr(le + 4, line.find('"', le + 4) - le - 4);
        const double b = bound == "+Inf" ? INFINITY : std::atof(bound.c_str());
        buckets[name][b] += v;
      }
    }
  }

  double total(const std::string& name) const {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second;
  }

  // Quantile of a histogram, interpolated linearly inside its bucket.
  double quantile(const std::string& hist, double q) const {
    auto it = buckets.find(hist + "_bucket");
    if (it == buckets.end() || it->second.empty()) return 0.0;
    const double n = it->second.rbegin()->second;
    if (n <= 0) return 0.0;
    const double target = q * n;
    double prev_b = 0, prev_c = 0;
    for (const auto& [b, c] : it->second) {
      if (c >= target) {
        if (std::isinf(b)) return prev_b;
        const double frac = c > prev_c ? (target - prev_c) / (c - prev_c) : 1.0;
        return prev_b + (b - prev_b) * frac;
      }
      prev_b = b;
      prev_c = c;
    }
    return prev_b;
  }
};

inline Scrape scrape_cluster(const Cluster& c) {
  Scrape s;
  for (size_t i = 0; i < 3; ++i) {
    if (auto body = prio::obs::http_get("127.0.0.1", c.ports.stats(i), "/metrics")) {
      s.add(*body);
    }
  }
  return s;
}

// ---- the generator ------------------------------------------------------------

// Bounded FIFO between a producer thread and the sender.
class ItemQueue {
 public:
  explicit ItemQueue(size_t cap) : cap_(cap) {}

  bool push(Item it) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return stop_ || q_.size() < cap_; });
    if (stop_) return false;
    q_.push_back(std::move(it));
    cv_.notify_all();
    return true;
  }

  Item pop() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return !q_.empty(); });
    Item it = std::move(q_.front());
    q_.pop_front();
    cv_.notify_all();
    return it;
  }

  bool full() {
    std::lock_guard<std::mutex> lock(mu_);
    return q_.size() >= cap_;
  }

  void stop() {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    cv_.notify_all();
  }

 private:
  size_t cap_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Item> q_;
  bool stop_ = false;
};

struct RunResult {
  bool correct = true;
  std::vector<std::string> errors;
  u64 attempted = 0, failed = 0;
  double verified_subs_per_s = 0, server_cpu_us_per_sub = 0;
  double publish_lag_ms_p50 = 0, publish_lag_ms_p90 = 0, ack_ms_p50 = 0;
  double client_upload_us = 0, upload_bytes_per_sub = 0;
  double mesh_bytes_per_sub = 0, server_rss_mb = 0, setup_s = 0;
  double setup_fast_frac = 0;  // share of set-ups under 100 ms
  std::string ack_detail;
  double effective_cores = 0, steal_frac = 0, window_s = 0;
  u64 epochs = 0, lag_samples = 0;
  double late_ms_p99 = 0, late_ms_max = 0;
  u64 sent[kNumKinds] = {}, nacked[kNumKinds] = {};
  u64 replays_skipped = 0;
  u64 oracle_ambiguous = 0;  // epochs more than one lane split matched
  Scrape scrape;
};

template <typename Afe>
class ExternalRun {
 public:
  ExternalRun(const Afe& afe, const RunContext& ctx)
      : afe_(afe), ctx_(ctx), w_(ctx.w),
        oracle_(w_.shards, afe.k_prime()) {}

  // Set-up (`setups` times, keeping the last trio), a measured drive of
  // `seconds`, teardown. `trace_log` starts the servers with --trace-log.
  RunResult run(double seconds, int setups, bool trace_log) {
    // Producers start first and fill their queues, so upload work does
    // not overlap the timed set-ups.
    const size_t np = w_.producers;
    std::vector<std::unique_ptr<ItemQueue>> queues;
    for (size_t p = 0; p < np; ++p) {
      queues.push_back(std::make_unique<ItemQueue>(
          std::max<size_t>(256, 2 * w_.epoch_size) / np + 1));
    }
    std::vector<std::thread> producers;
    for (size_t p = 0; p < np; ++p) {
      producers.emplace_back([&, p] {
        Generator<Afe> gen(&afe_, w_, ctx_.seed, ctx_.master_seed);
        for (u64 idx = p;; idx += np) {
          if (!queues[p]->push(gen.make(idx))) return;
        }
      });
    }
    for (auto& q : queues) {
      while (!q->full()) std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }

    std::vector<double> setup_times;
    std::optional<Cluster> cluster;
    for (int a = 0; a < setups; ++a) {
      if (cluster) stop_cluster(*cluster);
      cluster = start_cluster(ctx_, a, trace_log);
      if (!cluster) break;
      setup_times.push_back(cluster->setup_s);
    }
    if (!cluster) {
      fail("could not start the server trio");
    } else {
      // Mean, not median: mesh set-up is bimodal (a hello that lands just
      // after its connection is accepted waits out the acceptor's 200 ms
      // accept poll), and the mean of many set-ups is the steady figure.
      res_.setup_s = mean(setup_times);
      res_.setup_fast_frac = 0;
      for (double t : setup_times) res_.setup_fast_frac += t < 0.1 ? 1.0 : 0.0;
      res_.setup_fast_frac /= static_cast<double>(setup_times.size());
      cluster_ = &*cluster;
      drive(seconds, queues);
      cluster_ = nullptr;
      res_.scrape = scrape_cluster(*cluster);
      stop_cluster(*cluster);
      res_.server_rss_mb = static_cast<double>(cluster->rss_kb) / 1024.0;
      // Logs stay behind for a failed run.
      if (res_.correct) remove_tree(cluster->dir);
    }
    for (auto& q : queues) q->stop();
    for (auto& t : producers) t.join();
    finish();
    return std::move(res_);
  }

 private:
  struct SubState {
    u64 base_ns = 0;  // scheduled arrival (paced) or send time (backlog)
    u64 ack_ns = 0;   // all three servers acked
    u64 ack_at[3] = {0, 0, 0};
    u8 acks_left = 3;
    bool nack = false;
    Kind kind = Kind::kHonest;
    u64 upload_cpu_ns = 0;
    size_t bytes = 0;
  };
  struct EpochRec {
    u64 reply_ns = 0;
    double server_cpu_s = 0;  // all three servers, sampled at the reply
  };
  struct History {
    u64 cid = 0;
    size_t lane = 0;
    u64 lane_pos = 0;
    std::vector<std::vector<u8>> blobs;
  };

  void fail(const std::string& why) {
    std::lock_guard<std::mutex> lock(mu_);
    if (res_.errors.size() < 16) res_.errors.push_back(why);
    res_.correct = false;
    broken_ = true;
    cv_.notify_all();
  }

  void drive(double seconds, std::vector<std::unique_ptr<ItemQueue>>& queues) {
    Cluster& c = *cluster_;
    io_stop_ = false;
    std::thread io([&] { io_loop(); });
    const size_t E = w_.epoch_size;
    const size_t np = queues.size();
    const u64 t_start = wall_ns();
    const u64 t_end = t_start + static_cast<u64>(seconds * 1e9);
    SplitMix arrivals(mix64(ctx_.seed ^ 0xa11a11ull));
    double t_sched = static_cast<double>(t_start);
    std::vector<double> late_ms;
    std::map<u64, History> history;
    bool forced = false;
    try {
      for (u64 idx = 0;; ++idx) {
        u64 base = 0;
        if (w_.paced) {
          t_sched += -std::log(1.0 - arrivals.unit()) / w_.rate * 1e9;
          if (t_sched >= static_cast<double>(t_end) && entered_ % E == 0) break;
          base = static_cast<u64>(t_sched);
          sleep_until_ns(base);
          late_ms.push_back(static_cast<double>(wall_ns() - base) / 1e6);
        } else {
          std::unique_lock<std::mutex> lock(mu_);
          cv_.wait(lock, [&] {
            return broken_ || entered_ < (published_ + 2) * E;
          });
          if (broken_) break;
          if (wall_ns() >= t_end && entered_ % E == 0) break;
        }
        if (broken_) break;
        Item it = queues[idx % np]->pop();
        size_t lane = prio::server::shard_of(it.cid, w_.shards);
        if (it.kind == Kind::kReplay) {
          // Resend an accepted submission only once the oracle has seen
          // its epoch published: every server has consumed it by then.
          auto h = history.find(it.replay_of);
          bool ok = false;
          if (h != history.end()) {
            std::lock_guard<std::mutex> lock(mu_);
            ok = h->second.lane_pos < oracle_.consumed(h->second.lane);
          }
          if (!ok) {
            ++res_.replays_skipped;
            continue;
          }
          it.cid = h->second.cid;
          it.blobs = h->second.blobs;
          lane = h->second.lane;
        }
        if (!w_.paced) base = wall_ns();
        std::vector<F> contribution = it.contribution;
        if (ctx_.force_accept_cheat && !forced &&
            (it.kind == Kind::kOutOfRange ||
             (w_.cheat_frac <= 0 && it.kind == Kind::kHonest))) {
          // Oracle self-check: expect this cheat accepted or, on a workload
          // without cheats, a phantom unit in this honest contribution.
          forced = true;
          if (it.kind == Kind::kHonest) contribution[0] += F::one();
        } else if (it.kind != Kind::kHonest) {
          contribution.clear();
        }
        u64 lane_pos = 0;
        {
          std::lock_guard<std::mutex> lock(mu_);
          SubState st;
          st.base_ns = base;
          st.kind = it.kind;
          st.upload_cpu_ns = it.upload_cpu_ns;
          for (const auto& b : it.blobs) st.bytes += b.size();
          const u64 no = subs_.size();
          subs_.push_back(st);
          for (size_t j = 0; j < 3; ++j) ack_fifo_[j].push_back(no);
          if (it.kind != Kind::kOverCap) {
            lane_pos = oracle_.entered_count(lane);
            oracle_.entered(lane, contribution);
            entered_sub_.push_back(no);
            ++entered_;
          }
        }
        for (size_t j = 0; j < 3; ++j) {
          net::Writer fr;
          fr.u8_(prio::server::kClientSubmit);
          fr.u64_(it.cid);
          fr.bytes(it.blobs[j]);
          c.conns[j].send_frame(fr.data());
        }
        ++res_.sent[static_cast<size_t>(it.kind)];
        if (w_.cheat_frac > 0 && it.kind == Kind::kHonest) {
          history[it.index] = {it.cid, lane, lane_pos, std::move(it.blobs)};
          while (!history.empty() &&
                 history.begin()->first + 2 * Generator<Afe>::kReplayLag < it.index) {
            history.erase(history.begin());
          }
        }
      }
    } catch (const std::exception& e) {
      fail(std::string("sender: ") + e.what());
    }
    // Every entered submission belongs to a whole epoch; wait for the last
    // one to publish and the last acks to land.
    {
      std::unique_lock<std::mutex> lock(mu_);
      target_epochs_ = entered_ / E;
      cv_.wait_for(lock, std::chrono::seconds(60), [&] {
        return broken_ || published_ >= target_epochs_;
      });
      cv_.wait_for(lock, std::chrono::seconds(5), [&] {
        return broken_ || acks_pending_() == 0;
      });
      if (published_ < target_epochs_) {
        lock.unlock();
        fail("only " + std::to_string(published_) + " of " +
             std::to_string(target_epochs_) + " epochs published");
      } else if (!broken_ && !oracle_.settled()) {
        // The last epoch's quota is everything entered, so its split is
        // forced and every earlier ambiguous split must be resolved.
        lock.unlock();
        fail("the reference left entered submissions unaccounted for");
      }
    }
    io_stop_ = true;
    io.join();
    res_.late_ms_p99 = quantile(late_ms, 0.99);
    res_.late_ms_max = late_ms.empty() ? 0 : *std::max_element(late_ms.begin(), late_ms.end());
  }

  size_t acks_pending_() const {
    size_t n = 0;
    for (const auto& f : ack_fifo_) n += f.size();
    return n;
  }

  void send_query(u32 epoch) {
    net::Writer ask;
    ask.u8_(prio::server::kGetAggregate);
    ask.u32_(epoch);
    ask.u8_(prio::afe::afe_wire_id(afe_));
    ask.str_(prio::afe::parse_afe_spec(w_.afe).canonical());
    cluster_->conns[3].send_frame(ask.data());
  }

  double server_cpu_s() const {
    double s = 0;
    for (pid_t p : cluster_->server) s += proc_cpu_s(p);
    return s;
  }

  void io_loop() {
    Cluster& c = *cluster_;
    u32 next_epoch = 0;
    try {
      send_query(next_epoch);
      std::vector<pollfd> pfds;
      for (int fd : c.fds) pfds.push_back({fd, POLLIN, 0});
      while (!io_stop_) {
        const int rc = ::poll(pfds.data(), pfds.size(), 20);
        if (rc < 0 && errno != EINTR) throw std::runtime_error("poll failed");
        for (size_t j = 0; j < 3; ++j) {
          while (auto f = c.conns[j].try_recv_frame(0)) on_ack(j, *f);
          if (c.conns[j].eof()) throw std::runtime_error("server closed a submission connection");
        }
        while (auto f = c.conns[3].try_recv_frame(0)) {
          on_reply(next_epoch, *f);
          send_query(++next_epoch);
        }
        if (c.conns[3].eof()) throw std::runtime_error("server 0 closed the aggregate connection");
      }
    } catch (const std::exception& e) {
      if (!io_stop_) fail(std::string("io: ") + e.what());
    }
  }

  void on_ack(size_t j, const std::vector<u8>& frame) {
    net::Reader r(frame);
    const bool is_ack = r.u8_() == prio::server::kSubmitAck;
    const bool ok = r.u8_() == 1 && r.ok() && is_ack;
    const u64 now = wall_ns();
    std::lock_guard<std::mutex> lock(mu_);
    if (ack_fifo_[j].empty()) return;
    SubState& st = subs_[ack_fifo_[j].front()];
    ack_fifo_[j].pop_front();
    if (!ok) st.nack = true;
    st.ack_at[j] = now;
    if (--st.acks_left == 0) st.ack_ns = now;
    cv_.notify_all();
  }

  void on_reply(u32 epoch, const std::vector<u8>& frame) {
    const u64 now = wall_ns();
    const double cpu = server_cpu_s();
    const CpuTimes host = host_cpu_times();
    net::Reader r(frame);
    const u8 type = r.u8_();
    const u32 got_epoch = r.u32_();
    const u64 accepted = r.u64_();
    const u8 id = r.u8_();
    const std::string spec = r.str_();
    std::vector<F> sigma = r.field_vector<F>(afe_.k_prime());
    const std::vector<u8> typed = r.bytes();
    if (type != prio::server::kAggregate || got_epoch != epoch || !r.ok() ||
        !r.at_end() || sigma.size() != afe_.k_prime() ||
        id != prio::afe::afe_wire_id(afe_)) {
      fail("malformed aggregate reply for epoch " + std::to_string(epoch));
      return;
    }
    bool typed_ok = false;
    try {
      typed_ok = prio::afe::result_bytes(
                     afe_, afe_.decode(std::span<const F>(sigma), accepted)) == typed;
    } catch (const std::exception&) {
    }
    bool match;
    {
      std::lock_guard<std::mutex> lock(mu_);
      match = oracle_.check_epoch(epoch, w_.epoch_size, sigma, accepted);
      epochs_.push_back({now, cpu});
      if (published_ == 0) host_first_ = host;
      host_last_ = host;
      ++published_;
      if (!match) ++mismatched_;
      cv_.notify_all();
    }
    if (!match) {
      fail("epoch " + std::to_string(epoch) +
           ": published aggregate differs from the plaintext reference");
    }
    if (!typed_ok) {
      fail("epoch " + std::to_string(epoch) + ": typed result differs from decode(sigma)");
    }
  }

  // Chunks a run's window is cut into for median-of-chunk figures.
  static constexpr size_t kChunks = 8;

  void finish() {
    RunResult& r = res_;
    const size_t E = w_.epoch_size;
    r.epochs = epochs_.size();
    u64 honest_failed = 0, offered = 0;
    std::vector<double> ack_ms, upload_us, bytes, per_server[3];
    std::vector<std::vector<double>> ack_chunks(kChunks);
    for (const SubState& st : subs_) {
      ++offered;
      const bool honest = st.kind == Kind::kHonest;
      if (st.nack) ++r.nacked[static_cast<size_t>(st.kind)];
      if (honest && (st.nack || st.ack_ns == 0)) ++honest_failed;
      if (!honest && st.kind != Kind::kOverCap && st.nack) {
        // A cheat refused at intake is rejected, but the runtime only
        // refuses over-cap blobs there; note anything else.
        if (r.errors.size() < 16) r.errors.push_back(std::string("unexpected nack of ") + kind_name(st.kind));
      }
      if (st.kind == Kind::kOverCap && !st.nack) {
        ++honest_failed;  // an over-cap blob was acked: a missed reject
      }
      if (st.ack_ns > 0 && st.kind != Kind::kOverCap) {
        ack_ms.push_back(static_cast<double>(st.ack_ns - st.base_ns) / 1e6);
        ack_chunks[std::min(kChunks - 1, ack_ms.size() * kChunks / subs_.size())]
            .push_back(ack_ms.back());
        for (size_t j = 0; j < 3; ++j) {
          per_server[j].push_back(static_cast<double>(st.ack_at[j] - st.base_ns) / 1e6);
        }
      }
      if (honest && st.upload_cpu_ns > 0) {
        upload_us.push_back(static_cast<double>(st.upload_cpu_ns) / 1e3);
      }
      if (honest) bytes.push_back(static_cast<double>(st.bytes));
    }
    std::vector<double> lag_ms;
    for (size_t e = 0; e < epochs_.size(); ++e) {
      const size_t ord = (e + 1) * E - 1;
      if (ord >= entered_sub_.size()) break;
      const SubState& last = subs_[entered_sub_[ord]];
      if (last.ack_ns == 0) continue;
      lag_ms.push_back((static_cast<double>(epochs_[e].reply_ns) -
                        static_cast<double>(last.ack_ns)) / 1e6);
    }
    r.lag_samples = lag_ms.size();
    // Percentiles per consecutive chunk of at least 100 epochs (so a p90
    // has 10 samples beyond it), up to kChunks chunks; the figure is the
    // median over chunks.
    const size_t lag_chunks = std::clamp<size_t>(lag_ms.size() / 100, 1, kChunks);
    std::vector<double> p50s, p90s;
    for (size_t k = 0; k < lag_chunks; ++k) {
      std::vector<double> part(lag_ms.begin() + static_cast<long>(k * lag_ms.size() / lag_chunks),
                               lag_ms.begin() + static_cast<long>((k + 1) * lag_ms.size() / lag_chunks));
      p50s.push_back(quantile(part, 0.5));
      p90s.push_back(quantile(part, 0.9));
    }
    r.publish_lag_ms_p50 = median(p50s);
    r.publish_lag_ms_p90 = median(p90s);
    // Median over send-order chunks of each chunk's median (see below).
    std::vector<double> chunk_p50;
    for (const auto& c : ack_chunks) {
      if (!c.empty()) chunk_p50.push_back(median(c));
    }
    r.ack_ms_p50 = median(chunk_p50);
    char buf[256];
    std::snprintf(buf, sizeof(buf), "ack ms p10/p25/p50/p75/p90/p99 %.3f/%.3f/%.3f/%.3f/%.3f/%.3f; per-server p50 %.3f %.3f %.3f",
                  quantile(ack_ms, 0.1), quantile(ack_ms, 0.25), quantile(ack_ms, 0.5), quantile(ack_ms, 0.75), quantile(ack_ms, 0.9),
                  quantile(ack_ms, 0.99), median(per_server[0]), median(per_server[1]),
                  median(per_server[2]));
    r.ack_detail = buf;
    r.client_upload_us = median(upload_us);
    r.upload_bytes_per_sub = mean(bytes);
    // The steady window runs from the first publish to the last. It is cut
    // into kChunks runs of whole epochs; throughput and CPU per submission
    // are the medians over the chunks, so a transient stall of the host
    // moves one chunk rather than the figure.
    if (epochs_.size() > kChunks) {
      const EpochRec& first = epochs_.front();
      const EpochRec& last = epochs_.back();
      const double window = static_cast<double>(last.reply_ns - first.reply_ns) / 1e9;
      r.window_s = window;
      r.effective_cores = (last.server_cpu_s - first.server_cpu_s) / window;
      r.steal_frac = steal_frac(host_first_, host_last_);
      std::vector<double> rate, cpu_per_sub;
      std::string chunks = "[window] subs/s by chunk:";
      const size_t n = epochs_.size() - 1;
      for (size_t k = 0; k < kChunks; ++k) {
        const size_t ia = k * n / kChunks, ib = (k + 1) * n / kChunks;
        const double subs = static_cast<double>((ib - ia) * E);
        const double dt = static_cast<double>(epochs_[ib].reply_ns - epochs_[ia].reply_ns) / 1e9;
        rate.push_back(subs / dt);
        cpu_per_sub.push_back((epochs_[ib].server_cpu_s - epochs_[ia].server_cpu_s) * 1e6 / subs);
        char c[32];
        std::snprintf(c, sizeof(c), " %.0f", rate.back());
        chunks += c;
      }
      r.verified_subs_per_s = median(rate);
      r.server_cpu_us_per_sub = median(cpu_per_sub);
      r.ack_detail += "\n" + chunks;
    } else {
      r.correct = false;
      r.errors.push_back("too few epochs published to measure");
    }
    const double verified = static_cast<double>(epochs_.size() * E);
    r.mesh_bytes_per_sub =
        verified > 0 ? r.scrape.total("prio_mesh_bytes_sent_total") / verified : 0;
    const u64 unpublished = target_epochs_ > epochs_.size() ? target_epochs_ - epochs_.size() : 0;
    r.oracle_ambiguous = oracle_.ambiguous();
    r.attempted = offered;
    r.failed = honest_failed + (mismatched_ + unpublished) * E;
    if (r.failed > 0) r.correct = false;
  }

  const Afe& afe_;
  const RunContext& ctx_;
  Workload w_;
  Cluster* cluster_ = nullptr;
  std::atomic<bool> io_stop_{false};

  std::mutex mu_;  // guards everything below
  std::condition_variable cv_;
  Oracle oracle_;
  std::deque<SubState> subs_;
  std::deque<u64> ack_fifo_[3];
  std::vector<u64> entered_sub_;  // entered ordinal -> subs_ index
  u64 entered_ = 0;
  u64 published_ = 0;
  u64 target_epochs_ = 0;
  u64 mismatched_ = 0;
  std::atomic<bool> broken_{false};
  std::vector<EpochRec> epochs_;
  CpuTimes host_first_, host_last_;
  RunResult res_;
};

}  // namespace perfbench
