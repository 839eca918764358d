// The traced in-process harness: the workload's seeded submissions fed to
// three ServerNodes over a LoopbackMesh, each node's view wrapped in a
// DelayTransport that delays frames by the workload's one-way delay and
// records recv wait per protocol round. Spans are recorded around calls
// into each module's public functions from these files only; a second,
// single-threaded "stage budget" pass re-runs the node's per-submission
// steps (open, expand, local check, sigma, aggregate) over the same blobs
// so their CPU can be set against the node's.
#pragma once

#include "net/transport.h"
#include "obs/metrics.h"
#include "server/node.h"
#include "store/recovery.h"
#include "workload.h"

namespace perfbench {

// Decorator over one node's transport: stamps each frame with its due time
// at send, holds it at recv until due, and counts frames, bytes and the
// recv wait of batch rounds. Round attribution follows ServerNode's four end_round() calls per
// batch; begin_batch()/begin_publish() mark the phase. Used by one thread.
class DelayTransport final : public prio::net::Transport {
 public:
  DelayTransport(prio::net::Transport* inner, u64 delay_ns)
      : inner_(inner), delay_ns_(delay_ns) {}

  size_t num_nodes() const override { return inner_->num_nodes(); }
  size_t self() const override { return inner_->self(); }

  void send(size_t to, std::vector<u8> frame, u64 logical) override {
    ++frames_[publish_];
    bytes_[publish_] += frame.size();
    const u64 due = wall_ns() + delay_ns_;
    for (int i = 0; i < 8; ++i) frame.push_back(static_cast<u8>(due >> (8 * i)));
    inner_->send(to, std::move(frame), logical);
  }

  std::vector<u8> recv(size_t from) override {
    const u64 t0 = wall_ns();
    std::vector<u8> frame = inner_->recv(from);
    prio::require(frame.size() >= 8, "DelayTransport: unstamped frame");
    u64 due = 0;
    for (int i = 0; i < 8; ++i) {
      due |= static_cast<u64>(frame[frame.size() - 8 + i]) << (8 * i);
    }
    frame.resize(frame.size() - 8);
    sleep_until_ns(due);
    const u64 t1 = wall_ns();
    // The part of the wait after the peer sent the frame is time on the
    // wire; the rest is time the peer took to send it.
    const u64 sent = due - delay_ns_;
    const u64 wire = t1 - std::max(t0, std::min(sent, t1));
    if (!publish_) {
      round_wait_ns_[std::min<size_t>(round_, 3)] += t1 - t0;
      wire_wait_ns_ += wire;
    }
    return frame;
  }

  void end_round(u64 submissions) override {
    inner_->end_round(submissions);
    ++round_;
  }

  void begin_batch() {
    publish_ = false;
    round_ = 0;
  }
  void begin_publish() { publish_ = true; }

  u64 round_wait_ns(size_t r) const { return round_wait_ns_[r]; }
  u64 wire_wait_ns() const { return wire_wait_ns_; }
  u64 frames(bool publish) const { return frames_[publish]; }
  u64 bytes_total() const { return bytes_[0] + bytes_[1]; }

 private:
  prio::net::Transport* inner_;
  u64 delay_ns_;
  bool publish_ = false;
  size_t round_ = 0;
  u64 round_wait_ns_[4] = {};
  u64 wire_wait_ns_ = 0;
  u64 frames_[2] = {};
  u64 bytes_[2] = {};
};

struct HarnessResult {
  bool correct = true;
  std::vector<std::string> errors;
  u64 subs = 0;
  std::vector<Metric> metrics;
  std::string budget_table;
};

// Batches the harness runs per workload: sized for a few seconds each.
inline size_t harness_batches(const Workload& w) {
  if (w.durable) return 40;
  return w.delay_us > 0 ? 64 : 96;
}

template <typename Afe>
HarnessResult run_harness(const Afe& afe, const RunContext& ctx) {
  using prio::SubmissionShare;
  const Workload& w = ctx.w;
  constexpr size_t kS = 3;
  HarnessResult res;
  // One lane: a batch is the workload's per-lane share of an epoch, capped
  // at the batch size.
  const size_t batch = std::min(w.batch, w.epoch_size / w.shards);
  const size_t per_epoch = w.epoch_size / w.shards / batch;
  const size_t n_batches = harness_batches(w) / per_epoch * per_epoch;
  const size_t n_epochs = n_batches / per_epoch;

  // ---- inputs: the same generator, with a span around every upload -------
  SpanLog client_log(10);
  std::vector<Item> items;
  {
    Generator<Afe> gen(&afe, w, ctx.seed, ctx.master_seed);
    gen.set_spans(&client_log);
    for (u64 idx = 0; items.size() < n_batches * batch; ++idx) {
      Item it = gen.make(idx);
      if (it.kind == Kind::kOverCap) continue;  // refused at intake
      if (it.kind == Kind::kReplay) {
        const Item* orig = nullptr;
        for (const Item& o : items) {
          if (o.index == it.replay_of && o.kind == Kind::kHonest) orig = &o;
        }
        if (!orig) continue;
        it.cid = orig->cid;
        it.blobs = orig->blobs;
      }
      items.push_back(std::move(it));
    }
  }
  res.subs = items.size();
  size_t planted_snip = 0;
  double upload_bytes = 0;
  size_t honest = 0;
  Oracle oracle(1, afe.k_prime());
  for (const Item& it : items) {
    planted_snip += snip_level(it.kind) ? 1 : 0;
    oracle.entered(0, it.kind == Kind::kHonest ? it.contribution : std::vector<F>{});
    if (it.kind == Kind::kHonest) {
      ++honest;
      for (const auto& b : it.blobs) upload_bytes += static_cast<double>(b.size());
    }
  }

  // ---- three nodes over a delayed loopback mesh --------------------------
  prio::net::LoopbackMesh mesh(kS, 60'000);
  std::vector<std::unique_ptr<prio::net::LoopbackTransport>> lts;
  std::vector<std::unique_ptr<DelayTransport>> dts;
  std::vector<std::unique_ptr<prio::ServerNode<F, Afe>>> nodes;
  std::vector<std::unique_ptr<prio::store::EpochStore>> stores(kS);
  std::vector<std::unique_ptr<prio::obs::Registry>> regs(kS);
  std::vector<std::unique_ptr<SpanLog>> logs;
  const std::string store_root = ctx.work_dir + "/harness";
  remove_tree(store_root);
  ::mkdir(store_root.c_str(), 0755);
  for (size_t i = 0; i < kS; ++i) {
    lts.push_back(std::make_unique<prio::net::LoopbackTransport>(&mesh, i));
    dts.push_back(std::make_unique<DelayTransport>(lts.back().get(), w.delay_us * 1000));
    prio::ServerNodeConfig cfg;
    cfg.num_servers = kS;
    cfg.self = i;
    cfg.master_seed = ctx.master_seed;
    cfg.batch_threads = 1;
    nodes.push_back(std::make_unique<prio::ServerNode<F, Afe>>(&afe, cfg, dts.back().get()));
    logs.push_back(std::make_unique<SpanLog>(static_cast<int>(i)));
    if (w.durable) {
      regs[i] = std::make_unique<prio::obs::Registry>();
      stores[i] = std::make_unique<prio::store::EpochStore>(
          store_root + "/node-" + std::to_string(i), prio::store::FsyncPolicy::kAlways);
      stores[i]->attach_metrics(regs[i].get(), prio::obs::label_kv("shard", 0));
      stores[i]->open_segment(0);
    }
  }
  std::vector<std::vector<u8>> verdicts(n_batches);
  std::vector<std::string> node_errors(kS);
  std::vector<std::thread> threads;
  const u64 t_run0 = wall_ns();
  for (size_t i = 0; i < kS; ++i) {
    threads.emplace_back([&, i] {
      SpanLog& log = *logs[i];
      auto& node = *nodes[i];
      DelayTransport& dt = *dts[i];
      prio::store::EpochStore* store = stores[i].get();
      try {
        for (size_t e = 0; e < n_epochs; ++e) {
          for (size_t b = e * per_epoch; b < (e + 1) * per_epoch; ++b) {
            ScopedSpan span(&log, "batch");
            std::vector<SubmissionShare> view;
            std::vector<std::pair<u64, u64>> ids;
            for (size_t v = b * batch; v < (b + 1) * batch; ++v) {
              view.push_back({items[v].cid, items[v].blobs[i]});
              ids.push_back({items[v].cid, 0});
            }
            if (store) {
              for (const auto& sh : view) {
                ScopedSpan s(&log, "store.append_intake");
                store->append_intake(sh.client_id, 0, sh.blob);
              }
            }
            prio::PreparedBatch<F> prep;
            {
              ScopedSpan s(&log, "server.prepare_batch");
              node.prepare_batch(view, prep);
            }
            dt.begin_batch();
            std::vector<u8> got;
            {
              ScopedSpan s(&log, "server.commit_or_rollback");
              got = node.commit_or_rollback(view, prep);
            }
            if (store) {
              ScopedSpan s(&log, "store.commit_batch");
              store->append_batch(ids, got);
            }
            if (i == 0) verdicts[b] = std::move(got);
          }
          dt.begin_publish();
          std::optional<typename prio::ServerNode<F, Afe>::EpochAggregate> agg;
          {
            ScopedSpan s(&log, "server.publish_epoch");
            agg = node.publish_epoch();
          }
          if (store) {
            ScopedSpan s(&log, "store.rotate");
            store->rotate(node.epoch(), node.snapshot());
          }
          if (i == 0 && agg &&
              !oracle.check_epoch(agg->epoch, per_epoch * batch, agg->sigma,
                                  agg->accepted)) {
            node_errors[i] = "harness epoch " + std::to_string(e) +
                             " differs from the plaintext reference";
          }
        }
      } catch (const std::exception& ex) {
        node_errors[i] = ex.what();
      }
    });
  }
  for (auto& t : threads) t.join();
  const double run_s = static_cast<double>(wall_ns() - t_run0) / 1e9;
  for (const auto& e : node_errors) {
    if (!e.empty()) {
      res.correct = false;
      res.errors.push_back(e);
    }
  }

  // ---- stage budget: the node's per-submission steps, one at a time ------
  SpanLog budget_log(20);
  prio::VerificationContext<F> vctx(&afe.valid_circuit(), kS, ctx.seed);
  prio::SubmissionSealer sealer(prio::master_seed_bytes(ctx.master_seed));
  std::vector<prio::SnipVerifier<F>> vers;
  for (size_t j = 0; j < kS; ++j) vers.emplace_back(&afe.valid_circuit());
  std::vector<std::vector<F>> acc(kS, std::vector<F>(afe.k_prime(), F::zero()));
  size_t opens = 0, open_fail = 0, live = 0, snip_rejects = 0;
  for (const Item& it : items) {
    bool parsed_all = true;
    for (size_t j = 0; j < kS; ++j) {
      std::optional<std::vector<u8>> pt;
      {
        ScopedSpan s(&budget_log, "crypto.open");
        pt = sealer.open(it.cid, j, it.blobs[j]);
      }
      ++opens;
      if (!pt || pt->empty()) {
        ++open_fail;
        parsed_all = false;
        continue;
      }
      prio::net::Reader r(*pt);
      const u8 kind = r.u8_();
      bool ok = false;
      if (kind == prio::kShareSeed && r.remaining() == 32) {
        ScopedSpan s(&budget_log, "share.expand");
        prio::expand_share_seed_into<F>(std::span<const u8>(pt->data() + 1, 32),
                                        vers[j].ext_buffer());
        ok = true;
      } else if (kind == prio::kShareExplicit) {
        ScopedSpan s(&budget_log, "share.parse");
        const u32 count = r.u32_();
        auto out = vers[j].ext_buffer();
        if (r.ok() && count == out.size()) {
          for (auto& x : out) x = r.field<F>();
          ok = r.ok() && r.at_end();
        }
      }
      parsed_all = parsed_all && ok;
    }
    if (!parsed_all) continue;
    ++live;
    std::vector<prio::SnipLocalState<F>> st;
    F d = F::zero(), e = F::zero();
    for (size_t j = 0; j < kS; ++j) {
      ScopedSpan s(&budget_log, "snip.local_check");
      st.push_back(vers[j].local_check(vctx, j));
      d += st.back().d_share;
      e += st.back().e_share;
    }
    F sigma = F::zero(), out = F::zero();
    for (size_t j = 0; j < kS; ++j) {
      ScopedSpan s(&budget_log, "snip.sigma");
      sigma += prio::snip_sigma_share(vctx, st[j], d, e);
      out += st[j].out_combo;
    }
    if (!prio::snip_accept(sigma, out)) {
      ++snip_rejects;
      continue;
    }
    for (size_t j = 0; j < kS; ++j) {
      ScopedSpan s(&budget_log, "server.aggregate");
      prio::kernels::vec_add_inplace<F>(
          std::span<F>(acc[j]),
          std::span<const F>(vers[j].ext_buffer().data(), afe.k_prime()));
    }
  }
  if (live != 0 && snip_rejects != planted_snip) {
    res.correct = false;
    res.errors.push_back("SNIP rejected " + std::to_string(snip_rejects) +
                         " submissions but " + std::to_string(planted_snip) +
                         " SNIP-level cheats were planted");
  }

  // ---- summaries ------------------------------------------------------------
  std::vector<const SpanLog*> all = {&client_log, &budget_log};
  for (const auto& l : logs) all.push_back(l.get());
  dump_spans(all, ctx.work_dir + "/spans-" + w.name + "-" + std::to_string(ctx.seed) + ".jsonl");
  auto stats = summarize_spans(all);
  auto mean_cpu = [&](const char* name) {
    auto it = stats.find(name);
    return it == stats.end() || it->second.count == 0
               ? 0.0 : it->second.cpu_ns / static_cast<double>(it->second.count);
  };
  auto mean_wall = [&](const char* name) {
    auto it = stats.find(name);
    return it == stats.end() || it->second.count == 0
               ? 0.0 : it->second.wall_ns / static_cast<double>(it->second.count);
  };
  auto total_cpu = [&](const char* name) {
    auto it = stats.find(name);
    return it == stats.end() ? 0.0 : it->second.cpu_ns;
  };
  auto wall_q = [&](const char* name, double q) {
    auto it = stats.find(name);
    return it == stats.end() ? 0.0 : quantile(it->second.wall_samples, q);
  };
  const double subs = static_cast<double>(items.size());
  std::vector<double> upload_cpu;
  for (const Span& s : client_log.spans()) upload_cpu.push_back(static_cast<double>(s.c1 - s.c0));
  const double node_cpu = total_cpu("server.prepare_batch") + total_cpu("server.commit_or_rollback");
  const char* kStages[] = {"crypto.open", "share.expand", "share.parse",
                           "snip.local_check", "snip.sigma", "server.aggregate"};
  double layers_cpu = 0;
  char line[256];
  std::string table = "stage budget (" + w.name + ", CPU per submission, all 3 servers):\n";
  for (const char* st : kStages) {
    layers_cpu += total_cpu(st);
    std::snprintf(line, sizeof(line), "  %-18s %10.3f us\n", st, total_cpu(st) / subs / 1e3);
    table += line;
  }
  const double residue = node_cpu > 0 ? (node_cpu - layers_cpu) / node_cpu : 0;
  std::snprintf(line, sizeof(line),
                "  %-18s %10.3f us\n  %-18s %10.3f us (prepare_batch + commit_or_rollback)\n"
                "  %-18s %10.3f us (%.1f%% of node CPU)\n",
                "sum of stages", layers_cpu / subs / 1e3, "ServerNode CPU",
                node_cpu / subs / 1e3, "residue", (node_cpu - layers_cpu) / subs / 1e3,
                residue * 100);
  table += line;
  std::snprintf(line, sizeof(line), "  harness: %zu batches in %.2f s\n", n_batches, run_s);
  table += line;
  res.budget_table = table;

  u64 wait_rounds[4] = {}, batch_frames = 0, bytes = 0, wire_wait = 0;
  for (const auto& dt : dts) {
    for (size_t r = 0; r < 4; ++r) wait_rounds[r] += dt->round_wait_ns(r);
    wire_wait += dt->wire_wait_ns();
    batch_frames += dt->frames(false);
    bytes += dt->bytes_total();
  }
  const double node_batches = static_cast<double>(n_batches * kS);
  double wait_total = 0;
  for (u64 x : wait_rounds) wait_total += static_cast<double>(x);
  double fsyncs = 0;
  for (const auto& reg : regs) {
    if (!reg) continue;
    fsyncs += static_cast<double>(reg->hist_count("prio_wal_append_seconds") +
                                  reg->hist_count("prio_wal_fsync_seconds"));
  }
  auto& m = res.metrics;
  m.push_back({"client.upload_cpu_us", median(upload_cpu) / 1e3, "us"});
  m.push_back({"client.upload_bytes", honest ? upload_bytes / static_cast<double>(honest) : 0, "bytes"});
  m.push_back({"crypto.open_cpu_ns", mean_cpu("crypto.open"), "ns"});
  m.push_back({"crypto.open_fail_frac", opens ? static_cast<double>(open_fail) / static_cast<double>(opens) : 0, "ratio"});
  m.push_back({"share.expand_cpu_ns", mean_cpu("share.expand"), "ns"});
  m.push_back({"snip.local_check_cpu_ns", mean_cpu("snip.local_check"), "ns"});
  m.push_back({"snip.sigma_cpu_ns", mean_cpu("snip.sigma"), "ns"});
  m.push_back({"snip.reject_frac", live ? static_cast<double>(snip_rejects) / static_cast<double>(live) : 0, "ratio"});
  m.push_back({"server.prepare_cpu_ms", mean_cpu("server.prepare_batch") / 1e6, "ms"});
  m.push_back({"server.prepare_wall_ms", mean_wall("server.prepare_batch") / 1e6, "ms"});
  m.push_back({"server.rounds_cpu_ms", mean_cpu("server.commit_or_rollback") / 1e6, "ms"});
  m.push_back({"server.rounds_wall_ms", mean_wall("server.commit_or_rollback") / 1e6, "ms"});
  m.push_back({"server.publish_wall_ms", mean_wall("server.publish_epoch") / 1e6, "ms"});
  m.push_back({"server.aggregate_cpu_ns", mean_cpu("server.aggregate"), "ns"});
  m.push_back({"server.node_cpu_us_per_sub", node_cpu / subs / 1e3, "us"});
  m.push_back({"server.stages_cpu_us_per_sub", layers_cpu / subs / 1e3, "us"});
  m.push_back({"server.budget_residue_frac", residue, "ratio"});
  m.push_back({"net.recv_wait_ms_per_batch", wait_total / node_batches / 1e6, "ms"});
  m.push_back({"net.wire_wait_ms_per_batch",
               static_cast<double>(wire_wait) / node_batches / 1e6, "ms"});
  for (size_t r = 0; r < 4; ++r) {
    m.push_back({"net.r" + std::to_string(r + 1) + "_wait_ms",
                 static_cast<double>(wait_rounds[r]) / node_batches / 1e6, "ms"});
  }
  m.push_back({"net.frames_per_batch", static_cast<double>(batch_frames) / static_cast<double>(n_batches), "count"});
  m.push_back({"net.bytes_per_sub", static_cast<double>(bytes) / subs, "bytes"});
  m.push_back({"store.append_intake_us_p50", wall_q("store.append_intake", 0.5) / 1e3, "us"});
  m.push_back({"store.append_intake_us_p99", wall_q("store.append_intake", 0.99) / 1e3, "us"});
  m.push_back({"store.commit_batch_us", mean_wall("store.commit_batch") / 1e3, "us"});
  m.push_back({"store.rotate_ms", mean_wall("store.rotate") / 1e6, "ms"});
  m.push_back({"store.fsyncs_per_sub", fsyncs / subs, "count"});
  remove_tree(store_root);
  return res;
}

}  // namespace perfbench
