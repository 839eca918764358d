// perfbench: the end-to-end benchmark of the three-server Prio runtime.
//
//   perfbench run --workload NAME --seed N --seconds S --trace 0|1
//                 --server-bin PATH --work-dir DIR [--force-accept-cheat]
//   perfbench relay --delay-us D --route LISTEN:TARGET [--route ...]
//
// `run --trace 0` prints every end-to-end metric of the untraced run;
// `run --trace 1` prints the per-layer metrics: an untraced and a traced
// (--trace-log, /metrics scrape) external run, plus the in-process traced
// harness. The last stdout line is the JSON result. See README.md.

#include <csignal>

#include "drive.h"
#include "server/cli.h"
#include "trace.h"

using namespace perfbench;

namespace {

// Hard stop well inside a run's 180 s budget: kill the children and exit
// non-zero without printing a result.
void on_alarm(int) {
  for (auto& c : g_children) {
    const pid_t p = c.load();
    if (p > 0) ::kill(p, SIGKILL);
  }
  static const char kMsg[] = "perfbench: watchdog expired\n";
  (void)!::write(2, kMsg, sizeof(kMsg) - 1);
  _exit(3);
}

struct Args {
  std::map<std::string, std::vector<std::string>> kv;
  bool has(const std::string& k) const { return kv.count(k) > 0; }
  std::string get(const std::string& k, const std::string& def = "") const {
    auto it = kv.find(k);
    return it == kv.end() || it->second.empty() ? def : it->second.back();
  }
};

Args parse_args(int argc, char** argv, int first) {
  Args a;
  for (int i = first; i < argc; ++i) {
    std::string k = argv[i];
    prio::require(k.rfind("--", 0) == 0, "arguments must look like --key value");
    k = k.substr(2);
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      a.kv[k].push_back(argv[++i]);
    } else {
      a.kv[k].push_back("1");
    }
  }
  return a;
}

void print_metrics(const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("%-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void print_run_notes(const char* label, const RunResult& r) {
  std::printf("[%s] epochs=%llu window=%.2fs lag_samples=%llu setups_under_100ms=%.2f "
              "effective_cores=%.2f steal_frac=%.4f%s\n",
              label, static_cast<unsigned long long>(r.epochs), r.window_s,
              static_cast<unsigned long long>(r.lag_samples), r.setup_fast_frac, r.effective_cores,
              r.steal_frac, r.steal_frac > 0.05 ? "  ** host starved (steal > 5%) **" : "");
  u64 honest = 0, cheats = 0;
  std::string mix;
  for (size_t k = 0; k < kNumKinds; ++k) {
    if (!r.sent[k]) continue;
    (k == 0 ? honest : cheats) += r.sent[k];
    mix += std::string(" ") + kind_name(static_cast<Kind>(k)) + "=" +
           std::to_string(r.sent[k]);
    if (r.nacked[k]) mix += "(nacked " + std::to_string(r.nacked[k]) + ")";
  }
  std::printf("[%s] offered:%s\n", label, mix.c_str());
  // ack_ms_p50 and publish_lag_ms_p90 are reported here, not as bounded
  // metrics: they swing with the host from run to run (README.md).
  std::printf("[%s] ack_ms_p50=%.4f publish_lag_ms_p90=%.4f; %s\n", label,
              r.ack_ms_p50, r.publish_lag_ms_p90, r.ack_detail.c_str());
  if (r.oracle_ambiguous) {
    std::printf("[%s] epochs with more than one matching lane split (resolved by "
                "the last epoch): %llu\n",
                label, static_cast<unsigned long long>(r.oracle_ambiguous));
  }
  if (r.replays_skipped) {
    std::printf("[%s] replays skipped (original not yet published): %llu\n",
                label, static_cast<unsigned long long>(r.replays_skipped));
  }
  if (r.late_ms_max > 0) {
    std::printf("[%s] generator lateness p99=%.3f ms max=%.3f ms\n", label,
                r.late_ms_p99, r.late_ms_max);
  }
  // Completeness: honest submissions accepted; soundness: cheats rejected.
  // A published epoch matches the reference only if both hold for it.
  const double failed_frac = r.attempted ? static_cast<double>(r.failed) / static_cast<double>(r.attempted) : 1.0;
  std::printf("[%s] completeness: %llu honest offered, soundness: %llu cheats "
              "offered; failed_frac=%.6f (%llu of %llu)\n",
              label, static_cast<unsigned long long>(honest),
              static_cast<unsigned long long>(cheats), failed_frac,
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  for (const auto& e : r.errors) std::printf("[%s] ERROR: %s\n", label, e.c_str());
}

std::vector<Metric> end_to_end(const RunResult& r) {
  return {
      {"verified_subs_per_s", r.verified_subs_per_s, "subs/s"},
      {"server_cpu_us_per_sub", r.server_cpu_us_per_sub, "us"},
      {"publish_lag_ms_p50", r.publish_lag_ms_p50, "ms"},
      {"client_upload_us", r.client_upload_us, "us"},
      {"upload_bytes_per_sub", r.upload_bytes_per_sub, "bytes"},
      {"mesh_bytes_per_sub", r.mesh_bytes_per_sub, "bytes"},
      {"server_rss_mb", r.server_rss_mb, "MB"},
      {"setup_s", r.setup_s, "s"},
  };
}

// Server-trio set-ups per untraced run; setup_s is their mean. On loopback
// a set-up takes ~5 ms or ~205 ms (see drive.h), so many are averaged;
// through the relay every hello trails its connection by the delay and
// set-up is always the slow kind.
int setups_for(const Workload& w) { return w.delay_us > 0 ? 10 : 40; }

template <typename Afe>
int run_workload(const Afe& afe, RunContext& ctx, bool trace) {
  bool correct = true;
  if (ctx.w.delay_us > 0) {
    // The relay must keep byte streams intact and add the configured delay.
    u16 port = 0;
    for (u64 k = 0; k < 64 && port == 0; ++k) {
      const u16 p = static_cast<u16>(31000 + mix64(ctx.seed + k + getpid()) % 1500);
      if (ports_free(p, 2)) port = p;
    }
    correct = port != 0 && relay_selftest(port, ctx.w.delay_us);
  }
  if (!trace) {
    ExternalRun<Afe> d(afe, ctx);
    RunResult r = d.run(ctx.seconds, setups_for(ctx.w), /*trace_log=*/false);
    print_run_notes("untraced", r);
    const auto ms = end_to_end(r);
    print_metrics(ms);
    std::fflush(stdout);
    if (r.attempted == 0) return 1;
    std::printf("%s\n", result_json(correct && r.correct, r.attempted, r.failed, ms).c_str());
    return 0;
  }
  // Traced mode: untraced and traced external runs alternate kPairs times,
  // then the harness. tracing.overhead_frac is the median over the pairs of
  // traced / untraced CPU per submission, so host drift between two runs
  // moves one pair rather than the figure.
  constexpr int kPairs = 3;
  const double slice = ctx.seconds / (2 * kPairs);
  std::vector<double> ratios;
  RunResult traced;
  u64 attempted = 0, failed = 0;
  for (int p = 0; p < kPairs; ++p) {
    RunResult plain = ExternalRun<Afe>(afe, ctx).run(slice, 1, false);
    print_run_notes("untraced", plain);
    traced = ExternalRun<Afe>(afe, ctx).run(slice, 1, true);
    print_run_notes("traced", traced);
    attempted += plain.attempted + traced.attempted;
    failed += plain.failed + traced.failed;
    correct = correct && plain.correct && traced.correct;
    if (plain.server_cpu_us_per_sub > 0) {
      ratios.push_back(traced.server_cpu_us_per_sub / plain.server_cpu_us_per_sub);
      std::printf("tracing pair %d: server CPU/sub traced %.3f us vs untraced %.3f us\n",
                  p + 1, traced.server_cpu_us_per_sub, plain.server_cpu_us_per_sub);
    }
  }
  HarnessResult h = run_harness(afe, ctx);
  std::printf("%s", h.budget_table.c_str());
  for (const auto& e : h.errors) std::printf("[harness] ERROR: %s\n", e.c_str());
  const Scrape& s = traced.scrape;
  const double batches = s.total("prio_batches_committed_total");
  const double verified = s.total("prio_verify_accepted_total") +
                          s.total("prio_verify_rejected_total");
  std::vector<Metric> ms = h.metrics;
  ms.push_back({"server.batch_fill",
                batches > 0 ? verified / batches / static_cast<double>(ctx.w.batch) : 0,
                "ratio"});
  ms.push_back({"server.stage_prepare_ms_p50", s.quantile("prio_stage_prepare_seconds", 0.5) * 1e3, "ms"});
  ms.push_back({"server.stage_rounds_ms_p50", s.quantile("prio_stage_rounds_seconds", 0.5) * 1e3, "ms"});
  ms.push_back({"server.stage_commit_ms_p50", s.quantile("prio_stage_commit_seconds", 0.5) * 1e3, "ms"});
  ms.push_back({"host.effective_cores", traced.effective_cores, "cores"});
  ms.push_back({"host.steal_frac", traced.steal_frac, "ratio"});
  const double overhead = ratios.empty() ? 0 : median(ratios) - 1;
  ms.push_back({"tracing.overhead_frac", overhead, "ratio"});
  std::printf("tracing overhead: median of %zu pairs %+.1f%%\n", ratios.size(),
              overhead * 100);
  print_metrics(ms);
  std::fflush(stdout);
  attempted += h.subs;
  if (attempted == 0) return 1;
  correct = correct && h.correct;
  std::printf("%s\n", result_json(correct, attempted, failed, ms).c_str());
  return 0;
}

int cmd_run(const Args& a) {
  const auto w = find_workload(a.get("workload"));
  if (!w) {
    std::fprintf(stderr, "unknown --workload '%s'\n", a.get("workload").c_str());
    return 2;
  }
  RunContext ctx;
  ctx.w = *w;
  ctx.seed = prio::server::Flags::parse_u64(a.get("seed", "1"));
  ctx.seconds = std::atof(a.get("seconds", "10").c_str());
  ctx.server_bin = a.get("server-bin");
  ctx.self_bin = a.get("self-bin");
  ctx.work_dir = a.get("work-dir");
  ctx.force_accept_cheat = a.has("force-accept-cheat");
  const bool trace = a.get("trace", "0") == "1";
  if (ctx.server_bin.empty() || ctx.work_dir.empty() || ctx.self_bin.empty() ||
      ::access(ctx.server_bin.c_str(), X_OK) != 0 || ctx.seconds <= 0) {
    std::fprintf(stderr, "run needs --server-bin, --self-bin, --work-dir, --seconds\n");
    return 2;
  }
  ::mkdir(ctx.work_dir.c_str(), 0755);
  std::signal(SIGALRM, on_alarm);
  std::signal(SIGPIPE, SIG_IGN);
  alarm(170);
  std::printf("%s\n", host_block().c_str());
  std::printf("workload %s: afe=%s shards=%zu delay=%lluus epoch=%zu batch=%zu "
              "%s%s seed=%llu seconds=%.1f trace=%d\n",
              w->name.c_str(), w->afe.c_str(), w->shards,
              static_cast<unsigned long long>(w->delay_us), w->epoch_size,
              w->batch, w->paced ? "paced" : "backlog",
              w->durable ? " durable(fsync=always)" : "",
              static_cast<unsigned long long>(ctx.seed), ctx.seconds, trace ? 1 : 0);
  const auto spec = prio::afe::parse_afe_spec(w->afe);
  auto num = [&](const char* key) {
    return static_cast<size_t>(prio::server::Flags::parse_u64(spec.params.at(key)));
  };
  if (spec.name == "bitvec_sum") {
    prio::afe::BitVectorSum<F> afe(num("len"));
    return run_workload(afe, ctx, trace);
  }
  if (spec.name == "countmin") {
    prio::afe::CountMinSketch<F> afe(num("d"), num("w"), num("seed"));
    return run_workload(afe, ctx, trace);
  }
  std::fprintf(stderr, "unsupported afe '%s'\n", w->afe.c_str());
  return 2;
}

int cmd_relay(const Args& a) {
  std::vector<RelayRoute> routes;
  auto it = a.kv.find("route");
  if (it != a.kv.end()) {
    for (const auto& r : it->second) {
      const size_t colon = r.find(':');
      prio::require(colon != std::string::npos, "--route needs LISTEN:TARGET");
      routes.push_back({prio::server::parse_port(r.substr(0, colon)),
                        prio::server::parse_port(r.substr(colon + 1))});
    }
  }
  Relay relay(prio::server::Flags::parse_u64(a.get("delay-us", "0")), routes);
  if (!relay.bind_all()) {
    std::fprintf(stderr, "relay: could not bind\n");
    return 1;
  }
  std::fprintf(stderr, "relay ready\n");
  relay.run();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench run|relay [--key value ...]\n");
    return 2;
  }
  try {
    const std::string cmd = argv[1];
    const Args a = parse_args(argc, argv, 2);
    if (cmd == "run") return cmd_run(a);
    if (cmd == "relay") return cmd_relay(a);
    std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: fatal: %s\n", e.what());
  }
  return 2;
}
