// Shared helpers for the benchmark: clocks, /proc readers, order
// statistics, a flat JSON writer, child-process control and in-memory
// spans.
#pragma once

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/common.h"

namespace perfbench {

using prio::u16;
using prio::u32;
using prio::u64;
using prio::u8;

// ---- clocks ---------------------------------------------------------------

inline u64 wall_ns() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<u64>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<u64>(ts.tv_nsec);
}

inline u64 thread_cpu_ns() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<u64>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<u64>(ts.tv_nsec);
}

inline void sleep_until_ns(u64 t) {
  for (;;) {
    const u64 now = wall_ns();
    if (now >= t) return;
    const u64 left = t - now;
    timespec ts{static_cast<time_t>(left / 1'000'000'000ull),
                static_cast<long>(left % 1'000'000'000ull)};
    nanosleep(&ts, nullptr);
  }
}

// ---- order statistics -----------------------------------------------------

// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

inline double mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

// ---- /proc ----------------------------------------------------------------

inline std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// utime + stime of a live process, in seconds.
inline double proc_cpu_s(pid_t pid) {
  const std::string s = read_file("/proc/" + std::to_string(pid) + "/stat");
  // Fields after the parenthesised comm: state is field 3, utime 14,
  // stime 15 (1-based).
  const size_t rp = s.rfind(')');
  if (rp == std::string::npos) return 0.0;
  std::istringstream in(s.substr(rp + 2));
  std::string tok;
  double utime = 0, stime = 0;
  for (int field = 3; field <= 15 && (in >> tok); ++field) {
    if (field == 14) utime = std::atof(tok.c_str());
    if (field == 15) stime = std::atof(tok.c_str());
  }
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

// Aggregate "cpu" line of /proc/stat: total jiffies and steal jiffies.
struct CpuTimes {
  double total = 0;
  double steal = 0;
};

inline CpuTimes host_cpu_times() {
  std::istringstream in(read_file("/proc/stat"));
  std::string tag;
  in >> tag;
  CpuTimes t;
  double v = 0;
  for (int i = 0; i < 10 && (in >> v); ++i) {
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already counted in user, so it is not added again.
    if (i < 8) t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

inline double steal_frac(const CpuTimes& a, const CpuTimes& b) {
  const double total = b.total - a.total;
  return total > 0 ? (b.steal - a.steal) / total : 0.0;
}

// ---- host block -----------------------------------------------------------

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_FLAGS
#define PERFBENCH_BUILD_FLAGS "unknown"
#endif

inline std::string host_block() {
  const std::string cpuinfo = read_file("/proc/cpuinfo");
  auto field = [&](const char* key) {
    const size_t p = cpuinfo.find(key);
    if (p == std::string::npos) return std::string("unknown");
    const size_t colon = cpuinfo.find(':', p);
    const size_t eol = cpuinfo.find('\n', p);
    return cpuinfo.substr(colon + 2, eol - colon - 2);
  };
  const std::string flags = " " + field("flags") + " ";
  std::string isa;
  for (const char* f : {"sse4_2", "avx", "avx2", "avx512f", "avx512ifma",
                        "vaes", "vpclmulqdq", "aes", "sha_ni", "bmi2"}) {
    if (flags.find(std::string(" ") + f + " ") != std::string::npos) {
      isa += isa.empty() ? "" : ",";
      isa += f;
    }
  }
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "host: nproc=%ld cpu=\"%s\" isa=%s compiler=\"%s\" "
                "build_flags=\"%s\"",
                sysconf(_SC_NPROCESSORS_ONLN), field("model name").c_str(),
                isa.empty() ? "none" : isa.c_str(), PERFBENCH_COMPILER,
                PERFBENCH_BUILD_FLAGS);
  return buf;
}

// ---- metrics output -------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// The result line: {"correct": .., "attempted": .., "failed": ..,
// "metrics": {name: {"value": v, "unit": u}}}.
inline std::string result_json(bool correct, u64 attempted, u64 failed,
                               const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char num[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(num, sizeof(num), "%.17g", v);
    out += i ? ", " : "";
    out += "\"" + metrics[i].name + "\": {\"value\": " + num +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

// ---- child processes ------------------------------------------------------

// fork + exec with stdout/stderr sent to `log_path`; returns the pid.
inline pid_t spawn(const std::vector<std::string>& argv,
                   const std::string& log_path) {
  std::vector<char*> args;
  for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const pid_t pid = fork();
  prio::require(pid >= 0, "fork failed");
  if (pid == 0) {
    const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      dup2(fd, 1);
      dup2(fd, 2);
      close(fd);
    }
    execv(args[0], args.data());
    _exit(127);
  }
  return pid;
}

// Kills (if still running) and reaps a child; returns its peak RSS in KiB.
inline long kill_and_reap(pid_t pid, int sig = SIGKILL) {
  if (pid <= 0) return 0;
  ::kill(pid, sig);
  int status = 0;
  rusage ru{};
  while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  return ru.ru_maxrss;
}

inline bool file_contains(const std::string& path, const std::string& needle) {
  return read_file(path).find(needle) != std::string::npos;
}

inline void remove_tree(const std::string& path) {
  // Paths are generated by the benchmark itself (no user input).
  const std::string cmd = "rm -rf '" + path + "'";
  if (std::system(cmd.c_str()) != 0) {
    std::fprintf(stderr, "warning: could not remove %s\n", path.c_str());
  }
}

// ---- spans ------------------------------------------------------------------

// One timed call at a layer boundary. Spans live in per-thread logs and are
// merged when the traced run ends; `parent` indexes the same thread's log.
struct Span {
  const char* name = "";
  int parent = -1;
  int thread = 0;
  u64 t0 = 0, t1 = 0;  // monotonic wall ns
  u64 c0 = 0, c1 = 0;  // thread CPU ns
};

class SpanLog {
 public:
  explicit SpanLog(int thread) : thread_(thread) { spans_.reserve(1 << 16); }

  void open(const char* name) {
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.thread = thread_;
    s.c0 = thread_cpu_ns();
    s.t0 = wall_ns();
    spans_.push_back(s);
    stack_.push_back(static_cast<int>(spans_.size() - 1));
  }

  void close() {
    Span& s = spans_[static_cast<size_t>(stack_.back())];
    s.t1 = wall_ns();
    s.c1 = thread_cpu_ns();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  int thread_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name) : log_(log) {
    if (log_) log_->open(name);
  }
  ~ScopedSpan() {
    if (log_) log_->close();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
};

// Per-name totals over a set of span logs.
struct SpanStats {
  u64 count = 0;
  double wall_ns = 0, cpu_ns = 0;
  std::vector<double> wall_samples;
};

inline std::map<std::string, SpanStats> summarize_spans(
    const std::vector<const SpanLog*>& logs) {
  std::map<std::string, SpanStats> out;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      SpanStats& st = out[s.name];
      ++st.count;
      st.wall_ns += static_cast<double>(s.t1 - s.t0);
      st.cpu_ns += static_cast<double>(s.c1 - s.c0);
      st.wall_samples.push_back(static_cast<double>(s.t1 - s.t0));
    }
  }
  return out;
}

// Writes every span as one JSON line (name, thread, parent, wall/cpu and
// self times in ns). A span's self time is its duration minus the
// durations of its direct children.
inline void dump_spans(const std::vector<const SpanLog*>& logs,
                       const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return;
  for (const SpanLog* log : logs) {
    const auto& spans = log->spans();
    std::vector<u64> child_wall(spans.size(), 0), child_cpu(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent < 0) continue;
      child_wall[static_cast<size_t>(s.parent)] += s.t1 - s.t0;
      child_cpu[static_cast<size_t>(s.parent)] += s.c1 - s.c0;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "{\"name\": \"%s\", \"thread\": %d, \"id\": %zu, "
                   "\"parent\": %d, \"t0_ns\": %llu, \"wall_ns\": %llu, "
                   "\"cpu_ns\": %llu, \"self_wall_ns\": %lld, "
                   "\"self_cpu_ns\": %lld}\n",
                   s.name, s.thread, i, s.parent,
                   static_cast<unsigned long long>(s.t0),
                   static_cast<unsigned long long>(s.t1 - s.t0),
                   static_cast<unsigned long long>(s.c1 - s.c0),
                   static_cast<long long>(s.t1 - s.t0 - child_wall[i]),
                   static_cast<long long>(s.c1 - s.c0 - child_cpu[i]));
    }
  }
  std::fclose(f);
}

}  // namespace perfbench
