// WAN delay relay: a single-threaded epoll loop that accepts TCP
// connections on listen ports and forwards each to a target port on
// 127.0.0.1, holding every chunk of data for a fixed one-way delay in both
// directions. Data is stamped when it is read and written once due; there
// is no bandwidth cap, and both legs set TCP_NODELAY.
//
// The mesh needs no change to go through it: prio_server dials only the
// lower-id peers it finds in its --servers list, so server i is given a
// list whose entries j < i name relay ports that forward to server j.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>

#include <atomic>
#include <cerrno>
#include <deque>
#include <map>
#include <memory>
#include <random>

#include "util.h"

namespace perfbench {

struct RelayRoute {
  u16 listen_port = 0;
  u16 target_port = 0;
};

inline int tcp_listen(u16 port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in a{};
  a.sin_family = AF_INET;
  a.sin_port = htons(port);
  a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&a), sizeof(a)) != 0 ||
      ::listen(fd, 64) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// True if every port in [base, base + count) can be bound on loopback now.
inline bool ports_free(u16 base, int count) {
  for (int i = 0; i < count; ++i) {
    const int fd = tcp_listen(static_cast<u16>(base + i));
    if (fd < 0) return false;
    ::close(fd);
  }
  return true;
}

// Blocking connect to 127.0.0.1:port, retried for up to `timeout_ms` while
// the target is not listening yet. Returns the fd (non-blocking) or -1.
inline int tcp_connect_retry(u16 port, int timeout_ms) {
  const u64 deadline = wall_ns() + static_cast<u64>(timeout_ms) * 1'000'000ull;
  for (;;) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_in a{};
    a.sin_family = AF_INET;
    a.sin_port = htons(port);
    a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&a), sizeof(a)) == 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
      return fd;
    }
    ::close(fd);
    if (wall_ns() >= deadline) return -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

class Relay {
 public:
  Relay(u64 delay_us, std::vector<RelayRoute> routes)
      : delay_ns_(delay_us * 1000), routes_(std::move(routes)) {}

  // Binds every listen port; false if any is taken.
  bool bind_all() {
    ep_ = ::epoll_create1(0);
    if (ep_ < 0) return false;
    for (const RelayRoute& r : routes_) {
      const int fd = tcp_listen(r.listen_port);
      if (fd < 0) return false;
      listeners_[fd] = r.target_port;
      watch(fd, EPOLLIN);
    }
    return true;
  }

  // Forwards until `stop` is set (or forever when null).
  void run(const std::atomic<bool>* stop = nullptr) {
    epoll_event evs[64];
    while (!stop || !stop->load(std::memory_order_relaxed)) {
      // Sleep until the next chunk is due, or 50 ms to poll `stop`.
      u64 wait_ns = 50'000'000ull;
      const u64 now = wall_ns();
      for (const auto& [fd, d] : dirs_) {
        if (d.q.empty() || d.blocked) continue;
        const u64 due = d.q.front().due;
        wait_ns = std::min(wait_ns, due > now ? due - now : 0);
      }
      timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000ull),
                  static_cast<long>(wait_ns % 1'000'000'000ull)};
      const int n = ::epoll_pwait2(ep_, evs, 64, &ts, nullptr);
      if (n < 0 && errno != EINTR) break;
      for (int i = 0; i < n; ++i) {
        const int fd = evs[i].data.fd;
        if (listeners_.count(fd)) {
          accept_on(fd);
          continue;
        }
        if (evs[i].events & EPOLLOUT) {
          auto it = dirs_.find(peer_of(fd));
          if (it != dirs_.end()) it->second.blocked = false;
        }
        if (evs[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) read_from(fd);
      }
      flush_due();
      reap();
    }
  }

 private:
  struct Chunk {
    u64 due = 0;
    std::vector<u8> data;
    size_t off = 0;
  };
  // One direction, keyed by its SOURCE fd.
  struct Dir {
    int dst = -1;
    std::deque<Chunk> q;
    bool blocked = false;  // dst send buffer full; waiting for EPOLLOUT
    bool eof = false;      // src closed; shut dst down once drained
    bool dead = false;
  };

  void watch(int fd, u32 events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.fd = fd;
    ::epoll_ctl(ep_, EPOLL_CTL_ADD, fd, &ev);
  }

  int peer_of(int fd) const {
    auto it = dirs_.find(fd);
    return it == dirs_.end() ? -1 : it->second.dst;
  }

  void accept_on(int lfd) {
    for (;;) {
      const int c = ::accept4(lfd, nullptr, nullptr, SOCK_NONBLOCK);
      if (c < 0) return;
      const int one = 1;
      ::setsockopt(c, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      const int t = tcp_connect_retry(listeners_[lfd], 10'000);
      if (t < 0) {
        ::close(c);
        continue;
      }
      dirs_[c].dst = t;
      dirs_[t].dst = c;
      watch(c, EPOLLIN | EPOLLOUT | EPOLLET);
      watch(t, EPOLLIN | EPOLLOUT | EPOLLET);
    }
  }

  void read_from(int fd) {
    auto it = dirs_.find(fd);
    if (it == dirs_.end()) return;
    Dir& d = it->second;
    u8 buf[65536];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n > 0) {
        Chunk c;
        c.due = wall_ns() + delay_ns_;
        c.data.assign(buf, buf + n);
        d.q.push_back(std::move(c));
        continue;
      }
      if (n == 0) {
        d.eof = true;
      } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        kill_pair(fd);
      }
      return;
    }
  }

  void flush_due() {
    const u64 now = wall_ns();
    for (auto& [src, d] : dirs_) {
      if (d.dead) continue;
      while (!d.q.empty() && !d.blocked && d.q.front().due <= now) {
        Chunk& c = d.q.front();
        const ssize_t n = ::send(d.dst, c.data.data() + c.off,
                                 c.data.size() - c.off, MSG_NOSIGNAL);
        if (n < 0) {
          if (errno == EAGAIN || errno == EWOULDBLOCK) {
            d.blocked = true;
          } else {
            kill_pair(src);
          }
          break;
        }
        c.off += static_cast<size_t>(n);
        if (c.off == c.data.size()) d.q.pop_front();
      }
      if (d.eof && d.q.empty() && !d.dead) {
        ::shutdown(d.dst, SHUT_WR);
        auto back = dirs_.find(d.dst);
        if (back == dirs_.end() || back->second.eof) kill_pair(src);
      }
    }
  }

  void kill_pair(int fd) {
    auto it = dirs_.find(fd);
    if (it == dirs_.end()) return;
    it->second.dead = true;
    auto back = dirs_.find(it->second.dst);
    if (back != dirs_.end()) back->second.dead = true;
  }

  void reap() {
    for (auto it = dirs_.begin(); it != dirs_.end();) {
      if (it->second.dead) {
        ::close(it->first);
        it = dirs_.erase(it);
      } else {
        ++it;
      }
    }
  }

  u64 delay_ns_;
  std::vector<RelayRoute> routes_;
  int ep_ = -1;
  std::map<int, u16> listeners_;
  std::map<int, Dir> dirs_;
};

// Self-test: a byte stream pushed through a relay comes back unchanged, and
// a one-byte ping's round trip through it (delayed once each way) lies in
// [2 * delay, 2 * delay + tolerance]. Runs an echo server on `port` and a
// relay on `port + 1` in this process. Prints a verdict line; returns
// false on any failure.
inline bool relay_selftest(u16 port, u64 delay_us) {
  constexpr u64 kToleranceUs = 1500;
  const int lfd = tcp_listen(port);
  if (lfd < 0) return false;
  std::atomic<bool> stop{false};
  Relay relay(delay_us, {{static_cast<u16>(port + 1), port}});
  if (!relay.bind_all()) {
    ::close(lfd);
    return false;
  }
  std::thread relay_thread([&] { relay.run(&stop); });
  // Echo server: accepts one connection and writes back what it reads.
  std::thread echo([&] {
    ::fcntl(lfd, F_SETFL, ::fcntl(lfd, F_GETFL) & ~O_NONBLOCK);
    const int c = ::accept(lfd, nullptr, nullptr);
    if (c < 0) return;
    const int one = 1;
    ::setsockopt(c, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    u8 buf[65536];
    for (;;) {
      const ssize_t n = ::recv(c, buf, sizeof(buf), 0);
      if (n <= 0) break;
      for (ssize_t off = 0; off < n;) {
        const ssize_t w = ::send(c, buf + off, static_cast<size_t>(n - off),
                                 MSG_NOSIGNAL);
        if (w <= 0) break;
        off += w;
      }
    }
    ::close(c);
  });
  bool ok = true;
  const int fd = tcp_connect_retry(static_cast<u16>(port + 1), 2000);
  std::vector<double> rtt_us;
  if (fd < 0) {
    ok = false;
  } else {
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) & ~O_NONBLOCK);
    // Byte stream: 512 KiB in uneven writes, read back concurrently.
    std::mt19937_64 rng(delay_us + port);
    std::vector<u8> sent(512 * 1024);
    for (auto& b : sent) b = static_cast<u8>(rng());
    std::vector<u8> got;
    std::thread reader([&] {
      u8 buf[65536];
      while (got.size() < sent.size()) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0) break;
        got.insert(got.end(), buf, buf + n);
      }
    });
    for (size_t off = 0; off < sent.size();) {
      const size_t len = std::min<size_t>(1 + rng() % 9000, sent.size() - off);
      const ssize_t w = ::send(fd, sent.data() + off, len, MSG_NOSIGNAL);
      if (w <= 0) break;
      off += static_cast<size_t>(w);
    }
    reader.join();
    ok = got == sent;
    // Latency: one-byte pings, one at a time.
    for (int i = 0; i < 21 && ok; ++i) {
      u8 b = static_cast<u8>(i);
      const u64 t0 = wall_ns();
      if (::send(fd, &b, 1, MSG_NOSIGNAL) != 1 || ::recv(fd, &b, 1, 0) != 1) {
        ok = false;
        break;
      }
      rtt_us.push_back(static_cast<double>(wall_ns() - t0) / 1e3);
    }
    ::close(fd);
  }
  echo.join();
  stop.store(true);
  relay_thread.join();
  ::close(lfd);
  const double lo = static_cast<double>(2 * delay_us);
  const double hi = lo + static_cast<double>(kToleranceUs);
  const double med = median(rtt_us);
  const double mn = rtt_us.empty() ? 0 : *std::min_element(rtt_us.begin(), rtt_us.end());
  ok = ok && !rtt_us.empty() && mn >= lo && med <= hi;
  std::fprintf(stderr,
               "relay self-test: stream %s, ping rtt min %.0f us median %.0f "
               "us (expected [%.0f, %.0f] us): %s\n",
               fd < 0 ? "unreachable" : "checked", mn, med, lo, hi,
               ok ? "ok" : "FAILED");
  return ok;
}

}  // namespace perfbench
