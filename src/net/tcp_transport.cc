#include "net/tcp_transport.h"

#include "net/channel.h"
#include "store/fault.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <thread>

namespace prio::net {

namespace {

using Clock = std::chrono::steady_clock;

int ms_left(Clock::time_point deadline) {
  auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                  deadline - Clock::now())
                  .count();
  return left > 0 ? static_cast<int>(left) : 0;
}

[[noreturn]] void fail(const std::string& what) {
  throw TransportError(what + " (errno=" + std::to_string(errno) + ")");
}

sockaddr_in make_addr(const std::string& host, u16 port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw TransportError("bad IPv4 address: " + host);
  }
  return addr;
}

}  // namespace

void Socket::close_fd() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

TcpListener::TcpListener(u16 port, const std::string& bind_host) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) fail("socket()");
  sock_ = Socket(fd);
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = make_addr(bind_host, port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    fail("bind(" + bind_host + ":" + std::to_string(port) + ")");
  }
  if (::listen(fd, 64) != 0) fail("listen()");
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    fail("getsockname()");
  }
  port_ = ntohs(bound.sin_port);
}

std::optional<Socket> TcpListener::accept_conn(int timeout_ms) {
  pollfd pfd{sock_.fd(), POLLIN, 0};
  int rc = ::poll(&pfd, 1, timeout_ms);
  if (rc < 0) {
    if (errno == EINTR) return std::nullopt;  // caller loops; treat as timeout
    fail("poll(listener)");
  }
  if (rc == 0) return std::nullopt;
  int fd = ::accept(sock_.fd(), nullptr, nullptr);
  if (fd < 0) {
    if (errno == EINTR || errno == ECONNABORTED) return std::nullopt;
    fail("accept()");
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Socket(fd);
}

Socket connect_tcp(const std::string& host, u16 port, int total_timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(total_timeout_ms);
  sockaddr_in addr = make_addr(host, port);
  for (;;) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) fail("socket()");
    Socket sock(fd);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return sock;
    }
    // Peer not up yet (or listen backlog full): retry until the deadline.
    if (ms_left(deadline) == 0) {
      throw TransportError("connect to " + host + ":" + std::to_string(port) +
                           " timed out");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

void FramedConn::shutdown_rw() {
  if (sock_.valid()) ::shutdown(sock_.fd(), SHUT_RDWR);
}

void FramedConn::send_frame(std::span<const u8> payload) {
  std::vector<u8> frame = encode_frame(payload);
  size_t off = 0;
  while (off < frame.size()) {
    ssize_t n = ::send(sock_.fd(), frame.data() + off, frame.size() - off,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("send()");
    }
    off += static_cast<size_t>(n);
  }
}

std::optional<std::vector<u8>> FramedConn::try_recv_frame(int timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    if (auto frame = decoder_.next()) return frame;
    if (decoder_.corrupt()) {
      throw TransportError("corrupt frame (length prefix over limit)");
    }
    pollfd pfd{sock_.fd(), POLLIN, 0};
    int rc = ::poll(&pfd, 1, ms_left(deadline));
    if (rc < 0) {
      if (errno == EINTR) continue;
      fail("poll()");
    }
    if (rc == 0) return std::nullopt;  // timeout
    u8 buf[16384];
    ssize_t n = ::recv(sock_.fd(), buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      fail("recv()");
    }
    if (n == 0) {  // peer closed
      eof_ = true;
      return std::nullopt;
    }
    decoder_.feed(std::span<const u8>(buf, static_cast<size_t>(n)));
  }
}

std::vector<u8> FramedConn::recv_frame(int timeout_ms) {
  auto frame = try_recv_frame(timeout_ms);
  if (!frame) throw TransportError("recv_frame: timeout or peer closed");
  return std::move(*frame);
}

namespace {

// The hello is sealed under a per-(dialer, acceptor) channel derived from
// the mesh secret, so only a holder of the secret can claim a peer slot.
SecureChannel hello_channel(std::span<const u8> secret, size_t dialer,
                            size_t acceptor) {
  std::string from = "hello/s";
  from += std::to_string(dialer);
  std::string to = "s";
  to += std::to_string(acceptor);
  return SecureChannel(secret, from, to);
}

}  // namespace

TcpMeshTransport::TcpMeshTransport(size_t self,
                                   const std::vector<PeerAddr>& addrs,
                                   TcpListener* listener,
                                   std::span<const u8> mesh_secret,
                                   int setup_timeout_ms, int recv_timeout_ms,
                                   size_t lanes)
    : n_(addrs.size()), self_(self), lanes_(lanes), addrs_(addrs),
      listener_(listener), secret_(mesh_secret.begin(), mesh_secret.end()),
      setup_timeout_ms_(setup_timeout_ms), recv_timeout_ms_(recv_timeout_ms),
      links_(addrs.size()) {
  require(self < n_, "TcpMeshTransport: bad self id");
  require(listener != nullptr, "TcpMeshTransport: need a listener");
  require(lanes >= 1 && lanes <= 255, "TcpMeshTransport: 1..255 lanes");
  for (auto& link : links_) {
    link = std::make_unique<PeerLink>();
    link->lane_q.resize(lanes_);
  }
  establish(setup_timeout_ms_);
}

void TcpMeshTransport::interrupt() {
  mesh_down_.store(true, std::memory_order_release);
  for (size_t j = 0; j < n_; ++j) {
    if (j == self_) continue;
    PeerLink& link = *links_[j];
    std::lock_guard<std::mutex> lock(link.mu);
    if (link.conn) link.conn->shutdown_rw();
    link.down = true;
    if (link.down_reason.empty()) link.down_reason = "interrupted";
    link.cv.notify_all();
  }
}

void TcpMeshTransport::reestablish() {
  // Dropping the links first doubles as the abort broadcast: a peer still
  // blocked in recv on one of them fails immediately and starts its own
  // reestablish, so the mesh converges on the rendezvous below without
  // waiting out any protocol timeout. (With multiple lanes the caller has
  // already interrupted and parked every lane thread, so no reader holds
  // a connection while it is destroyed here.)
  for (size_t j = 0; j < n_; ++j) {
    if (j == self_) continue;
    PeerLink& link = *links_[j];
    std::lock_guard<std::mutex> lock(link.mu);
    link.conn.reset();
    for (auto& q : link.lane_q) q.clear();  // stale pre-failure frames
    link.down = false;
    link.down_reason.clear();
    link.reader_active = false;
  }
  try {
    establish(reestablish_timeout_ms_ > 0 ? reestablish_timeout_ms_
                                          : setup_timeout_ms_);
  } catch (...) {
    mesh_down_.store(true, std::memory_order_release);
    throw;
  }
  mesh_down_.store(false, std::memory_order_release);
}

void TcpMeshTransport::establish(int timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);

  // Dial every lower-id peer, introducing ourselves with a sealed hello.
  for (size_t j = 0; j < self_; ++j) {
    auto conn = std::make_unique<FramedConn>(
        connect_tcp(addrs_[j].host, addrs_[j].port, ms_left(deadline)));
    Writer hello;
    hello.u32_(static_cast<u32>(self_));
    conn->send_frame(hello_channel(secret_, self_, j).seal(hello.data()));
    links_[j]->conn = std::move(conn);
  }

  // Accept every higher-id peer; the hello says (and proves) who dialed.
  // Accepted connections wait in a pending set with their own generous
  // deadline: a stray connection (scanner, misdirected client) cannot
  // stall setup, and a peer whose hello is a few seconds behind its
  // connect is not dropped. One poll covers the listener and every
  // pending connection, so a hello that trails its accept is read the
  // moment it lands instead of after the listener's wait runs out.
  struct PendingConn {
    std::unique_ptr<FramedConn> conn;
    Clock::time_point give_up;
  };
  std::vector<PendingConn> waiting;
  std::vector<pollfd> fds;
  size_t pending = n_ - 1 - self_;
  while (pending > 0) {
    if (ms_left(deadline) == 0) throw TransportError("mesh setup timed out");
    fds.assign(1, pollfd{listener_->fd(), POLLIN, 0});
    for (const auto& w : waiting) fds.push_back({w.conn->fd(), POLLIN, 0});
    if (::poll(fds.data(), fds.size(), std::min(200, ms_left(deadline))) < 0 &&
        errno != EINTR) {
      fail("poll(mesh setup)");
    }
    if (fds[0].revents != 0) {
      if (auto sock = listener_->accept_conn(0)) {
        waiting.push_back({std::make_unique<FramedConn>(std::move(*sock)),
                           Clock::now() + std::chrono::seconds(10)});
      }
    }
    for (auto it = waiting.begin(); it != waiting.end();) {
      std::optional<std::vector<u8>> hello;
      bool drop = false;
      try {
        hello = it->conn->try_recv_frame(0);
      } catch (const TransportError&) {
        drop = true;  // garbage framing from a non-peer
      }
      if (hello) {
        // Find the unclaimed higher-id peer whose hello key opens it; an
        // unauthenticated dialer matches nothing and drops.
        for (size_t peer = self_ + 1; peer < n_; ++peer) {
          if (links_[peer]->conn != nullptr) continue;
          auto pt = hello_channel(secret_, peer, self_).open(*hello);
          if (!pt) continue;
          Reader r(*pt);
          u32 claimed = r.u32_();
          if (!r.ok() || !r.at_end() || claimed != peer) continue;
          links_[peer]->conn = std::move(it->conn);
          --pending;
          break;
        }
        drop = true;  // claimed (conn moved out) or unauthenticated
      } else if (!drop) {
        drop = it->conn->eof() || Clock::now() >= it->give_up;
      }
      if (drop) {
        it = waiting.erase(it);
      } else {
        ++it;
      }
    }
  }
}

void TcpMeshTransport::send(size_t to, std::vector<u8> frame, u64 logical) {
  send_lane(0, to, std::move(frame), logical);
}

std::vector<u8> TcpMeshTransport::recv(size_t from) {
  return recv_lane(0, from);
}

void TcpMeshTransport::send_lane(size_t lane, size_t to, std::vector<u8> frame,
                                 u64 logical) {
  require(to < n_ && to != self_ && lane < lanes_,
          "TcpMeshTransport::send_lane: bad peer or lane");
  (void)logical;  // wire accounting only distinguishes physical frames here
  if (mesh_down_.load(std::memory_order_acquire)) {
    throw TransportError("mesh is down (awaiting reestablish)");
  }
  frame.insert(frame.begin(), static_cast<u8>(lane));
  bytes_sent_.fetch_add(frame.size(), std::memory_order_relaxed);
  messages_sent_.fetch_add(1, std::memory_order_relaxed);
  if (!lane_metrics_.empty()) {
    lane_metrics_[lane].frames->inc();
    lane_metrics_[lane].bytes->inc(frame.size());
  }
  PeerLink& link = *links_[to];
  // Injected mesh faults (store/fault.h): a slow peer stalls the frame, a
  // partition loses it and downs the link exactly like a failed socket
  // write -- the interrupt/reestablish repair protocol takes over. The
  // establish() hello handshake bypasses send_lane and is never faulted.
  if (auto fault = store::fault_tick(store::FaultOp::kMeshSend)) {
    if (fault->kind == store::FaultKind::kDelay) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(fault->arg ? fault->arg : 10));
    } else {
      std::lock_guard<std::mutex> lock(link.mu);
      link.down = true;
      if (link.down_reason.empty()) link.down_reason = "injected partition";
      link.cv.notify_all();
      throw TransportError("injected partition to s" + std::to_string(to));
    }
  }
  // One frame hits the socket at a time; the link mutex is only taken
  // briefly to check liveness so a blocked reader never delays a sender.
  std::lock_guard<std::mutex> send_lock(link.send_mu);
  {
    std::lock_guard<std::mutex> lock(link.mu);
    if (link.down || link.conn == nullptr) {
      throw TransportError("link to s" + std::to_string(to) + " is down" +
                           (link.down_reason.empty()
                                ? std::string()
                                : " (" + link.down_reason + ")"));
    }
  }
  try {
    link.conn->send_frame(frame);
  } catch (const TransportError& e) {
    std::lock_guard<std::mutex> lock(link.mu);
    link.down = true;
    if (link.down_reason.empty()) link.down_reason = e.what();
    link.cv.notify_all();
    throw;
  }
}

std::vector<u8> TcpMeshTransport::recv_lane(size_t lane, size_t from) {
  require(from < n_ && from != self_ && lane < lanes_,
          "TcpMeshTransport::recv_lane: bad peer or lane");
  // Entry-to-exit wall time: exactly how long this lane thread sat blocked
  // waiting for the peer (records timeout/link-down exits too).
  obs::ScopedTimer recv_timer(
      lane_metrics_.empty() ? nullptr : lane_metrics_[lane].recv_wait);
  PeerLink& link = *links_[from];
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(recv_timeout_ms_);
  std::unique_lock<std::mutex> lock(link.mu);
  for (;;) {
    auto& q = link.lane_q[lane];
    if (!q.empty()) {
      std::vector<u8> frame = std::move(q.front());
      q.pop_front();
      return frame;
    }
    if (link.down || mesh_down_.load(std::memory_order_acquire)) {
      throw TransportError("link to s" + std::to_string(from) + " is down" +
                           (link.down_reason.empty()
                                ? std::string()
                                : " (" + link.down_reason + ")"));
    }
    if (Clock::now() >= deadline) {
      throw TransportError("recv from s" + std::to_string(from) +
                           " lane " + std::to_string(lane) + ": timeout");
    }
    if (!link.reader_active) {
      // Become the reader: pull the next frame off the socket (in <= 200ms
      // slices so interrupt/down flags are honored promptly) and sort it
      // into its lane queue -- possibly another lane's.
      link.reader_active = true;
      FramedConn* conn = link.conn.get();
      lock.unlock();
      std::optional<std::vector<u8>> f;
      std::string err;
      if (conn == nullptr) {
        err = "no connection";
      } else {
        try {
          int slice = std::min(200, ms_left(deadline));
          f = conn->try_recv_frame(slice);
          if (!f && conn->eof()) err = "peer closed connection";
        } catch (const TransportError& e) {
          err = e.what();
        }
      }
      lock.lock();
      link.reader_active = false;
      if (!err.empty()) {
        link.down = true;
        if (link.down_reason.empty()) link.down_reason = err;
        link.cv.notify_all();
        continue;  // top of loop throws link-down
      }
      if (f) {
        if (f->empty() || (*f)[0] >= lanes_) {
          link.down = true;
          if (link.down_reason.empty()) link.down_reason = "bad lane byte";
          link.cv.notify_all();
          continue;
        }
        size_t got = (*f)[0];
        link.lane_q[got].emplace_back(f->begin() + 1, f->end());
        link.cv.notify_all();
      }
      // Timed-out slice: loop re-checks deadline and down flags.
    } else {
      // Another lane thread is reading the socket; wait for it to either
      // deliver our frame or give up the readership.
      link.cv.wait_for(lock, std::chrono::milliseconds(200));
    }
  }
}

void TcpMeshTransport::end_round(u64 submissions) {
  (void)submissions;
  rounds_.fetch_add(1, std::memory_order_relaxed);
}

void TcpMeshTransport::attach_metrics(obs::Registry* registry) {
  lane_metrics_.resize(lanes_);
  for (size_t l = 0; l < lanes_; ++l) {
    const std::string label = obs::label_kv("lane", l);
    lane_metrics_[l].frames = registry->counter(
        "prio_mesh_frames_sent_total", "Mesh frames sent, per lane", label);
    lane_metrics_[l].bytes = registry->counter(
        "prio_mesh_bytes_sent_total",
        "Mesh bytes sent (incl. lane prefix), per lane", label);
    lane_metrics_[l].recv_wait = registry->histogram(
        "prio_mesh_recv_wait_seconds",
        "Wall time a lane thread spent blocked in mesh recv", label);
  }
}

}  // namespace prio::net
