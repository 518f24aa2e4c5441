#include "ftl/serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ftl/util/error.hpp"

namespace ftl::serve {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kReadChunk = 64 * 1024;
constexpr int kMaxIov = 64;

const char kTooLongBody[] =
    "{\"op\":\"?\",\"ok\":false,\"error\":\"bad_request\","
    "\"message\":\"request line too long\"}";

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

struct Server::Impl {
  /// One pipelined response in request order. The completing thread (a
  /// Service worker, or the loop thread itself on a cache hit) fills
  /// `response` and then publishes with `ready` (release); only the owning
  /// loop thread reads it back (acquire) and only after `ready` is set, so
  /// the string itself needs no lock.
  struct Slot {
    std::string response;
    std::atomic<bool> ready{false};
  };

  struct Loop;

  /// All non-atomic state is owned by the connection's event-loop shard:
  /// only that thread reads or writes it. Other threads interact with a
  /// connection exclusively through Slot publication + Loop::completed.
  struct Conn : std::enable_shared_from_this<Conn> {
    int fd = -1;
    Loop* loop = nullptr;
    std::string rbuf;                         ///< unparsed input tail
    std::deque<std::shared_ptr<Slot>> slots;  ///< responses, request order
    std::deque<std::string> outq;  ///< flushed responses not yet written
    std::size_t out_off = 0;       ///< bytes of outq.front() already sent
    bool write_blocked = false;    ///< send hit EAGAIN; wait for EPOLLOUT
    bool peer_closed = false;      ///< EOF/reset seen; read side is done
    bool closing = false;          ///< close once slots and outq drain
    bool dead = false;             ///< fd closed and deregistered
  };

  struct Loop {
    int epfd = -1;
    int wakefd = -1;
    std::thread thread;
    // Loop-thread-only connection registry.
    std::unordered_map<int, std::shared_ptr<Conn>> conns;
    // Cross-thread mailbox: accepted fds to adopt and connections whose
    // front-of-line slots may now be ready.
    std::mutex m;
    std::vector<int> incoming;
    std::vector<std::weak_ptr<Conn>> completed;
    std::atomic<bool> draining{false};
  };

  Service& service;
  ServerOptions opts;
  int listen_fd = -1;
  int bound_port = 0;
  std::thread accept_thread;
  std::deque<Loop> loops;  // stable addresses for callbacks
  std::atomic<bool> started{false};
  std::atomic<bool> stopping{false};
  std::atomic<bool> stopped{false};

  Impl(Service& svc, ServerOptions options) : service(svc), opts(options) {
    if (opts.event_loops == 0) opts.event_loops = 1;
    listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd < 0) {
      throw Error("socket(): " + std::string(std::strerror(errno)));
    }
    const int one = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(opts.port));
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
      const std::string err = std::strerror(errno);
      ::close(listen_fd);
      throw Error("bind(port " + std::to_string(opts.port) + "): " + err);
    }
    if (::listen(listen_fd, opts.backlog) < 0) {
      const std::string err = std::strerror(errno);
      ::close(listen_fd);
      throw Error("listen(): " + err);
    }
    socklen_t len = sizeof addr;
    ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
    bound_port = ntohs(addr.sin_port);

    for (std::size_t i = 0; i < opts.event_loops; ++i) {
      Loop& loop = loops.emplace_back();
      loop.epfd = ::epoll_create1(EPOLL_CLOEXEC);
      loop.wakefd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
      if (loop.epfd < 0 || loop.wakefd < 0) {
        const std::string err = std::strerror(errno);
        close_all_fds();
        throw Error("event loop setup: " + err);
      }
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = loop.wakefd;
      ::epoll_ctl(loop.epfd, EPOLL_CTL_ADD, loop.wakefd, &ev);
    }
  }

  ~Impl() { close_all_fds(); }

  void close_all_fds() {
    if (listen_fd >= 0) ::close(listen_fd);
    listen_fd = -1;
    for (Loop& loop : loops) {
      if (loop.epfd >= 0) ::close(loop.epfd);
      if (loop.wakefd >= 0) ::close(loop.wakefd);
      loop.epfd = loop.wakefd = -1;
    }
  }

  void wake(Loop& loop) {
    const std::uint64_t one = 1;
    // The eventfd is a wake edge, not a counter; a short/failed write when
    // the counter is saturated still leaves the loop wakeable.
    [[maybe_unused]] const ssize_t n =
        ::write(loop.wakefd, &one, sizeof one);
  }

  /// Called by whichever thread completed a slot. On the owning loop thread
  /// the caller flushes in its own batch epilogue; from anywhere else the
  /// connection goes into the shard's mailbox and the eventfd fires.
  void notify(Loop& loop, const std::weak_ptr<Conn>& wc) {
    if (current_loop() == &loop) return;
    {
      std::lock_guard<std::mutex> lock(loop.m);
      loop.completed.push_back(wc);
    }
    wake(loop);
  }

  static Loop*& current_loop() {
    thread_local Loop* current = nullptr;
    return current;
  }

  // -------------------------------------------------------------------------
  // Acceptor

  void accept_loop() {
    std::size_t next = 0;
    while (!stopping.load()) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        break;  // listening socket shut down (stop()) or fatal error
      }
      if (stopping.load()) {
        ::close(fd);
        break;
      }
      Loop& loop = loops[next++ % loops.size()];
      {
        std::lock_guard<std::mutex> lock(loop.m);
        loop.incoming.push_back(fd);
      }
      wake(loop);
    }
  }

  // -------------------------------------------------------------------------
  // Event loop shard

  void run_loop(Loop& loop) {
    current_loop() = &loop;
    std::vector<epoll_event> events(128);
    bool drain_started = false;
    Clock::time_point drain_t0{};
    for (;;) {
      const bool draining = loop.draining.load(std::memory_order_acquire);
      const int timeout_ms = draining ? 20 : -1;
      const int n = ::epoll_wait(loop.epfd, events.data(),
                                 static_cast<int>(events.size()), timeout_ms);
      if (n < 0 && errno != EINTR) break;
      for (int i = 0; i < std::max(n, 0); ++i) {
        const int fd = events[i].data.fd;
        if (fd == loop.wakefd) continue;  // mailbox handled below
        const auto it = loop.conns.find(fd);
        if (it == loop.conns.end()) continue;  // closed earlier in this batch
        std::shared_ptr<Conn> conn = it->second;
        const std::uint32_t ev = events[i].events;
        if (ev & EPOLLERR) {
          close_conn(loop, conn);
          continue;
        }
        if (ev & EPOLLOUT) conn->write_blocked = false;
        if (ev & (EPOLLIN | EPOLLRDHUP | EPOLLHUP)) on_readable(conn);
        if (!conn->dead) pump(loop, conn);
      }
      handle_mailbox(loop, draining);
      if (draining && !drain_started) {
        drain_started = true;
        drain_t0 = Clock::now();
        begin_drain(loop);
      }
      if (drain_started) {
        if (!loop.conns.empty() &&
            Clock::now() - drain_t0 >
                std::chrono::milliseconds(opts.drain_grace_ms)) {
          force_close_all(loop);  // client never read its responses
        }
        if (loop.conns.empty()) break;
      }
    }
    current_loop() = nullptr;
  }

  void handle_mailbox(Loop& loop, bool draining) {
    std::uint64_t buf = 0;
    while (::read(loop.wakefd, &buf, sizeof buf) > 0) {
    }
    std::vector<int> incoming;
    std::vector<std::weak_ptr<Conn>> completed;
    {
      std::lock_guard<std::mutex> lock(loop.m);
      incoming.swap(loop.incoming);
      completed.swap(loop.completed);
    }
    for (const int fd : incoming) {
      if (draining) {
        ::close(fd);
        continue;
      }
      adopt(loop, fd);
    }
    for (const std::weak_ptr<Conn>& wc : completed) {
      if (std::shared_ptr<Conn> conn = wc.lock(); conn && !conn->dead) {
        pump(loop, conn);
      }
    }
  }

  void adopt(Loop& loop, int fd) {
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    set_nonblocking(fd);
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    conn->loop = &loop;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET;
    ev.data.fd = fd;
    if (::epoll_ctl(loop.epfd, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      return;
    }
    loop.conns.emplace(fd, std::move(conn));
  }

  /// Edge-triggered read: drain the socket, framing and submitting every
  /// complete JSON line as it appears.
  void on_readable(const std::shared_ptr<Conn>& conn) {
    if (conn->peer_closed || conn->closing) return;
    char chunk[kReadChunk];
    for (;;) {
      const ssize_t n = ::recv(conn->fd, chunk, sizeof chunk, 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        conn->peer_closed = true;  // reset: deliver what we can, then close
        conn->closing = true;
        break;
      }
      if (n == 0) {  // clean EOF: finish the pipeline, then close
        conn->peer_closed = true;
        conn->closing = true;
        break;
      }
      conn->rbuf.append(chunk, static_cast<std::size_t>(n));
      process_lines(conn);
      if (conn->closing) break;
    }
  }

  void process_lines(const std::shared_ptr<Conn>& conn) {
    std::size_t start = 0;
    for (;;) {
      const std::size_t eol = conn->rbuf.find('\n', start);
      if (eol == std::string::npos) break;
      std::string line = conn->rbuf.substr(start, eol - start);
      start = eol + 1;
      if (line.size() > opts.max_line) {
        push_error(conn, kTooLongBody);
        break;
      }
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      submit(conn, std::move(line));
    }
    conn->rbuf.erase(0, start);
    if (!conn->closing && conn->rbuf.size() > opts.max_line) {
      push_error(conn, kTooLongBody);
    }
  }

  /// Appends a synchronous protocol error (in pipeline order) and marks the
  /// connection for close-after-flush.
  void push_error(const std::shared_ptr<Conn>& conn, const char* body) {
    auto slot = std::make_shared<Slot>();
    slot->response = body;
    slot->ready.store(true, std::memory_order_release);
    conn->slots.push_back(std::move(slot));
    conn->closing = true;
  }

  void submit(const std::shared_ptr<Conn>& conn, std::string line) {
    auto slot = std::make_shared<Slot>();
    conn->slots.push_back(slot);
    Loop* loop = conn->loop;
    std::weak_ptr<Conn> wc = conn->weak_from_this();
    service.submit_async(
        std::move(line),
        [this, loop, slot = std::move(slot),
         wc = std::move(wc)](std::string&& response) {
          slot->response = std::move(response);
          slot->ready.store(true, std::memory_order_release);
          notify(*loop, wc);
        });
  }

  /// Flush ready slots into the write queue, push bytes, maybe close.
  void pump(Loop& loop, const std::shared_ptr<Conn>& conn) {
    while (!conn->slots.empty() &&
           conn->slots.front()->ready.load(std::memory_order_acquire)) {
      std::string& response = conn->slots.front()->response;
      response += '\n';
      conn->outq.push_back(std::move(response));
      conn->slots.pop_front();
    }
    if (!try_write(loop, conn)) return;  // connection died mid-write
    if ((conn->closing || conn->peer_closed) && conn->slots.empty() &&
        conn->outq.empty()) {
      close_conn(loop, conn);
    }
  }

  /// Buffered writev-style flush: gathers queued responses into one
  /// sendmsg, tolerating partial writes, EINTR, and EAGAIN. EPIPE (or any
  /// other hard error) closes the connection: the peer is gone, so no
  /// response bytes can be dropped or duplicated by retrying. Returns
  /// false when the connection was closed.
  bool try_write(Loop& loop, const std::shared_ptr<Conn>& conn) {
    while (!conn->outq.empty() && !conn->write_blocked) {
      iovec iov[kMaxIov];
      int count = 0;
      std::size_t off = conn->out_off;
      for (auto it = conn->outq.begin();
           it != conn->outq.end() && count < kMaxIov; ++it) {
        iov[count].iov_base = const_cast<char*>(it->data()) + off;
        iov[count].iov_len = it->size() - off;
        off = 0;
        ++count;
      }
      msghdr mh{};
      mh.msg_iov = iov;
      mh.msg_iovlen = static_cast<std::size_t>(count);
      const ssize_t n = ::sendmsg(conn->fd, &mh, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          conn->write_blocked = true;  // EPOLLOUT edge resumes the flush
          return true;
        }
        close_conn(loop, conn);  // EPIPE/ECONNRESET: peer gone
        return false;
      }
      std::size_t left = static_cast<std::size_t>(n);
      while (left > 0) {
        const std::size_t avail = conn->outq.front().size() - conn->out_off;
        if (left >= avail) {
          left -= avail;
          conn->outq.pop_front();
          conn->out_off = 0;
        } else {
          conn->out_off += left;
          left = 0;
        }
      }
    }
    return true;
  }

  void close_conn(Loop& loop, const std::shared_ptr<Conn>& conn) {
    if (conn->dead) return;
    conn->dead = true;
    ::epoll_ctl(loop.epfd, EPOLL_CTL_DEL, conn->fd, nullptr);
    ::close(conn->fd);
    loop.conns.erase(conn->fd);
  }

  /// Graceful drain: half-close every read side so no new requests arrive,
  /// then let each connection's in-flight pipeline complete and flush.
  void begin_drain(Loop& loop) {
    std::vector<std::shared_ptr<Conn>> all;
    all.reserve(loop.conns.size());
    for (const auto& [fd, conn] : loop.conns) all.push_back(conn);
    for (const std::shared_ptr<Conn>& conn : all) {
      ::shutdown(conn->fd, SHUT_RD);
      conn->peer_closed = true;
      conn->closing = true;
      pump(loop, conn);  // may close idle connections immediately
    }
  }

  void force_close_all(Loop& loop) {
    std::vector<std::shared_ptr<Conn>> all;
    for (const auto& [fd, conn] : loop.conns) all.push_back(conn);
    for (const std::shared_ptr<Conn>& conn : all) close_conn(loop, conn);
  }
};

Server::Server(Service& service, ServerOptions options)
    : impl_(new Impl(service, options)) {}

Server::~Server() { stop(); }

int Server::port() const { return impl_->bound_port; }

void Server::start() {
  if (impl_->started.exchange(true)) return;
  for (Impl::Loop& loop : impl_->loops) {
    loop.thread = std::thread([this, &loop] { impl_->run_loop(loop); });
  }
  impl_->accept_thread = std::thread([this] { impl_->accept_loop(); });
}

void Server::stop() {
  Impl& impl = *impl_;
  if (impl.stopped.exchange(true)) return;
  impl.stopping.store(true);
  // Unblock accept(); the loop then observes `stopping` and exits.
  ::shutdown(impl.listen_fd, SHUT_RDWR);
  if (impl.accept_thread.joinable()) impl.accept_thread.join();
  for (Impl::Loop& loop : impl.loops) {
    loop.draining.store(true, std::memory_order_release);
    impl.wake(loop);
  }
  for (Impl::Loop& loop : impl.loops) {
    if (loop.thread.joinable()) loop.thread.join();
  }
  // Loop threads only exit once every pipelined in-flight request has been
  // answered and flushed (or the drain grace expired), so the Service drain
  // below finds at most queued work from other submitters.
  impl.service.drain();
}

bool Server::stop_requested() const {
  return impl_->stopping.load() || impl_->service.shutdown_requested();
}

void Server::wait(const std::atomic<bool>* interrupt) const {
  while (!stop_requested() && (interrupt == nullptr || !interrupt->load())) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

}  // namespace ftl::serve
