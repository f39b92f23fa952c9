// Thin RAII layer over POSIX non-blocking TCP sockets.
//
// Everything src/net needs from the OS, and nothing more: an owning fd
// wrapper, a loopback listener with ephemeral-port support, a non-blocking
// connect, and send/recv shims that normalize the errno zoo into a small
// IoResult (would-block / eof / error) so the gateway and client state
// machines never touch errno directly. All sockets are created
// non-blocking and with SIGPIPE suppressed (MSG_NOSIGNAL): a peer that
// vanishes mid-write surfaces as IoResult.error, never a process signal.
//
// Loopback-only by design: the gateway binds 127.0.0.1, matching the
// deployment story (the radio link terminates at a border router on the
// gateway host) and keeping the test/bench surface hermetic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace hbrp::net {

/// Owning file-descriptor wrapper (move-only).
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  ~Socket() { close(); }

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void close();

 private:
  int fd_ = -1;
};

/// Outcome of one non-blocking send/recv attempt. Exactly one of the
/// flags is set when n == 0; n > 0 always means plain progress.
struct IoResult {
  std::size_t n = 0;
  bool would_block = false;
  bool eof = false;    ///< recv only: orderly shutdown by the peer
  bool error = false;  ///< connection is dead; close it
};

IoResult send_some(int fd, std::span<const unsigned char> bytes);
IoResult recv_some(int fd, std::span<unsigned char> into);

/// Non-blocking loopback listener. Construct, then accept() from a poll
/// loop; port() reports the bound port (useful with port 0 = ephemeral).
class TcpListener {
 public:
  /// Binds and listens on 127.0.0.1:port. Throws hbrp::Error on failure.
  explicit TcpListener(std::uint16_t port, int backlog = 64);

  /// Accepts one pending connection (already non-blocking, TCP_NODELAY);
  /// an invalid Socket when none is pending.
  Socket accept();

  std::uint16_t port() const { return port_; }
  int fd() const { return listener_.fd(); }

 private:
  Socket listener_;
  std::uint16_t port_ = 0;
};

/// Starts a non-blocking connect to 127.0.0.1:port. The socket is usually
/// still connecting on return — poll for writability, then check
/// connect_finished(). Invalid Socket only on immediate local failure.
Socket connect_loopback(std::uint16_t port);

/// After writability: true if the connect succeeded, false if it failed
/// (the socket should be closed and retried with backoff).
bool connect_finished(int fd);

/// One readiness event out of EventPoller::wait().
struct PollEvent {
  int fd = -1;
  bool readable = false;
  bool writable = false;
  /// POLLERR/POLLNVAL/EPOLLERR, or POLLHUP/EPOLLHUP: the fd is dead or the
  /// peer is gone — a reactor should read (to drain the EOF) or close.
  bool broken = false;
};

/// Level-triggered readiness multiplexer: epoll(7) on Linux, a poll(2)
/// fallback elsewhere — and on Linux too when HBRP_NET_POLL=1 is set, so
/// both backends stay gated by the same tests on one host. The backend is
/// chosen once at construction.
///
/// Single-owner, like everything in a reactor: one thread constructs it,
/// watches fds, and waits. The O(watched) interest rebuild of the poll
/// fallback is the thing epoll removes at high session counts; the API is
/// the intersection of the two so a reactor never branches on backend.
class EventPoller {
 public:
  EventPoller();
  ~EventPoller();
  EventPoller(const EventPoller&) = delete;
  EventPoller& operator=(const EventPoller&) = delete;

  /// Declares (or updates) level-triggered interest in `fd`. With both
  /// flags false the fd is dropped from the set (same as unwatch()).
  void watch(int fd, bool read, bool write);
  void unwatch(int fd);

  /// Blocks up to `timeout_ms` (0 = poll and return, <0 = wait forever);
  /// clears and fills `out`; returns out.size(). Spurious empty returns
  /// are normal (timeout, EINTR).
  std::size_t wait(int timeout_ms, std::vector<PollEvent>& out);

  const char* backend() const { return epfd_ >= 0 ? "epoll" : "poll"; }

 private:
  struct Interest {
    bool read = false;
    bool write = false;
  };
  std::map<int, Interest> interest_;
  int epfd_ = -1;  ///< -1 = poll(2) fallback
};

/// Self-pipe wakeup for reactor threads: any thread may notify(), the
/// owning reactor watches fd() for readability and drains pending tokens
/// with consume(). Lossy by design (a byte per notify, drained in bulk).
class WakePipe {
 public:
  WakePipe();
  WakePipe(const WakePipe&) = delete;
  WakePipe& operator=(const WakePipe&) = delete;

  int fd() const { return read_end_.fd(); }
  /// Async-signal-safe, callable from any thread.
  void notify();
  /// Drains every pending wake token (reactor thread only).
  void consume();

 private:
  Socket read_end_;
  Socket write_end_;
};

}  // namespace hbrp::net
