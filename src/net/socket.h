// Thin RAII wrappers over POSIX TCP sockets.
//
// Everything the server and client do on the wire funnels through
// ReadFull/WriteFull/Accept here, which is also where the `net` fault
// site lives: with LYRIC_FAULT=net:prob[:seed] armed, any of those calls
// can fail with a typed kUnavailable exactly as a flaky network would
// make it. No exceptions, no partial reads escape: ReadFull either fills
// the buffer or returns the error (with clean end-of-stream
// distinguished for frame-boundary closes).
//
// Deliberately synchronous: each connection gets a blocking reader thread
// that also evaluates its queries (see server.h), so there is no event
// loop to integrate with.

#ifndef LYRIC_NET_SOCKET_H_
#define LYRIC_NET_SOCKET_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/result.h"
#include "util/status.h"

namespace lyric {
namespace net {

/// A connected TCP socket. Move-only; the destructor closes.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  ~Socket() { Close(); }

  /// Connects to host:port (numeric or resolvable host). kUnavailable on
  /// failure — connecting is always retryable.
  static Result<Socket> Connect(const std::string& host, uint16_t port);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Reads exactly `len` bytes. On end-of-stream before the first byte,
  /// sets *clean_eof (when provided) and returns kUnavailable — a peer
  /// closing between frames is normal, mid-frame it is not. Transport
  /// errors and injected `net` faults return kUnavailable.
  Status ReadFull(void* buf, size_t len, bool* clean_eof = nullptr);

  /// Writes exactly `len` bytes (send with SIGPIPE suppressed).
  Status WriteFull(const void* buf, size_t len);

  /// Wakes any thread blocked in ReadFull/WriteFull on this socket; they
  /// return kUnavailable. Safe from another thread (unlike Close, which
  /// frees the fd). The shutdown-then-join-then-close dance is how the
  /// server stops its reader threads.
  void ShutdownBoth();

  void Close();

 private:
  int fd_ = -1;
};

/// A listening TCP socket.
class Listener {
 public:
  Listener() = default;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;
  ~Listener() { Close(); }

  /// Binds and listens on host:port; port 0 picks an ephemeral port,
  /// readable from port() afterwards.
  Status Bind(const std::string& host, uint16_t port);

  uint16_t port() const { return port_; }
  bool valid() const { return fd_ >= 0; }

  /// Blocks for one connection. kUnavailable after Shutdown (the accept
  /// loop's exit signal), on transient accept failures, and on injected
  /// `net` faults.
  Result<Socket> Accept();

  /// Wakes a thread blocked in Accept; it returns kUnavailable.
  void Shutdown();
  void Close();

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

}  // namespace net
}  // namespace lyric

#endif  // LYRIC_NET_SOCKET_H_
