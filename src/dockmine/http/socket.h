// Thin RAII layer over POSIX TCP sockets (loopback-oriented).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "dockmine/util/error.h"

namespace dockmine::http {

/// Classify a socket-layer errno into the retry taxonomy (exposed so the
/// serve accept-loop tests can pin the mapping without provoking real
/// descriptor exhaustion):
///   * deadline errors (EAGAIN/EWOULDBLOCK/ETIMEDOUT)        -> kTimeout
///   * torn connections (ECONNRESET/EPIPE/ECONNABORTED/...)  -> kReset
///   * resource exhaustion (EMFILE/ENFILE/ENOBUFS/ENOMEM)    -> kUnavailable
///   * everything else                                       -> kInternal
/// The first three are retryable: an accept loop that sees EMFILE must back
/// off and try again once connections drain, not abort the accept thread.
util::Error classify_errno(int err, const char* what);

/// Connected stream socket. Move-only.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(Socket&& other) noexcept
      : fd_(other.fd_), read_buffer_(std::move(other.read_buffer_)) {
    other.fd_ = -1;
  }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const noexcept { return fd_ >= 0; }
  int fd() const noexcept { return fd_; }

  /// Deadline for each subsequent recv (SO_RCVTIMEO) and, unless `send` is
  /// false, send (SO_SNDTIMEO) on this socket. 0 disables. An elapsed
  /// deadline surfaces as ErrorCode::kTimeout; a peer-dropped connection as
  /// kReset — both retryable categories, so resilient callers can compose
  /// with this layer.
  util::Status set_timeout_ms(std::uint32_t timeout_ms, bool send = true);

  /// Write the whole buffer (loops over partial writes).
  util::Status write_all(std::string_view data);

  /// Read what has arrived, up to 64 KiB; empty => peer closed. The bytes
  /// land in a buffer this socket owns, allocated on the first read and
  /// never zero-filled; the view stays valid until the next read.
  util::Result<std::string_view> read_some();

  /// ::shutdown(SHUT_RDWR): unblocks a reader thread parked in read_some()
  /// (it sees 0 bytes / kReset) without racing fd reuse the way a
  /// cross-thread close() would. The descriptor stays owned; close() still
  /// runs on destruction.
  void shutdown_both() noexcept;

  void close() noexcept;

  /// Connect to 127.0.0.1:port.
  static util::Result<Socket> connect_loopback(std::uint16_t port);

 private:
  static constexpr std::size_t kReadChunk = 64 * 1024;

  int fd_ = -1;
  std::unique_ptr<char[]> read_buffer_;  ///< kReadChunk bytes, once read
};

/// Listening socket bound to 127.0.0.1 on an ephemeral (or given) port.
/// close() may be called from another thread to unblock accept_one() (the
/// server's stop path), so the descriptor is atomic.
class Listener {
 public:
  util::Status bind_loopback(std::uint16_t port = 0);
  util::Result<Socket> accept_one();
  std::uint16_t port() const noexcept { return port_; }
  void close() noexcept;
  ~Listener() { close(); }

 private:
  std::atomic<int> fd_{-1};
  std::uint16_t port_ = 0;
};

}  // namespace dockmine::http
