#include "dockmine/http/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace dockmine::http {

util::Error classify_errno(int err, const char* what) {
  const std::string detail = std::string(what) + ": " + std::strerror(err);
  // Classify into retry categories: deadline and torn-connection errors are
  // transient (a later attempt may succeed), and so is descriptor/buffer
  // exhaustion — an accept loop seeing EMFILE must back off until
  // connections drain, not treat the listener as broken. Everything else is
  // internal.
  if (err == EAGAIN || err == EWOULDBLOCK || err == ETIMEDOUT) {
    return util::timeout(detail);
  }
  if (err == ECONNRESET || err == EPIPE || err == ECONNABORTED ||
      err == ECONNREFUSED) {
    return util::reset(detail);
  }
  if (err == EMFILE || err == ENFILE || err == ENOBUFS || err == ENOMEM) {
    return util::unavailable(detail);
  }
  return util::internal(detail);
}

namespace {
util::Error errno_error(const char* what) {
  return classify_errno(errno, what);
}
}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
    read_buffer_ = std::move(other.read_buffer_);
  }
  return *this;
}

util::Status Socket::set_timeout_ms(std::uint32_t timeout_ms, bool send) {
  const timeval tv{timeout_ms / 1000, (timeout_ms % 1000) * 1000};
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv) != 0 ||
      (send && ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv))) {
    return errno_error("setsockopt(SO_*TIMEO)");
  }
  return util::Status::success();
}

util::Status Socket::write_all(std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno_error("send");
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return util::Status::success();
}

util::Result<std::string_view> Socket::read_some() {
  if (!read_buffer_) {
    read_buffer_ = std::make_unique_for_overwrite<char[]>(kReadChunk);
  }
  for (;;) {
    const ssize_t n = ::recv(fd_, read_buffer_.get(), kReadChunk, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno_error("recv");
    }
    return std::string_view(read_buffer_.get(), static_cast<std::size_t>(n));
  }
}

void Socket::shutdown_both() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

util::Result<Socket> Socket::connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return errno_error("socket");
  Socket socket(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    return errno_error("connect");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return socket;
}

util::Status Listener::bind_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return errno_error("socket");
  fd_.store(fd, std::memory_order_release);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    return errno_error("bind");
  }
  // A deep backlog lets a connection burst complete in the kernel while
  // the accept loop (one thread per admitted connection) catches up.
  if (::listen(fd, SOMAXCONN) != 0) return errno_error("listen");
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return errno_error("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  return util::Status::success();
}

util::Result<Socket> Listener::accept_one() {
  for (;;) {
    const int fd = ::accept(fd_.load(std::memory_order_acquire), nullptr,
                            nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return errno_error("accept");
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return Socket(fd);
  }
}

void Listener::close() noexcept {
  const int fd = fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

}  // namespace dockmine::http
