// The one server loop every network entry point runs: the HTTP registry
// gateway, the serve daemon and the distributed coordinator. It owns
// accept, the connection cap, one thread per connection, reaping, the read
// poll and the partial-message deadline; an entry point supplies only a
// per-connection Protocol (HTTP below, DMWF frames in core/wire).
//
// Why one thread per connection rather than a poll loop: serve, the only
// server the repository benchmark times, already ran this way, and on
// bench_abl_http's pull it beat the former poll + worker-pool server at
// every worker count (medians of 7 alternating rounds: 0.48 vs 1.64 s at 1
// worker, 0.30 vs 0.90 s at 4, 0.17 vs 0.96 s at 8). The cap, not a pool
// size, is what bounds idle clients.
//
// Every entry point gets the same protections:
//   * an accept error backs off exponentially (accept_backoff_ms up to 1 s)
//     and is counted; only stop() ends the accept loop;
//   * past kMaxConnections live connections, a new one is closed at once;
//   * a request body or DMWF frame payload declared over kMaxPayload
//     (256 MiB) ends the connection before any of it is buffered;
//   * a finished connection gives back its fd at once and its thread at the
//     next finisher's join, so at most one exited thread lingers;
//   * no idle deadline, but a partial message older than slowloris_ms is
//     dropped. The clock starts at the first byte of the oldest incomplete
//     message and resets whenever a message completes;
//   * the read poll sets SO_RCVTIMEO only, so it never limits a send.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "dockmine/http/message.h"
#include "dockmine/http/socket.h"

namespace dockmine::http {

/// Well above every in-repo client: bench_serve's 8, bench_abl_http's 8
/// pooled connections, a coordinator's K workers.
inline constexpr std::size_t kMaxConnections = 256;

/// One accepted connection. Its server thread is the only reader; any
/// thread may send or shut it down. The descriptor closes with the last
/// reference, so a shutdown never races descriptor reuse.
class Connection {
 public:
  explicit Connection(Socket socket) : socket_(std::move(socket)) {}
  /// Write the whole buffer, serialized with every other send here.
  util::Status send(std::string_view bytes);
  /// shutdown(SHUT_RDWR): a send in progress fails and the connection's
  /// own thread reads EOF. Never a cross-thread close.
  void shutdown() noexcept { socket_.shutdown_both(); }

 private:
  friend class Server;
  Socket socket_;
  std::mutex send_mutex_;
};

/// A connection's protocol, driven on that connection's thread.
class Protocol {
 public:
  virtual ~Protocol() = default;
  /// Consume one chunk and answer what completes. Returns the number of
  /// messages completed, or an error that ends the connection.
  virtual util::Result<std::size_t> feed(std::string_view bytes) = 0;
  virtual bool partial() const = 0;  ///< an incomplete message is buffered
  virtual void closed() {}           ///< the connection ended
};

using ProtocolFactory =
    std::function<std::unique_ptr<Protocol>(std::shared_ptr<Connection>)>;
using Handler = std::function<Response(const Request&)>;

struct ServerOptions {
  std::uint16_t port = 0;  ///< 0 picks an ephemeral port (see port())
  std::uint32_t io_timeout_ms = 200;   ///< read poll: how often a reader wakes
  std::uint64_t slowloris_ms = 10000;  ///< partial-message deadline
  std::uint64_t accept_backoff_ms = 10;  ///< first accept-error backoff
  /// Test hook: consulted before each accept; a returned error is handled
  /// exactly like a failed accept.
  std::function<std::optional<util::Error>()> accept_error_injector;
};

/// The server's own counts, kept with obs compiled out too.
struct ServerStats {
  std::uint64_t rejected = 0;  ///< closed at once: the cap was full
  std::uint64_t accept_retries = 0;
  std::uint64_t partial_drops = 0;
  std::size_t live = 0;  ///< connection threads running now
  std::size_t peak_live = 0;
};

class Server {
 public:
  /// HTTP/1.1 with keep-alive: `handler` answers each request.
  explicit Server(Handler handler, std::uint16_t port = 0);
  Server(Handler handler, ServerOptions options);
  /// Any protocol: `factory` runs on each new connection's thread. The
  /// server's obs series are <obs_prefix>_connections_total,
  /// _active_sessions, _connections_rejected_total, _slowloris_drops_total
  /// and _accept_retries_total.
  Server(ProtocolFactory factory, ServerOptions options,
         std::string obs_prefix);
  ~Server() { stop(); }

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind the listener without starting a thread (safe to fork after).
  util::Status bind();
  util::Status start();  ///< bind() if needed, then accept
  /// Idempotent: stop accepting, shut every connection down, join every
  /// thread. Not from a connection thread.
  void stop();

  std::uint16_t port() const noexcept { return listener_.port(); }
  std::uint64_t requests_served() const noexcept {  ///< HTTP requests
    return requests_.load(std::memory_order_relaxed);
  }
  ServerStats stats() const;

 private:
  struct Slot {
    std::shared_ptr<Connection> connection;
    std::thread thread;
  };

  void accept_loop();
  void admit(Socket socket);
  void run_connection(Slot* slot);
  /// Read until EOF, a reset, a protocol error, the deadline or stop().
  void pump(Connection& connection, Protocol& protocol);
  void count(const char* series) const;  ///< adds 1 to <prefix><series>

  ProtocolFactory factory_;
  ServerOptions options_;
  std::string obs_prefix_;
  Listener listener_;
  std::thread acceptor_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> requests_{0};

  mutable std::mutex mutex_;  ///< guards everything below
  std::condition_variable changed_;  ///< stop() and connection exits
  std::vector<std::unique_ptr<Slot>> slots_;
  std::thread lingering_;  ///< the last finished thread, not yet joined
  ServerStats stats_;
};

}  // namespace dockmine::http
