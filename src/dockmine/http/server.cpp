#include "dockmine/http/server.h"

#include <algorithm>
#include <chrono>
#include <system_error>

#include "dockmine/obs/obs.h"
#include "dockmine/util/stopwatch.h"

namespace dockmine::http {
namespace {

/// HTTP/1.1: answer each complete request in order; `Connection: close`
/// ends the connection after its answer.
class HttpProtocol final : public Protocol {
 public:
  HttpProtocol(const Handler& handler, std::atomic<std::uint64_t>& served,
               std::shared_ptr<Connection> connection)
      : handler_(handler), served_(served),
        connection_(std::move(connection)) {}

  util::Result<std::size_t> feed(std::string_view bytes) override {
    reader_.feed(bytes);
    std::size_t completed = 0;
    Request request;
    for (;;) {
      auto ready = reader_.next_request(request);
      if (!ready.ok()) return ready.error();  // malformed: drop
      if (!ready.value()) return completed;
      ++completed;
      Response response = handler_(request);
      served_.fetch_add(1, std::memory_order_relaxed);
      const bool close = find_header(request.headers, "Connection") == "close";
      if (close) response.headers.emplace_back("Connection", "close");
      if (auto sent = connection_->send(response.serialize()); !sent.ok()) {
        return sent.error();
      }
      if (close) return util::reset("http: Connection: close");
    }
  }

  bool partial() const override { return reader_.buffered() != 0; }

 private:
  const Handler& handler_;
  std::atomic<std::uint64_t>& served_;
  std::shared_ptr<Connection> connection_;
  MessageReader reader_;
};

}  // namespace

util::Status Connection::send(std::string_view bytes) {
  std::lock_guard<std::mutex> lock(send_mutex_);
  return socket_.write_all(bytes);
}

Server::Server(Handler handler, std::uint16_t port)
    : Server(std::move(handler), ServerOptions{}) {
  options_.port = port;
}

Server::Server(Handler handler, ServerOptions options)
    : Server(ProtocolFactory(), std::move(options), "dockmine_http_server") {
  factory_ = [this, handler = std::move(handler)](
                 std::shared_ptr<Connection> connection) {
    return std::make_unique<HttpProtocol>(handler, requests_,
                                          std::move(connection));
  };
}

Server::Server(ProtocolFactory factory, ServerOptions options,
               std::string obs_prefix)
    : factory_(std::move(factory)),
      options_(std::move(options)),
      connections_total_(
          obs::Registry::global().counter(obs_prefix + "_connections_total")),
      active_sessions_(
          obs::Registry::global().gauge(obs_prefix + "_active_sessions")),
      rejected_total_(obs::Registry::global().counter(
          obs_prefix + "_connections_rejected_total")),
      slowloris_drops_total_(obs::Registry::global().counter(
          obs_prefix + "_slowloris_drops_total")),
      accept_retries_total_(obs::Registry::global().counter(
          obs_prefix + "_accept_retries_total")) {}

util::Status Server::bind() {
  if (listener_.port() != 0) return util::Status::success();
  return listener_.bind_loopback(options_.port);
}

util::Status Server::start() {
  if (auto bound = bind(); !bound.ok()) return bound;
  acceptor_ = std::thread([this] { accept_loop(); });
  return util::Status::success();
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void Server::accept_loop() {
  const std::uint64_t initial_backoff =
      std::max<std::uint64_t>(1, options_.accept_backoff_ms);
  std::uint64_t backoff = initial_backoff;
  while (!stopping_.load(std::memory_order_acquire)) {
    const std::optional<util::Error> injected =
        options_.accept_error_injector ? options_.accept_error_injector()
                                       : std::nullopt;
    auto accepted =
        injected ? util::Result<Socket>(*injected) : listener_.accept_one();
    if (accepted.ok()) {
      backoff = initial_backoff;
      admit(std::move(accepted).value());
      continue;
    }
    // EMFILE and its kin clear as connections close: back off instead of
    // spinning, and keep going. Only stop() ends this loop.
    std::unique_lock<std::mutex> lock(mutex_);
    if (stopping_.load(std::memory_order_acquire)) break;
    ++stats_.accept_retries;
    accept_retries_total_.add();
    changed_.wait_for(lock, std::chrono::milliseconds(backoff), [this] {
      return stopping_.load(std::memory_order_acquire);
    });
    backoff = std::min<std::uint64_t>(backoff * 2, 1000);
  }
}

void Server::admit(Socket socket) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (slots_.size() >= kMaxConnections) {
    ++stats_.rejected;
    rejected_total_.add();
    return;  // `socket` closes here: the peer reads EOF at once
  }
  slots_.push_back(std::make_unique<Slot>());
  Slot* const slot = slots_.back().get();
  slot->connection = std::make_shared<Connection>(std::move(socket));
  try {
    if (options_.thread_start_injector && options_.thread_start_injector()) {
      throw std::system_error(
          std::make_error_code(std::errc::resource_unavailable_try_again),
          "injected thread start failure");
    }
    // The thread's exit path takes `mutex_`, so it cannot run before its
    // handle is stored.
    slot->thread = std::thread([this, slot] { run_connection(slot); });
  } catch (const std::system_error&) {
    // No thread to serve it: shed it as the cap does. The connection
    // closes with its slot, so the peer reads EOF at once.
    slots_.pop_back();
    ++stats_.rejected;
    rejected_total_.add();
    return;
  }
  stats_.live = slots_.size();
  stats_.peak_live = std::max(stats_.peak_live, stats_.live);
  connections_total_.add();
  active_sessions_.add(1);
}

void Server::run_connection(Slot* slot) {
  {
    std::unique_ptr<Protocol> protocol = factory_(slot->connection);
    pump(*slot->connection, *protocol);
    protocol->closed();
  }
  slot->connection->shutdown();  // the peer sees EOF now
  std::thread previous;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    previous = std::move(lingering_);
    lingering_ = std::move(slot->thread);
    // Usually the last reference: the descriptor closes here.
    slots_.erase(std::find_if(slots_.begin(), slots_.end(), [slot](auto& s) {
      return s.get() == slot;
    }));
    stats_.live = slots_.size();
    active_sessions_.sub(1);
  }
  changed_.notify_all();
  if (previous.joinable()) previous.join();
}

void Server::pump(Connection& connection, Protocol& protocol) {
  (void)connection.socket_.set_timeout_ms(options_.io_timeout_ms,
                                          /*send=*/false);
  const auto deadline = static_cast<double>(options_.slowloris_ms);
  double partial_since = -1.0;
  while (!stopping_.load(std::memory_order_acquire)) {
    auto chunk = connection.socket_.read_some();
    if (chunk.ok()) {
      if (chunk.value().empty()) return;  // peer closed, or shutdown()
      auto fed = protocol.feed(chunk.value());
      if (!fed.ok()) return;
      if (!protocol.partial()) {
        partial_since = -1.0;
      } else if (fed.value() != 0 || partial_since < 0.0) {
        partial_since = util::mono_ms();  // a new oldest incomplete message
      }
    } else if (chunk.error().code() != util::ErrorCode::kTimeout) {
      return;  // reset
    }
    if (partial_since >= 0.0 && util::mono_ms() - partial_since > deadline) {
      // A message dribbling in for longer than any honest peer takes.
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.partial_drops;
      slowloris_drops_total_.add();
      return;
    }
  }
}

void Server::stop() {
  {
    // Under the lock, so a backoff wait cannot miss the notify below.
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_.exchange(true)) return;
  }
  changed_.notify_all();
  listener_.close();  // unblocks accept
  if (acceptor_.joinable()) acceptor_.join();
  std::unique_lock<std::mutex> lock(mutex_);
  for (const auto& slot : slots_) slot->connection->shutdown();
  changed_.wait(lock, [this] { return slots_.empty(); });
  std::thread last = std::move(lingering_);
  lock.unlock();
  if (last.joinable()) last.join();
}

}  // namespace dockmine::http
