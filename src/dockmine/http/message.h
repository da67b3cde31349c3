// Minimal HTTP/1.1 message model: requests, responses, and the wire codec.
//
// The Docker registry protocol is plain HTTP ("calls the Docker registry
// API directly", paper §III-B). This is a deliberately small, blocking
// HTTP/1.1 subset — GET-oriented, Content-Length framing, keep-alive —
// enough to serve and consume the Registry V2 surface over real sockets.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dockmine/util/error.h"

namespace dockmine::http {

using Headers = std::vector<std::pair<std::string, std::string>>;

/// The largest request body, and DMWF frame payload (core/wire.h), a server
/// buffers: a longer declared length is rejected before any of it is read.
inline constexpr std::size_t kMaxPayload = 256ull << 20;

/// Case-insensitive header lookup; empty view when absent.
std::string_view find_header(const Headers& headers, std::string_view name);

struct Request {
  std::string method = "GET";
  std::string target = "/";   ///< origin-form, may carry a query string
  Headers headers;
  std::string body;

  /// Path without the query string.
  std::string_view path() const;
  /// Value of a query parameter ("" when absent). No %-decoding beyond
  /// '+' -> ' ' (the gateway's parameters are all URL-safe).
  std::string query_param(std::string_view key) const;

  std::string serialize() const;
};

struct Response {
  int status = 200;
  std::string reason = "OK";
  Headers headers;
  std::string body;

  std::string serialize() const;

  static Response make(int status, std::string body,
                       std::string content_type = "application/json");
};

/// Incremental wire parser: feed bytes, take complete messages.
/// Handles pipelined/keep-alive streams; only Content-Length framing
/// (no chunked encoding — the registry gateway never emits it).
class MessageReader {
 public:
  void feed(std::string_view bytes) { buffer_.append(bytes); }

  /// Try to extract one complete request. Returns kOk-empty optional
  /// pattern via Result: value present => a message was consumed.
  /// kCorrupt on a malformed head, and on a request head that declares a
  /// body over kMaxPayload. A response body (a blob pull) has no cap.
  util::Result<bool> next_request(Request& out);
  util::Result<bool> next_response(Response& out);

  std::size_t buffered() const noexcept { return buffer_.size(); }

 private:
  util::Result<bool> split_head(std::string& head, std::string& body,
                                std::size_t max_body);

  std::string buffer_;
};

}  // namespace dockmine::http
