#include "dockmine/http/message.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <limits>

namespace dockmine::http {

namespace {

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

void append_headers(std::string& out, const Headers& headers,
                    std::size_t body_size) {
  bool have_length = false;
  for (const auto& [name, value] : headers) {
    out += name;
    out += ": ";
    out += value;
    out += "\r\n";
    if (iequals(name, "Content-Length")) have_length = true;
  }
  if (!have_length) {
    out += "Content-Length: " + std::to_string(body_size) + "\r\n";
  }
  out += "\r\n";
}

/// Parse "Name: value" lines out of a head block (after the start line).
util::Status parse_header_lines(std::string_view head, Headers& out) {
  std::size_t pos = 0;
  while (pos < head.size()) {
    const std::size_t eol = head.find("\r\n", pos);
    const std::string_view line =
        head.substr(pos, eol == std::string_view::npos ? head.size() - pos
                                                       : eol - pos);
    pos = eol == std::string_view::npos ? head.size() : eol + 2;
    if (line.empty()) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      return util::corrupt("http header line without ':'");
    }
    std::string_view value = line.substr(colon + 1);
    while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
    out.emplace_back(std::string(line.substr(0, colon)), std::string(value));
  }
  return util::Status::success();
}

}  // namespace

std::string_view find_header(const Headers& headers, std::string_view name) {
  for (const auto& [key, value] : headers) {
    if (iequals(key, name)) return value;
  }
  return {};
}

std::string_view Request::path() const {
  const std::string_view t = target;
  const std::size_t q = t.find('?');
  return q == std::string_view::npos ? t : t.substr(0, q);
}

std::string Request::query_param(std::string_view key) const {
  const std::string_view t = target;
  const std::size_t q = t.find('?');
  if (q == std::string_view::npos) return {};
  std::string_view query = t.substr(q + 1);
  while (!query.empty()) {
    const std::size_t amp = query.find('&');
    const std::string_view pair =
        amp == std::string_view::npos ? query : query.substr(0, amp);
    query = amp == std::string_view::npos ? std::string_view{}
                                          : query.substr(amp + 1);
    const std::size_t eq = pair.find('=');
    if (eq != std::string_view::npos && pair.substr(0, eq) == key) {
      std::string value(pair.substr(eq + 1));
      std::replace(value.begin(), value.end(), '+', ' ');
      return value;
    }
  }
  return {};
}

std::string Request::serialize() const {
  std::string out = method + " " + target + " HTTP/1.1\r\n";
  append_headers(out, headers, body.size());
  out += body;
  return out;
}

std::string Response::serialize() const {
  std::string out =
      "HTTP/1.1 " + std::to_string(status) + " " + reason + "\r\n";
  append_headers(out, headers, body.size());
  out += body;
  return out;
}

Response Response::make(int status, std::string body,
                        std::string content_type) {
  Response response;
  response.status = status;
  switch (status) {
    case 200: response.reason = "OK"; break;
    case 400: response.reason = "Bad Request"; break;
    case 401: response.reason = "Unauthorized"; break;
    case 404: response.reason = "Not Found"; break;
    case 405: response.reason = "Method Not Allowed"; break;
    default: response.reason = "Status"; break;
  }
  response.headers.emplace_back("Content-Type", std::move(content_type));
  response.body = std::move(body);
  return response;
}

util::Result<bool> MessageReader::split_head(std::string& head,
                                             std::string& body,
                                             std::size_t max_body) {
  const std::size_t end = buffer_.find("\r\n\r\n");
  if (end == std::string::npos) {
    if (buffer_.size() > 64 * 1024) {
      return util::corrupt("http head exceeds 64 KiB");
    }
    return false;
  }
  const std::string_view head_view(buffer_.data(), end);

  std::size_t content_length = 0;
  Headers scratch;
  const std::size_t start_line_end = head_view.find("\r\n");
  if (start_line_end == std::string_view::npos) {
    return util::corrupt("http head without start line");
  }
  auto parsed = parse_header_lines(head_view.substr(start_line_end + 2),
                                   scratch);
  if (!parsed.ok()) return parsed.error();
  const std::string_view length = find_header(scratch, "Content-Length");
  if (!length.empty()) {
    const auto [ptr, ec] = std::from_chars(
        length.data(), length.data() + length.size(), content_length);
    if (ec != std::errc() || ptr != length.data() + length.size()) {
      return util::corrupt("bad Content-Length");
    }
  }
  // Before any body is buffered; the second bound keeps `total` from
  // wrapping.
  if (content_length > max_body ||
      content_length > std::numeric_limits<std::size_t>::max() - end - 4) {
    return util::corrupt("http body of " + std::string(length) +
                         " bytes exceeds the limit");
  }

  const std::size_t total = end + 4 + content_length;
  if (buffer_.size() < total) return false;  // body still in flight
  head = buffer_.substr(0, end);
  body = buffer_.substr(end + 4, content_length);
  buffer_.erase(0, total);
  return true;
}

util::Result<bool> MessageReader::next_request(Request& out) {
  std::string head, body;
  auto ready = split_head(head, body, kMaxPayload);
  if (!ready.ok() || !ready.value()) return ready;

  const std::string_view head_view = head;
  const std::size_t line_end = head_view.find("\r\n");
  const std::string_view start =
      head_view.substr(0, std::min(line_end, head_view.size()));
  const std::size_t sp1 = start.find(' ');
  const std::size_t sp2 = start.rfind(' ');
  if (sp1 == std::string_view::npos || sp2 <= sp1) {
    return util::corrupt("bad request line");
  }
  out = Request{};
  out.method = std::string(start.substr(0, sp1));
  out.target = std::string(start.substr(sp1 + 1, sp2 - sp1 - 1));
  if (line_end != std::string_view::npos) {
    auto parsed = parse_header_lines(head_view.substr(line_end + 2),
                                     out.headers);
    if (!parsed.ok()) return parsed.error();
  }
  out.body = std::move(body);
  return true;
}

util::Result<bool> MessageReader::next_response(Response& out) {
  std::string head, body;
  auto ready = split_head(head, body, std::numeric_limits<std::size_t>::max());
  if (!ready.ok() || !ready.value()) return ready;

  const std::string_view head_view = head;
  const std::size_t line_end = head_view.find("\r\n");
  const std::string_view start =
      head_view.substr(0, std::min(line_end, head_view.size()));
  // "HTTP/1.1 200 OK"
  const std::size_t sp1 = start.find(' ');
  if (sp1 == std::string_view::npos) return util::corrupt("bad status line");
  const std::size_t sp2 = start.find(' ', sp1 + 1);
  out = Response{};
  int status = 0;
  const std::string_view code = start.substr(
      sp1 + 1, sp2 == std::string_view::npos ? start.size() - sp1 - 1
                                             : sp2 - sp1 - 1);
  const auto [ptr, ec] =
      std::from_chars(code.data(), code.data() + code.size(), status);
  if (ec != std::errc() || ptr != code.data() + code.size()) {
    return util::corrupt("bad status code");
  }
  out.status = status;
  if (sp2 != std::string_view::npos) {
    out.reason = std::string(start.substr(sp2 + 1));
  }
  if (line_end != std::string_view::npos) {
    auto parsed = parse_header_lines(head_view.substr(line_end + 2),
                                     out.headers);
    if (!parsed.ok()) return parsed.error();
  }
  out.body = std::move(body);
  return true;
}

}  // namespace dockmine::http
