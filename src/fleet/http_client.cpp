#include "fleet/http_client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

#include "support/http_wire.hpp"
#include "support/strings.hpp"

namespace rca::fleet {

namespace {

constexpr std::size_t kMaxHeadBytes = 64 * 1024;

}  // namespace

HttpClient::HttpClient(std::uint16_t port, HttpClientOptions opts)
    : port_(port), opts_(opts) {
  if (opts_.max_connections == 0) opts_.max_connections = 1;
}

HttpClient::~HttpClient() { close_all(); }

int HttpClient::connect_fresh() const {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  timeval tv{};
  tv.tv_sec = opts_.io_timeout_ms / 1000;
  tv.tv_usec = (opts_.io_timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port_);
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

int HttpClient::acquire() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] {
    return !idle_.empty() || outstanding_ < opts_.max_connections;
  });
  if (!idle_.empty()) {
    const int fd = idle_.back();
    idle_.pop_back();
    return fd;
  }
  ++outstanding_;
  return -1;  // slot reserved; caller connects fresh
}

void HttpClient::release(int fd, bool reusable) {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd >= 0 && reusable) {
    idle_.push_back(fd);
  } else {
    if (fd >= 0) ::close(fd);
    --outstanding_;
  }
  cv_.notify_one();
}

void HttpClient::close_all() {
  std::lock_guard<std::mutex> lock(mu_);
  for (int fd : idle_) ::close(fd);
  outstanding_ -= idle_.size();
  idle_.clear();
  cv_.notify_all();
}

std::optional<ClientResponse> HttpClient::roundtrip(int fd,
                                                    const std::string& wire,
                                                    int timeout_ms) const {
  if (timeout_ms > 0) {
    timeval tv{};
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = (timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  if (!http::send_all(fd, wire.data(), wire.size())) return std::nullopt;

  std::string buf;
  char chunk[8192];
  while (buf.find("\r\n\r\n") == std::string::npos) {
    if (buf.size() > kMaxHeadBytes) return std::nullopt;
    const ssize_t n = http::recv_retry(fd, chunk, sizeof(chunk));
    if (n <= 0) return std::nullopt;
    buf.append(chunk, static_cast<std::size_t>(n));
  }
  const std::size_t head_end = buf.find("\r\n\r\n");
  const std::string head = buf.substr(0, head_end);
  const std::size_t line_end = head.find("\r\n");
  const std::string status_line =
      line_end == std::string::npos ? head : head.substr(0, line_end);
  const std::vector<std::string> parts = split_ws(status_line);
  if (parts.size() < 2 || !starts_with(parts[0], "HTTP/")) {
    return std::nullopt;
  }
  const long long status = http::parse_decimal(parts[1]);
  if (status < 100 || status > 599) return std::nullopt;

  const std::string headers =
      line_end == std::string::npos ? "" : head.substr(line_end + 2);
  const long long content_length = http::parse_decimal(
      http::header_value(headers, "content-length").value_or(""));
  if (content_length < 0) return std::nullopt;  // transport requires it

  ClientResponse resp;
  resp.status = static_cast<int>(status);
  resp.keep_alive = http::header_value(headers, "connection") == "keep-alive";
  const long long retry_after = http::parse_decimal(
      http::header_value(headers, "retry-after").value_or(""));
  if (retry_after > 0) resp.retry_after_ms = retry_after * 1000;

  resp.body = buf.substr(head_end + 4);
  const std::size_t want = static_cast<std::size_t>(content_length);
  if (resp.body.size() > want) return std::nullopt;  // pipelined garbage
  while (resp.body.size() < want) {
    const std::size_t cap = std::min(sizeof(chunk), want - resp.body.size());
    const ssize_t n = http::recv_retry(fd, chunk, cap);
    if (n <= 0) return std::nullopt;
    resp.body.append(chunk, static_cast<std::size_t>(n));
  }
  return resp;
}

std::optional<ClientResponse> HttpClient::request(const std::string& method,
                                                  const std::string& path,
                                                  const std::string& body,
                                                  int timeout_ms) {
  std::string wire = method + " " + path + " HTTP/1.1\r\nHost: l\r\n";
  wire += "Connection: keep-alive\r\n";
  wire += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  wire += body;

  int fd = acquire();
  bool reused = fd >= 0;
  if (!reused) {
    fd = connect_fresh();
    if (fd < 0) {
      release(-1, false);
      return std::nullopt;
    }
  }
  std::optional<ClientResponse> resp = roundtrip(fd, wire, timeout_ms);
  if (!resp.has_value() && reused) {
    // The server may have recycled this idle connection between our acquire
    // and the send (bounded requests-per-connection, idle timeout). That is
    // not shard evidence — retry exactly once on a fresh socket.
    ::close(fd);
    fd = connect_fresh();
    if (fd < 0) {
      release(-1, false);
      return std::nullopt;
    }
    resp = roundtrip(fd, wire, timeout_ms);
  }
  const bool reusable = resp.has_value() && resp->keep_alive;
  if (resp.has_value()) {
    release(fd, reusable);
  } else {
    ::close(fd);
    release(-1, false);
  }
  return resp;
}

}  // namespace rca::fleet
