#include "support/http_wire.hpp"

#include <sys/socket.h>

#include <cerrno>
#include <limits>

#include "support/strings.hpp"

namespace rca::http {

ssize_t recv_retry(int fd, char* buf, std::size_t cap) {
  ssize_t n;
  do {
    n = ::recv(fd, buf, cap, 0);
  } while (n < 0 && errno == EINTR);
  return n;
}

bool send_all(int fd, const char* data, std::size_t bytes) {
  std::size_t off = 0;
  while (off < bytes) {
    ssize_t n;
    do {
      n = ::send(fd, data + off, bytes - off, MSG_NOSIGNAL);
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

std::optional<std::string> header_value(const std::string& headers,
                                        std::string_view name) {
  for (const std::string& line : split(headers, '\n')) {
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    if (to_lower(trim(std::string_view(line).substr(0, colon))) != name) {
      continue;
    }
    return to_lower(trim(std::string_view(line).substr(colon + 1)));
  }
  return std::nullopt;
}

long long parse_decimal(std::string_view s) {
  if (s.empty()) return -1;
  long long result = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return -1;
    const long long digit = c - '0';
    if (result > (std::numeric_limits<long long>::max() - digit) / 10) {
      return -1;
    }
    result = result * 10 + digit;
  }
  return result;
}

}  // namespace rca::http
