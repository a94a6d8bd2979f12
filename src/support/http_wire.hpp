// HTTP/1.1 wire helpers shared by the resident service (server side) and
// the fleet gateway's client: EINTR-safe socket I/O, header lookup and
// decimal parsing of Content-Length-style values. Fault-injection sites
// stay with the callers that own them.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

namespace rca::http {

/// recv(2) retried across EINTR (a signal mid-read must not kill the
/// connection). Returns what recv returns.
ssize_t recv_retry(int fd, char* buf, std::size_t cap);

/// Sends the first `bytes` bytes of `data` (MSG_NOSIGNAL), retrying EINTR
/// and short writes. False on a socket error or a closed peer.
bool send_all(int fd, const char* data, std::size_t bytes);

/// Value of the first header named `name` (compared case-insensitively;
/// pass it lower-cased), trimmed and lower-cased. `headers` holds
/// "Name: value" lines separated by '\n' (a trailing '\r' is trimmed).
/// nullopt when no such header is present.
std::optional<std::string> header_value(const std::string& headers,
                                        std::string_view name);

/// Non-negative decimal value of `s`; -1 when it is empty, holds a
/// non-digit, or overflows long long (a length too large to represent is
/// treated as malformed, never wrapped).
long long parse_decimal(std::string_view s);

}  // namespace rca::http
