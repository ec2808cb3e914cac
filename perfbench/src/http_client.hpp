// Minimal blocking loopback HTTP/1.1 client for the serve workloads: one
// request per connection (the service closes after each response),
// chunked bodies decoded, time to first response byte recorded.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct HttpResult {
  int status = -1;
  std::string body;          // de-chunked when the response was chunked
  double first_byte_ms = 0;  // connect + request sent -> first response byte
};

/// Sends `method target` (no body) to 127.0.0.1:port and reads the
/// response until the server closes. Throws std::runtime_error on a
/// socket error or a malformed response.
HttpResult http_call(std::uint16_t port, const std::string& method, const std::string& target);

/// The unsigned integer value of `"key":<digits>` in a flat JSON object.
std::uint64_t json_uint(const std::string& json, const std::string& key);
/// The numeric value of `"key":<number>` in a flat JSON object.
double json_number(const std::string& json, const std::string& key);

}  // namespace perfbench
