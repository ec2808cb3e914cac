#include "http_client.hpp"

#include <cstdlib>
#include <stdexcept>

#include "bench_stats.hpp"
#include "http_test_util.hpp"
#include "support/socket.hpp"

namespace perfbench {

namespace {

std::size_t value_start(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) throw std::runtime_error("no \"" + key + "\" in " + json);
  return at + needle.size();
}

}  // namespace

HttpResult http_call(std::uint16_t port, const std::string& method, const std::string& target) {
  const std::string request = method + " " + target +
                              " HTTP/1.1\r\nHost: bench\r\nContent-Length: 0\r\n\r\n";

  HttpResult result;
  const std::uint64_t start = now_ns();
  fpsched::FileDescriptor fd = fpsched::connect_loopback(port);
  if (!fpsched::send_all(fd.get(), request)) throw std::runtime_error("send failed: " + target);
  std::string response;
  char buffer[16384];
  for (;;) {
    const long received = fpsched::recv_some(fd.get(), buffer, sizeof buffer);
    if (received < 0) throw std::runtime_error("recv failed: " + target);
    if (received == 0) break;
    if (response.empty()) result.first_byte_ms = static_cast<double>(now_ns() - start) * 1e-6;
    response.append(buffer, static_cast<std::size_t>(received));
  }

  result.status = fpsched::testing::http_status(response);
  if (result.status < 0) throw std::runtime_error("malformed response to " + target);
  const std::string headers = response.substr(0, response.find("\r\n\r\n"));
  result.body = fpsched::testing::http_body(response);
  if (headers.find("Transfer-Encoding: chunked") != std::string::npos) {
    result.body = fpsched::testing::dechunk(result.body);
  }
  return result;
}

std::uint64_t json_uint(const std::string& json, const std::string& key) {
  return std::strtoull(json.c_str() + value_start(json, key), nullptr, 10);
}

double json_number(const std::string& json, const std::string& key) {
  return std::strtod(json.c_str() + value_start(json, key), nullptr);
}

}  // namespace perfbench
