// Test-only endpoints, registered on a Router through add_route.
#pragma once

#include <chrono>
#include <thread>
#include <utility>

#include "service/router.hpp"
#include "support/json.hpp"

namespace rca::test {

/// POST /v1/_test/sleep {"ms": n} -> {"slept_ms": n}: deterministic latency
/// for the backpressure, deadline, drain and transport-chaos tests.
inline void add_sleep_route(service::Router& router) {
  router.add_route(
      "POST", "/v1/_test/sleep",
      [](const service::Request&, const JsonValue& body) {
        const long long ms = body.get_int("ms", 0);
        std::this_thread::sleep_for(std::chrono::milliseconds(ms));
        JsonWriter w;
        w.begin_object();
        w.key("slept_ms");
        w.integer(ms);
        w.end_object();
        return service::Response{200, std::move(w).str() + "\n"};
      });
}

}  // namespace rca::test
