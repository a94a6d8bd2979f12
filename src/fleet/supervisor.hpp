// Worker-fleet supervisor: N `rca-serve` processes, one shard each.
//
// start() forks+execs `spec.binary serve --port 0 --port-file <run_dir>/
// worker-K.port --generation G ...` per shard and completes the port-file
// handshake (the worker publishes its ephemeral port with an atomic
// temp+rename write; the supervisor polls the file with a deadline). All
// workers share the read-only snapshot directory, so a respawned worker
// warm-starts every graph it is asked for from disk instead of re-parsing
// source.
//
// A monitor thread owns failure detection and recovery:
//   * SIGCHLD (self-pipe, EINTR-safe waitpid(-1, WNOHANG) reap loop) —
//     catches SIGKILL, fault-injected aborts (`fleet.worker.crash`), and
//     any other death the instant it happens;
//   * periodic /v1/health probes — a worker that stops answering within
//     probe_timeout_ms for probe_failures_to_kill consecutive probes is
//     presumed wedged and SIGKILLed (the death path then respawns it);
//   * respawn with exponential, deterministically jittered, capped backoff
//     per shard (support/backoff.hpp — pinned by unit test); the
//     backoff streak resets once a respawned worker stays healthy.
//
// The shard's circuit breaker is force-opened on death evidence and reset
// only after the respawned worker's handshake + first health probe — the
// gateway never has to burn a request to discover a corpse.
//
// shutdown() SIGTERMs every worker (graceful drain), reaps with a
// deadline, SIGKILLs stragglers, and removes the port files: no orphan
// processes survive the supervisor (pinned by test).
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fleet/breaker.hpp"
#include "fleet/http_client.hpp"

namespace rca::fleet {

struct WorkerSpec {
  /// Worker executable (conventionally /proc/self/exe) and the arguments
  /// appended after `serve --port 0 --port-file ... --generation N`.
  std::string binary;
  std::vector<std::string> extra_args;
  /// Port files and worker logs live here; created if missing.
  std::string run_dir;
};

struct SupervisorOptions {
  std::size_t workers = 4;
  /// Port-file handshake budget per spawn.
  long long spawn_deadline_ms = 20000;
  /// Health-probe cadence and per-probe timeout.
  long long probe_interval_ms = 250;
  int probe_timeout_ms = 2000;
  int probe_failures_to_kill = 2;
  /// Respawn backoff: exponential from initial, jittered, capped.
  long long restart_backoff_initial_ms = 50;
  long long restart_backoff_cap_ms = 2000;
};

enum class ShardState { kStarting, kUp, kDown, kRestarting };

const char* shard_state_name(ShardState s);

struct ShardStatus {
  std::size_t shard = 0;
  pid_t pid = -1;
  std::uint16_t port = 0;
  std::uint64_t generation = 0;  // 1 on first spawn, +1 per respawn
  std::uint64_t restarts = 0;
  ShardState state = ShardState::kStarting;
  BreakerState breaker = BreakerState::kClosed;
};

class Supervisor {
 public:
  Supervisor(WorkerSpec spec, SupervisorOptions opts);
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Spawns every worker and completes its handshake; throws rca::Error if
  /// any shard fails to come up within spawn_deadline_ms. Starts the
  /// monitor thread. One Supervisor per process (SIGCHLD ownership).
  void start();

  /// Graceful stop: SIGTERM all, reap with a deadline, SIGKILL stragglers,
  /// remove port files. Idempotent.
  void shutdown();

  std::size_t workers() const { return opts_.workers; }

  /// The shard's client, or null while it is down/restarting. The returned
  /// pool stays valid for in-flight use even if the shard dies (requests on
  /// it fail fast).
  std::shared_ptr<HttpClient> client(std::size_t shard);

  CircuitBreaker& breaker(std::size_t shard);
  std::vector<ShardStatus> status() const;

  /// Request-level transport evidence from the gateway.
  void note_success(std::size_t shard);
  void note_failure(std::size_t shard);

 private:
  struct Shard {
    std::size_t index = 0;
    pid_t pid = -1;
    std::uint16_t port = 0;
    std::uint64_t generation = 0;
    std::uint64_t restarts = 0;
    std::uint64_t backoff_attempt = 0;
    ShardState state = ShardState::kStarting;
    std::shared_ptr<HttpClient> client;
    CircuitBreaker breaker;
    int probe_failures = 0;
    std::chrono::steady_clock::time_point respawn_due{};
    std::chrono::steady_clock::time_point up_since{};
  };

  std::string port_file(std::size_t shard, std::uint64_t generation) const;
  /// Forks+execs shard `i` at generation `gen`; returns the pid.
  pid_t spawn_process(std::size_t i, std::uint64_t gen);
  /// Polls the port file until non-empty or deadline; 0 on timeout.
  std::uint16_t await_port(const std::string& path, long long deadline_ms,
                           pid_t pid);
  /// Full bring-up of one shard (spawn + handshake). Returns success.
  bool bring_up(std::size_t i);
  void monitor_loop();
  void reap_children();

  WorkerSpec spec_;
  SupervisorOptions opts_;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::thread monitor_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  int sigchld_pipe_[2] = {-1, -1};
};

}  // namespace rca::fleet
