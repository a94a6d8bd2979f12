#include "fleet/supervisor.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include "obs/obs.hpp"
#include "support/backoff.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace rca::fleet {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

const char* shard_state_name(ShardState s) {
  switch (s) {
    case ShardState::kStarting: return "starting";
    case ShardState::kUp: return "up";
    case ShardState::kDown: return "down";
    case ShardState::kRestarting: return "restarting";
  }
  return "unknown";
}

namespace {

/// Seeds every shard's respawn-backoff jitter.
constexpr std::uint64_t kBackoffSeed = 2019;
/// Healthy uptime after which a shard's backoff streak resets.
constexpr long long kBackoffResetAfterMs = 5000;

/// Self-pipe the SIGCHLD handler pokes; async-signal-safe.
std::atomic<int> g_sigchld_fd{-1};

extern "C" void rca_fleet_sigchld_handler(int /*signum*/) {
  const int fd = g_sigchld_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 'c';
    [[maybe_unused]] ssize_t rc = ::write(fd, &byte, 1);
  }
}

}  // namespace

Supervisor::Supervisor(WorkerSpec spec, SupervisorOptions opts)
    : spec_(std::move(spec)), opts_(opts) {
  if (opts_.workers == 0) opts_.workers = 1;
}

Supervisor::~Supervisor() { shutdown(); }

std::string Supervisor::port_file(std::size_t shard,
                                  std::uint64_t /*generation*/) const {
  return (fs::path(spec_.run_dir) /
          ("worker-" + std::to_string(shard) + ".port"))
      .string();
}

pid_t Supervisor::spawn_process(std::size_t i, std::uint64_t gen) {
  const std::string pf = port_file(i, gen);
  ::unlink(pf.c_str());  // never hand the handshake a stale port

  std::vector<std::string> args;
  args.push_back(spec_.binary);
  args.push_back("serve");
  args.push_back("--port");
  args.push_back("0");
  args.push_back("--port-file");
  args.push_back(pf);
  args.push_back("--generation");
  args.push_back(std::to_string(gen));
  for (const std::string& a : spec_.extra_args) args.push_back(a);

  const std::string log_path =
      (fs::path(spec_.run_dir) / ("worker-" + std::to_string(i) + ".log"))
          .string();

  const pid_t pid = ::fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    // Child. Only async-signal-safe calls until execv.
#ifdef __linux__
    // Belt and braces: if the supervisor itself is SIGKILLed, workers die
    // with it instead of lingering as orphans.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif
    const int log_fd =
        ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log_fd >= 0) {
      ::dup2(log_fd, STDOUT_FILENO);
      ::dup2(log_fd, STDERR_FILENO);
      if (log_fd > STDERR_FILENO) ::close(log_fd);
    }
    // Workers must not inherit the supervisor's SIGCHLD disposition.
    ::signal(SIGCHLD, SIG_DFL);
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(spec_.binary.c_str(), argv.data());
    ::_exit(127);
  }
  obs::count("fleet.worker.spawns");
  return pid;
}

std::uint16_t Supervisor::await_port(const std::string& path,
                                     long long deadline_ms, pid_t pid) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(deadline_ms);
  while (Clock::now() < deadline) {
    if (stopping_.load(std::memory_order_relaxed)) return 0;
    // A child that died before publishing its port will never hand-shake;
    // reap it here (no concurrent waiter exists: initial start() runs
    // before the monitor, respawns run *on* the monitor thread).
    int status = 0;
    pid_t reaped;
    do {
      reaped = ::waitpid(pid, &status, WNOHANG);
    } while (reaped < 0 && errno == EINTR);
    if (reaped == pid) return 0;

    std::ifstream in(path);
    if (in) {
      std::string text;
      in >> text;
      if (!text.empty()) {
        long long port = 0;
        bool numeric = true;
        for (char c : text) {
          if (c < '0' || c > '9') {
            numeric = false;
            break;
          }
          port = port * 10 + (c - '0');
        }
        if (numeric && port > 0 && port <= 65535) {
          return static_cast<std::uint16_t>(port);
        }
        return 0;  // corrupt port file — the write was supposed to be atomic
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return 0;
}

bool Supervisor::bring_up(std::size_t i) {
  std::uint64_t gen;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Shard& sh = *shards_[i];
    gen = ++sh.generation;
    sh.state = gen == 1 ? ShardState::kStarting : ShardState::kRestarting;
  }
  obs::Span span("fleet.worker.bring_up");
  span.attr("shard", static_cast<long long>(i));
  span.attr("generation", static_cast<long long>(gen));

  const pid_t pid = spawn_process(i, gen);
  std::uint16_t port = 0;
  if (pid > 0) {
    port = await_port(port_file(i, gen), opts_.spawn_deadline_ms, pid);
  }
  if (port == 0) {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      int status = 0;
      pid_t reaped;
      do {
        reaped = ::waitpid(pid, &status, 0);
      } while (reaped < 0 && errno == EINTR);
    }
    std::lock_guard<std::mutex> lock(mu_);
    Shard& sh = *shards_[i];
    sh.pid = -1;
    sh.state = ShardState::kDown;
    sh.respawn_due =
        Clock::now() +
        std::chrono::milliseconds(jittered_backoff_ms(
            sh.backoff_attempt++, opts_.restart_backoff_initial_ms,
            opts_.restart_backoff_cap_ms, kBackoffSeed, i));
    obs::count("fleet.worker.spawn_failures");
    return false;
  }

  HttpClientOptions copts;
  copts.io_timeout_ms = opts_.probe_timeout_ms > 0
                            ? std::max(opts_.probe_timeout_ms, 30000)
                            : 30000;
  auto client = std::make_shared<HttpClient>(port, copts);

  {
    std::lock_guard<std::mutex> lock(mu_);
    Shard& sh = *shards_[i];
    sh.pid = pid;
    sh.port = port;
    sh.client = std::move(client);
    sh.state = ShardState::kUp;
    sh.up_since = Clock::now();
    sh.probe_failures = 0;
    if (gen > 1) {
      ++sh.restarts;
      obs::count("fleet.worker.respawns");
    }
    // Handshake completed: the worker is demonstrably serving. The breaker
    // re-opens instantly on the next death signal.
    sh.breaker.reset();
  }
  return true;
}

void Supervisor::start() {
  RCA_CHECK_MSG(!started_, "Supervisor::start() called twice");
  started_ = true;
  fs::create_directories(spec_.run_dir);

  if (::pipe(sigchld_pipe_) != 0) throw Error("pipe() failed");
  // Both ends non-blocking: a full pipe must never wedge the handler, and
  // the monitor's drain loop must stop at EAGAIN instead of blocking.
  ::fcntl(sigchld_pipe_[0], F_SETFL, O_NONBLOCK);
  ::fcntl(sigchld_pipe_[1], F_SETFL, O_NONBLOCK);
  g_sigchld_fd.store(sigchld_pipe_[1], std::memory_order_relaxed);
  struct sigaction sa{};
  sa.sa_handler = rca_fleet_sigchld_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: blocked syscalls must wake with EINTR
  ::sigaction(SIGCHLD, &sa, nullptr);

  shards_.clear();
  for (std::size_t i = 0; i < opts_.workers; ++i) {
    auto sh = std::make_unique<Shard>();
    sh->index = i;
    shards_.push_back(std::move(sh));
  }
  for (std::size_t i = 0; i < opts_.workers; ++i) {
    if (!bring_up(i)) {
      shutdown();
      throw Error("fleet worker " + std::to_string(i) +
                  " failed its port-file handshake within " +
                  std::to_string(opts_.spawn_deadline_ms) + " ms");
    }
  }
  monitor_ = std::thread([this] { monitor_loop(); });
}

void Supervisor::reap_children() {
  for (;;) {
    int status = 0;
    pid_t pid;
    do {
      pid = ::waitpid(-1, &status, WNOHANG);
    } while (pid < 0 && errno == EINTR);
    if (pid <= 0) return;  // no more exited children (or none at all)
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& sh : shards_) {
      if (sh->pid != pid) continue;
      obs::count("fleet.worker.deaths");
      sh->pid = -1;
      sh->state = ShardState::kDown;
      sh->breaker.force_open(Clock::now());
      if (sh->client) sh->client->close_all();
      sh->respawn_due =
          Clock::now() +
          std::chrono::milliseconds(jittered_backoff_ms(
              sh->backoff_attempt++, opts_.restart_backoff_initial_ms,
              opts_.restart_backoff_cap_ms, kBackoffSeed, sh->index));
      break;
    }
  }
}

void Supervisor::monitor_loop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    pollfd p{sigchld_pipe_[0], POLLIN, 0};
    const int rc =
        ::poll(&p, 1, static_cast<int>(opts_.probe_interval_ms));
    if (rc < 0 && errno != EINTR) break;
    if (rc > 0 && (p.revents & POLLIN) != 0) {
      char drain[64];
      ssize_t n;
      do {
        n = ::read(sigchld_pipe_[0], drain, sizeof(drain));
      } while (n > 0 || (n < 0 && errno == EINTR));
    }
    reap_children();
    if (stopping_.load(std::memory_order_relaxed)) break;

    const Clock::time_point now = Clock::now();

    // Respawns due. bring_up blocks the monitor briefly (handshake); with a
    // warm snapshot directory a worker publishes its port well under the
    // probe interval in practice.
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      bool due = false;
      {
        std::lock_guard<std::mutex> lock(mu_);
        due = shards_[i]->state == ShardState::kDown &&
              now >= shards_[i]->respawn_due;
      }
      if (due) bring_up(i);
    }

    // Health probes: a worker that answers keeps its streak clean; one that
    // times out repeatedly is wedged — SIGKILL it and let the death path
    // respawn with backoff.
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      std::shared_ptr<HttpClient> c;
      pid_t pid = -1;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (shards_[i]->state != ShardState::kUp) continue;
        c = shards_[i]->client;
        pid = shards_[i]->pid;
      }
      if (!c) continue;
      const std::optional<ClientResponse> resp =
          c->request("GET", "/v1/health", "", opts_.probe_timeout_ms);
      std::lock_guard<std::mutex> lock(mu_);
      Shard& sh = *shards_[i];
      if (sh.pid != pid || sh.state != ShardState::kUp) continue;
      if (resp.has_value() && resp->status == 200) {
        sh.probe_failures = 0;
        sh.breaker.record_success();
        if (sh.backoff_attempt > 0 &&
            Clock::now() - sh.up_since >
                std::chrono::milliseconds(kBackoffResetAfterMs)) {
          sh.backoff_attempt = 0;  // survived: future crashes restart cheap
        }
      } else {
        obs::count("fleet.probe.failures");
        if (++sh.probe_failures >= opts_.probe_failures_to_kill) {
          obs::count("fleet.probe.kills");
          ::kill(pid, SIGKILL);  // death path reaps, breaks, respawns
          sh.probe_failures = 0;
        }
      }
    }
  }
}

void Supervisor::shutdown() {
  if (!started_) return;
  if (stopping_.exchange(true)) return;
  // Wake the monitor promptly, then join it before touching children.
  if (sigchld_pipe_[1] >= 0) {
    const char byte = 'q';
    [[maybe_unused]] ssize_t rc = ::write(sigchld_pipe_[1], &byte, 1);
  }
  if (monitor_.joinable()) monitor_.join();

  std::vector<pid_t> live;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& sh : shards_) {
      if (sh->pid > 0) live.push_back(sh->pid);
      sh->state = ShardState::kDown;
      if (sh->client) sh->client->close_all();
    }
  }
  for (pid_t pid : live) ::kill(pid, SIGTERM);  // graceful drain

  // Reap with a deadline, then escalate: no orphans, ever.
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(5000);
  std::vector<pid_t> pending = live;
  while (!pending.empty() && Clock::now() < deadline) {
    std::vector<pid_t> still;
    for (pid_t pid : pending) {
      int status = 0;
      pid_t reaped;
      do {
        reaped = ::waitpid(pid, &status, WNOHANG);
      } while (reaped < 0 && errno == EINTR);
      if (reaped != pid) still.push_back(pid);
    }
    pending = std::move(still);
    if (!pending.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  for (pid_t pid : pending) {
    ::kill(pid, SIGKILL);
    int status = 0;
    pid_t reaped;
    do {
      reaped = ::waitpid(pid, &status, 0);
    } while (reaped < 0 && errno == EINTR);
  }

  // Handshake files are supervisor state, not worker output: remove them.
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    ::unlink(port_file(i, 0).c_str());
  }

  g_sigchld_fd.store(-1, std::memory_order_relaxed);
  ::signal(SIGCHLD, SIG_DFL);
  for (int i = 0; i < 2; ++i) {
    if (sigchld_pipe_[i] >= 0) {
      ::close(sigchld_pipe_[i]);
      sigchld_pipe_[i] = -1;
    }
  }
}

std::shared_ptr<HttpClient> Supervisor::client(std::size_t shard) {
  std::lock_guard<std::mutex> lock(mu_);
  if (shard >= shards_.size()) return nullptr;
  const Shard& sh = *shards_[shard];
  return sh.state == ShardState::kUp ? sh.client : nullptr;
}

CircuitBreaker& Supervisor::breaker(std::size_t shard) {
  std::lock_guard<std::mutex> lock(mu_);
  return shards_[shard]->breaker;
}

void Supervisor::note_success(std::size_t shard) {
  std::lock_guard<std::mutex> lock(mu_);
  if (shard < shards_.size()) shards_[shard]->breaker.record_success();
}

void Supervisor::note_failure(std::size_t shard) {
  std::lock_guard<std::mutex> lock(mu_);
  if (shard < shards_.size()) {
    shards_[shard]->breaker.record_failure(Clock::now());
  }
}

std::vector<ShardStatus> Supervisor::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ShardStatus> out;
  out.reserve(shards_.size());
  for (const auto& sh : shards_) {
    ShardStatus s;
    s.shard = sh->index;
    s.pid = sh->pid;
    s.port = sh->port;
    s.generation = sh->generation;
    s.restarts = sh->restarts;
    s.state = sh->state;
    s.breaker = sh->breaker.state();
    out.push_back(s);
  }
  return out;
}

}  // namespace rca::fleet
