#include "fault/fault.hpp"

#include <chrono>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "support/hash.hpp"
#include "support/strings.hpp"

namespace rca::fault {

namespace {

/// SplitMix64 step (Steele et al.); inlined here so the registry can keep
/// raw state words per site without owning rng objects.
std::uint64_t splitmix64_next(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double splitmix64_uniform(std::uint64_t& state) {
  return static_cast<double>(splitmix64_next(state) >> 11) * 0x1.0p-53;
}

double parse_probability(const std::string& field, const std::string& entry) {
  try {
    std::size_t pos = 0;
    const double p = std::stod(field, &pos);
    if (pos != field.size() || p < 0.0 || p > 1.0) {
      throw Error("probability out of range");
    }
    return p;
  } catch (const std::exception&) {
    throw Error("fault spec '" + entry + "': bad probability '" + field +
                "' (want a number in [0,1])");
  }
}

std::uint64_t parse_count(const std::string& field, const std::string& entry,
                          const char* what) {
  try {
    // stoull would silently wrap "-1"; counts are digit strings only.
    if (field.empty() ||
        field.find_first_not_of("0123456789") != std::string::npos) {
      throw Error("not a digit string");
    }
    std::size_t pos = 0;
    const unsigned long long n = std::stoull(field, &pos);
    if (pos != field.size()) throw Error("trailing junk");
    return n;
  } catch (const std::exception&) {
    throw Error("fault spec '" + entry + "': bad " + what + " '" + field +
                "'");
  }
}

}  // namespace

FaultRegistry& FaultRegistry::global() {
  static FaultRegistry registry;
  return registry;
}

void FaultRegistry::arm(const std::string& spec) {
  std::unordered_map<std::string, Site> sites;
  std::uint64_t seed = 0;
  std::vector<std::string> names;  // reseed streams after the full parse

  for (const std::string& raw : split(spec, ',')) {
    const std::string entry{trim(raw)};
    if (entry.empty()) continue;
    if (starts_with(entry, "seed=")) {
      seed = parse_count(entry.substr(5), entry, "seed");
      continue;
    }
    // name:probability:action[:after_n[:max_fires]] — but the site name may
    // itself contain no ':' (names are dotted, e.g. meta.snapshot.write).
    const std::vector<std::string> fields = split(entry, ':');
    if (fields.size() < 3 || fields.size() > 5) {
      throw Error("fault spec '" + entry +
                  "': want name:probability:action[:after_n[:max_fires]]");
    }
    Site site;
    site.probability = parse_probability(fields[1], entry);
    const std::string& action = fields[2];
    if (action == "throw") {
      site.action = Action::kThrow;
    } else if (action == "errno") {
      site.action = Action::kErrno;
    } else if (action == "short-write") {
      site.action = Action::kShortWrite;
    } else if (starts_with(action, "delay-")) {
      site.action = Action::kDelay;
      site.delay_ms = static_cast<int>(
          parse_count(action.substr(6), entry, "delay milliseconds"));
    } else {
      throw Error("fault spec '" + entry + "': unknown action '" + action +
                  "' (throw|errno|delay-<ms>|short-write)");
    }
    if (fields.size() >= 4) {
      site.after_n = parse_count(fields[3], entry, "after_n");
    }
    if (fields.size() == 5) {
      site.max_fires = parse_count(fields[4], entry, "max_fires");
    }
    sites[fields[0]] = site;
    names.push_back(fields[0]);
  }
  if (sites.empty()) {
    throw Error("fault spec armed no sites: '" + spec + "'");
  }
  // Per-site streams derive from (seed, name), so adding a site to a spec
  // never shifts another site's firing pattern.
  for (const std::string& name : names) {
    sites[name].rng_state = seed ^ fnv1a64(name);
  }

  std::lock_guard<std::mutex> lock(mu_);
  sites_ = std::move(sites);
  armed_.store(true, std::memory_order_relaxed);
}

void FaultRegistry::disarm() {
  std::lock_guard<std::mutex> lock(mu_);
  armed_.store(false, std::memory_order_relaxed);
  sites_.clear();
}

Hit FaultRegistry::hit(const char* site) {
  Hit result;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sites_.find(site);
    if (it == sites_.end()) return result;
    Site& s = it->second;
    const std::uint64_t n = s.hits++;
    if (n < s.after_n) return result;
    if (s.max_fires != 0 && s.fired >= s.max_fires) return result;
    if (s.probability < 1.0 &&
        splitmix64_uniform(s.rng_state) >= s.probability) {
      return result;
    }
    ++s.fired;
    result.action = s.action;
    result.delay_ms = s.delay_ms;
  }
  // Counter outside the lock: obs takes its own mutex.
  obs::Registry& reg = obs::global();
  if (reg.enabled()) {
    reg.counter_add(std::string("fault.injected.") + site);
  }
  return result;
}

std::uint64_t FaultRegistry::fires(const std::string& site) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.fired;
}

Hit point(const char* site) {
  const Hit h = check(site);
  if (h.action == Action::kThrow) {
    throw FaultInjected(std::string("injected fault at ") + site);
  }
  if (h.action == Action::kErrno) {
    throw TransientError(std::string("injected transient I/O error at ") +
                         site);
  }
  return h;
}

Hit check(const char* site) {
  const Hit h = FaultRegistry::global().hit(site);
  if (h.action == Action::kDelay && h.delay_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(h.delay_ms));
  }
  return h;
}

}  // namespace rca::fault
