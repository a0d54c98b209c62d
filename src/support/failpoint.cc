#include "src/support/failpoint.h"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <map>
#include <mutex>
#include <random>
#include <thread>

#include "src/support/check.h"
#include "src/support/str_util.h"

namespace icarus::failpoint {

namespace {

enum class Mode { kAtNth, kAfterNth, kProbability };
enum class Action { kThrow, kAbort, kStall };

// How long a site armed with `action=stall` holds the thread that hit it.
constexpr std::chrono::milliseconds kStall{500};

struct SiteConfig {
  Mode mode = Mode::kAtNth;
  int64_t n = 1;         // For kAtNth / kAfterNth.
  double probability = 0.0;
  std::mt19937_64 rng;   // For kProbability; seeded at arm time.
  Action action = Action::kThrow;
  int64_t hits = 0;      // Executions of the site since it was armed.
};

struct Registry {
  std::mutex mu;
  std::map<std::string, SiteConfig, std::less<>> armed;
};

Registry& TheRegistry() {
  static Registry* r = new Registry();
  return *r;
}

// Fast-path guard, mirrored from Registry::armed (set under the mutex).
std::atomic<bool> g_any_armed{false};

[[noreturn]] void Fire(const std::string& site, Action action) {
  if (action == Action::kAbort) {
    std::fprintf(stderr, "failpoint: simulated crash at '%s'\n", site.c_str());
    std::abort();
  }
  throw InternalError(StrCat("injected fault at '", site, "'"));
}

}  // namespace

const std::vector<std::string>& AllSites() {
  static const std::vector<std::string> kSites = {
      kSolverDecision, kCacheLookup,   kCacheInsert,    kExternCall,
      kBoogieLower,    kDaemonAccept,  kDaemonParse,    kDaemonEnqueue,
      kDaemonDispatch, kDaemonRespond, kDaemonDrain,
  };
  return kSites;
}

Status Arm(std::string_view spec) {
  // Split "mode=SITE:arg[,key=value...]".
  std::string head(spec);
  std::vector<std::string> extras;
  size_t comma = head.find(',');
  if (comma != std::string::npos) {
    std::string tail = head.substr(comma + 1);
    head = head.substr(0, comma);
    size_t pos = 0;
    while (pos <= tail.size()) {
      size_t next = tail.find(',', pos);
      extras.push_back(tail.substr(pos, next == std::string::npos ? next : next - pos));
      if (next == std::string::npos) {
        break;
      }
      pos = next + 1;
    }
  }
  size_t eq = head.find('=');
  size_t colon = head.rfind(':');
  if (eq == std::string::npos || colon == std::string::npos || colon < eq) {
    return Status::Error(StrCat("malformed fail-point spec '", std::string(spec),
                                "' (want mode=SITE:arg)"));
  }
  std::string mode_str = head.substr(0, eq);
  std::string site = head.substr(eq + 1, colon - eq - 1);
  std::string arg = head.substr(colon + 1);

  bool known = false;
  for (const std::string& s : AllSites()) {
    known = known || s == site;
  }
  if (!known) {
    // A typo'd site would otherwise be armed but never hit — a fault test
    // that silently tests nothing. Spell out the registered sites so the fix
    // is in the error message.
    std::string sites;
    for (const std::string& s : AllSites()) {
      sites += sites.empty() ? s : StrCat(", ", s);
    }
    return Status::Error(StrCat("unknown fail-point site '", site, "' (registered sites: ",
                                sites, ")"));
  }

  SiteConfig config;
  if (mode_str == "at" || mode_str == "after") {
    config.mode = mode_str == "at" ? Mode::kAtNth : Mode::kAfterNth;
    char* end = nullptr;
    errno = 0;
    config.n = std::strtoll(arg.c_str(), &end, 10);
    if (errno == ERANGE) {
      return Status::Error(
          StrCat("hit count '", arg, "' in fail-point spec overflows a 64-bit integer"));
    }
    if (end == arg.c_str() || *end != '\0' || config.n < (config.mode == Mode::kAtNth ? 1 : 0)) {
      return Status::Error(StrCat("bad hit count '", arg, "' in fail-point spec"));
    }
  } else if (mode_str == "p") {
    config.mode = Mode::kProbability;
    char* end = nullptr;
    errno = 0;
    config.probability = std::strtod(arg.c_str(), &end);
    if (errno == ERANGE) {
      return Status::Error(
          StrCat("probability '", arg, "' in fail-point spec is out of double range"));
    }
    if (end == arg.c_str() || *end != '\0' || config.probability < 0.0 ||
        config.probability > 1.0) {
      return Status::Error(StrCat("bad probability '", arg, "' in fail-point spec"));
    }
  } else {
    return Status::Error(StrCat("unknown fail-point mode '", mode_str,
                                "' (want at=, after=, or p=)"));
  }

  uint64_t seed = 0;
  for (const std::string& extra : extras) {
    if (extra.rfind("seed=", 0) == 0) {
      const char* digits = extra.c_str() + 5;
      char* end = nullptr;
      errno = 0;
      seed = std::strtoull(digits, &end, 10);
      if (errno == ERANGE) {
        return Status::Error(
            StrCat("seed '", extra.substr(5), "' in fail-point spec overflows a 64-bit integer"));
      }
      if (end == digits || *end != '\0' || extra.find('-', 5) != std::string::npos) {
        return Status::Error(StrCat("bad seed '", extra.substr(5), "' in fail-point spec"));
      }
    } else if (extra == "action=abort") {
      config.action = Action::kAbort;
    } else if (extra == "action=throw") {
      config.action = Action::kThrow;
    } else if (extra == "action=stall") {
      config.action = Action::kStall;
    } else {
      return Status::Error(StrCat("unknown fail-point option '", extra, "'"));
    }
  }
  config.rng.seed(seed);

  Registry& registry = TheRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  registry.armed[site] = std::move(config);
  g_any_armed.store(true, std::memory_order_release);
  return Status::Ok();
}

void DisarmAll() {
  Registry& registry = TheRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  registry.armed.clear();
  g_any_armed.store(false, std::memory_order_release);
}

int64_t HitCount(std::string_view site) {
  Registry& registry = TheRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  auto it = registry.armed.find(site);
  return it == registry.armed.end() ? 0 : it->second.hits;
}

bool AnyArmed() { return g_any_armed.load(std::memory_order_acquire); }

void Hit(const char* site) {
  Action action = Action::kThrow;
  bool fire = false;
  {
    Registry& registry = TheRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    auto it = registry.armed.find(site);
    if (it == registry.armed.end()) {
      return;
    }
    SiteConfig& config = it->second;
    ++config.hits;
    action = config.action;
    switch (config.mode) {
      case Mode::kAtNth:
        fire = config.hits == config.n;
        break;
      case Mode::kAfterNth:
        fire = config.hits > config.n;
        break;
      case Mode::kProbability: {
        std::uniform_real_distribution<double> dist(0.0, 1.0);
        fire = dist(config.rng) < config.probability;
        break;
      }
    }
  }
  // Fire outside the lock: abort handlers / exception unwinding must not run
  // with the registry mutex held (a catch block may consult HitCount()).
  if (fire && action == Action::kStall) {
    std::this_thread::sleep_for(kStall);
  } else if (fire) {
    Fire(site, action);
  }
}

}  // namespace icarus::failpoint
