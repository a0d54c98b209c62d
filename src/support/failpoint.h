// Fail-point injection framework: named fault sites compiled into the
// pipeline that a test (or `icarus verify-all --fail ...`) can arm to fire
// deterministically or probabilistically.
//
// Sites are zero-cost when nothing is armed (one relaxed atomic load). When
// an armed site fires it throws icarus::InternalError — the same recoverable
// exception real internal bugs raise — so an injected fault exercises exactly
// the containment boundary a genuine fault would take: the BatchVerifier
// catches it and reports the one affected generator as INTERNAL_ERROR while
// the rest of the fleet keeps running. A site armed with `action=abort`
// calls std::abort() instead, simulating a hard crash (SIGKILL-style) for
// journal/crash-recovery tests; one armed with `action=stall` holds the
// thread for half a second and lets it go on, which opens a race window on
// demand.
//
// Spec grammar (one spec per --fail flag / Arm() call):
//   at=SITE:N          fire on exactly the Nth hit of SITE (1-based)
//   after=SITE:N       fire on every hit after the first N
//   p=SITE:P           fire with probability P in [0,1] (seeded RNG)
//   ...,seed=S         RNG seed for p= specs (default 0)
//   ...,action=abort   std::abort() instead of throwing (crash simulation)
//   ...,action=stall   sleep 500 ms, then carry on (widens a race window)
// e.g. "at=solver-decision:3", "p=cache-insert:0.5,seed=7,action=abort".
#ifndef ICARUS_SUPPORT_FAILPOINT_H_
#define ICARUS_SUPPORT_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/support/status.h"

namespace icarus::failpoint {

// Registered site names. Arm() validates against this list so a typo in a
// test or --fail flag is an error, not a silently-never-firing fault.
inline constexpr const char* kSolverDecision = "solver-decision";
inline constexpr const char* kCacheLookup = "cache-lookup";
inline constexpr const char* kCacheInsert = "cache-insert";
inline constexpr const char* kExternCall = "extern-call";
inline constexpr const char* kBoogieLower = "boogie-lower";
// Serving-loop sites (src/daemon/, tools/icarusd_main.cc): one per stage of
// the request lifecycle, so tests can poison exactly one of accept, parse,
// enqueue, dispatch, respond, or drain and prove the damage stays contained
// to the affected request (or, for drain, surfaces as a drain error).
inline constexpr const char* kDaemonAccept = "daemon-accept";
inline constexpr const char* kDaemonParse = "daemon-parse";
inline constexpr const char* kDaemonEnqueue = "daemon-enqueue";
inline constexpr const char* kDaemonDispatch = "daemon-dispatch";
inline constexpr const char* kDaemonRespond = "daemon-respond";
inline constexpr const char* kDaemonDrain = "daemon-drain";

// Every registered site, for tests that iterate the whole surface.
const std::vector<std::string>& AllSites();

// Arms one fail-point from a spec string (see grammar above). Multiple specs
// may be armed at once (one per site; re-arming a site replaces its config).
Status Arm(std::string_view spec);

// Disarms every site and resets hit counters. Tests call this in teardown so
// a fault armed by one test cannot leak into the next.
void DisarmAll();

// Total times `site` was executed (armed hits only are counted; with nothing
// armed the sites are not tracked). Returns 0 for unknown sites.
int64_t HitCount(std::string_view site);

// True when at least one site is armed (the macro's fast-path guard).
bool AnyArmed();

// Slow path behind ICARUS_FAILPOINT: counts the hit and fires (throws
// InternalError, aborts or stalls) if `site`'s armed config says so.
void Hit(const char* site);

}  // namespace icarus::failpoint

// Drops a named fault site here. Disarmed cost: one relaxed atomic load.
#define ICARUS_FAILPOINT(site)                \
  do {                                        \
    if (::icarus::failpoint::AnyArmed()) {    \
      ::icarus::failpoint::Hit(site);         \
    }                                         \
  } while (0)

#endif  // ICARUS_SUPPORT_FAILPOINT_H_
