// Figure 14 reproduction: six previously-reported CacheIR security bugs.
// The buggy variant of each generator must produce a counterexample; the
// fixed variant must verify. Times are median/mean/σ over 10 runs, matching
// the table's columns.

#include <cstdio>
#include <string>
#include <vector>

#include "src/meta/meta_executor.h"
#include "src/platform/platform.h"
#include "src/support/timing.h"

namespace {

// Runs 10 meta-execution passes of `generator` on one executor (its
// persistent solver stays warm across them): the last pass and the timings.
bool RunWarm(const icarus::platform::Platform& platform, const std::string& generator,
             icarus::meta::MetaResult* last, icarus::SampleStats* timing) {
  auto stub = platform.MakeMetaStub(generator);
  if (!stub.ok()) {
    return false;
  }
  icarus::meta::MetaExecutor executor(&platform.module(), &platform.externs());
  std::vector<double> samples;
  for (int run = 0; run < 10; ++run) {
    *last = executor.Run(stub.value());
    samples.push_back(last->seconds);
  }
  *timing = icarus::ComputeStats(std::move(samples));
  return true;
}

}  // namespace

int main() {
  using icarus::platform::Platform;
  auto loaded = Platform::Load();
  if (!loaded.ok()) {
    std::fprintf(stderr, "platform load failed: %s\n", loaded.status().message().c_str());
    return 1;
  }
  std::unique_ptr<Platform> platform = loaded.take();

  std::printf("Figure 14: previously-reported CacheIR bugs, caught and fix-verified\n");
  std::printf("(10 runs per variant; times in seconds)\n\n");
  std::printf("%-8s %-24s %-20s %-21s  %-28s %-28s\n", "Bug #", "Bug Summary", "Buggy Layer",
              "Kind", "Buggy med/mean/sigma", "Fixed med/mean/sigma");
  std::printf("%s\n", std::string(134, '-').c_str());

  bool ok = true;
  for (const auto& bug : icarus::platform::Bugs()) {
    icarus::meta::MetaResult buggy, fixed;
    icarus::SampleStats buggy_time, fixed_time;
    if (!RunWarm(*platform, std::string("bug") + bug.id + "_buggy", &buggy, &buggy_time) ||
        !RunWarm(*platform, std::string("bug") + bug.id + "_fixed", &fixed, &fixed_time)) {
      std::fprintf(stderr, "bug %s: verification setup failed\n", bug.id);
      return 1;
    }
    bool caught = !buggy.verified;
    bool fix_ok = fixed.verified;
    ok = ok && caught && fix_ok;
    std::printf("%-8s %-24s %-20s %-21s  %8.4f/%8.4f/%8.5f %8.4f/%8.4f/%8.5f  %s%s\n", bug.id,
                bug.summary, bug.layer, bug.kind, buggy_time.median, buggy_time.mean,
                buggy_time.stddev, fixed_time.median, fixed_time.mean, fixed_time.stddev,
                caught ? "caught" : "MISSED!", fix_ok ? "+verified" : "+FIX-REJECTED!");
    if (caught && !buggy.violations.empty()) {
      std::printf("         first counterexample: %s\n", buggy.violations[0].message.c_str());
    }
  }
  std::printf("\nAll 6 bugs caught and all 6 fixes verified: %s\n", ok ? "yes" : "NO");
  std::printf("(paper: caught in under 30s each, fixes verified in under a minute)\n");
  return ok ? 0 : 1;
}
