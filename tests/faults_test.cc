// Fault-injection suite: arm every registered fail point in turn and prove
// each injected fault surfaces as a contained per-generator outcome
// (INTERNAL_ERROR or INCONCLUSIVE) — never a process crash and never a wrong
// verdict — while the rest of the fleet runs to completion.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/boogie/boogie_lower.h"
#include "src/cfa/cfa.h"
#include "src/platform/platform.h"
#include "src/support/check.h"
#include "src/support/failpoint.h"
#include "src/verifier/batch_verifier.h"

namespace icarus::verifier {
namespace {

// A buggy study generator plus two healthy ones: enough fleet to show that a
// fault in one task leaves the others' verdicts intact.
const std::vector<std::string> kFleet = {
    "tryAttachCompareInt32",
    "tryAttachObjectLength",
    "bug1685925_buggy",
};

class FaultsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    StatusOr<std::unique_ptr<platform::Platform>> loaded = platform::Platform::Load();
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    platform_ = loaded.take().release();
  }
  static void TearDownTestSuite() {
    delete platform_;
    platform_ = nullptr;
  }
  void SetUp() override {
    ASSERT_NE(platform_, nullptr);
    failpoint::DisarmAll();
  }
  void TearDown() override { failpoint::DisarmAll(); }

  static BatchReport RunFleet() {
    BatchVerifier batch(platform_);
    BatchOptions opts;
    opts.jobs = 2;
    opts.use_cache = true;
    StatusOr<BatchReport> report = batch.VerifyAll(kFleet, opts);
    EXPECT_TRUE(report.ok()) << report.status().message();
    return report.take();
  }

  // The containment contract: whatever the fault did, no generator may carry
  // a verdict it did not earn. The buggy study generator can only be refuted
  // (or knocked out by the fault); healthy generators can only verify (or be
  // knocked out).
  static void ExpectNoWrongVerdicts(const BatchReport& report) {
    ASSERT_EQ(report.results.size(), kFleet.size());
    for (const GeneratorResult& r : report.results) {
      bool buggy = r.generator.find("_buggy") != std::string::npos;
      if (buggy) {
        EXPECT_NE(r.outcome, Outcome::kVerified) << r.generator;
      } else {
        EXPECT_NE(r.outcome, Outcome::kRefuted) << r.generator;
      }
    }
  }

  static platform::Platform* platform_;
};

platform::Platform* FaultsTest::platform_ = nullptr;

// The headline acceptance test: every fail point on the verification path,
// armed to fire on its first hit, produces exactly-contained damage.
TEST_F(FaultsTest, EveryVerifyPathSiteIsContained) {
  const std::vector<std::string> verify_path_sites = {
      failpoint::kSolverDecision, failpoint::kCacheLookup, failpoint::kCacheInsert,
      failpoint::kExternCall,
  };
  for (const std::string& site : verify_path_sites) {
    failpoint::DisarmAll();
    Status st = failpoint::Arm("at=" + site + ":1");
    ASSERT_TRUE(st.ok()) << site << ": " << st.message();

    BatchReport report = RunFleet();

    // We are still running, so the fault did not abort the process; the
    // report has a row for every generator, so the fleet completed.
    EXPECT_GT(failpoint::HitCount(site), 0) << site << " never fired";
    EXPECT_GE(report.NumWithOutcome(Outcome::kInternalError), 1)
        << site << " fault was not surfaced as INTERNAL_ERROR:\n"
        << report.RenderTable();
    ExpectNoWrongVerdicts(report);
    for (const GeneratorResult& r : report.results) {
      if (r.outcome == Outcome::kInternalError) {
        EXPECT_NE(r.error.find("injected fault"), std::string::npos) << r.error;
      }
    }
  }
}

// With nothing armed the fleet is healthy — the fail points themselves must
// be inert (this also guards against a leaked armed site).
TEST_F(FaultsTest, DisarmedSitesAreInert) {
  BatchReport report = RunFleet();
  EXPECT_EQ(report.NumWithOutcome(Outcome::kInternalError), 0) << report.RenderTable();
  EXPECT_EQ(report.NumWithOutcome(Outcome::kVerified), 2);
  EXPECT_EQ(report.NumWithOutcome(Outcome::kRefuted), 1);
}

TEST_F(FaultsTest, AfterModeKnocksOutLaterHitsOnly) {
  // after=N lets the first N hits through, so early tasks finish cleanly and
  // the fault lands mid-fleet — the classic "degrades after warmup" shape.
  ASSERT_TRUE(failpoint::Arm(std::string("after=") + failpoint::kSolverDecision + ":5").ok());
  BatchReport report = RunFleet();
  ExpectNoWrongVerdicts(report);
  EXPECT_GE(report.NumWithOutcome(Outcome::kInternalError), 1) << report.RenderTable();
}

TEST_F(FaultsTest, ProbabilisticModeIsSeededAndContained) {
  // A seeded probabilistic site must be deterministic run-to-run and still
  // perfectly contained.
  const std::string spec = std::string("p=") + failpoint::kCacheLookup + ":0.2,seed=42";
  ASSERT_TRUE(failpoint::Arm(spec).ok());
  BatchReport first = RunFleet();
  ExpectNoWrongVerdicts(first);

  failpoint::DisarmAll();
  ASSERT_TRUE(failpoint::Arm(spec).ok());
  BatchReport second = RunFleet();
  ExpectNoWrongVerdicts(second);
  // Note: with two jobs the *interleaving* of cache lookups across threads
  // can differ, so per-generator outcomes may legitimately differ run-to-run;
  // what must hold is containment (checked above) plus the site actually
  // being exercised.
  EXPECT_GT(failpoint::HitCount(failpoint::kCacheLookup), 0);
}

TEST_F(FaultsTest, BoogieLoweringFaultIsARecoverableException) {
  // The boogie-lower site sits on the artifact-emission path (not under the
  // batch driver's boundary), so containment here means "throws the
  // recoverable InternalError", which any caller can catch.
  ASSERT_TRUE(failpoint::Arm(std::string("at=") + failpoint::kBoogieLower + ":1").ok());
  StatusOr<meta::MetaStub> stub = platform_->MakeMetaStub("tryAttachCompareInt32");
  ASSERT_TRUE(stub.ok()) << stub.status().message();
  cfa::CfaBuilder builder(&platform_->module(), &platform_->externs());
  auto automaton = builder.Build(stub.value());
  ASSERT_TRUE(automaton.ok()) << automaton.status().message();
  bool contained = false;
  try {
    boogie::LowerOptions options;
    auto program =
        boogie::LowerToBoogie(platform_->module(), stub.value(), automaton.value(), options);
    (void)program;
  } catch (const InternalError& e) {
    contained = true;
    EXPECT_NE(std::string(e.what()).find("injected fault"), std::string::npos) << e.what();
  }
  EXPECT_TRUE(contained);
  EXPECT_GT(failpoint::HitCount(failpoint::kBoogieLower), 0);
}

TEST_F(FaultsTest, ArmRejectsBadSpecs) {
  EXPECT_FALSE(failpoint::Arm("at=no-such-site:1").ok());
  // A typo'd daemon site must be a startup error that spells out the
  // registered sites (silently arming nothing would make the serving-loop
  // fault tests meaningless).
  Status typo = failpoint::Arm("at=daemon-dispach:1");
  ASSERT_FALSE(typo.ok());
  EXPECT_NE(typo.message().find("registered sites"), std::string::npos) << typo.message();
  EXPECT_NE(typo.message().find("daemon-dispatch"), std::string::npos) << typo.message();
  // The real daemon sites arm fine.
  for (const char* site : {failpoint::kDaemonAccept, failpoint::kDaemonParse,
                           failpoint::kDaemonEnqueue, failpoint::kDaemonDispatch,
                           failpoint::kDaemonRespond, failpoint::kDaemonDrain}) {
    EXPECT_TRUE(failpoint::Arm(std::string("at=") + site + ":1").ok()) << site;
  }
  failpoint::DisarmAll();
  EXPECT_FALSE(failpoint::Arm("bogus").ok());
  EXPECT_FALSE(failpoint::Arm("at=solver-decision").ok());
  EXPECT_FALSE(failpoint::Arm("p=solver-decision:1.5").ok());
  EXPECT_FALSE(failpoint::Arm("at=solver-decision:0").ok());
  EXPECT_FALSE(failpoint::Arm("at=solver-decision:1,action=explode").ok());
  // Overflow must be rejected with a diagnostic, not silently clamped by
  // strtoll/strtod saturation (errno=ERANGE used to go unchecked).
  EXPECT_FALSE(failpoint::Arm("at=solver-decision:99999999999999999999999").ok());
  EXPECT_FALSE(failpoint::Arm("after=solver-decision:9223372036854775808").ok());
  EXPECT_FALSE(failpoint::Arm("p=solver-decision:1e999").ok());
  // seed= parsing was entirely unchecked: junk, trailing garbage, negatives
  // (strtoull wraps them), and overflow must all be diagnosed.
  EXPECT_FALSE(failpoint::Arm("p=cache-insert:0.5,seed=abc").ok());
  EXPECT_FALSE(failpoint::Arm("p=cache-insert:0.5,seed=").ok());
  EXPECT_FALSE(failpoint::Arm("p=cache-insert:0.5,seed=7x").ok());
  EXPECT_FALSE(failpoint::Arm("p=cache-insert:0.5,seed=-1").ok());
  EXPECT_FALSE(failpoint::Arm("p=cache-insert:0.5,seed=99999999999999999999999").ok());
  EXPECT_TRUE(failpoint::Arm("at=solver-decision:3").ok());
  EXPECT_TRUE(failpoint::Arm("p=cache-insert:0.5,seed=7").ok());
}

}  // namespace
}  // namespace icarus::verifier
