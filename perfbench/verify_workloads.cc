// The two verifier workloads.
//
// verify-cold: one pass is Platform::Load followed by BatchVerifier::VerifyAll
// over all 38 units (21 Fig. 12 generators, 5 extensions, 6 buggy/fixed bug
// pairs) with jobs=1 and the in-memory shared solver cache: what the CI user's
// `icarus verify-all` does. The seed shuffles the unit order.
//
// verify-incremental: the edit-and-reverify loop. Set-up fills the persistent
// stores in a private cache dir; each pass runs Platform::LoadWithExtra and an
// incremental VerifyAll. The extra chunk's shared helper alternates between
// two semantically equal texts, so every pass re-verifies its dependents.
//
// Traced passes time each layer from outside: Platform::Load, Verifier::Verify
// per unit (cold) or VerifyAll (incremental), and, outside the pass, the parse
// and resolve split of the load and the store/fingerprint split of VerifyAll.
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "src/ast/fingerprint.h"
#include "src/ast/parser.h"
#include "src/ast/resolver.h"
#include "src/platform/platform.h"
#include "src/support/str_util.h"
#include "src/sym/cache_store.h"
#include "src/verifier/batch_verifier.h"
#include "src/verifier/verdict_store.h"
#include "src/verifier/verifier.h"

namespace perfbench {

namespace {

using icarus::platform::Platform;
using icarus::verifier::BatchOptions;
using icarus::verifier::BatchReport;
using icarus::verifier::BatchVerifier;
using icarus::verifier::Outcome;

// One verification unit and its known answer: `*_buggy` units must be
// refuted, every other unit verified (or skipped as CACHED_SAFE).
struct Unit {
  std::string name;
  bool buggy = false;
};

// The expected-verdict table, built from the platform's published lists
// rather than from anything the verifier reports.
std::vector<Unit> PlatformUnits() {
  std::vector<Unit> units;
  for (const auto& info : icarus::platform::Fig12Generators()) {
    units.push_back({info.function, false});
  }
  for (const auto& info : icarus::platform::ExtensionGenerators()) {
    units.push_back({info.function, false});
  }
  for (const auto& bug : icarus::platform::Bugs()) {
    units.push_back({icarus::StrCat("bug", bug.id, "_buggy"), true});
    units.push_back({icarus::StrCat("bug", bug.id, "_fixed"), false});
  }
  return units;
}

std::vector<std::string> Names(const std::vector<Unit>& units) {
  std::vector<std::string> names;
  for (const Unit& u : units) {
    names.push_back(u.name);
  }
  return names;
}

bool IsFailure(Outcome o) {
  return o == Outcome::kError || o == Outcome::kInternalError || o == Outcome::kInconclusive;
}

void Check(const Unit& unit, Outcome outcome, Result* result) {
  ++result->ops;
  if (IsFailure(outcome)) {
    ++result->failed_ops;
  }
  bool right = unit.buggy ? outcome == Outcome::kRefuted
                          : outcome == Outcome::kVerified || outcome == Outcome::kCachedSafe;
  if (!right) {
    ++result->wrong_outputs;
  }
}

// Checks a batch report row by row; a missing report fails every unit.
void CheckReport(const std::vector<Unit>& units,
                 const icarus::StatusOr<BatchReport>& report, Result* result) {
  for (size_t i = 0; i < units.size(); ++i) {
    Outcome o = report.ok() && i < report.value().results.size()
                    ? report.value().results[i].outcome
                    : Outcome::kError;
    Check(units[i], o, result);
  }
}

// The platform's source chunks in Platform::LoadWithExtra's order.
std::vector<std::string> PlatformSources(const std::vector<std::string>& extra) {
  namespace p = icarus::platform;
  std::vector<std::string> sources = {p::PreludeSource(),  p::CacheIRSource(),
                                      p::MasmSource(),     p::CompilerSource(),
                                      p::InterpreterSource(), p::GeneratorsSource()};
  for (const auto& bug : p::Bugs()) {
    sources.emplace_back(bug.buggy_src);
    sources.emplace_back(bug.fixed_src);
  }
  sources.insert(sources.end(), extra.begin(), extra.end());
  return sources;
}

// Traced split of platform load: Parser::ParseInto over every chunk, then
// ast::Resolve on the module. Runs outside the pass span.
void TraceParseResolve(const std::vector<std::string>& sources, Tracer* tracer,
                       Result* result) {
  {
    ScopedSpan root(tracer, "load_split");
    icarus::ast::Module module;
    bool parsed = true;
    {
      ScopedSpan span(tracer, "ast.parse");
      for (const std::string& chunk : sources) {
        parsed = icarus::ast::Parser::ParseInto(&module, chunk).ok() && parsed;
      }
    }
    ScopedSpan span(tracer, "ast.resolve");
    if (!parsed || !icarus::ast::Resolve(&module).ok()) {
      ++result->failed_ops;
    }
  }
  auto stats = tracer->LastRootStats("load_split");
  result->layers.Add("ast.parse_ms", stats["ast.parse"].self_ms);
  result->layers.Add("ast.resolve_ms", stats["ast.resolve"].self_ms);
}

// Sums the meta-execution counters of one verification into per-pass totals.
struct MetaTotals {
  double gen_ms = 0, interp_ms = 0, solve_ms = 0;
  double paths = 0, merged = 0, queries = 0, decisions = 0, propagations = 0, learned = 0;

  void Add(const icarus::meta::MetaResult& m) {
    gen_ms += m.gen_seconds * 1e3;
    interp_ms += m.interp_seconds * 1e3;
    solve_ms += m.solve_seconds * 1e3;
    paths += m.paths_explored;
    merged += m.paths_merged;
    queries += static_cast<double>(m.solver_queries);
    decisions += static_cast<double>(m.solver_decisions);
    propagations += static_cast<double>(m.solver_propagations);
    learned += static_cast<double>(m.solver_learned_clauses);
  }
  void Record(LayerSamples* layers) const {
    layers->Add("meta.gen_ms", gen_ms);
    layers->Add("meta.interp_ms", interp_ms);
    layers->Add("sym.solve_ms", solve_ms);
    layers->Add("meta.paths", paths);
    layers->Add("meta.paths_merged", merged);
    layers->Add("sym.queries", queries);
    layers->Add("sym.decisions", decisions);
    layers->Add("sym.propagations", propagations);
    layers->Add("sym.learned_clauses", learned);
  }
};

void RecordShares(double pass_ms, double load_ms, double solve_ms, double attributed_ms,
                  LayerSamples* layers) {
  layers->Add("trace.pass_ms", pass_ms);
  layers->Add("platform.load_ms", load_ms);
  layers->Add("platform.load_share", load_ms / pass_ms);
  layers->Add("sym.solve_share", solve_ms / pass_ms);
  layers->Add("trace.unattributed_pct", 100.0 * (pass_ms - attributed_ms) / pass_ms);
}

// --- verify-incremental's own DSL chunk ------------------------------------

// Two generators share `perfbenchGuards`; a third inlines the same guards.
// Flipping the helper between two equal texts moves the fingerprints of
// exactly the two sharing units.
constexpr char kHelperV1[] = R"ICARUS(
fn perfbenchGuards(lhsId: ValueId, rhsId: ValueId) emits CacheIR {
  emit CacheIR::GuardToInt32(lhsId);
  emit CacheIR::GuardToInt32(rhsId);
}
)ICARUS";

constexpr char kHelperV2[] = R"ICARUS(
fn perfbenchGuards(lhsId: ValueId, rhsId: ValueId) emits CacheIR {
  emit CacheIR::GuardToInt32(rhsId);
  emit CacheIR::GuardToInt32(lhsId);
}
)ICARUS";

constexpr char kGenerators[] = R"ICARUS(
generator perfbenchAddShared(
    lhs: Value, lhsId: ValueId, rhs: Value, rhsId: ValueId
) emits CacheIR {
  if !Value::isInt32(lhs) || !Value::isInt32(rhs) {
    return AttachDecision::NoAction;
  }
  emit perfbenchGuards(lhsId, rhsId);
  emit CacheIR::Int32AddResult(OperandId::toInt32Id(lhsId), OperandId::toInt32Id(rhsId));
  emit CacheIR::ReturnFromIC();
  return AttachDecision::Attach;
}

generator perfbenchSubShared(
    lhs: Value, lhsId: ValueId, rhs: Value, rhsId: ValueId
) emits CacheIR {
  if !Value::isInt32(lhs) || !Value::isInt32(rhs) {
    return AttachDecision::NoAction;
  }
  emit perfbenchGuards(lhsId, rhsId);
  emit CacheIR::Int32SubResult(OperandId::toInt32Id(lhsId), OperandId::toInt32Id(rhsId));
  emit CacheIR::ReturnFromIC();
  return AttachDecision::Attach;
}

generator perfbenchSubInline(
    lhs: Value, lhsId: ValueId, rhs: Value, rhsId: ValueId
) emits CacheIR {
  if !Value::isInt32(lhs) || !Value::isInt32(rhs) {
    return AttachDecision::NoAction;
  }
  emit CacheIR::GuardToInt32(lhsId);
  emit CacheIR::GuardToInt32(rhsId);
  emit CacheIR::Int32SubResult(OperandId::toInt32Id(lhsId), OperandId::toInt32Id(rhsId));
  emit CacheIR::ReturnFromIC();
  return AttachDecision::Attach;
}
)ICARUS";

std::string ExtraChunk(int version) {
  return std::string(version == 1 ? kHelperV1 : kHelperV2) + kGenerators;
}

}  // namespace

void TracePlatformLoad(Tracer* tracer, Result* result) {
  {
    ScopedSpan span(tracer, "platform.load");
    if (!Platform::Load().ok()) {
      ++result->failed_ops;
    }
  }
  result->layers.Add("platform.load_ms", tracer->LastRootStats("platform.load")["platform.load"].max_ms);
  TraceParseResolve(PlatformSources({}), tracer, result);
}

bool RunVerifyCold(const Options& options, Tracer* tracer, Result* result) {
  std::vector<Unit> units = PlatformUnits();
  Rng rng(options.seed);
  rng.Shuffle(&units);
  const std::vector<std::string> names = Names(units);
  result->params = {
      {"units", icarus::StrCat(units.size(), " (21 Fig. 12, 5 extensions, 6 buggy/fixed pairs)")},
      {"order", "seeded shuffle of the unit list"},
      {"jobs", "1 (one core of real parallelism on the reference host)"},
      {"solver_cache", "in-memory shared cache, fresh each pass; no persistent stores"},
      {"why", "the CI user's `icarus verify-all`: solve, generate and interpret dominate, "
              "platform load is about a tenth"},
  };

  // Set-up: what a fresh process does before its first verdict. Each pass
  // loads its own platform, so the set-up's is only kept until it is timed.
  const SetupFn setup = [&]() -> std::shared_ptr<void> {
    auto loaded = Platform::Load();
    if (!loaded.ok()) {
      ++result->failed_ops;
      ++result->wrong_outputs;
      return nullptr;
    }
    return std::shared_ptr<Platform>(loaded.take());
  };
  TimeSetup(setup, result);

  BatchOptions batch_options;
  batch_options.jobs = 1;
  auto pass = [&] {
    auto loaded = Platform::Load();
    if (!loaded.ok()) {
      CheckReport(units, loaded.status(), result);
      return;
    }
    BatchVerifier batch(loaded.value().get());
    CheckReport(units, batch.VerifyAll(names, batch_options), result);
  };

  auto traced = [&] {
    icarus::sym::SolverCache cache;
    icarus::verifier::VerifyOptions verify_options;
    verify_options.build_cfa = false;  // As BatchVerifier does.
    verify_options.solver_cache = &cache;
    MetaTotals meta;
    {
      ScopedSpan pass_span(tracer, "pass");
      auto loaded = [&] {
        ScopedSpan span(tracer, "platform.load");
        return Platform::Load();
      }();
      if (!loaded.ok()) {
        CheckReport(units, loaded.status(), result);
        return;
      }
      icarus::verifier::Verifier verifier(loaded.value().get());
      for (const Unit& unit : units) {
        auto report = [&] {
          ScopedSpan span(tracer, "verifier.verify");
          return verifier.Verify(unit.name, verify_options);
        }();
        Outcome outcome = Outcome::kError;
        if (report.ok()) {
          const auto& r = report.value();
          outcome = !r.meta.violations.empty() ? Outcome::kRefuted
                    : r.inconclusive           ? Outcome::kInconclusive
                                               : Outcome::kVerified;
          meta.Add(r.meta);
        }
        Check(unit, outcome, result);
      }
    }
    auto stats = tracer->LastRootStats("pass");
    double pass_ms = stats["pass"].max_ms;
    double load_ms = stats["platform.load"].self_ms;
    meta.Record(&result->layers);
    icarus::sym::SolverCacheStats cache_stats = cache.Snapshot();
    result->layers.Add("sym.cache_lookups", static_cast<double>(cache_stats.lookups()));
    result->layers.Add("sym.cache_hit_rate", cache_stats.HitRate());
    result->layers.Add("verifier.verify_ms", stats["verifier.verify"].self_ms);
    result->layers.Add("verifier.unit_ms_max", stats["verifier.verify"].max_ms);
    result->layers.Add("verifier.reverified", static_cast<double>(units.size()));
    RecordShares(pass_ms, load_ms, meta.solve_ms,
                 load_ms + meta.gen_ms + meta.interp_ms + meta.solve_ms, &result->layers);
    TraceParseResolve(PlatformSources({}), tracer, result);
  };

  pass();  // Warm-up.
  MeasurePasses(options, tracer, result, pass, traced, setup);
  return true;
}

bool RunVerifyIncremental(const Options& options, Tracer* tracer, Result* result) {
  namespace fs = std::filesystem;
  std::vector<Unit> units = PlatformUnits();
  for (const char* extra : {"perfbenchAddShared", "perfbenchSubShared", "perfbenchSubInline"}) {
    units.push_back({extra, false});
  }
  Rng rng(options.seed);
  rng.Shuffle(&units);
  const std::vector<std::string> names = Names(units);
  result->params = {
      {"units", icarus::StrCat(units.size(), " (the 38 platform units + 3 of the benchmark's own)")},
      {"edit", "shared helper flips between two equal texts each pass: 2 dependents re-verify"},
      {"order", "seeded shuffle of the unit list"},
      {"jobs", "1"},
      {"why", "the edit-and-reverify loop: fingerprinting, store load/save and platform load "
              "dominate, solving is nearly all cache hits; the only workload that writes"},
  };

  const std::string cache_dir =
      icarus::StrCat(options.out_dir, "/incr-cache-", options.seed, "-", getpid());
  const std::string side_dir = cache_dir + "-side";
  BatchOptions batch_options;
  batch_options.jobs = 1;
  batch_options.incremental = true;
  batch_options.cache_dir = cache_dir;

  // Set-up: one cold incremental run fills empty stores in `dir`. Dropping
  // what it returns deletes the platform and the stores, untimed. The passes
  // use the stores of the first set-up; later ones go to their own dir.
  auto fill_stores = [&](const std::string& dir) -> std::shared_ptr<void> {
    BatchOptions options_in_dir = batch_options;
    options_in_dir.cache_dir = dir;
    auto loaded = Platform::LoadWithExtra({ExtraChunk(1)});
    if (!loaded.ok()) {
      CheckReport(units, loaded.status(), result);
      return nullptr;
    }
    std::shared_ptr<Platform> platform(loaded.take().release(), [dir](Platform* p) {
      delete p;
      fs::remove_all(dir);
    });
    BatchVerifier batch(platform.get());
    CheckReport(units, batch.VerifyAll(names, options_in_dir), result);
    return platform;
  };
  const std::string setup_dir = cache_dir + "-setup";
  fs::remove_all(cache_dir);  // Left by a killed run with the same pid, if any.
  fs::remove_all(setup_dir);
  std::shared_ptr<void> live = TimeSetup([&] { return fill_stores(cache_dir); }, result);
  const SetupFn setup = [&] { return fill_stores(setup_dir); };

  int version = 1;  // The helper text the stores currently hold.
  auto pass = [&] {
    version = 3 - version;
    auto loaded = Platform::LoadWithExtra({ExtraChunk(version)});
    if (!loaded.ok()) {
      CheckReport(units, loaded.status(), result);
      return;
    }
    BatchVerifier batch(loaded.value().get());
    CheckReport(units, batch.VerifyAll(names, batch_options), result);
  };

  auto traced = [&] {
    version = 3 - version;
    std::unique_ptr<Platform> platform;
    icarus::StatusOr<BatchReport> report = icarus::Status::Error("not run");
    {
      ScopedSpan pass_span(tracer, "pass");
      auto loaded = [&] {
        ScopedSpan span(tracer, "platform.load");
        return Platform::LoadWithExtra({ExtraChunk(version)});
      }();
      if (!loaded.ok()) {
        CheckReport(units, loaded.status(), result);
        return;
      }
      platform = loaded.take();
      BatchVerifier batch(platform.get());
      ScopedSpan span(tracer, "verifier.verify_all");
      report = batch.VerifyAll(names, batch_options);
    }
    CheckReport(units, report, result);
    if (!report.ok()) {
      return;
    }
    auto stats = tracer->LastRootStats("pass");
    double pass_ms = stats["pass"].max_ms;
    double load_ms = stats["platform.load"].self_ms;

    // Split of VerifyAll, timed outside the pass on the same stores: the
    // saves go to a side directory so the pass's own stores stay as written.
    {
      ScopedSpan root(tracer, "verify_all_split");
      icarus::verifier::VerdictStore store;
      icarus::sym::SolverCache cache;
      {
        ScopedSpan span(tracer, "verifier.store_load");
        store.Load(icarus::verifier::VerdictStorePath(cache_dir), icarus::verifier::kVerifierEpoch);
      }
      {
        ScopedSpan span(tracer, "sym.cache_load");
        icarus::sym::LoadSolverCache(icarus::verifier::SolverCacheStorePath(cache_dir),
                                     icarus::verifier::kVerifierEpoch, &cache);
      }
      {
        ScopedSpan span(tracer, "ast.fingerprint");
        for (const std::string& name : names) {
          (void)icarus::ast::UnitFingerprint(platform->module(), name);
        }
      }
      (void)icarus::verifier::EnsureCacheDir(side_dir);
      {
        ScopedSpan span(tracer, "verifier.store_save");
        (void)store.Save(icarus::verifier::VerdictStorePath(side_dir));
      }
      ScopedSpan span(tracer, "sym.cache_save");
      (void)icarus::sym::SaveSolverCache(cache, icarus::verifier::SolverCacheStorePath(side_dir),
                                         icarus::verifier::kVerifierEpoch,
                                         batch_options.cache_max_mb * 1024 * 1024);
    }
    auto split = tracer->LastRootStats("verify_all_split");
    double store_ms = 0.0;
    for (const char* name : {"verifier.store_load", "sym.cache_load", "ast.fingerprint",
                             "verifier.store_save", "sym.cache_save"}) {
      store_ms += split[name].self_ms;
    }
    result->layers.Add("verifier.store_load_ms", split["verifier.store_load"].self_ms);
    result->layers.Add("sym.cache_load_ms", split["sym.cache_load"].self_ms);
    result->layers.Add("ast.fingerprint_ms", split["ast.fingerprint"].self_ms);
    result->layers.Add("verifier.store_save_ms", split["verifier.store_save"].self_ms);
    result->layers.Add("sym.cache_save_ms", split["sym.cache_save"].self_ms);

    // Per-unit figures from the report rows (timed by BatchVerifier).
    const BatchReport& r = report.value();
    MetaTotals meta;
    double verify_ms = 0.0;
    double unit_max_ms = 0.0;
    for (const auto& row : r.results) {
      if (row.outcome != Outcome::kCachedSafe) {
        meta.Add(row.report.meta);
        verify_ms += row.seconds * 1e3;
        unit_max_ms = std::max(unit_max_ms, row.seconds * 1e3);
      }
    }
    meta.Record(&result->layers);
    int cached = r.NumWithOutcome(Outcome::kCachedSafe);
    result->layers.Add("verifier.cached_safe", cached);
    result->layers.Add("verifier.reverified", static_cast<double>(r.results.size()) - cached);
    result->layers.Add("verifier.verify_ms", verify_ms);
    result->layers.Add("verifier.unit_ms_max", unit_max_ms);
    result->layers.Add("sym.cache_lookups", static_cast<double>(r.cache.lookups()));
    result->layers.Add("sym.cache_hit_rate", r.cache.HitRate());
    result->layers.Add("sym.cache_preloads", static_cast<double>(r.cache.preloads));
    RecordShares(pass_ms, load_ms, meta.solve_ms, load_ms + store_ms + verify_ms,
                 &result->layers);
    TraceParseResolve(PlatformSources({ExtraChunk(version)}), tracer, result);
  };

  pass();  // Warm-up.
  MeasurePasses(options, tracer, result, pass, traced, setup);
  live.reset();
  fs::remove_all(side_dir);
  return true;
}

}  // namespace perfbench
