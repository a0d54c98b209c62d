// Solver ablation: per-query latency of the persistent CDCL core vs. the
// decide-only search (tests/decide_only_oracle.h) on a path-pruning workload.
//
// Shape to check: the stream below replays what a generator's path
// exploration sends the solver — a shared vocabulary of guards and ordered
// integers, one query per path asserting the branch prefix plus a negated
// transitive consequence of the ordering chain (an infeasible path). The
// persistent CDCL solver learns each refutation as a theory lemma the first
// time it appears and answers every later occurrence by unit propagation;
// the decide-only engine re-derives every refutation from scratch, full
// theory checks included. The bench asserts the CDCL median per-query
// latency beats decide-only by at least 5x — that amortization is the whole
// reason the solver is persistent (docs/SOLVER.md §"Why persistence pays").

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_baseline.h"
#include "src/sym/expr.h"
#include "src/sym/solver.h"
#include "src/support/str_util.h"
#include "tests/decide_only_oracle.h"

namespace {

using icarus::sym::ExprPool;
using icarus::sym::ExprRef;
using icarus::sym::Solver;
using icarus::sym::SolverStats;
using icarus::sym::Sort;
using icarus::sym::Verdict;

// One path's query: the conjunction a PathFeasible call would assert.
struct PathQuery {
  std::vector<ExprRef> conjuncts;
  Verdict expected = Verdict::kUnknown;
};

constexpr int kIntVars = 10;  // v0 < v1 < ... < v9 ordering chain.
constexpr int kGuards = 6;    // 2^6 = 64 paths, one query each.
constexpr int kRepeats = 8;   // Stream replays per engine (warm steady state).

// Builds the 64-path query stream over `pool`. Every path asserts its guard
// prefix, the full ordering chain v0 < ... < v9, and three disjunctive
// clauses whose every disjunct *reverses* some chain link (v_{i+1} < v_i —
// a distinct atom from the link's negation, so nothing propositional
// connects them). Each path is infeasible, but only the theory can see it,
// and only through the *decided* disjuncts: the units alone are consistent,
// so a refutation must try each disjunct and hit its difference-bounds
// conflict. The decide-only engine re-explores that product of conflicts on
// every query; the CDCL engine learns the per-link reversal lemma the first
// time a disjunct fails (nine links cycle across the 64 paths) and answers
// every later query by unit propagation alone.
std::vector<PathQuery> BuildStream(ExprPool& pool) {
  std::vector<ExprRef> ints;
  for (int i = 0; i < kIntVars; ++i) {
    ints.push_back(pool.Var("v" + std::to_string(i), Sort::kInt));
  }
  std::vector<ExprRef> guards;
  for (int i = 0; i < kGuards; ++i) {
    guards.push_back(pool.Var("g" + std::to_string(i), Sort::kBool));
  }
  std::vector<ExprRef> chain;
  for (int i = 0; i + 1 < kIntVars; ++i) {
    chain.push_back(pool.Lt(ints[static_cast<size_t>(i)], ints[static_cast<size_t>(i) + 1]));
  }

  std::vector<PathQuery> stream;
  for (int p = 0; p < (1 << kGuards); ++p) {
    PathQuery q;
    for (int j = 0; j < kGuards; ++j) {
      ExprRef g = guards[static_cast<size_t>(j)];
      q.conjuncts.push_back((p >> j & 1) != 0 ? g : pool.Not(g));
    }
    q.conjuncts.insert(q.conjuncts.end(), chain.begin(), chain.end());
    auto reversed = [&](int link) {
      size_t i = static_cast<size_t>(link % (kIntVars - 1));
      return pool.Lt(ints[i + 1], ints[i]);
    };
    for (int j = 0; j < 3; ++j) {
      q.conjuncts.push_back(pool.Or(reversed(p + 2 * j), reversed(p + 2 * j + 3)));
    }
    q.expected = Verdict::kUnsat;
    stream.push_back(std::move(q));
  }
  return stream;
}

double MedianMs(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  size_t n = xs.size();
  return n == 0 ? 0.0 : (n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2.0);
}

// Replays the stream `kRepeats` times through one engine. Each pass is
// timed as a whole and divided by the query count: single queries run in low
// microseconds where clock jitter would swamp the signal, so the per-query
// latency samples are per-pass averages (one sample per pass). Aborts on a
// wrong verdict.
std::vector<double> RunStream(const std::function<Verdict(const std::vector<ExprRef>&)>& solve,
                              const std::vector<PathQuery>& stream, const char* engine,
                              bool* ok) {
  std::vector<double> ms;
  ms.reserve(kRepeats);
  for (int r = 0; r < kRepeats; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    for (const PathQuery& q : stream) {
      Verdict got = solve(q.conjuncts);
      if (got != q.expected) {
        std::fprintf(stderr, "%s: wrong verdict on a stream query (got %d, want %d)\n", engine,
                     static_cast<int>(got), static_cast<int>(q.expected));
        *ok = false;
        return ms;
      }
    }
    auto t1 = std::chrono::steady_clock::now();
    ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count() /
                 static_cast<double>(stream.size()));
  }
  return ms;
}

void PrintEngine(const char* name, const std::vector<double>& ms, const SolverStats& st) {
  double mean = 0.0;
  for (double x : ms) {
    mean += x;
  }
  mean = ms.empty() ? 0.0 : mean / static_cast<double>(ms.size());
  std::printf("%-14s per-query median %9.4f ms   mean %9.4f ms   (%zu passes)\n", name,
              MedianMs(ms), mean, ms.size());
  std::printf("%-14s decisions %lld  propagations %lld  conflicts %lld  learned %lld  "
              "restarts %lld  theory checks %lld\n",
              "", static_cast<long long>(st.decisions), static_cast<long long>(st.propagations),
              static_cast<long long>(st.conflicts), static_cast<long long>(st.learned_clauses),
              static_cast<long long>(st.restarts), static_cast<long long>(st.theory_checks));
}

}  // namespace

// Usage: bench_solver [--json PATH]
int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_solver [--json PATH]\n");
      return 1;
    }
  }

  ExprPool pool;
  std::vector<PathQuery> stream = BuildStream(pool);
  std::printf("Solver ablation: %zu-query path-pruning stream x%d repeats, per-query latency\n\n",
              stream.size(), kRepeats);

  bool ok = true;
  SolverStats decide_only;
  std::vector<double> off_ms = RunStream(
      [&decide_only](const std::vector<ExprRef>& conjuncts) {
        return icarus::sym::DecideOnlySolve(conjuncts, &decide_only).verdict;
      },
      stream, "decide-only", &ok);
  PrintEngine("decide-only", off_ms, decide_only);

  Solver cdcl;  // One persistent instance across every pass.
  std::vector<double> on_ms = RunStream(
      [&cdcl](const std::vector<ExprRef>& conjuncts) {
        return cdcl.Solve(conjuncts, /*want_model=*/false).verdict;
      },
      stream, "cdcl", &ok);
  PrintEngine("cdcl", on_ms, cdcl.stats());

  double off_median = MedianMs(off_ms);
  double on_median = MedianMs(on_ms);
  double speedup = on_median > 0.0 ? off_median / on_median : 0.0;
  std::printf("\nper-query median speedup with learning on: %.1fx\n", speedup);

  // Gates: both engines must agree with the expected verdicts, the CDCL
  // engine must actually have learned (otherwise this measures nothing),
  // and learning must be worth at least 5x on the per-query median.
  bool learned = cdcl.stats().learned_clauses > 0;
  bool speedup_ok = speedup >= 5.0;
  std::printf("all verdicts correct: %s\n", ok ? "yes" : "NO");
  std::printf("cdcl learned clauses: %s\n", learned ? "yes" : "NO");
  std::printf(">=5x median speedup with learning on: %s\n", speedup_ok ? "yes" : "NO");

  if (!json_path.empty()) {
    auto stddev = [](const std::vector<double>& xs) {
      if (xs.size() < 2) {
        return 0.0;
      }
      double mean = 0.0;
      for (double x : xs) {
        mean += x;
      }
      mean /= static_cast<double>(xs.size());
      double var = 0.0;
      for (double x : xs) {
        var += (x - mean) * (x - mean);
      }
      return std::sqrt(var / static_cast<double>(xs.size() - 1));
    };
    auto mean_of = [](const std::vector<double>& xs) {
      double m = 0.0;
      for (double x : xs) {
        m += x;
      }
      return xs.empty() ? 0.0 : m / static_cast<double>(xs.size());
    };
    std::vector<icarus::bench::BenchEntry> entries;
    entries.push_back({"cdcl_per_query", mean_of(on_ms), on_median, stddev(on_ms),
                       static_cast<int>(on_ms.size())});
    entries.push_back({"decide_only_per_query", mean_of(off_ms), off_median, stddev(off_ms),
                       static_cast<int>(off_ms.size())});
    icarus::Status st = icarus::bench::WriteBenchJson(json_path, "bench_solver", entries);
    if (!st.ok()) {
      std::fprintf(stderr, "--json: %s\n", st.message().c_str());
      return 1;
    }
    std::printf("json written to %s\n", json_path.c_str());
  }
  return ok && learned && speedup_ok ? 0 : 1;
}
