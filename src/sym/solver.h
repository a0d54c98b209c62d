// An incremental SMT-style satisfiability checker for the quantifier-free
// fragment the meta-executor produces: boolean combinations of
// (dis)equalities over uninterpreted terms plus integer comparisons.
//
// This stands in for Corral/Z3 in the paper's pipeline (see DESIGN.md §3).
// Architecture (the full design lives in docs/SOLVER.md):
//   1. a CDCL core over a Tseitin encoding of the boolean structure:
//      two-watched-literal unit propagation, 1-UIP conflict clause learning
//      with non-chronological backjumping, VSIDS-style activity branching
//      with phase saving, and Luby restarts;
//   2. MiniSat-style assumption handling: a query is solved *under
//      assumptions*, never by asserting the conjuncts as clauses, so the
//      clause database only ever accumulates facts that are true for every
//      query — which is what lets one Solver instance stay warm across all
//      paths of a generator and answer sibling-path queries from learned
//      clauses. Assumption i sits on decision level i + 1, and a query keeps
//      the levels of the assumptions it shares with the previous query, so
//      it pays only for the conjuncts it adds;
//   3. a theory check at each full (relevancy-bounded) assignment, by one
//      backtrackable engine (theory.h) that keeps its state per decision
//      level and reads only the atoms assigned since its last consistent
//      check: congruence closure with a proof forest for equality +
//      uninterpreted functions, difference bounds over a kept feasible
//      potential with incremental negative-cycle detection, and interval
//      propagation whose bounds remember where they came from. A conflict
//      comes back with its explanation, the atoms that caused it; the
//      negated explanation is the *theory lemma*, a valid clause learned
//      like any other that prunes sibling paths;
//   4. model extraction for counterexample reporting, from the engine's
//      classes, difference graph and intervals.
//
// Sound for UNSAT answers within the supported fragment; SAT answers come
// with a model over the atoms and integer-class values. Unsupported
// structure (e.g. nonlinear facts the interval layer cannot refute) degrades
// to SAT with a best-effort model, which for a verifier is the conservative
// direction: it can cause a spurious counterexample, never a missed bug.
//
// The pre-CDCL decide-only search (atom-level DPLL, no learning) lives in
// tests/decide_only_oracle.h, as the differential fuzz oracle and the
// ablation baseline of bench_solver. It decides through the old from-scratch
// theory checker (tests/reference_theory.h), so the fuzz compares two
// engines.
#ifndef ICARUS_SYM_SOLVER_H_
#define ICARUS_SYM_SOLVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/sym/expr.h"

namespace icarus::sym {

class SolverCache;  // solver_cache.h
struct QueryFold;   // solver_cache.h

// Three-valued answer of a satisfiability query.
enum class Verdict {
  kSat,
  kUnsat,
  kUnknown,  // Decision budget exhausted.
};

// Concrete value assigned to one named symbolic variable by a satisfying
// model. Witnesses are pool-independent (name + sort + value, no live
// ExprRefs), so they survive the solver-result cache and the verdict journal
// — this is the raw material of the flight recorder's counterexamples.
struct Witness {
  std::string name;       // Variable name, e.g. "gen_mode#3".
  Sort sort = Sort::kInt;
  int64_t value = 0;      // kBool: 0/1. kTerm: abstract individual id.

  // Renders e.g. "gen_mode#3 = 1", "gen_ok#0 = true", "run_val#2 = @7".
  std::string ToString() const;
};

// Satisfying assignment, for rendering counterexamples.
struct Model {
  // Truth value per decided atom.
  std::vector<std::pair<ExprRef, bool>> atoms;
  // Concrete value per integer/term congruence-class representative.
  std::vector<std::pair<ExprRef, int64_t>> terms;
  // Concrete value per named *variable* in the query (every kVar, not just
  // class representatives). Populated on every kSat answer, restored intact
  // from cached entries.
  std::vector<Witness> witnesses;
  // Pre-rendered model text, set when the model was restored from the
  // solver-result cache (cached entries are pool-independent and carry no
  // live ExprRefs) or rendered for a new cache entry. When non-empty,
  // ToString() returns it verbatim.
  std::string rendered;

  // Renders the assignment for counterexample reports.
  std::string ToString() const;
  // Looks up the value assigned to `term`'s class, if any.
  bool Lookup(ExprRef term, int64_t* out) const;
  // Looks up a witness by variable name (works on cache-restored models too).
  bool LookupWitness(std::string_view name, int64_t* out) const;
};

// Per-Solver counters; cache counters cover only this solver's lookups (the
// shared SolverCache keeps its own global totals). For a persistent
// (per-generator) solver the counters accumulate across queries; callers
// attributing cost per query take deltas.
struct SolverStats {
  int64_t decisions = 0;         // Branching decisions.
  int64_t propagations = 0;      // Literals assigned by unit propagation.
  int64_t conflicts = 0;         // Conflicts hit (propositional + theory).
  int64_t learned_clauses = 0;   // Clauses added by 1-UIP analysis + lemmas.
  int64_t restarts = 0;          // Search restarts (Luby policy).
  int64_t theory_checks = 0;     // Full-assignment theory checks.
  int64_t theory_conflicts = 0;  // Theory checks that produced a lemma.
  int64_t lemma_literals = 0;    // Literals over all theory lemmas.
  int64_t levels_kept = 0;       // Assumption levels a query kept from the previous one.
  int64_t theory_literals = 0;   // Theory literals read by full-assignment checks.
  int64_t queries = 0;
  int64_t cache_hits = 0;        // Queries answered by a cached entry.
  int64_t cache_misses = 0;      // Cache consulted but empty for the key.
  int64_t budget_exhausted = 0;  // Queries that degraded to kUnknown.
};

// Outcome of one Solve() call.
struct SolveResult {
  Verdict verdict = Verdict::kUnknown;
  Model model;  // Valid only when verdict == kSat.
};

// True for the boolean terms the solver treats as atoms: (in)equalities,
// integer comparisons, boolean variables and uninterpreted predicates.
bool IsAtomKind(ExprRef e);

// Decides satisfiability of conjunctions of hash-consed boolean terms.
//
// A Solver is cheap to construct and single-threaded; concurrent pipelines
// each build their own and may share one concurrency-safe SolverCache. A
// Solver may outlive many queries: internal state (the Tseitin encoding and
// every learned clause) persists across Solve() calls and is valid as long as
// the ExprPool the query terms came from is alive, so keep one instance per
// pool (the meta-executor keeps one per generator run).
//
// Solve() is the one query entry (see docs/SOLVER.md). Its conjuncts are
// assumptions, and assumptions are decisions, never clauses: each query's
// conjuncts are placed as decisions below the search, so the clause database
// holds only consequences of the empty context and nothing learned during
// one query depends on its conjuncts. A query returns with its assumption
// levels still placed; the next query cancels to the first one it does not
// share (compared by ExprRef, in order) and places only the rest.
class Solver {
 public:
  // Per-query resource budget. A query that makes more than `max_decisions`
  // branching decisions degrades to Verdict::kUnknown instead of running
  // unboundedly — callers treat that as "inconclusive", never as a verdict.
  // The budget is charged per query (counted from the start of each
  // Solve), not per solver lifetime, and counts decisions rather than wall
  // time, so every answer is a deterministic function of the query and the
  // budget.
  struct Limits {
    int64_t max_decisions = 2'000'000;
  };

  Solver();
  explicit Solver(Limits limits);
  ~Solver();
  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  // Attaches a shared result cache consulted (and filled) by Solve(). Pass
  // nullptr to detach. The cache must outlive the solver. Only decisive
  // answers are cached: cached verdicts and decisive answers produced from
  // learned clauses are interchangeable — both are budget-independent truths
  // (see docs/SOLVER.md §"Cache interaction").
  void set_cache(SolverCache* cache) { cache_ = cache; }

  // Decides satisfiability of the conjunction of `conjuncts` (boolean
  // terms). `want_model` says whether the caller will consume the model on
  // kSat: feasibility checks pass false (only the verdict matters) so cached
  // entries skip the model-rendering cost; assertion checks pass true. A
  // cached entry stored without a model still answers want_model=false hits;
  // a want_model=true lookup of such an entry re-solves and upgrades the
  // entry in place.
  SolveResult Solve(const std::vector<ExprRef>& conjuncts, bool want_model = true);

  // Counters accumulated across all queries on this instance.
  const SolverStats& stats() const { return stats_; }

 private:
  class Cdcl;  // The clause-learning engine (solver.cc).

  // Cache-independent search.
  SolveResult SolveCore(const std::vector<ExprRef>& conjuncts, bool want_model);
  // Takes in a query past the prefix it shares with the previous one: checks
  // that each new conjunct is boolean and folds it into the cache key, so
  // key_folds_.back() is the fold of the whole query (FingerprintQuery).
  void NoteQuery(const std::vector<ExprRef>& conjuncts);

  Limits limits_;
  SolverStats stats_;
  SolverCache* cache_ = nullptr;
  std::unique_ptr<Cdcl> cdcl_;  // Lazily created on first query.
  std::vector<ExprRef> key_terms_;    // The last query's conjuncts,
  std::vector<uint64_t> key_hashes_;  // their hashes,
  std::vector<QueryFold> key_folds_;  // and the fold of each prefix of them.
};

}  // namespace icarus::sym

#endif  // ICARUS_SYM_SOLVER_H_
