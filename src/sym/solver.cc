#include "src/sym/solver.h"

#include <algorithm>
#include <initializer_list>
#include <span>

#include "src/support/check.h"
#include "src/support/failpoint.h"
#include "src/support/str_util.h"
#include "src/sym/id_map.h"
#include "src/sym/solver_cache.h"
#include "src/sym/theory.h"

namespace icarus::sym {

// Conjuncts in the longest query among the 38 platform units (45), rounded
// up: a solver's per-query stacks start this deep instead of growing from
// empty.
constexpr size_t kQueryDepth = 64;

bool IsAtomKind(ExprRef e) {
  if (e->sort != Sort::kBool) {
    return false;
  }
  switch (e->kind) {
    case Kind::kEq:
    case Kind::kLt:
    case Kind::kLe:
    case Kind::kVar:
    case Kind::kApp:
      return true;
    default:
      return false;
  }
}

std::string Witness::ToString() const {
  switch (sort) {
    case Sort::kBool:
      return StrCat(name, " = ", value != 0 ? "true" : "false");
    case Sort::kTerm:
      // Uninterpreted individuals: the value is the abstract id of the
      // congruence class the model placed the variable in.
      return StrCat(name, " = @", value);
    case Sort::kInt:
      break;
  }
  return StrCat(name, " = ", value);
}

std::string Model::ToString() const {
  if (!rendered.empty()) {
    return rendered;  // Cache-restored model: already rendered, no live terms.
  }
  // One line per atom, then one per non-constant term.
  std::string out;
  bool first = true;
  auto next_line = [&] {
    if (!first) {
      out += '\n';
    }
    first = false;
  };
  for (const auto& [atom, truth] : atoms) {
    next_line();
    if (!truth) {
      out += '!';
    }
    ExprPool::AppendString(atom, &out);
  }
  for (const auto& [term, value] : terms) {
    if (term->kind == Kind::kConstInt) {
      continue;
    }
    next_line();
    ExprPool::AppendString(term, &out);
    out += " = ";
    out += std::to_string(value);
  }
  return out;
}

bool Model::Lookup(ExprRef term, int64_t* out) const {
  for (const auto& [t, v] : terms) {
    if (t == term) {
      *out = v;
      return true;
    }
  }
  return false;
}

bool Model::LookupWitness(std::string_view name, int64_t* out) const {
  for (const Witness& w : witnesses) {
    if (w.name == name) {
      *out = w.value;
      return true;
    }
  }
  return false;
}


// ---------------------------------------------------------------------------
// The CDCL engine.
//
// A classic conflict-driven clause-learning SAT core specialized for the
// meta-executor's workload: queries are conjunctions of hash-consed boolean
// terms that share long prefixes across sibling paths, so the engine is built
// to be *persistent* — the Tseitin encoding and every learned clause survive
// across queries, and each query is solved under MiniSat-style assumptions
// rather than by asserting its conjuncts. Theory reasoning is layered on top
// (lazy SMT): at each full assignment of the query-relevant variables the
// theory engine (theory.h) is consulted, and the explanation of a theory
// conflict is turned into a theory lemma — a clause valid in every model —
// that is learned permanently.
//
// Relevancy bounding: decisions are restricted to variables in the Tseitin
// closure of the current query's assumptions, so a warm solver carrying
// thousands of variables from earlier queries does not enumerate assignments
// for atoms the current query never mentions.
// This is sound in both directions: UNSAT answers are derived by resolution
// from clauses that are consequences of the query + valid definitions, and a
// SAT answer's partial assignment extends to a full model because every
// clause in the database is a consequence of Tseitin definitions (valid by
// construction over fresh aux variables) and theory lemmas (valid outright).
// ---------------------------------------------------------------------------
class Solver::Cdcl {
 public:
  // A literal is var*2 + sign (sign 1 = negated). A clause ref is the
  // clause's offset in clause_lits_, where its size precedes its literals.
  using Lit = int32_t;

  explicit Cdcl(SolverStats* stats) : stats_(stats) {
    // A solver encodes every query of its generator and usually stays well
    // under these sizes; growing each table from empty is a visible share of
    // a cold pass.
    vars_.reserve(kInitialVars);
    watches_.reserve(2 * kInitialVars);
    seen_.reserve(kInitialVars);
    trail_.reserve(kInitialVars);
    clause_lits_.reserve(8 * kInitialVars);
    relevant_list_.reserve(kInitialVars);
    trail_lim_.reserve(kQueryDepth);
    relevant_bounds_.reserve(kQueryDepth + 1);
    relevant_bounds_.push_back(0);
    assump_terms_.reserve(kQueryDepth);
    assump_lits_.reserve(kQueryDepth);
    // Variable 0 is the distinguished "true" variable, pinned by a level-0
    // unit clause; ConstBool terms encode to ±true_var_.
    true_var_ = NewVar(nullptr, /*is_atom=*/false);
    AddClauseLits({MkLit(true_var_, false)});
  }

  // Solves the conjunction of `assumptions`, each placed as a decision.
  // Assumption i sits on decision level i + 1. The levels this query shares
  // with the previous one (equal terms, in order) are kept from it: the query
  // cancels to the first level that differs, and encodes and marks relevant
  // only the conjuncts past it.
  SolveResult Solve(const std::vector<ExprRef>& assumptions, const Limits& limits,
                    bool want_model) {
    SolveResult res;
    if (!ok_) {
      res.verdict = Verdict::kUnsat;
      return res;
    }
    size_t keep = 0;
    while (keep < assump_terms_.size() && keep < assumptions.size() &&
           assump_terms_[keep] == assumptions[keep]) {
      ++keep;
    }
    keep = std::min(keep, static_cast<size_t>(DecisionLevel()));
    CancelUntil(static_cast<int>(keep));
    stats_->levels_kept += static_cast<int64_t>(keep);
    assump_terms_.resize(keep);
    assump_lits_.resize(keep);
    // Relevancy: decisions (and hence theory-check size) are confined to the
    // closure of this query's assumptions. The relevant list is a stack with
    // one boundary per assumption, so the kept prefix keeps its marks and
    // the list has the order a from-scratch marking would give it.
    for (size_t i = relevant_bounds_[keep]; i < relevant_list_.size(); ++i) {
      vars_[static_cast<size_t>(relevant_list_[i])].relevant = false;
    }
    relevant_list_.resize(relevant_bounds_[keep]);
    relevant_bounds_.resize(keep + 1);
    // New Tseitin definitions become permanent clauses (AddClauseLits
    // attaches them above level 0).
    for (size_t i = keep; i < assumptions.size(); ++i) {
      assump_terms_.push_back(assumptions[i]);
      assump_lits_.push_back(EncodeTerm(assumptions[i]));
    }
    for (size_t i = keep; i < assumptions.size(); ++i) {
      MarkRelevant(assumptions[i]);
      relevant_bounds_.push_back(relevant_list_.size());
    }

    // The budget is per query; decisions count from this query's start.
    const int64_t decisions_at_start = stats_->decisions;
    int64_t conflicts_since_restart = 0;
    int64_t restart_seq = 0;
    int64_t restart_limit = kRestartBase * Luby(restart_seq);

    Verdict verdict = Verdict::kUnknown;
    for (;;) {
      int confl = Propagate();
      if (confl == kCRefUndef) {
        if (stats_->decisions - decisions_at_start > limits.max_decisions) {
          break;  // kUnknown: decision budget exhausted.
        }
        if (conflicts_since_restart >= restart_limit) {
          ++stats_->restarts;
          ++restart_seq;
          restart_limit = kRestartBase * Luby(restart_seq);
          conflicts_since_restart = 0;
          CancelUntil(AssumptionLevel());
          continue;
        }
        if (DecisionLevel() < static_cast<int>(assump_lits_.size())) {
          // Place the next assumption on its own decision level. Assumptions
          // are decisions, never clauses: nothing learned can depend on them.
          // One already false is refuted by the clause database and the
          // assumptions placed before it: the query is unsat.
          Lit p = assump_lits_[static_cast<size_t>(DecisionLevel())];
          if (LitValue(p) == LB::kTrue) {
            NewDecisionLevel();  // Dummy level keeps index == level in sync.
          } else if (LitValue(p) == LB::kFalse) {
            verdict = Verdict::kUnsat;
            break;
          } else {
            NewDecisionLevel();
            UncheckedEnqueue(p, kCRefUndef);
          }
          continue;
        }
        int v = PickBranchVar();
        if (v >= 0) {
          ICARUS_FAILPOINT(failpoint::kSolverDecision);
          ++stats_->decisions;
          NewDecisionLevel();
          UncheckedEnqueue(MkLit(v, !vars_[static_cast<size_t>(v)].phase), kCRefUndef);
          continue;
        }
        // Full assignment over the relevant closure: consult the theory.
        TheoryOutcome outcome = TheoryCheckFull(want_model, &res.model, &confl);
        if (outcome == TheoryOutcome::kConsistent) {
          verdict = Verdict::kSat;
          break;
        }
        if (outcome == TheoryOutcome::kGlobalUnsat) {
          verdict = Verdict::kUnsat;
          break;
        }
        if (outcome == TheoryOutcome::kUnitLemma) {
          ++stats_->conflicts;
          ++conflicts_since_restart;
          continue;
        }
        // TheoryOutcome::kLemmaConflict: fall through with confl set.
      }
      ++stats_->conflicts;
      ++conflicts_since_restart;
      if (DecisionLevel() == 0) {
        // Conflict with no decisions or assumptions on the trail: the clause
        // database itself is inconsistent — everything is unsat from now on.
        ok_ = false;
        verdict = Verdict::kUnsat;
        break;
      }
      int bt = 0;
      Analyze(confl, &learnt_, &bt);
      CancelUntil(bt);
      if (learnt_.size() == 1) {
        UncheckedEnqueue(learnt_[0], kCRefUndef);  // Permanent level-0 fact.
      } else {
        UncheckedEnqueue(learnt_[0], AttachClause(learnt_));
      }
      ++stats_->learned_clauses;
      var_inc_ /= kActivityDecay;
    }
    // Keep the placed assumption levels for the next query.
    CancelUntil(AssumptionLevel());
    if (verdict == Verdict::kUnknown) {
      ++stats_->budget_exhausted;
    }
    res.verdict = verdict;
    return res;
  }

 private:
  enum class LB : uint8_t { kTrue, kFalse, kUndef };
  enum class TheoryOutcome { kConsistent, kLemmaConflict, kUnitLemma, kGlobalUnsat };

  static constexpr int kCRefUndef = -1;
  static constexpr Lit kLitUndef = -1;
  static constexpr int64_t kRestartBase = 64;
  static constexpr double kActivityDecay = 0.95;
  static constexpr double kActivityLimit = 1e100;
  static constexpr size_t kInitialVars = 256;

  struct VarData {
    ExprRef term = nullptr;  // The atom for is_atom vars; null for aux vars.
    LB value = LB::kUndef;
    bool phase = true;   // Saved polarity; starts true (try-true-first, like
                         // the decide-only engine).
    bool is_atom = false;
    int atom = -1;  // Theory atom id; -1 for aux vars and boolean variables.
    int level = 0;
    int reason = kCRefUndef;
    double activity = 0.0;
    bool relevant = false;  // In the current query's relevant closure.
  };

  static Lit MkLit(int var, bool neg) { return var * 2 + (neg ? 1 : 0); }
  static Lit Negate(Lit l) { return l ^ 1; }
  static int VarOf(Lit l) { return l >> 1; }
  static bool SignOf(Lit l) { return (l & 1) != 0; }

  // The x-th element of the Luby restart sequence 1,1,2,1,1,2,4,...
  static int64_t Luby(int64_t x) {
    int64_t size = 1;
    int64_t seq = 0;
    while (size < x + 1) {
      ++seq;
      size = 2 * size + 1;
    }
    while (size - 1 != x) {
      size = (size - 1) / 2;
      --seq;
      x = x % size;
    }
    return seq < 62 ? (int64_t{1} << seq) : (int64_t{1} << 62);
  }

  LB LitValue(Lit l) const {
    LB v = vars_[static_cast<size_t>(VarOf(l))].value;
    if (v == LB::kUndef) {
      return LB::kUndef;
    }
    return ((v == LB::kTrue) != SignOf(l)) ? LB::kTrue : LB::kFalse;
  }

  int DecisionLevel() const { return static_cast<int>(trail_lim_.size()); }
  // The highest level that holds only assumptions: a restart or the end of a
  // query cancels to it.
  int AssumptionLevel() const {
    return std::min(DecisionLevel(), static_cast<int>(assump_lits_.size()));
  }
  void NewDecisionLevel() { trail_lim_.push_back(static_cast<int>(trail_.size())); }

  int NewVar(ExprRef term, bool is_atom) {
    int v = static_cast<int>(vars_.size());
    VarData vd;
    vd.term = term;
    vd.is_atom = is_atom;
    vars_.push_back(vd);
    watches_.emplace_back();
    watches_.emplace_back();
    seen_.push_back(0);
    return v;
  }

  // Tseitin encoding of a boolean term, memoized across queries (hash-consing
  // makes the subterm → literal map stable for the life of the pool).
  Lit EncodeTerm(ExprRef e) {
    if (e->kind == Kind::kConstBool) {
      return MkLit(true_var_, e->value == 0);
    }
    if (const Lit hit = enc_cache_.Find(e); hit >= 0) {
      return hit;
    }
    Lit out = kLitUndef;
    if (IsAtomKind(e)) {
      int v = NewVar(e, /*is_atom=*/true);
      if (e->kind != Kind::kVar) {
        vars_[static_cast<size_t>(v)].atom = theory_.AddAtom(e);
      }
      out = MkLit(v, false);
    } else {
      switch (e->kind) {
        case Kind::kNot:
          out = Negate(EncodeTerm(e->args[0]));
          break;
        case Kind::kAnd: {
          Lit a = EncodeTerm(e->args[0]);
          Lit b = EncodeTerm(e->args[1]);
          Lit v = MkLit(NewVar(e, /*is_atom=*/false), false);
          AddClauseLits({Negate(v), a});
          AddClauseLits({Negate(v), b});
          AddClauseLits({v, Negate(a), Negate(b)});
          out = v;
          break;
        }
        case Kind::kOr: {
          Lit a = EncodeTerm(e->args[0]);
          Lit b = EncodeTerm(e->args[1]);
          Lit v = MkLit(NewVar(e, /*is_atom=*/false), false);
          AddClauseLits({v, Negate(a)});
          AddClauseLits({v, Negate(b)});
          AddClauseLits({Negate(v), a, b});
          out = v;
          break;
        }
        default:
          ICARUS_BUG("non-boolean node in skeleton");
      }
    }
    enc_cache_.Insert(e, out);
    return out;
  }

  // Marks relevant the variables in the Tseitin closure of `root` (which
  // must be encoded), appending them to the relevant list in variable order.
  // The walk stops at a variable already relevant: its closure already is.
  void MarkRelevant(ExprRef root) {
    const size_t begin = relevant_list_.size();
    MarkClosure(root);
    std::sort(relevant_list_.begin() + static_cast<std::ptrdiff_t>(begin), relevant_list_.end());
  }

  void MarkClosure(ExprRef e) {
    // kNot has no variable of its own; kAnd/kOr own a Tseitin aux variable.
    if (e->kind != Kind::kNot) {
      const int v = e->kind == Kind::kConstBool ? true_var_ : VarOf(enc_cache_.Find(e));
      VarData& vd = vars_[static_cast<size_t>(v)];
      if (vd.relevant) {
        return;
      }
      vd.relevant = true;
      relevant_list_.push_back(v);
      if (IsAtomKind(e)) {
        return;
      }
    }
    for (ExprRef a : e->args) {
      MarkClosure(a);
    }
  }

  // Adds a permanent clause, simplified in a reused buffer. Only level-0
  // values simplify it, so it may be added above level 0 (a new conjunct's
  // Tseitin clauses arrive on top of the kept assumption levels): non-false
  // literals are watched first, a clause already unit under the current
  // levels propagates, and one already false falls back to level 0.
  void AddClauseLits(std::initializer_list<Lit> clause) {
    AddClauseLits(std::span<const Lit>(clause.begin(), clause.size()));
  }
  void AddClauseLits(std::span<const Lit> clause) {
    if (!ok_) {
      return;
    }
    std::vector<Lit>& lits = add_buf_;
    lits.assign(clause.begin(), clause.end());
    std::sort(lits.begin(), lits.end());
    lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
    Lit root_false = kLitUndef;  // One literal false at level 0, if any.
    size_t out = 0;
    for (size_t i = 0; i < lits.size(); ++i) {
      if (i + 1 < lits.size() && VarOf(lits[i]) == VarOf(lits[i + 1])) {
        return;  // l and ¬l adjacent after sorting: tautology.
      }
      LB v = RootValue(lits[i]);
      if (v == LB::kTrue) {
        return;  // Already satisfied at level 0.
      }
      if (v == LB::kFalse) {
        root_false = lits[i];
        continue;  // Falsified at level 0: drop the literal.
      }
      lits[out++] = lits[i];
    }
    lits.resize(out);
    if (lits.empty()) {
      ok_ = false;
      return;
    }
    if (lits.size() == 1) {
      // Above level 0 a unit keeps a dropped level-0 literal as its second
      // watch, so that it holds, or propagates with a reason, on the kept
      // levels; otherwise it is a level-0 fact.
      if (DecisionLevel() == 0 || root_false == kLitUndef || LitValue(lits[0]) == LB::kFalse) {
        CancelUntil(0);
        UncheckedEnqueue(lits[0], kCRefUndef);
        return;
      }
      lits.push_back(root_false);
    }
    // Non-false literals first; then false ones, highest level first. A
    // stable insertion sort: the order std::stable_sort gives, without its
    // temporary buffer.
    auto rank = [this](Lit l) {
      return LitValue(l) == LB::kFalse ? vars_[static_cast<size_t>(VarOf(l))].level : INT32_MAX;
    };
    for (size_t i = 1; i < lits.size(); ++i) {
      const Lit l = lits[i];
      size_t j = i;
      for (; j > 0 && rank(lits[j - 1]) < rank(l); --j) {
        lits[j] = lits[j - 1];
      }
      lits[j] = l;
    }
    if (LitValue(lits[0]) == LB::kFalse) {
      CancelUntil(0);  // False under the kept levels: attach at the root.
      AttachClause(lits);
      return;
    }
    const bool unit = LitValue(lits[0]) == LB::kUndef && LitValue(lits[1]) == LB::kFalse;
    int cr = AttachClause(lits);
    if (unit) {
      UncheckedEnqueue(lits[0], cr);
      ++stats_->propagations;
    }
  }

  // A literal's value at level 0 (kUndef when it is assigned above it).
  LB RootValue(Lit l) const {
    return vars_[static_cast<size_t>(VarOf(l))].level == 0 ? LitValue(l) : LB::kUndef;
  }

  // Appends a clause of at least two literals to the store and watches its
  // first two.
  int AttachClause(std::span<const Lit> lits) {
    int cr = static_cast<int>(clause_lits_.size());
    watches_[static_cast<size_t>(lits[0])].push_back(cr);
    watches_[static_cast<size_t>(lits[1])].push_back(cr);
    clause_lits_.push_back(static_cast<Lit>(lits.size()));
    clause_lits_.insert(clause_lits_.end(), lits.begin(), lits.end());
    return cr;
  }

  std::span<Lit> Clause(int cr) {
    const size_t at = static_cast<size_t>(cr);
    return {clause_lits_.data() + at + 1, static_cast<size_t>(clause_lits_[at])};
  }

  void UncheckedEnqueue(Lit p, int reason) {
    VarData& vd = vars_[static_cast<size_t>(VarOf(p))];
    vd.value = SignOf(p) ? LB::kFalse : LB::kTrue;
    vd.level = DecisionLevel();
    vd.reason = reason;
    trail_.push_back(p);
  }

  // Two-watched-literal unit propagation. Returns the conflicting clause
  // ref, or kCRefUndef. Invariant for conflict analysis: a reason clause
  // keeps its implied literal at position 0 for as long as it is a reason.
  int Propagate() {
    int confl = kCRefUndef;
    while (qhead_ < trail_.size()) {
      Lit p = trail_[qhead_++];
      Lit false_lit = Negate(p);
      std::vector<int>& ws = watches_[static_cast<size_t>(false_lit)];
      size_t i = 0;
      size_t j = 0;
      while (i < ws.size()) {
        int cr = ws[i++];
        std::span<Lit> c = Clause(cr);
        if (c[0] == false_lit) {
          std::swap(c[0], c[1]);
        }
        if (LitValue(c[0]) == LB::kTrue) {
          ws[j++] = cr;
          continue;
        }
        bool moved = false;
        for (size_t k = 2; k < c.size(); ++k) {
          if (LitValue(c[k]) != LB::kFalse) {
            std::swap(c[1], c[k]);
            watches_[static_cast<size_t>(c[1])].push_back(cr);
            moved = true;
            break;
          }
        }
        if (moved) {
          continue;  // Watch moved; drop from this list.
        }
        ws[j++] = cr;
        if (LitValue(c[0]) == LB::kFalse) {
          confl = cr;
          qhead_ = trail_.size();
          while (i < ws.size()) {
            ws[j++] = ws[i++];
          }
          break;
        }
        UncheckedEnqueue(c[0], cr);
        ++stats_->propagations;
      }
      ws.resize(j);
      if (confl != kCRefUndef) {
        break;
      }
    }
    return confl;
  }

  void CancelUntil(int level) {
    if (DecisionLevel() <= level) {
      return;
    }
    for (int i = static_cast<int>(trail_.size()) - 1;
         i >= trail_lim_[static_cast<size_t>(level)]; --i) {
      VarData& vd = vars_[static_cast<size_t>(VarOf(trail_[static_cast<size_t>(i)]))];
      vd.phase = (vd.value == LB::kTrue);  // Phase saving.
      vd.value = LB::kUndef;
      vd.reason = kCRefUndef;
    }
    trail_.resize(static_cast<size_t>(trail_lim_[static_cast<size_t>(level)]));
    trail_lim_.resize(static_cast<size_t>(level));
    qhead_ = trail_.size();
    theory_head_ = std::min(theory_head_, trail_.size());
    theory_.Backtrack(level);
    theory_vars_.resize(static_cast<size_t>(theory_.size()));
  }

  // Highest-activity unassigned variable among this query's relevant set.
  int PickBranchVar() const {
    int best = -1;
    double best_act = -1.0;
    for (int v : relevant_list_) {
      const VarData& vd = vars_[static_cast<size_t>(v)];
      if (vd.value != LB::kUndef) {
        continue;
      }
      if (best < 0 || vd.activity > best_act) {
        best = v;
        best_act = vd.activity;
      }
    }
    return best;
  }

  void BumpActivity(int v) {
    double& a = vars_[static_cast<size_t>(v)].activity;
    a += var_inc_;
    if (a > kActivityLimit) {
      for (VarData& vd : vars_) {
        vd.activity *= 1e-100;
      }
      var_inc_ *= 1e-100;
    }
  }

  // Standard 1-UIP conflict analysis: resolves the conflict clause backward
  // along the trail until exactly one literal of the current decision level
  // remains. learnt[0] is the asserting literal; out_btlevel the backjump
  // target (the second-highest level in the clause).
  void Analyze(int confl, std::vector<Lit>* out_learnt, int* out_btlevel) {
    out_learnt->clear();
    out_learnt->push_back(kLitUndef);  // Slot for the asserting literal.
    int pathC = 0;
    Lit p = kLitUndef;
    int index = static_cast<int>(trail_.size()) - 1;
    do {
      ICARUS_REQUIRE_MSG(confl != kCRefUndef, "conflict analysis lost its reason chain");
      std::span<const Lit> c = Clause(confl);
      for (size_t j = (p == kLitUndef) ? 0 : 1; j < c.size(); ++j) {
        int v = VarOf(c[j]);
        VarData& vd = vars_[static_cast<size_t>(v)];
        if (seen_[static_cast<size_t>(v)] == 0 && vd.level > 0) {
          BumpActivity(v);
          seen_[static_cast<size_t>(v)] = 1;
          if (vd.level >= DecisionLevel()) {
            ++pathC;
          } else {
            out_learnt->push_back(c[j]);
          }
        }
      }
      while (seen_[static_cast<size_t>(VarOf(trail_[static_cast<size_t>(index)]))] == 0) {
        --index;
      }
      p = trail_[static_cast<size_t>(index)];
      --index;
      confl = vars_[static_cast<size_t>(VarOf(p))].reason;
      seen_[static_cast<size_t>(VarOf(p))] = 0;
      --pathC;
    } while (pathC > 0);
    (*out_learnt)[0] = Negate(p);
    if (out_learnt->size() == 1) {
      *out_btlevel = 0;
    } else {
      size_t max_i = 1;
      for (size_t i = 2; i < out_learnt->size(); ++i) {
        if (vars_[static_cast<size_t>(VarOf((*out_learnt)[i]))].level >
            vars_[static_cast<size_t>(VarOf((*out_learnt)[max_i]))].level) {
          max_i = i;
        }
      }
      std::swap((*out_learnt)[1], (*out_learnt)[max_i]);
      *out_btlevel = vars_[static_cast<size_t>(VarOf((*out_learnt)[1]))].level;
    }
    for (Lit l : *out_learnt) {
      seen_[static_cast<size_t>(VarOf(l))] = 0;
    }
  }

  // Theory check at a full assignment of the relevant closure. Hands the
  // engine the theory atoms assigned since the last check (the engine keeps
  // the rest, level by level, and CancelUntil backtracks it); they are a
  // superset of the relevant atoms — all assigned literals are consequences
  // of the current context, so including them is sound. On conflict the
  // engine's explanation becomes the theory lemma, staged as either a unit
  // level-0 fact or a conflict clause for Analyze.
  TheoryOutcome TheoryCheckFull(bool want_model, Model* model, int* out_confl) {
    ++stats_->theory_checks;
    for (; theory_head_ < trail_.size(); ++theory_head_) {
      const int v = VarOf(trail_[theory_head_]);
      const VarData& vd = vars_[static_cast<size_t>(v)];
      if (vd.atom >= 0) {
        theory_.Assert(vd.atom, vd.value == LB::kTrue, vd.level);
        theory_vars_.push_back(v);
      }
    }
    const int64_t read_before = theory_.literals_read();
    const bool consistent = theory_.Check(&explanation_);
    stats_->theory_literals += theory_.literals_read() - read_before;
    if (consistent) {
      if (want_model) {
        BuildModel(model);
      }
      return TheoryOutcome::kConsistent;
    }
    ++stats_->theory_conflicts;
    // The lemma: at least one explanation literal must flip. Valid in every model
    // (it mentions no aux variables), so it is learned permanently and keeps
    // pruning across queries.
    std::vector<Lit>& lemma = lemma_;
    lemma.clear();
    int max_level = 0;
    for (int pos : explanation_) {
      int v = theory_vars_[static_cast<size_t>(pos)];
      // Negation of the current literal.
      lemma.push_back(MkLit(v, theory_.lit(pos).truth));
      max_level = std::max(max_level, vars_[static_cast<size_t>(v)].level);
    }
    stats_->lemma_literals += static_cast<int64_t>(lemma.size());
    if (max_level == 0) {
      // The level-0 facts alone are theory-inconsistent: globally unsat.
      ok_ = false;
      return TheoryOutcome::kGlobalUnsat;
    }
    if (lemma.size() == 1) {
      CancelUntil(0);
      AddClauseLits(std::span<const Lit>(lemma.data(), 1));
      ++stats_->learned_clauses;
      return TheoryOutcome::kUnitLemma;
    }
    // Backtrack so the lemma has a literal at the (new) current level, put
    // the two highest-level literals in the watch positions, and hand it to
    // conflict analysis as the conflicting clause.
    CancelUntil(max_level);
    auto level_of = [this](Lit l) {
      return vars_[static_cast<size_t>(VarOf(l))].level;
    };
    size_t hi0 = 0;
    for (size_t i = 1; i < lemma.size(); ++i) {
      if (level_of(lemma[i]) > level_of(lemma[hi0])) {
        hi0 = i;
      }
    }
    std::swap(lemma[0], lemma[hi0]);
    size_t hi1 = 1;
    for (size_t i = 2; i < lemma.size(); ++i) {
      if (level_of(lemma[i]) > level_of(lemma[hi1])) {
        hi1 = i;
      }
    }
    std::swap(lemma[1], lemma[hi1]);
    int cr = AttachClause(lemma);
    ++stats_->learned_clauses;
    *out_confl = cr;
    return TheoryOutcome::kLemmaConflict;
  }

  // The model of a consistent full assignment: every assigned atom (boolean
  // variables included, as witnesses) plus the engine's class values.
  void BuildModel(Model* model) const {
    for (Lit p : trail_) {
      const VarData& vd = vars_[static_cast<size_t>(VarOf(p))];
      if (vd.is_atom) {
        model->atoms.emplace_back(vd.term, vd.value == LB::kTrue);
      }
    }
    theory_.BuildModel(model);
    for (const auto& [atom, truth] : model->atoms) {
      if (atom->kind == Kind::kVar) {
        model->witnesses.push_back(Witness{std::string(atom->name), Sort::kBool, truth ? 1 : 0});
      }
    }
  }

  SolverStats* stats_;
  bool ok_ = true;  // False once the clause database is inconsistent.
  int true_var_ = 0;
  std::vector<VarData> vars_;
  std::vector<Lit> clause_lits_;  // Every clause, append-only: size, then literals.
  std::vector<std::vector<int>> watches_;  // Per literal: clauses watching it.
  std::vector<Lit> trail_;
  std::vector<int> trail_lim_;
  size_t qhead_ = 0;
  std::vector<uint8_t> seen_;  // Scratch for Analyze, per var.
  std::vector<Lit> learnt_;    // Analyze's clause,
  std::vector<Lit> lemma_;     // a theory lemma
  std::vector<Lit> add_buf_;   // and AddClauseLits's copy, reused.
  double var_inc_ = 1.0;
  std::vector<int> relevant_list_;
  std::vector<size_t> relevant_bounds_;  // Per kept assumption: list size before it.
  NodeIdMap enc_cache_;  // Term → its literal (memoized Tseitin encoding).
  std::vector<ExprRef> assump_terms_;  // The last query's assumptions...
  std::vector<Lit> assump_lits_;       // ...and their literals.
  TheoryEngine theory_;
  size_t theory_head_ = 0;         // Trail prefix whose theory atoms the engine holds.
  std::vector<int> theory_vars_;   // Per engine literal: its variable.
  std::vector<int> explanation_;   // Positions on the engine's literal stack.
};

// ---------------------------------------------------------------------------
// Solver: the query interface over the CDCL engine.
// ---------------------------------------------------------------------------

Solver::Solver() : Solver(Limits{}) {}
Solver::Solver(Limits limits) : limits_(limits) {
  key_terms_.reserve(kQueryDepth);
  key_hashes_.reserve(kQueryDepth);
  key_folds_.reserve(kQueryDepth + 1);
}
Solver::~Solver() = default;

SolveResult Solver::Solve(const std::vector<ExprRef>& conjuncts, bool want_model) {
  NoteQuery(conjuncts);
  ++stats_.queries;
  if (cache_ == nullptr) {
    return SolveCore(conjuncts, want_model);
  }
  const QueryKey key = key_folds_.back().Finish();
  // A kSat entry stored without a model cannot serve a model-needing caller;
  // Lookup reports it as a miss and the re-solve below upgrades the entry.
  std::optional<SolverCache::Entry> entry = cache_->Lookup(key, want_model);
  if (entry.has_value()) {
    SolveResult cached;
    cached.verdict = entry->verdict;
    if (entry->verdict == Verdict::kSat && want_model) {
      cached.model.rendered = std::move(entry->model_text);
      cached.model.witnesses = std::move(entry->witnesses);
    }
    ++stats_.cache_hits;
    return cached;
  }
  ++stats_.cache_misses;
  SolveResult result = SolveCore(conjuncts, want_model);
  SolverCache::Entry fresh;
  fresh.verdict = result.verdict;
  if (result.verdict == Verdict::kSat && want_model) {
    // Rendering the model is the expensive part of an insertion; skip it for
    // verdict-only callers (the entry can be upgraded later if needed). The
    // text goes back with the result too, so the caller does not render it
    // again.
    fresh.has_model = true;
    result.model.rendered = result.model.ToString();
    fresh.model_text = result.model.rendered;
    fresh.witnesses = result.model.witnesses;
  }
  // Insert keeps decisive verdicts only. A kUnknown is a fact about this
  // query's budget, not about the query, so it is returned but never cached.
  // Decisive verdicts are budget-independent — including ones found cheaply
  // via learned clauses: a learned clause is a logical consequence of the
  // database, so any answer derived from it would also have been found by
  // uninformed search.
  cache_->Insert(key, std::move(fresh));
  return result;
}

void Solver::NoteQuery(const std::vector<ExprRef>& conjuncts) {
  size_t keep = 0;
  while (keep < key_terms_.size() && keep < conjuncts.size() &&
         key_terms_[keep] == conjuncts[keep]) {
    ++keep;
  }
  key_terms_.resize(keep);
  key_hashes_.resize(keep);
  key_folds_.resize(keep + 1);
  for (size_t i = keep; i < conjuncts.size(); ++i) {
    ExprRef c = conjuncts[i];
    ICARUS_REQUIRE_MSG(c->sort == Sort::kBool, "non-boolean conjunct in solver query");
    QueryFold fold = key_folds_.back();
    if (std::find(key_hashes_.begin(), key_hashes_.end(), c->chash) == key_hashes_.end()) {
      fold.Add(c->chash);
    }
    key_terms_.push_back(c);
    key_hashes_.push_back(c->chash);
    key_folds_.push_back(fold);
  }
}

SolveResult Solver::SolveCore(const std::vector<ExprRef>& conjuncts, bool want_model) {
  // One failpoint hit per searched (cache-missed) query, in addition to the
  // per-decision hits inside the engine, so fault-injection tests observe
  // query-grained activity even when learned clauses answer with few or no
  // decisions. Cache hits do not fire.
  ICARUS_FAILPOINT(failpoint::kSolverDecision);
  if (cdcl_ == nullptr) {
    cdcl_ = std::make_unique<Cdcl>(&stats_);
  }
  return cdcl_->Solve(conjuncts, limits_, want_model);
}

}  // namespace icarus::sym
