#include "tests/decide_only_oracle.h"

#include <cstdint>
#include <unordered_map>
#include <utility>

#include "src/support/check.h"
#include "tests/reference_theory.h"

namespace icarus::sym {

namespace {

enum class Tri : uint8_t { kFalse, kTrue, kUnknown };

// Three-valued evaluation of the boolean skeleton under a partial
// assignment of its atoms.
class SkeletonEval {
 public:
  explicit SkeletonEval(const std::unordered_map<ExprRef, Tri>* assignment)
      : assignment_(assignment) {}

  Tri Eval(ExprRef e) {
    if (e->kind == Kind::kConstBool) {
      return e->value != 0 ? Tri::kTrue : Tri::kFalse;
    }
    if (IsAtomKind(e)) {
      auto it = assignment_->find(e);
      return it == assignment_->end() ? Tri::kUnknown : it->second;
    }
    switch (e->kind) {
      case Kind::kNot: {
        Tri v = Eval(e->args[0]);
        if (v == Tri::kUnknown) {
          return Tri::kUnknown;
        }
        return v == Tri::kTrue ? Tri::kFalse : Tri::kTrue;
      }
      case Kind::kAnd: {
        Tri a = Eval(e->args[0]);
        if (a == Tri::kFalse) {
          return Tri::kFalse;
        }
        Tri b = Eval(e->args[1]);
        if (b == Tri::kFalse) {
          return Tri::kFalse;
        }
        if (a == Tri::kTrue && b == Tri::kTrue) {
          return Tri::kTrue;
        }
        return Tri::kUnknown;
      }
      case Kind::kOr: {
        Tri a = Eval(e->args[0]);
        if (a == Tri::kTrue) {
          return Tri::kTrue;
        }
        Tri b = Eval(e->args[1]);
        if (b == Tri::kTrue) {
          return Tri::kTrue;
        }
        if (a == Tri::kFalse && b == Tri::kFalse) {
          return Tri::kFalse;
        }
        return Tri::kUnknown;
      }
      default:
        ICARUS_BUG("non-boolean node in skeleton");
    }
  }

  // First undecided atom in `e`, or nullptr.
  ExprRef PickUndecided(ExprRef e) {
    if (e->kind == Kind::kConstBool) {
      return nullptr;
    }
    if (IsAtomKind(e)) {
      return assignment_->count(e) != 0 ? nullptr : e;
    }
    for (ExprRef a : e->args) {
      if (ExprRef pick = PickUndecided(a)) {
        return pick;
      }
    }
    return nullptr;
  }

 private:
  const std::unordered_map<ExprRef, Tri>* assignment_;
};

}  // namespace

// Recursive DPLL over the query's atoms with early skeleton evaluation,
// fresh per call, no learning.
SolveResult DecideOnlySolve(const std::vector<ExprRef>& conjuncts, SolverStats* stats) {
  SolverStats discarded;
  if (stats == nullptr) {
    stats = &discarded;
  }
  std::unordered_map<ExprRef, Tri> assignment;
  SolveResult result;

  auto search = [&](auto&& self) -> bool {
    SkeletonEval eval(&assignment);
    ExprRef branch_atom = nullptr;
    for (ExprRef c : conjuncts) {
      Tri v = eval.Eval(c);
      if (v == Tri::kFalse) {
        return false;
      }
      if (v == Tri::kUnknown && branch_atom == nullptr) {
        branch_atom = eval.PickUndecided(c);
      }
    }
    if (branch_atom == nullptr) {
      // Everything propositionally true; check the decided literals against
      // the theory.
      ++stats->theory_checks;
      std::vector<std::pair<ExprRef, bool>> literals;
      literals.reserve(assignment.size());
      for (const auto& [atom, tri] : assignment) {
        literals.emplace_back(atom, tri == Tri::kTrue);
      }
      if (!CheckTheory(literals, &result.model)) {
        return false;
      }
      result.verdict = Verdict::kSat;
      return true;
    }
    for (Tri choice : {Tri::kTrue, Tri::kFalse}) {
      ++stats->decisions;
      assignment[branch_atom] = choice;
      if (self(self)) {
        return true;
      }
      assignment.erase(branch_atom);
    }
    return false;
  };

  if (!search(search)) {
    result.verdict = Verdict::kUnsat;
  }
  return result;
}

}  // namespace icarus::sym
