// The decide-only solver: the pre-CDCL search (atom-level DPLL with early
// evaluation of the boolean skeleton, no clause learning, nothing carried
// between calls) kept as test code. solver_test's differential fuzz checks
// the CDCL core's verdicts against it, and bench_solver times the CDCL core
// against it. It decides through the reference theory checker
// (tests/reference_theory.h), not the production engine, so a disagreement
// is in the boolean search (propagation, conflict analysis, learned clauses,
// warm state) or in the theory engine; theory_test tells the two apart.
#ifndef ICARUS_TESTS_DECIDE_ONLY_ORACLE_H_
#define ICARUS_TESTS_DECIDE_ONLY_ORACLE_H_

#include <vector>

#include "src/sym/expr.h"
#include "src/sym/solver.h"

namespace icarus::sym {

// Decides the conjunction of `conjuncts` with no state from earlier calls.
// Never answers kUnknown: there is no budget. Adds the search's branching
// decisions and theory checks to `*stats` when it is non-null.
SolveResult DecideOnlySolve(const std::vector<ExprRef>& conjuncts, SolverStats* stats = nullptr);

}  // namespace icarus::sym

#endif  // ICARUS_TESTS_DECIDE_ONLY_ORACLE_H_
