// The from-scratch theory checker the production solver used before its
// theory engine (src/sym/theory.h) could explain conflicts, kept as test code:
// the reference oracle. The decide-only search decides through it, so
// solver_test's differential fuzz compares two engines end to end, and
// theory_test checks that the engine answers every literal set as this checker
// does and that every explanation the engine returns is unsatisfiable here.
//
// It rebuilds congruence closure, difference bounds and interval propagation
// from the literal list on every call and reports a conflict with no reason.
#ifndef ICARUS_TESTS_REFERENCE_THEORY_H_
#define ICARUS_TESTS_REFERENCE_THEORY_H_

#include <utility>
#include <vector>

#include "src/sym/expr.h"
#include "src/sym/solver.h"

namespace icarus::sym {

// Theory check of one full assignment: `literals` are (atom, truth) pairs.
// Returns false on a theory conflict. On success fills `*model`, unless it
// is null, with the assignment, the class values and the variable
// witnesses.
bool CheckTheory(const std::vector<std::pair<ExprRef, bool>>& literals, Model* model);

}  // namespace icarus::sym

#endif  // ICARUS_TESTS_REFERENCE_THEORY_H_
