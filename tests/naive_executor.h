// The naive meta-stub search of §2.4, kept as test code: meta_cfa_test
// checks the k^n explosion against the CFA-constrained count, and
// bench_cfa_ablation reproduces the paper's growth sweep with it.
//
// A naive encoding of the interpreter phase leaves the instruction buffer
// fully symbolic: at each position the symbolic executor must consider every
// target op (k choices), giving ~k^n candidate sequences for stubs of length
// n — the combinatorial explosion that made Corral run for a month on the
// unoptimized meta-stub. This module reproduces that search structure: a
// depth-first enumeration over op choices, paying a small symbolic-execution
// cost per explored state, under a wall-clock budget. The CFA-constrained
// mode replaces the k-way choice with the automaton's successor sets,
// which collapses the search to the sparse set of feasible sequences.
#ifndef ICARUS_TESTS_NAIVE_EXECUTOR_H_
#define ICARUS_TESTS_NAIVE_EXECUTOR_H_

#include <cstdint>
#include <string>

#include "src/ast/ast.h"
#include "src/support/status.h"

namespace icarus::cfa {
class Cfa;
}

namespace icarus::meta {

struct NaiveConfig {
  int max_len = 10;                  // Buffer length bound n.
  double time_budget_seconds = 2.0;  // Wall-clock cutoff for the enumeration.
};

struct NaiveResult {
  int64_t states_explored = 0;      // Interpreter states visited.
  int64_t sequences_completed = 0;  // Full length-n sequences finished.
  int num_ops = 0;                  // k.
  int max_len = 0;                  // n.
  double seconds = 0.0;
  bool budget_exhausted = false;
  double total_state_space = 0.0;   // sum_{l<=n} k^l (naive) or CFA path count.

  // Wall-clock projection for covering the whole space at the observed rate.
  double ProjectedSeconds() const;
  std::string Summary() const;
};

class NaiveExecutor {
 public:
  // Naive mode: every buffer slot ranges over all k interpreter ops.
  static NaiveResult RunNaive(const ast::InterpreterDecl* interp, const NaiveConfig& config);

  // CFA-constrained mode: slot choices follow the automaton's edges.
  static NaiveResult RunCfaConstrained(const cfa::Cfa& automaton, const NaiveConfig& config);
};

}  // namespace icarus::meta

#endif  // ICARUS_TESTS_NAIVE_EXECUTOR_H_
