#include "tests/naive_executor.h"

#include <cmath>

#include "src/cfa/cfa.h"
#include "src/support/str_util.h"
#include "src/support/timing.h"
#include "src/sym/expr.h"
#include "src/sym/solver.h"

namespace icarus::meta {

namespace {

// Per-state symbolic work: extend a difference chain by one constraint and
// re-check satisfiability, standing in for the solver work a symbolic
// executor performs when it steps one (fully symbolic) instruction.
class StateCost {
 public:
  explicit StateCost(sym::ExprPool* pool) : pool_(pool) {}

  void Push(int depth) {
    sym::ExprRef v = pool_->Var(StrCat("s", depth), sym::Sort::kInt);
    if (!chain_.empty()) {
      constraints_.push_back(pool_->Lt(chain_.back(), v));
    }
    chain_.push_back(v);
    sym::Solver solver;
    (void)solver.Solve(constraints_);
  }

  void Pop() {
    chain_.pop_back();
    if (!constraints_.empty()) {
      constraints_.pop_back();
    }
  }

 private:
  sym::ExprPool* pool_;
  std::vector<sym::ExprRef> chain_;
  std::vector<sym::ExprRef> constraints_;
};

}  // namespace

double NaiveResult::ProjectedSeconds() const {
  if (states_explored == 0 || seconds <= 0.0) {
    return 0.0;
  }
  double rate = static_cast<double>(states_explored) / seconds;
  return total_state_space / rate;
}

std::string NaiveResult::Summary() const {
  std::string out = StrFormat(
      "k=%d ops, n<=%d: explored %lld states (%lld complete) in %.2fs%s; state space %.3g",
      num_ops, max_len, static_cast<long long>(states_explored),
      static_cast<long long>(sequences_completed), seconds,
      budget_exhausted ? " [budget hit]" : "", total_state_space);
  if (budget_exhausted) {
    double proj = ProjectedSeconds();
    if (proj > 3600 * 24 * 365) {
      out += StrFormat(" -> projected %.3g years to exhaust", proj / (3600.0 * 24 * 365));
    } else {
      out += StrFormat(" -> projected %.3gs to exhaust", proj);
    }
  }
  return out;
}

NaiveResult NaiveExecutor::RunNaive(const ast::InterpreterDecl* interp,
                                    const NaiveConfig& config) {
  NaiveResult result;
  result.num_ops = static_cast<int>(interp->op_callbacks.size());
  result.max_len = config.max_len;
  double space = 0.0;
  double level = 1.0;
  for (int l = 1; l <= config.max_len; ++l) {
    level *= static_cast<double>(result.num_ops);
    space += level;
  }
  result.total_state_space = space;

  WallTimer timer;
  sym::ExprPool pool;
  StateCost cost(&pool);
  // Iterative DFS over op choices per slot.
  std::vector<int> choice_stack;
  choice_stack.push_back(0);
  while (!choice_stack.empty()) {
    if (timer.ElapsedSeconds() > config.time_budget_seconds) {
      result.budget_exhausted = true;
      break;
    }
    int depth = static_cast<int>(choice_stack.size()) - 1;
    int& choice = choice_stack.back();
    if (choice >= result.num_ops) {
      choice_stack.pop_back();
      if (!choice_stack.empty()) {
        cost.Pop();
        ++choice_stack.back();
      }
      continue;
    }
    // Visit state (depth, choice).
    ++result.states_explored;
    cost.Push(depth);
    if (depth + 1 >= config.max_len) {
      ++result.sequences_completed;
      cost.Pop();
      ++choice;
    } else {
      choice_stack.push_back(0);
    }
  }
  result.seconds = timer.ElapsedSeconds();
  return result;
}

NaiveResult NaiveExecutor::RunCfaConstrained(const cfa::Cfa& automaton,
                                             const NaiveConfig& config) {
  NaiveResult result;
  result.num_ops = automaton.num_nodes();
  result.max_len = config.max_len;
  result.total_state_space =
      static_cast<double>(automaton.CountPaths(config.max_len, INT64_MAX / 4));

  WallTimer timer;
  sym::ExprPool pool;
  StateCost cost(&pool);

  // DFS over automaton edges.
  struct Frame {
    std::vector<int> succs;
    size_t next = 0;
  };
  std::vector<Frame> stack;
  stack.push_back({automaton.Successors(cfa::kEntry), 0});
  while (!stack.empty()) {
    if (timer.ElapsedSeconds() > config.time_budget_seconds) {
      result.budget_exhausted = true;
      break;
    }
    Frame& frame = stack.back();
    if (frame.next >= frame.succs.size() ||
        static_cast<int>(stack.size()) > config.max_len) {
      stack.pop_back();
      if (!stack.empty()) {
        cost.Pop();
        ++stack.back().next;
      }
      continue;
    }
    int node = frame.succs[frame.next];
    if (node == cfa::kExit || node == cfa::kFailure) {
      ++result.sequences_completed;
      ++frame.next;
      continue;
    }
    ++result.states_explored;
    cost.Push(static_cast<int>(stack.size()));
    stack.push_back({automaton.Successors(node), 0});
  }
  result.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace icarus::meta
