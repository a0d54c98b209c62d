// Hash-consed symbolic expression DAG.
//
// This is the term language shared by the whole verification pipeline: the
// evaluator builds terms while symbolically executing DSL code, path
// conditions are conjunctions of boolean terms, and the solver decides
// satisfiability of those conjunctions.
//
// Sorts:
//   kBool — propositions (path condition atoms, assertions).
//   kInt  — mathematical 64-bit integers. Int32 wraparound is expressed
//           explicitly by the semantics that need it (the interpreter forks on
//           overflow conditions instead of using modular terms).
//   kTerm — uninterpreted individuals (JS Values, Objects, Shapes, ...).
//           Only equality is meaningful; structure comes from uninterpreted
//           function applications (kApp).
//
// Hash-consing means structurally equal terms are pointer-equal, so the DPLL
// layer of the solver resolves most guard/assert pairs propositionally.
#ifndef ICARUS_SYM_EXPR_H_
#define ICARUS_SYM_EXPR_H_

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/support/arena.h"

namespace icarus::sym {

enum class Sort : uint8_t {
  kBool,
  kInt,
  kTerm,
};

// Enumerator values feed Node::chash, which keys the persisted solver cache:
// append new kinds, never renumber.
enum class Kind : uint8_t {
  kConstInt,   // value
  kConstBool,  // value (0/1)
  kVar,        // name, sort
  kApp,        // uninterpreted function: name(args...) -> sort
  // Integer arithmetic.
  kAdd,
  kSub,
  kMul,
  kDiv,   // truncating signed division (folded only when safe)
  kMod,
  kNeg,
  kBitAnd,
  kBitOr,
  kBitXor,
  kShl,
  kShr,  // arithmetic shift right
  // Predicates (sort kBool).
  kEq,
  kLt,
  kLe,
  // Boolean connectives.
  kNot,
  kAnd,
  kOr,
};

struct Node;
using ExprRef = const Node*;

// A node, its argument list and its name live in the arena of the pool that
// made them, so the views below are valid exactly as long as that pool.
struct Node {
  Kind kind;
  Sort sort;
  uint32_t id = 0;          // Unique, creation-ordered; stable tiebreak for canonicalization.
  int64_t value = 0;        // kConstInt / kConstBool payload.
  uint64_t chash = 0;       // Canonical structural hash: equal for structurally
                            // identical terms even across different pools, so it
                            // can key the cross-pipeline solver-result cache.
  std::string_view name;    // kVar / kApp symbol.
  std::span<const ExprRef> args;

  bool IsConst() const { return kind == Kind::kConstInt || kind == Kind::kConstBool; }
  bool IsTrue() const { return kind == Kind::kConstBool && value == 1; }
  bool IsFalse() const { return kind == Kind::kConstBool && value == 0; }
};

// Owns all nodes; provides smart constructors with local simplification.
// Not thread-safe; each verification pipeline owns its own pool.
//
// Nodes are interned through one open-addressed table of ExprRefs probed
// with the key as views, so a lookup that finds its term allocates nothing
// and a new term is one bump allocation in the pool's arena: the node, then
// its arguments, then its name.
class ExprPool {
 public:
  ExprPool();
  ExprPool(const ExprPool&) = delete;
  ExprPool& operator=(const ExprPool&) = delete;
  ~ExprPool();

  ExprRef IntConst(int64_t v);
  ExprRef BoolConst(bool v);
  ExprRef True() { return true_; }
  ExprRef False() { return false_; }

  // Named variable; same (name, sort) yields the same node.
  ExprRef Var(std::string_view name, Sort sort);
  // Fresh variable with a unique suffix.
  ExprRef Fresh(std::string_view prefix, Sort sort);
  // The Fresh() suffix sequence is part of a path's state. Exploration
  // restarts it at the start of every run and rewinds it to a choice
  // point's mark when it backtracks there, so a variable minted at a given
  // position of a path has the same name on every run and on every sibling
  // path. That is what lets a persistent solver's learned clauses, Tseitin
  // encodings and cached verdicts carry across sibling paths and repeated
  // runs instead of seeing each path's inputs as brand-new atoms. The
  // aliasing is sound because the solver's clause database holds only
  // consequences of the empty context (docs/SOLVER.md).
  void ResetFresh() { fresh_counter_ = 0; }
  uint64_t fresh_mark() const { return fresh_counter_; }
  void RewindFresh(uint64_t mark) { fresh_counter_ = mark; }

  // Uninterpreted function application.
  ExprRef App(std::string_view fn, std::span<const ExprRef> args, Sort result_sort);
  ExprRef App(std::string_view fn, std::initializer_list<ExprRef> args, Sort result_sort) {
    return App(fn, std::span<const ExprRef>(args.begin(), args.size()), result_sort);
  }

  ExprRef Add(ExprRef a, ExprRef b);
  ExprRef Sub(ExprRef a, ExprRef b);
  ExprRef Mul(ExprRef a, ExprRef b);
  ExprRef Div(ExprRef a, ExprRef b);
  ExprRef Mod(ExprRef a, ExprRef b);
  ExprRef Neg(ExprRef a);
  ExprRef BitAnd(ExprRef a, ExprRef b);
  ExprRef BitOr(ExprRef a, ExprRef b);
  ExprRef BitXor(ExprRef a, ExprRef b);
  ExprRef Shl(ExprRef a, ExprRef b);
  ExprRef Shr(ExprRef a, ExprRef b);

  ExprRef Eq(ExprRef a, ExprRef b);
  ExprRef Ne(ExprRef a, ExprRef b) { return Not(Eq(a, b)); }
  ExprRef Lt(ExprRef a, ExprRef b);
  ExprRef Le(ExprRef a, ExprRef b);
  ExprRef Gt(ExprRef a, ExprRef b) { return Lt(b, a); }
  ExprRef Ge(ExprRef a, ExprRef b) { return Le(b, a); }

  ExprRef Not(ExprRef a);
  ExprRef And(ExprRef a, ExprRef b);
  ExprRef Or(ExprRef a, ExprRef b);

  size_t size() const { return size_; }

  // Human-readable rendering (used in counterexample reports and tests).
  static std::string ToString(ExprRef e);
  // Appends ToString(e) to `out`.
  static void AppendString(ExprRef e, std::string* out);

 private:
  // The node with this structure, made if absent.
  ExprRef Intern(Kind kind, Sort sort, int64_t value, std::string_view name,
                 std::span<const ExprRef> args);
  ExprRef MakeUnary(Kind kind, Sort sort, ExprRef a);
  ExprRef MakeBinary(Kind kind, Sort sort, ExprRef a, ExprRef b);
  // The slot of `slots_` for a node of structural hash `chash`: the first
  // free one, probing from the hash.
  size_t FreeSlot(uint64_t chash) const;
  void Grow();

  Arena arena_;
  std::vector<ExprRef> slots_;  // Open-addressed, at most half full; null is free.
  size_t size_ = 0;             // Nodes made; a node's id is its position.
  uint64_t fresh_counter_ = 0;
  std::string fresh_name_;      // Reused buffer for Fresh's names.
  ExprRef true_ = nullptr;
  ExprRef false_ = nullptr;
};

}  // namespace icarus::sym

#endif  // ICARUS_SYM_EXPR_H_
