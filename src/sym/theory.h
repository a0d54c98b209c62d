// The solver's theory layer: one engine that decides a conjunction of
// theory literals and, when they conflict, names the literals that caused it.
//
// The fragment and the decision procedure are the ones docs/SOLVER.md
// describes: congruence closure over equalities and uninterpreted functions,
// difference bounds with negative-cycle detection, and interval propagation
// with saturating arithmetic, capped at 64 rounds. What this engine adds is
// the explanation. Every conflict comes back with the subset of the checked
// literals that already conflicts:
//   - congruence closure keeps a proof forest (Nieuwenhuis & Oliveras,
//     "Fast congruence closure and extensions", 2007), so any two merged
//     terms explain as the input equalities behind their merge;
//   - a negative difference cycle explains as the atoms on the cycle
//     (Cotton & Maler, SAT 2006); edges from `x + c`/`x - c` terms and from
//     constants are axioms, and the edges that tie the terms of one class
//     together explain as that equality;
//   - terms on a zero-weight difference cycle with equal potential are
//     forced equal and join one class, explained by the cycle's edges;
//   - every interval bound records the literal or the earlier bounds it came
//     from, so an empty interval explains by walking back to literals.
// The CDCL core learns the negated explanation as its theory lemma.
//
// The engine is backtrackable. The core asserts each assigned theory atom
// with its decision level, in trail order, and cancels with Backtrack. A
// check reasons only over the literals asserted since the last consistent
// check, one decision level at a time: it brings in their terms, merges
// classes (with congruence), checks disequalities and predicates, and adds
// difference edges, keeping a feasible potential and the shortest paths from
// and to the zero node up to date. Every change goes on an undo trail with a
// mark per level, so Backtrack restores the state of the levels it keeps.
// A final pass at each check merges the terms the difference edges force
// equal and runs the interval layer over the current classes and edges; the
// interval layer is the incomplete one (64 rounds, no nonlinear decisions),
// and recomputing it keeps its answers the ones a from-scratch check would
// give. Terms and atoms get dense ids once per solver, when the core first
// encodes the atom.
#ifndef ICARUS_SYM_THEORY_H_
#define ICARUS_SYM_THEORY_H_

#include <cstdint>
#include <vector>

#include "src/sym/expr.h"
#include "src/sym/id_map.h"

namespace icarus::sym {

struct Model;  // solver.h

// One assigned theory atom: the engine's dense atom id and its truth value.
struct TheoryLit {
  int atom = -1;
  bool truth = false;
};

class TheoryEngine {
 public:
  TheoryEngine();
  TheoryEngine(const TheoryEngine&) = delete;
  TheoryEngine& operator=(const TheoryEngine&) = delete;

  // Registers `atom` (an IsAtomKind term) and every term under it, and
  // returns the atom's dense id. Idempotent per term. Boolean variables get
  // an id but carry no theory content. May be called at any time.
  int AddAtom(ExprRef atom);

  // Pushes a literal assigned at decision `level`. Levels never decrease
  // along the stack (the core asserts in trail order). No reasoning happens
  // until Check.
  void Assert(int atom, bool truth, int level);

  // Decides the conjunction of every asserted literal. Returns true when it
  // is consistent. On a conflict returns false and fills `*explanation` with
  // the stack positions of a nonempty subset that already conflicts,
  // ascending; the state is then that of the last consistent check plus the
  // levels before the one that conflicted.
  bool Check(std::vector<int>* explanation);

  // Drops every literal asserted above `level` and undoes what was derived
  // from them.
  void Backtrack(int level);

  // Literals on the stack, and one of them.
  int size() const { return static_cast<int>(lits_.size()); }
  const TheoryLit& lit(int pos) const { return lits_[static_cast<size_t>(pos)].lit; }
  // Literals the checks have read, in all: each literal once per time it is
  // brought into the state.
  int64_t literals_read() const { return read_; }

  // After Check returned true: appends a value per congruence class to
  // `model->terms` and a witness per integer or term variable to
  // `model->witnesses`. Values satisfy every checked literal whenever the
  // literals stay within difference logic over the classes.
  void BuildModel(Model* model) const;

 private:
  struct Term {
    ExprRef expr = nullptr;
    Kind kind = Kind::kVar;
    bool is_int = false;
    bool first_order = false;  // Has arguments, none boolean: congruence applies.
    bool has_offset = false;   // `x + c` or `x - c`: an axiom edge of weight `offset`.
    int32_t sym = -1;          // Interned function symbol (app name or operator).
    int32_t args_begin = 0;    // Into term_args_: the non-boolean arguments.
    int32_t args_end = 0;
    int64_t value = 0;    // kConstInt payload.
    int64_t offset = 0;   // has_offset: this term minus its first argument.
  };
  struct Atom {
    Kind kind = Kind::kVar;
    bool int_args = false;
    int32_t lhs = -1;  // Term ids; a boolean predicate's lhs is the atom itself.
    int32_t rhs = -1;
    int32_t closure_begin = 0;  // Into atom_closure_: the terms the atom
    int32_t closure_end = 0;    // brings into a check, in first-visit order.
  };
  struct StackLit {
    TheoryLit lit;
    int level = 0;
  };
  // Why a proof-forest edge joins two terms: an equality literal (its
  // position), congruence of the edge's two endpoints (kCongruence), or a
  // zero-weight cycle (kCycleBase - record, see cycles_).
  static constexpr int32_t kCongruence = -1;
  static constexpr int32_t kCycleBase = -2;
  static constexpr size_t kInitialTerms = 256;
  // One difference edge: value(to) - value(from) <= w, between nodes.
  struct Edge {
    int32_t from = 0;
    int32_t to = 0;
    int64_t w = 0;
    int32_t lit = -1;   // Comparison literal behind the edge, or -1 (axiom).
    int32_t need = -1;  // Term the axiom edge comes from, or -1.
    int32_t eq_a = -1;  // An equality edge: the two terms of one class.
    int32_t eq_b = -1;
    int32_t next_out = -1;  // The next older edge leaving `from`,
    int32_t next_in = -1;   // and entering `to`.
  };
  // One step of an explanation: explain(a, b) and, when bound >= 0, the
  // reasons of that bound record.
  struct Dep {
    int32_t bound = -1;
    int32_t a = -1;
    int32_t b = -1;
  };
  // A recorded interval bound (or divisor fact) and what it came from.
  struct Bound {
    int32_t anchor = -1;  // The term the bound was derived for.
    int32_t lit = -1;     // A literal position, or -1.
    int32_t need = -1;    // A term whose structure the step used, or -1.
    int32_t deps_begin = 0;
    int32_t deps_end = 0;
    int8_t path = 0;      // 1: shortest path zero → node; 2: node → zero.
    int32_t node = -1;
  };
  // A bound step under construction (at most six dependencies).
  struct Step {
    int32_t anchor = -1;
    int32_t lit = -1;
    int32_t need = -1;
    int8_t path = 0;
    int32_t node = -1;
    int n = 0;
    Dep deps[6];
  };
  // One undone change: the slot's kind and index and its old value.
  enum class Slot : uint8_t { kUf, kSize, kCst, kPfParent, kPfReason, kClassNode, kPi, kUp, kDown };
  struct Undo {
    Slot slot;
    int32_t index;
    int32_t old_aux;  // The old predecessor of kUp/kDown.
    int64_t old;
  };
  // The state sizes before one level's literals were brought in. Edges go
  // and come back in stack order, so a node's edge lists are linked through
  // the edges themselves.
  struct Mark {
    int32_t lit_begin = 0;
    uint32_t undo = 0;
    uint32_t edges = 0;
    uint32_t nodes = 0;
    uint32_t active = 0;
    uint32_t cycles = 0;
    uint32_t cycle_edges = 0;
  };

  int InternTerm(ExprRef e);
  int32_t InternSym(ExprRef e);

  // Incremental state.
  void PushMark(int32_t lit_begin);
  void PopMark();
  void Set(Slot slot, int32_t index, int64_t value, int32_t aux = -1);
  bool AssertLevel(int begin, int end);
  void Activate(int32_t t, int32_t origin);
  bool AddAxiomEdges(int32_t t);
  bool Merge(int a, int b, int32_t reason);
  bool Congruence();
  bool CheckDisequalities(int begin);
  bool CheckBoolPredicates();
  int NodeOf(int32_t term);
  bool AddEdge(int32_t from_term, int32_t to_term, int64_t w, int32_t lit, int32_t need,
               int32_t eq_a = -1, int32_t eq_b = -1);
  bool RelaxPotential(int32_t edge);
  void RelaxDistances(int32_t edge);

  // The final pass.
  bool FinalPass();
  bool MergeZeroCycles(bool* merged);
  void TightComponents();
  bool TightPath(int from, int to);
  bool DifferenceSeeds();
  bool PropagateIntervals();
  bool CheckSingletonDisequalities();

  int Find(int x) const;
  const Term& TermAt(int t) const { return terms_[static_cast<size_t>(t)]; }
  int Arg(int t, int i) const;
  bool Tight(const Edge& e) const;

  // Interval bookkeeping: every moved bound gets a record.
  void AddDep(Step* s, int32_t bound, int via) const;
  int32_t Record(const Step& s);
  bool RaiseLo(int rep, int64_t v, const Step& s);
  bool LowerHi(int rep, int64_t v, const Step& s);
  bool Empty(int rep) const {
    return ts_[static_cast<size_t>(rep)].lo > ts_[static_cast<size_t>(rep)].hi;
  }
  bool DivisorExcludesZero(int t, int32_t* reason);

  // Explanations: a conflict calls BeginExplain, queues what it rests on,
  // and returns Finish(), which collects the literal positions.
  void BeginExplain();
  void Want(const Dep& d) { work_.push_back(d); }
  void WantLit(int32_t lit);
  void WantBound(int32_t bound, int via);
  void WantEdge(int32_t edge);
  void WantReason(int a, int b, int32_t reason);
  void WantPath(int node, int8_t dir);
  bool ConflictCycle(int32_t closing, int32_t entry);
  bool ConflictEmpty(int rep);
  bool Finish();
  void ExplainEq(int a, int b);

  // Per-solver tables.
  std::vector<Term> terms_;
  std::vector<int32_t> term_args_;
  std::vector<Atom> atoms_;
  std::vector<int32_t> atom_closure_;
  NodeIdMap term_ids_;  // Registration only.
  NodeIdMap atom_ids_;
  NameIdMap app_syms_;            // Application name → symbol.
  std::vector<int32_t> op_syms_;  // Operator kind → symbol, or -1.
  int32_t next_sym_ = 0;

  // The literal stack and what the checks have brought in.
  std::vector<StackLit> lits_;
  int checked_ = 0;           // Literals covered by the marks.
  int64_t read_ = 0;
  int64_t merges_ = 0;        // Class merges ever made (a change detector).
  std::vector<Mark> marks_;
  std::vector<Undo> undo_;
  std::vector<int32_t> active_terms_;  // In the order the literals brought them in.
  std::vector<int32_t> first_order_;   // The active first-order terms, same order,
  std::vector<int32_t> const_terms_;   // the active constants,
  std::vector<int32_t> arith_terms_;   // and the active arithmetic terms.
  std::vector<int32_t> diseq_lits_;    // Checked positions: disequalities,
  std::vector<int32_t> cmp_lits_;      // integer comparisons,
  std::vector<int32_t> pred_lits_;     // and boolean predicates.

  // Per term (global id): what the current state says of it. Class fields
  // are read at representatives.
  struct TermState {
    uint8_t active = 0;
    int32_t origin = -1;      // The literal that brought the term in.
    int32_t uf = 0;           // Union-find parent (no path compression).
    int32_t size = 1;         // Class size, at representatives.
    int32_t cst = -1;         // Per rep: its constant term, or -1.
    int32_t pf_parent = 0;    // Proof forest.
    int32_t pf_reason = kCongruence;
    int32_t class_node = -1;  // Per rep: a member with a difference node, or -1.
    int32_t node = -1;        // Its difference node, or -1.
    uint32_t pred_stamp = 0;  // Per rep: the predicate check that saw it,
    int32_t pred_first = -1;  // and its first boolean predicate literal.
    int64_t lo = 0;           // Interval pass (set by each final pass),
    int64_t hi = 0;           // per rep: the bounds and their records.
    int32_t lo_rec = -1;
    int32_t hi_rec = -1;
  };
  std::vector<TermState> ts_;

  // Difference graph. Node 0 is zero; every other node is one term.
  struct NodeState {
    int32_t term = -1;
    int64_t pi = 0;          // A feasible potential: pi(to) <= pi(from) + w.
    int64_t up = 0;          // Shortest path zero → node, or kNoPath,
    int32_t up_pred = -1;    // and the edge into the node on it.
    int64_t down = 0;        // Shortest path node → zero, or kNoPath,
    int32_t down_pred = -1;  // and the edge out of the node on it.
    int32_t first_out = -1;  // Its newest edge out, or -1 (lists through
    int32_t first_in = -1;   // Edge::next_out/next_in).
  };
  std::vector<NodeState> nodes_;
  std::vector<Edge> edges_;
  // Zero-weight cycle merges: per record, its edges in cycle_edges_.
  std::vector<std::pair<int32_t, int32_t>> cycles_;
  std::vector<int32_t> cycle_edges_;

  // Scratch.
  std::vector<int32_t> queue_;
  std::vector<uint32_t> queued_;
  std::vector<int32_t> relax_pred_;
  uint32_t relax_ = 0;
  uint32_t pred_check_ = 0;
  std::vector<int32_t> sig_;           // Congruence signature table (open addressing).
  std::vector<int32_t> zero_slot_;     // Zero-weight cycle search: groups of
  std::vector<int32_t> zero_next_;     // nodes with equal values, chained,
  std::vector<int32_t> zero_group_;    // one group,
  std::vector<int32_t> zero_comp_;     // the tight component of each node,
  std::vector<int32_t> zero_finish_;   // and Kosaraju's finish order and
  std::vector<std::pair<int32_t, int32_t>> zero_stack_;  // DFS stack (node, next edge).

  // Interval pass records.
  std::vector<Bound> bounds_;
  std::vector<Dep> deps_;

  // Explanation scratch.
  std::vector<Dep> work_;
  std::vector<int32_t> need_;
  std::vector<uint32_t> lit_mark_;
  std::vector<uint32_t> bound_mark_;
  std::vector<uint32_t> edge_mark_;
  mutable std::vector<uint32_t> anc_mark_;
  std::vector<uint32_t> present_;
  uint32_t explain_ = 0;
  mutable uint32_t anc_ = 0;
  std::vector<int>* out_ = nullptr;
};

}  // namespace icarus::sym

#endif  // ICARUS_SYM_THEORY_H_
