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
//   - a negative difference cycle explains as the atoms on the cycle plus
//     the equalities that join its edges' terms (Cotton & Maler, SAT 2006);
//     edges from `x + c`/`x - c` terms and from constants are axioms;
//   - every interval bound records the literal or the earlier bounds it came
//     from, so an empty interval explains by walking back to literals.
// The CDCL core learns the negated explanation as its theory lemma.
//
// State lives in dense tables owned by one solver. A term or atom gets its id
// once, when the core first encodes the atom; a check then touches only
// integer-indexed vectors and resets only the entries it used. The check is
// rebuilt from the literal list each time: the core checks about 20 literals
// per full assignment and starts every query from an empty trail, so there is
// little to keep between checks.
#ifndef ICARUS_SYM_THEORY_H_
#define ICARUS_SYM_THEORY_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/sym/expr.h"

namespace icarus::sym {

struct Model;  // solver.h

// One assigned theory atom: the engine's dense atom id and its truth value.
struct TheoryLit {
  int atom = -1;
  bool truth = false;
};

class TheoryEngine {
 public:
  TheoryEngine() = default;
  TheoryEngine(const TheoryEngine&) = delete;
  TheoryEngine& operator=(const TheoryEngine&) = delete;

  // Registers `atom` (an IsAtomKind term) and every term under it, and
  // returns the atom's dense id. Idempotent per term. Boolean variables get
  // an id but carry no theory content.
  int AddAtom(ExprRef atom);

  // Decides the conjunction of `lits`. Returns true when it is consistent.
  // On a conflict returns false and fills `*explanation` with the positions
  // in `lits` of a nonempty subset that already conflicts, ascending.
  bool Check(const std::vector<TheoryLit>& lits, std::vector<int>* explanation);

  // After Check(lits) returned true, with the same `lits`: appends a value
  // per congruence class to `model->terms` and a witness per integer or term
  // variable to `model->witnesses`. Values satisfy every checked literal
  // whenever the literals stay within difference logic over the classes.
  void BuildModel(const std::vector<TheoryLit>& lits, Model* model) const;

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
  // Why a proof-forest edge joins two terms: an equality literal (its
  // position), or congruence of the edge's two endpoints (kCongruence).
  static constexpr int32_t kCongruence = -1;
  // One difference edge: value(to) - value(from) <= w.
  struct Edge {
    int32_t from = 0;
    int32_t to = 0;
    int64_t w = 0;
    int32_t lit = -1;   // Comparison literal behind the edge, or -1 (axiom).
    int32_t tail = -1;  // Local term at `from` (-1 at the zero node).
    int32_t head = -1;  // Local term at `to`.
    int32_t need = -1;  // Local term the axiom edge comes from.
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
    int32_t anchor = -1;  // The local term the bound was derived for.
    int32_t lit = -1;     // A literal position, or -1.
    int32_t need = -1;    // A local term whose structure the step used, or -1.
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

  int InternTerm(ExprRef e);
  int32_t InternSym(ExprRef e);

  // Check phases, in the order the decision procedure runs them.
  void CollectTerms();
  bool Congruence();
  bool Merge(int a, int b, int32_t reason);
  bool CheckDisequalities();
  bool CheckBoolPredicates();
  bool DifferenceBounds();
  bool PropagateIntervals();
  bool CheckSingletonDisequalities();

  int Find(int x) const;
  const Term& TermOf(int local) const { return terms_[static_cast<size_t>(glob_[static_cast<size_t>(local)])]; }
  int LocalOf(int32_t term) const { return local_[static_cast<size_t>(term)]; }
  int Arg(int local, int i) const;
  int NodeOf(int rep);
  void AddEdge(int from_rep, int to_rep, int64_t w, int32_t lit, int32_t tail, int32_t head,
               int32_t need);

  // Interval bookkeeping: every moved bound gets a record.
  void AddDep(Step* s, int32_t bound, int via) const;
  int32_t Record(const Step& s);
  bool RaiseLo(int rep, int64_t v, const Step& s);
  bool LowerHi(int rep, int64_t v, const Step& s);
  bool Empty(int rep) const { return lo_[static_cast<size_t>(rep)] > hi_[static_cast<size_t>(rep)]; }
  bool DivisorExcludesZero(int t, int32_t* reason);

  // Explanations: a conflict calls BeginExplain, queues what it rests on,
  // and returns Finish(), which collects the literal positions.
  void BeginExplain();
  void Want(const Dep& d) { work_.push_back(d); }
  void WantLit(int32_t lit);
  void WantBound(int32_t bound, int via);
  void WantEdge(const Edge& e);
  void WantPath(int node, int8_t dir);
  bool ConflictCycle(int last);
  bool ConflictEmpty(int rep);
  bool Finish();
  void ExplainEq(int a, int b);

  // Per-solver tables.
  std::vector<Term> terms_;
  std::vector<int32_t> term_args_;
  std::vector<Atom> atoms_;
  std::vector<int32_t> atom_closure_;
  std::unordered_map<ExprRef, int> term_ids_;  // Registration only.
  std::unordered_map<ExprRef, int> atom_ids_;  // Registration only.
  std::unordered_map<std::string, int32_t> syms_;  // Registration only.
  std::vector<uint32_t> stamp_;  // Per term: the check that gave it a local index.
  std::vector<int32_t> local_;   // Per term: its local index in that check.
  uint32_t check_ = 0;

  // Per-check state, indexed by local term (reps index the class arrays).
  const std::vector<TheoryLit>* lits_ = nullptr;
  std::vector<int32_t> glob_;      // Local → term id.
  std::vector<int32_t> origin_;    // Local → the literal that brought it in.
  mutable std::vector<int32_t> uf_;
  std::vector<int32_t> cst_;       // Per rep: its constant's local term, or -1.
  std::vector<int32_t> pf_parent_; // Proof forest.
  std::vector<int32_t> pf_reason_;
  std::vector<int32_t> pred_first_;  // Per rep: first boolean predicate literal.
  std::vector<int32_t> node_;      // Per rep: difference node, or -1.
  std::vector<int32_t> node_rep_;  // Per node: its rep (-1 for zero).
  std::vector<Edge> edges_;
  std::vector<int64_t> dist_up_;   // Shortest paths from and to zero, and
  std::vector<int64_t> dist_down_; // their trees (pred_up_ first holds the
  std::vector<int32_t> pred_up_;   // negative-cycle search's predecessors).
  std::vector<int32_t> pred_down_;
  std::vector<int64_t> lo_;
  std::vector<int64_t> hi_;
  std::vector<int32_t> lo_rec_;
  std::vector<int32_t> hi_rec_;
  std::vector<Bound> bounds_;
  std::vector<Dep> deps_;
  std::vector<int32_t> sig_;       // Congruence signature table (open addressing).
  int zero_ = -1;                  // The zero node, once difference bounds ran.

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
