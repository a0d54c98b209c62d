#include "src/sym/theory.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <unordered_map>

#include "src/support/check.h"
#include "src/sym/solver.h"

namespace icarus::sym {

namespace {

// The integer range the procedure works in; sums and products saturate here.
constexpr int64_t kIntMin = std::numeric_limits<int64_t>::min() / 4;
constexpr int64_t kIntMax = std::numeric_limits<int64_t>::max() / 4;
// No path between two difference nodes.
constexpr int64_t kNoPath = std::numeric_limits<int64_t>::max();
// The interval fixpoint stops after this many rounds.
constexpr int kMaxIntervalRounds = 64;

int64_t SatAdd(int64_t a, int64_t b) {
  __int128 r = static_cast<__int128>(a) + b;
  if (r < kIntMin) {
    return kIntMin;
  }
  if (r > kIntMax) {
    return kIntMax;
  }
  return static_cast<int64_t>(r);
}

int64_t SatMul(int64_t a, int64_t b) {
  __int128 r = static_cast<__int128>(a) * b;
  if (r < kIntMin) {
    return kIntMin;
  }
  if (r > kIntMax) {
    return kIntMax;
  }
  return static_cast<int64_t>(r);
}

// Bumps a per-engine stamp; on wrap-around clears the arrays it marks.
template <typename... Arrays>
void NextStamp(uint32_t* stamp, Arrays*... arrays) {
  if (++*stamp == 0) {
    (std::fill(arrays->begin(), arrays->end(), 0u), ...);
    *stamp = 1;
  }
}

size_t U(int i) { return static_cast<size_t>(i); }

}  // namespace

TheoryEngine::TheoryEngine() {
  // One solver registers every term of its generator and usually stays
  // well under these sizes; growing each table from empty is a visible share
  // of a cold pass.
  terms_.reserve(kInitialTerms);
  ts_.reserve(kInitialTerms);
  term_args_.reserve(kInitialTerms);
  atoms_.reserve(kInitialTerms);
  atom_closure_.reserve(kInitialTerms);
  active_terms_.reserve(kInitialTerms);
  lits_.reserve(kInitialTerms);
  marks_.reserve(kInitialTerms);
  undo_.reserve(4 * kInitialTerms);
  nodes_.reserve(kInitialTerms);
  edges_.reserve(kInitialTerms);
  bounds_.reserve(kInitialTerms);
  deps_.reserve(kInitialTerms);
  // Node 0 is zero: every path from or to it has length 0 to begin with.
  nodes_.push_back({-1, 0, 0, -1, 0, -1, -1, -1});
  queued_.push_back(0);
  relax_pred_.push_back(-1);
}

// ---------------------------------------------------------------------------
// Registration: dense ids, once per solver.
// ---------------------------------------------------------------------------

int32_t TheoryEngine::InternSym(ExprRef e) {
  // Operators share the symbol space with applications, keyed by kind.
  if (e->kind == Kind::kApp) {
    int32_t id = app_syms_.Find(e->name);
    if (id < 0) {
      id = next_sym_++;
      app_syms_.Insert(e->name, id);
    }
    return id;
  }
  const auto k = static_cast<size_t>(e->kind);
  if (op_syms_.size() <= k) {
    op_syms_.resize(k + 1, -1);
  }
  if (op_syms_[k] < 0) {
    op_syms_[k] = next_sym_++;
  }
  return op_syms_[k];
}

int TheoryEngine::InternTerm(ExprRef e) {
  if (const int32_t id = term_ids_.Find(e); id >= 0) {
    return id;
  }
  bool first_order = !e->args.empty();
  for (ExprRef a : e->args) {
    if (a->sort == Sort::kBool) {
      first_order = false;
    } else {
      InternTerm(a);
    }
  }
  Term t;
  t.expr = e;
  t.kind = e->kind;
  t.is_int = e->sort == Sort::kInt;
  t.first_order = first_order;
  if (first_order) {
    t.sym = InternSym(e);
  }
  t.args_begin = static_cast<int32_t>(term_args_.size());
  for (ExprRef a : e->args) {
    if (a->sort != Sort::kBool) {
      term_args_.push_back(term_ids_.Find(a));
    }
  }
  t.args_end = static_cast<int32_t>(term_args_.size());
  if (e->kind == Kind::kConstInt) {
    t.value = e->value;
  }
  // Constants are canonicalized to the right operand by the pool.
  if ((e->kind == Kind::kAdd || e->kind == Kind::kSub) && e->args[1]->kind == Kind::kConstInt) {
    t.has_offset = true;
    t.offset = e->kind == Kind::kAdd ? e->args[1]->value : -e->args[1]->value;
  }
  const int id = static_cast<int>(terms_.size());
  terms_.push_back(t);
  TermState state;
  state.uf = id;
  state.pf_parent = id;
  ts_.push_back(state);
  term_ids_.Insert(e, id);
  return id;
}

int TheoryEngine::AddAtom(ExprRef e) {
  if (const int32_t id = atom_ids_.Find(e); id >= 0) {
    return id;
  }
  Atom a;
  a.kind = e->kind;
  switch (e->kind) {
    case Kind::kEq:
    case Kind::kLt:
    case Kind::kLe:
      a.lhs = InternTerm(e->args[0]);
      a.rhs = InternTerm(e->args[1]);
      a.int_args = e->args[0]->sort == Sort::kInt;
      break;
    case Kind::kApp:
      // Boolean predicates take part in congruence as terms, so that p(x)
      // together with x == y and !p(y) conflicts.
      a.lhs = InternTerm(e);
      break;
    default:
      break;
  }
  // The terms this atom brings into a check, in first-visit preorder; a
  // check keeps those not already brought in by an earlier literal.
  a.closure_begin = static_cast<int32_t>(atom_closure_.size());
  auto visit = [&](auto&& self, int32_t t) -> void {
    auto begin = atom_closure_.begin() + a.closure_begin;
    if (std::find(begin, atom_closure_.end(), t) != atom_closure_.end()) {
      return;
    }
    atom_closure_.push_back(t);
    const Term& term = terms_[U(t)];
    for (int32_t k = term.args_begin; k < term.args_end; ++k) {
      self(self, term_args_[U(k)]);
    }
  };
  if (a.lhs >= 0) {
    visit(visit, a.lhs);
  }
  if (a.rhs >= 0) {
    visit(visit, a.rhs);
  }
  a.closure_end = static_cast<int32_t>(atom_closure_.size());
  int id = static_cast<int>(atoms_.size());
  atoms_.push_back(a);
  atom_ids_.Insert(e, id);
  return id;
}

// ---------------------------------------------------------------------------
// The literal stack, levels and the undo trail.
// ---------------------------------------------------------------------------

void TheoryEngine::Assert(int atom, bool truth, int level) {
  lits_.push_back({{atom, truth}, level});
}

bool TheoryEngine::Check(std::vector<int>* explanation) {
  out_ = explanation;
  explanation->clear();
  const int n = size();
  // One level at a time, so that Backtrack finds a mark at every level
  // boundary. A conflicting level is undone at once: the state stays the
  // consistent one of the levels before it.
  while (checked_ < n) {
    const int begin = checked_;
    int end = begin + 1;
    while (end < n && lits_[U(end)].level == lits_[U(begin)].level) {
      ++end;
    }
    PushMark(begin);
    read_ += end - begin;
    if (!AssertLevel(begin, end)) {
      PopMark();
      return false;
    }
    checked_ = end;
  }
  // Merges the final pass makes are consequences of the checked literals:
  // on success they join the last level's scope.
  PushMark(checked_);
  if (!FinalPass()) {
    PopMark();
    return false;
  }
  marks_.pop_back();
  return true;
}

void TheoryEngine::Backtrack(int level) {
  int n = size();
  while (n > 0 && lits_[U(n - 1)].level > level) {
    --n;
  }
  lits_.resize(U(n));
  // Marks sit at level boundaries, so this stops exactly at n; literals the
  // last check had not reached stay pending.
  while (checked_ > n) {
    PopMark();
  }
}

void TheoryEngine::PushMark(int32_t lit_begin) {
  Mark m;
  m.lit_begin = lit_begin;
  m.undo = static_cast<uint32_t>(undo_.size());
  m.edges = static_cast<uint32_t>(edges_.size());
  m.nodes = static_cast<uint32_t>(nodes_.size());
  m.active = static_cast<uint32_t>(active_terms_.size());
  m.cycles = static_cast<uint32_t>(cycles_.size());
  m.cycle_edges = static_cast<uint32_t>(cycle_edges_.size());
  marks_.push_back(m);
}

void TheoryEngine::PopMark() {
  const Mark m = marks_.back();
  marks_.pop_back();
  while (undo_.size() > m.undo) {
    const Undo& u = undo_.back();
    const size_t i = U(u.index);
    switch (u.slot) {
      case Slot::kUf:
        ts_[i].uf = static_cast<int32_t>(u.old);
        break;
      case Slot::kSize:
        ts_[i].size = static_cast<int32_t>(u.old);
        break;
      case Slot::kCst:
        ts_[i].cst = static_cast<int32_t>(u.old);
        break;
      case Slot::kPfParent:
        ts_[i].pf_parent = static_cast<int32_t>(u.old);
        break;
      case Slot::kPfReason:
        ts_[i].pf_reason = static_cast<int32_t>(u.old);
        break;
      case Slot::kClassNode:
        ts_[i].class_node = static_cast<int32_t>(u.old);
        break;
      case Slot::kPi:
        nodes_[i].pi = u.old;
        break;
      case Slot::kUp:
        nodes_[i].up = u.old;
        nodes_[i].up_pred = u.old_aux;
        break;
      case Slot::kDown:
        nodes_[i].down = u.old;
        nodes_[i].down_pred = u.old_aux;
        break;
    }
    undo_.pop_back();
  }
  while (edges_.size() > m.edges) {
    const Edge& e = edges_.back();
    nodes_[U(e.from)].first_out = e.next_out;
    nodes_[U(e.to)].first_in = e.next_in;
    edges_.pop_back();
  }
  while (nodes_.size() > m.nodes) {
    ts_[U(nodes_.back().term)].node = -1;
    nodes_.pop_back();
  }
  while (active_terms_.size() > m.active) {
    ts_[U(active_terms_.back())].active = 0;
    active_terms_.pop_back();
  }
  auto drop_lits = [&m](std::vector<int32_t>* list) {
    while (!list->empty() && list->back() >= m.lit_begin) {
      list->pop_back();
    }
  };
  drop_lits(&diseq_lits_);
  drop_lits(&cmp_lits_);
  drop_lits(&pred_lits_);
  auto drop_terms = [this](std::vector<int32_t>* list) {
    while (!list->empty() && ts_[U(list->back())].active == 0) {
      list->pop_back();
    }
  };
  drop_terms(&first_order_);
  drop_terms(&const_terms_);
  drop_terms(&arith_terms_);
  cycles_.resize(m.cycles);
  cycle_edges_.resize(m.cycle_edges);
  checked_ = m.lit_begin;
}

void TheoryEngine::Set(Slot slot, int32_t index, int64_t value, int32_t aux) {
  const size_t i = U(index);
  Undo u{slot, index, -1, 0};
  switch (slot) {
    case Slot::kUf:
      u.old = ts_[i].uf;
      ts_[i].uf = static_cast<int32_t>(value);
      break;
    case Slot::kSize:
      u.old = ts_[i].size;
      ts_[i].size = static_cast<int32_t>(value);
      break;
    case Slot::kCst:
      u.old = ts_[i].cst;
      ts_[i].cst = static_cast<int32_t>(value);
      break;
    case Slot::kPfParent:
      u.old = ts_[i].pf_parent;
      ts_[i].pf_parent = static_cast<int32_t>(value);
      break;
    case Slot::kPfReason:
      u.old = ts_[i].pf_reason;
      ts_[i].pf_reason = static_cast<int32_t>(value);
      break;
    case Slot::kClassNode:
      u.old = ts_[i].class_node;
      ts_[i].class_node = static_cast<int32_t>(value);
      break;
    case Slot::kPi:
      u.old = nodes_[i].pi;
      nodes_[i].pi = value;
      break;
    case Slot::kUp:
      u.old = nodes_[i].up;
      u.old_aux = nodes_[i].up_pred;
      nodes_[i].up = value;
      nodes_[i].up_pred = aux;
      break;
    case Slot::kDown:
      u.old = nodes_[i].down;
      u.old_aux = nodes_[i].down_pred;
      nodes_[i].down = value;
      nodes_[i].down_pred = aux;
      break;
  }
  undo_.push_back(u);
}

// ---------------------------------------------------------------------------
// One level's literals: terms, classes, disequalities, predicates, edges.
// ---------------------------------------------------------------------------

bool TheoryEngine::AssertLevel(int begin, int end) {
  const size_t first_new = active_terms_.size();
  const size_t first_order_before = first_order_.size();
  for (int p = begin; p < end; ++p) {
    const Atom& a = atoms_[U(lit(p).atom)];
    for (int32_t k = a.closure_begin; k < a.closure_end; ++k) {
      int32_t t = atom_closure_[U(k)];
      if (ts_[U(t)].active == 0) {
        Activate(t, p);
      }
    }
  }
  for (size_t i = first_new; i < active_terms_.size(); ++i) {
    if (!AddAxiomEdges(active_terms_[i])) {
      return false;
    }
  }
  const int64_t merges_before = merges_;
  bool new_predicate = false;
  for (int p = begin; p < end; ++p) {
    const Atom& a = atoms_[U(lit(p).atom)];
    const bool truth = lit(p).truth;
    if (a.kind == Kind::kEq) {
      if (!truth) {
        diseq_lits_.push_back(p);
      } else if (!Merge(a.lhs, a.rhs, p)) {
        return false;
      }
    } else if ((a.kind == Kind::kLt || a.kind == Kind::kLe) && a.int_args) {
      cmp_lits_.push_back(p);
      const bool strict = a.kind == Kind::kLt;
      // a < b (or a <= b): a - b <= -1 (or 0); negated, b - a <= 0 (or -1).
      if (!(truth ? AddEdge(a.rhs, a.lhs, strict ? -1 : 0, p, -1)
                  : AddEdge(a.lhs, a.rhs, strict ? 0 : -1, p, -1))) {
        return false;
      }
    } else if (a.kind == Kind::kApp) {
      pred_lits_.push_back(p);
      new_predicate = true;
    }
  }
  if ((merges_ != merges_before || first_order_.size() != first_order_before) && !Congruence()) {
    return false;
  }
  // After a merge every disequality and predicate literal is checked again;
  // otherwise only this level's.
  const bool merged = merges_ != merges_before;
  return CheckDisequalities(merged ? 0 : begin) &&
         (!(merged || new_predicate) || CheckBoolPredicates());
}

void TheoryEngine::Activate(int32_t t, int32_t origin) {
  const size_t i = U(t);
  ts_[i].active = 1;
  ts_[i].origin = origin;
  active_terms_.push_back(t);
  ts_[i].uf = t;
  ts_[i].size = 1;
  ts_[i].cst = terms_[i].kind == Kind::kConstInt ? t : -1;
  ts_[i].pf_parent = t;
  ts_[i].pf_reason = kCongruence;
  ts_[i].class_node = -1;
  if (terms_[i].first_order) {
    first_order_.push_back(t);
  }
  switch (terms_[i].kind) {
    case Kind::kConstInt:
      const_terms_.push_back(t);
      break;
    case Kind::kAdd:
    case Kind::kSub:
    case Kind::kMul:
    case Kind::kNeg:
    case Kind::kDiv:
    case Kind::kMod:
      arith_terms_.push_back(t);
      break;
    default:
      break;
  }
}

// Constants and `x ± c` terms are axiom edges: x - 0 <= c and 0 - x <= -c;
// t - x <= c and x - t <= -c.
bool TheoryEngine::AddAxiomEdges(int32_t t) {
  const Term& term = TermAt(t);
  if (term.kind == Kind::kConstInt &&
      (!AddEdge(-1, t, term.value, -1, -1) || !AddEdge(t, -1, -term.value, -1, -1))) {
    return false;
  }
  if (term.has_offset) {
    const int32_t x = Arg(t, 0);
    const int64_t c = term.offset;
    if (!AddEdge(x, t, c, -1, t) || !AddEdge(t, x, -c, -1, t)) {
      return false;
    }
  }
  return true;
}

int TheoryEngine::Find(int x) const {
  while (ts_[U(x)].uf != x) {
    x = ts_[U(x)].uf;
  }
  return x;
}

int TheoryEngine::Arg(int t, int i) const { return term_args_[U(TermAt(t).args_begin + i)]; }

// Joins the classes of `a` and `b` for `reason`, recording the edge a—b in
// the proof forest. Returns false (with the explanation) when the classes
// hold two different constants, or when tying their difference nodes
// together closes a negative cycle.
bool TheoryEngine::Merge(int a, int b, int32_t reason) {
  int ra = Find(a);
  int rb = Find(b);
  if (ra == rb) {
    return true;
  }
  int ca = ts_[U(ra)].cst;
  int cb = ts_[U(rb)].cst;
  if (ca >= 0 && cb >= 0 && TermAt(ca).value != TermAt(cb).value) {
    BeginExplain();
    WantReason(a, b, reason);
    Want({-1, a, ca});
    Want({-1, b, cb});
    return Finish();
  }
  // Re-root a's proof tree at a, then hang a under b.
  int prev = a;
  int cur = ts_[U(a)].pf_parent;
  int32_t r = ts_[U(a)].pf_reason;
  Set(Slot::kPfParent, a, a);
  while (prev != cur) {
    int next = ts_[U(cur)].pf_parent;
    int32_t next_reason = ts_[U(cur)].pf_reason;
    Set(Slot::kPfParent, cur, prev);
    Set(Slot::kPfReason, cur, r);
    if (next == cur) {
      break;
    }
    prev = cur;
    cur = next;
    r = next_reason;
  }
  Set(Slot::kPfParent, a, b);
  Set(Slot::kPfReason, a, reason);
  // Union by size: no path compression, so that a merge undoes in O(1).
  int child = ra;
  int root = rb;
  if (ts_[U(ra)].size > ts_[U(rb)].size) {
    std::swap(child, root);
  }
  Set(Slot::kUf, child, root);
  Set(Slot::kSize, root, ts_[U(root)].size + ts_[U(child)].size);
  ++merges_;
  if (ts_[U(root)].cst < 0 && ts_[U(child)].cst >= 0) {
    Set(Slot::kCst, root, ts_[U(child)].cst);
  }
  // One class, one difference value: its nodes are tied by 0-weight edges.
  const int32_t nc = ts_[U(child)].class_node;
  const int32_t nr = ts_[U(root)].class_node;
  if (nc >= 0 && nr < 0) {
    Set(Slot::kClassNode, root, nc);
  } else if (nc >= 0 && nr >= 0) {
    return AddEdge(nc, nr, 0, -1, -1, nc, nr) && AddEdge(nr, nc, 0, -1, -1, nr, nc);
  }
  return true;
}

// Congruence for applications and arithmetic: f(a...) and f(b...) merge
// when their arguments are classwise merged. Rounds until nothing merges.
bool TheoryEngine::Congruence() {
  const size_t n = first_order_.size();
  if (n < 2) {
    return true;
  }
  size_t cap = 16;
  while (cap < 2 * n) {
    cap *= 2;
  }
  auto signature = [this](int i) {
    const Term& t = TermAt(i);
    uint64_t h = static_cast<uint64_t>(t.sym) * 0x9E3779B97F4A7C15ULL;
    for (int k = 0; k < t.args_end - t.args_begin; ++k) {
      h = (h ^ static_cast<uint64_t>(Find(Arg(i, k)))) * 0xBF58476D1CE4E5B9ULL;
    }
    return h ^ (h >> 31);
  };
  auto same = [this](int i, int j) {
    const Term& ti = TermAt(i);
    const Term& tj = TermAt(j);
    int arity = ti.args_end - ti.args_begin;
    if (ti.sym != tj.sym || arity != tj.args_end - tj.args_begin) {
      return false;
    }
    for (int k = 0; k < arity; ++k) {
      if (Find(Arg(i, k)) != Find(Arg(j, k))) {
        return false;
      }
    }
    return true;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    sig_.assign(cap, -1);
    for (size_t q = 0; q < n; ++q) {
      const int i = first_order_[q];
      for (size_t slot = signature(i) & (cap - 1);; slot = (slot + 1) & (cap - 1)) {
        int j = sig_[slot];
        if (j < 0) {
          sig_[slot] = i;
          break;
        }
        if (same(i, j)) {
          if (Find(i) != Find(j)) {
            if (!Merge(i, j, kCongruence)) {
              return false;
            }
            changed = true;
          }
          break;
        }
      }
    }
  }
  return true;
}

// The disequality literals from position `begin` on.
bool TheoryEngine::CheckDisequalities(int begin) {
  for (auto it = std::lower_bound(diseq_lits_.begin(), diseq_lits_.end(), begin);
       it != diseq_lits_.end(); ++it) {
    const int p = *it;
    const Atom& a = atoms_[U(lit(p).atom)];
    if (Find(a.lhs) == Find(a.rhs)) {
      BeginExplain();
      WantLit(p);
      Want({-1, a.lhs, a.rhs});
      return Finish();
    }
  }
  return true;
}

bool TheoryEngine::CheckBoolPredicates() {
  if (++pred_check_ == 0) {
    for (TermState& state : ts_) {
      state.pred_stamp = 0;
    }
    pred_check_ = 1;
  }
  for (int p : pred_lits_) {
    const Atom& a = atoms_[U(lit(p).atom)];
    const int c = Find(a.lhs);
    if (ts_[U(c)].pred_stamp != pred_check_) {
      ts_[U(c)].pred_stamp = pred_check_;
      ts_[U(c)].pred_first = p;
      continue;
    }
    const int32_t q = ts_[U(c)].pred_first;
    if (lit(q).truth != lit(p).truth) {
      BeginExplain();
      WantLit(p);
      WantLit(q);
      Want({-1, a.lhs, atoms_[U(lit(q).atom)].lhs});
      return Finish();
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Difference edges with a kept potential (Cotton & Maler 2006).
// ---------------------------------------------------------------------------

int TheoryEngine::NodeOf(int32_t t) {
  if (t < 0) {
    return 0;
  }
  if (ts_[U(t)].node >= 0) {
    return ts_[U(t)].node;
  }
  const int v = static_cast<int>(nodes_.size());
  // No edges yet: 0 is a feasible potential, and zero is out of reach.
  nodes_.push_back({t, 0, kNoPath, -1, kNoPath, -1, -1, -1});
  ts_[U(t)].node = v;
  if (queued_.size() <= U(v)) {
    queued_.push_back(0);
    relax_pred_.push_back(-1);
  }
  return v;
}

// Adds the edge value(to) - value(from) <= w between the nodes of two terms
// (-1 is zero). A term that gets its node here is tied to its class's node.
// Returns false, with the explanation, when the edge closes a negative cycle.
bool TheoryEngine::AddEdge(int32_t from_term, int32_t to_term, int64_t w, int32_t lit,
                           int32_t need, int32_t eq_a, int32_t eq_b) {
  // A node made here for a term whose class has none is isolated: its
  // potential is free, and it takes the one that makes this edge tight, so
  // that (say) a constant's axiom edges move no other potential.
  bool fresh_from = false;
  bool fresh_to = false;
  for (int32_t t : {from_term, to_term}) {
    if (t < 0 || ts_[U(t)].node >= 0) {
      continue;
    }
    NodeOf(t);
    const int r = Find(t);
    const int32_t c = ts_[U(r)].class_node;
    if (c < 0) {
      Set(Slot::kClassNode, r, t);
      (t == from_term ? fresh_from : fresh_to) = true;
      continue;
    }
    nodes_[U(ts_[U(t)].node)].pi = nodes_[U(ts_[U(c)].node)].pi;  // Tight ties to its class.
    if (!AddEdge(t, c, 0, -1, -1, t, c) || !AddEdge(c, t, 0, -1, -1, c, t)) {
      return false;
    }
  }
  const int32_t a = NodeOf(from_term);
  const int32_t b = NodeOf(to_term);
  if (fresh_to && a != b) {
    nodes_[U(b)].pi = SatAdd(nodes_[U(a)].pi, w);
  } else if (fresh_from && a != b) {
    nodes_[U(a)].pi = SatAdd(nodes_[U(b)].pi, -w);
  }
  const auto e = static_cast<int32_t>(edges_.size());
  edges_.push_back({a, b, w, lit, need, eq_a, eq_b, nodes_[U(a)].first_out, nodes_[U(b)].first_in});
  nodes_[U(a)].first_out = e;
  nodes_[U(b)].first_in = e;
  if (SatAdd(nodes_[U(a)].pi, w) < nodes_[U(b)].pi && !RelaxPotential(e)) {
    return false;
  }
  RelaxDistances(e);
  return true;
}

// The new edge u → v breaks the potential at v. Lowers the potential from v
// along the edges until it is feasible again; having to lower u itself means
// a negative cycle through the new edge.
bool TheoryEngine::RelaxPotential(int32_t edge) {
  const int u = edges_[U(edge)].from;
  const int v = edges_[U(edge)].to;
  if (u == v) {
    return ConflictCycle(edge, edge);
  }
  NextStamp(&relax_, &queued_);
  Set(Slot::kPi, v, SatAdd(nodes_[U(u)].pi, edges_[U(edge)].w));
  relax_pred_[U(v)] = edge;
  queue_.clear();
  queue_.push_back(v);
  queued_[U(v)] = relax_;
  for (size_t qi = 0; qi < queue_.size(); ++qi) {
    const int x = queue_[qi];
    queued_[U(x)] = 0;
    for (int32_t f = nodes_[U(x)].first_out; f >= 0; f = edges_[U(f)].next_out) {
      const Edge& fe = edges_[U(f)];
      const int64_t cand = SatAdd(nodes_[U(x)].pi, fe.w);
      if (cand >= nodes_[U(fe.to)].pi) {
        continue;
      }
      if (fe.to == u) {
        return ConflictCycle(f, edge);
      }
      Set(Slot::kPi, fe.to, cand);
      relax_pred_[U(fe.to)] = f;
      if (queued_[U(fe.to)] != relax_) {
        queued_[U(fe.to)] = relax_;
        queue_.push_back(fe.to);
      }
    }
  }
  return true;
}

// Keeps the shortest paths from and to zero up to date after a new edge (no
// negative cycle, so the relaxation ends).
void TheoryEngine::RelaxDistances(int32_t edge) {
  const Edge ed = edges_[U(edge)];
  const int64_t up = nodes_[U(ed.from)].up;
  if (up != kNoPath && SatAdd(up, ed.w) < nodes_[U(ed.to)].up) {
    Set(Slot::kUp, ed.to, SatAdd(up, ed.w), edge);
    queue_.clear();
    queue_.push_back(ed.to);
    for (size_t qi = 0; qi < queue_.size(); ++qi) {
      const int x = queue_[qi];
      for (int32_t f = nodes_[U(x)].first_out; f >= 0; f = edges_[U(f)].next_out) {
        const Edge& fe = edges_[U(f)];
        const int64_t cand = SatAdd(nodes_[U(x)].up, fe.w);
        if (cand < nodes_[U(fe.to)].up) {
          Set(Slot::kUp, fe.to, cand, f);
          queue_.push_back(fe.to);
        }
      }
    }
  }
  const int64_t down = nodes_[U(ed.to)].down;
  if (down != kNoPath && SatAdd(down, ed.w) < nodes_[U(ed.from)].down) {
    Set(Slot::kDown, ed.from, SatAdd(down, ed.w), edge);
    queue_.clear();
    queue_.push_back(ed.from);
    for (size_t qi = 0; qi < queue_.size(); ++qi) {
      const int x = queue_[qi];
      for (int32_t f = nodes_[U(x)].first_in; f >= 0; f = edges_[U(f)].next_in) {
        const Edge& fe = edges_[U(f)];
        const int64_t cand = SatAdd(nodes_[U(x)].down, fe.w);
        if (cand < nodes_[U(fe.from)].down) {
          Set(Slot::kDown, fe.from, cand, f);
          queue_.push_back(fe.from);
        }
      }
    }
  }
}

bool TheoryEngine::Tight(const Edge& e) const {
  return SatAdd(nodes_[U(e.from)].pi, e.w) == nodes_[U(e.to)].pi;
}

// ---------------------------------------------------------------------------
// The final pass: forced equalities, then intervals over the current state.
// ---------------------------------------------------------------------------

bool TheoryEngine::FinalPass() {
  for (;;) {
    bool merged = false;
    if (!MergeZeroCycles(&merged)) {
      return false;
    }
    if (!merged) {
      break;
    }
    if (!Congruence() || !CheckDisequalities(0) || !CheckBoolPredicates()) {
      return false;
    }
  }
  for (int32_t t : active_terms_) {
    ts_[U(t)].lo = kIntMin;
    ts_[U(t)].hi = kIntMax;
    ts_[U(t)].lo_rec = -1;
    ts_[U(t)].hi_rec = -1;
  }
  bounds_.clear();
  deps_.clear();
  return DifferenceSeeds() && PropagateIntervals() && CheckSingletonDisequalities();
}

// Two terms on a zero-weight cycle with equal potential are equal in every
// model: the cycle's paths between them have weight 0 both ways, so the
// edges on them are tight (reduced cost 0). Such terms also share their
// distances from and to zero, which makes a cheap filter: only a group of
// nodes equal in all three values and spread over two classes is searched,
// and a member tight-reachable both ways from the group's first node merges
// into its class, explained by a tight path each way.
bool TheoryEngine::MergeZeroCycles(bool* merged) {
  const int n = static_cast<int>(nodes_.size());
  if (n < 3) {
    return true;  // Fewer than two term nodes.
  }
  // Chain the term nodes of equal values into groups (open addressing),
  // noting whether any group spans two classes: the nodes of one class
  // always share their values, and only a mixed group can merge.
  size_t cap = 16;
  while (cap < 2 * U(n)) {
    cap *= 2;
  }
  zero_slot_.assign(cap, -1);
  zero_next_.assign(U(n), -1);
  auto same_values = [this](int a, int b) {
    const NodeState& x = nodes_[U(a)];
    const NodeState& y = nodes_[U(b)];
    return x.pi == y.pi && x.up == y.up && x.down == y.down;
  };
  bool mixed_any = false;
  for (int v = 1; v < n; ++v) {
    uint64_t h = static_cast<uint64_t>(nodes_[U(v)].pi) * 0x9E3779B97F4A7C15ULL;
    h = (h ^ static_cast<uint64_t>(nodes_[U(v)].up)) * 0xBF58476D1CE4E5B9ULL;
    h = (h ^ static_cast<uint64_t>(nodes_[U(v)].down)) * 0x94D049BB133111EBULL;
    for (size_t slot = (h ^ (h >> 29)) & (cap - 1);; slot = (slot + 1) & (cap - 1)) {
      const int32_t head = zero_slot_[slot];
      if (head < 0) {
        zero_slot_[slot] = v;
        break;
      }
      if (same_values(head, v)) {
        zero_next_[U(v)] = zero_next_[U(head)];
        zero_next_[U(head)] = v;
        mixed_any = mixed_any || Find(nodes_[U(v)].term) != Find(nodes_[U(head)].term);
        break;
      }
    }
  }
  if (!mixed_any) {
    return true;
  }
  bool components = false;
  std::vector<std::pair<int32_t, int32_t>> pairs;  // Node pairs, one cycle record each.
  std::vector<int32_t>& group = zero_group_;
  for (int32_t head : zero_slot_) {
    if (head < 0 || zero_next_[U(head)] < 0) {
      continue;
    }
    group.clear();
    bool mixed = false;
    for (int32_t v = head; v >= 0; v = zero_next_[U(v)]) {
      group.push_back(v);
      mixed = mixed || Find(nodes_[U(v)].term) != Find(nodes_[U(head)].term);
    }
    if (!mixed) {
      continue;
    }
    if (!components) {
      TightComponents();
      components = true;
    }
    // Within one component, every member of another class than the first
    // member seen merges into it.
    std::sort(group.begin(), group.end(), [this](int32_t a, int32_t b) {
      return zero_comp_[U(a)] != zero_comp_[U(b)] ? zero_comp_[U(a)] < zero_comp_[U(b)] : a < b;
    });
    for (size_t first = 0; first < group.size();) {
      size_t end = first + 1;
      while (end < group.size() && zero_comp_[U(group[end])] == zero_comp_[U(group[first])]) {
        ++end;
      }
      const int32_t a = group[first];
      for (size_t j = first + 1; j < end; ++j) {
        const int32_t b = group[j];
        if (Find(nodes_[U(b)].term) == Find(nodes_[U(a)].term)) {
          continue;
        }
        const auto begin = static_cast<int32_t>(cycle_edges_.size());
        const bool paths = TightPath(a, b) && TightPath(b, a);
        ICARUS_REQUIRE_MSG(paths, "no tight path inside a zero-weight component");
        cycles_.emplace_back(begin, static_cast<int32_t>(cycle_edges_.size()));
        pairs.emplace_back(a, b);
      }
      first = end;
    }
  }
  const auto first_record = static_cast<int32_t>(cycles_.size() - pairs.size());
  for (size_t k = 0; k < pairs.size(); ++k) {
    const int32_t a = nodes_[U(pairs[k].first)].term;
    const int32_t b = nodes_[U(pairs[k].second)].term;
    if (Find(a) == Find(b)) {
      continue;
    }
    *merged = true;
    if (!Merge(a, b, kCycleBase - (first_record + static_cast<int32_t>(k)))) {
      return false;
    }
  }
  return true;
}

// Strongly connected components of the tight edges into zero_comp_ (each
// node's component is named by one of its nodes): Kosaraju, iteratively.
void TheoryEngine::TightComponents() {
  const int n = static_cast<int>(nodes_.size());
  NextStamp(&relax_, &queued_);
  zero_finish_.clear();
  for (int s = 0; s < n; ++s) {
    if (queued_[U(s)] == relax_) {
      continue;
    }
    queued_[U(s)] = relax_;
    zero_stack_.assign(1, {s, nodes_[U(s)].first_out});
    while (!zero_stack_.empty()) {
      auto& [x, next] = zero_stack_.back();
      if (next >= 0) {
        const Edge& e = edges_[U(next)];
        next = e.next_out;
        if (queued_[U(e.to)] != relax_ && Tight(e)) {
          queued_[U(e.to)] = relax_;
          zero_stack_.push_back({e.to, nodes_[U(e.to)].first_out});
        }
        continue;
      }
      zero_finish_.push_back(x);
      zero_stack_.pop_back();
    }
  }
  zero_comp_.assign(U(n), -1);
  for (size_t k = zero_finish_.size(); k-- > 0;) {
    const int32_t root = zero_finish_[k];
    if (zero_comp_[U(root)] >= 0) {
      continue;
    }
    zero_comp_[U(root)] = root;
    queue_.assign(1, root);
    for (size_t qi = 0; qi < queue_.size(); ++qi) {
      for (int32_t f = nodes_[U(queue_[qi])].first_in; f >= 0; f = edges_[U(f)].next_in) {
        const Edge& e = edges_[U(f)];
        if (zero_comp_[U(e.from)] < 0 && Tight(e)) {
          zero_comp_[U(e.from)] = root;
          queue_.push_back(e.from);
        }
      }
    }
  }
}

// Appends to cycle_edges_ a path of tight edges from node `from` to node
// `to`, breadth first; false when there is none.
bool TheoryEngine::TightPath(int from, int to) {
  NextStamp(&relax_, &queued_);
  queue_.assign(1, from);
  queued_[U(from)] = relax_;
  for (size_t qi = 0; qi < queue_.size(); ++qi) {
    const int x = queue_[qi];
    if (x == to) {
      const auto begin = cycle_edges_.size();
      for (int y = to; y != from; y = edges_[U(relax_pred_[U(y)])].from) {
        cycle_edges_.push_back(relax_pred_[U(y)]);
      }
      std::reverse(cycle_edges_.begin() + static_cast<std::ptrdiff_t>(begin), cycle_edges_.end());
      return true;
    }
    for (int32_t f = nodes_[U(x)].first_out; f >= 0; f = edges_[U(f)].next_out) {
      const Edge& fe = edges_[U(f)];
      if (queued_[U(fe.to)] != relax_ && Tight(fe)) {
        queued_[U(fe.to)] = relax_;
        relax_pred_[U(fe.to)] = f;
        queue_.push_back(fe.to);
      }
    }
  }
  return false;
}

// Shortest paths from and to zero seed the class intervals.
bool TheoryEngine::DifferenceSeeds() {
  const int n = static_cast<int>(nodes_.size());
  for (int v = 1; v < n; ++v) {
    const int32_t t = nodes_[U(v)].term;
    const int rep = Find(t);
    if (nodes_[U(v)].up < kIntMax && nodes_[U(v)].up < ts_[U(rep)].hi) {
      Step s;
      s.anchor = t;
      s.path = 1;
      s.node = v;
      LowerHi(rep, nodes_[U(v)].up, s);
    }
    if (nodes_[U(v)].down < kIntMax && -nodes_[U(v)].down > ts_[U(rep)].lo) {
      Step s;
      s.anchor = t;
      s.path = 2;
      s.node = v;
      RaiseLo(rep, -nodes_[U(v)].down, s);
    }
    if (Empty(rep)) {
      return ConflictEmpty(rep);
    }
  }
  return true;
}

void TheoryEngine::AddDep(Step* s, int32_t bound, int via) const {
  if (bound >= 0) {
    s->deps[s->n++] = {bound, via, bounds_[U(bound)].anchor};
  }
}

int32_t TheoryEngine::Record(const Step& s) {
  Bound b;
  b.anchor = s.anchor;
  b.lit = s.lit;
  b.need = s.need;
  b.path = s.path;
  b.node = s.node;
  b.deps_begin = static_cast<int32_t>(deps_.size());
  deps_.insert(deps_.end(), s.deps, s.deps + s.n);
  b.deps_end = static_cast<int32_t>(deps_.size());
  bounds_.push_back(b);
  return static_cast<int32_t>(bounds_.size() - 1);
}

bool TheoryEngine::RaiseLo(int rep, int64_t v, const Step& s) {
  if (v <= ts_[U(rep)].lo) {
    return false;
  }
  ts_[U(rep)].lo = v;
  ts_[U(rep)].lo_rec = Record(s);
  return true;
}

bool TheoryEngine::LowerHi(int rep, int64_t v, const Step& s) {
  if (v >= ts_[U(rep)].hi) {
    return false;
  }
  ts_[U(rep)].hi = v;
  ts_[U(rep)].hi_rec = Record(s);
  return true;
}

// True when the divisor of `t` (a kDiv/kMod term) is provably nonzero: its
// interval excludes 0, or a disequality literal to a zero class covers its
// class. `*reason` receives a record of why.
bool TheoryEngine::DivisorExcludesZero(int t, int32_t* reason) {
  int y = Arg(t, 1);
  int cls = Find(y);
  Step s;
  s.anchor = y;
  if (ts_[U(cls)].lo > 0 || ts_[U(cls)].hi < 0) {
    AddDep(&s, ts_[U(cls)].lo > 0 ? ts_[U(cls)].lo_rec : ts_[U(cls)].hi_rec, y);
    *reason = Record(s);
    return true;
  }
  auto is_zero = [this](int c) {
    if (ts_[U(c)].cst >= 0) {
      return TermAt(ts_[U(c)].cst).value == 0;
    }
    return ts_[U(c)].lo == ts_[U(c)].hi && ts_[U(c)].lo == 0;
  };
  for (int p : diseq_lits_) {
    const Atom& a = atoms_[U(lit(p).atom)];
    if (!a.int_args) {
      continue;
    }
    int ca = Find(a.lhs);
    int cb = Find(a.rhs);
    int mine = -1;
    int zero = -1;
    if (ca == cls && is_zero(cb)) {
      mine = a.lhs;
      zero = a.rhs;
    } else if (cb == cls && is_zero(ca)) {
      mine = a.rhs;
      zero = a.lhs;
    } else {
      continue;
    }
    s.lit = p;
    s.deps[s.n++] = {-1, mine, y};
    int cz = Find(zero);
    if (ts_[U(cz)].cst >= 0) {
      s.deps[s.n++] = {-1, zero, ts_[U(cz)].cst};
    } else {
      AddDep(&s, ts_[U(cz)].lo_rec, zero);
      AddDep(&s, ts_[U(cz)].hi_rec, zero);
    }
    *reason = Record(s);
    return true;
  }
  return false;
}

bool TheoryEngine::PropagateIntervals() {
  for (int32_t i : const_terms_) {
    int r = Find(i);
    const int64_t c = TermAt(i).value;
    if (c > ts_[U(r)].lo || c < ts_[U(r)].hi) {
      Step s;
      s.anchor = i;
      s.need = i;
      RaiseLo(r, c, s);
      LowerHi(r, c, s);
    }
    if (Empty(r)) {
      return ConflictEmpty(r);
    }
  }
  for (int round = 0; round < kMaxIntervalRounds; ++round) {
    bool changed = false;
    // Comparison literals between class representatives.
    for (int p : cmp_lits_) {
      const Atom& a = atoms_[U(lit(p).atom)];
      const bool truth = lit(p).truth;
      int ca = Find(a.lhs);
      int cb = Find(a.rhs);
      bool strict = a.kind == Kind::kLt;
      // a < b (or a <= b); negated, b <= a (or b < a).
      int lo_side = truth ? a.lhs : a.rhs;
      int hi_side = truth ? a.rhs : a.lhs;
      int64_t off = (strict == truth) ? 1 : 0;
      int cl = Find(lo_side);
      int ch = Find(hi_side);
      // A step is built only when its bound moves.
      if (SatAdd(ts_[U(ch)].hi, -off) < ts_[U(cl)].hi) {
        Step s1;
        s1.anchor = lo_side;
        s1.lit = p;
        AddDep(&s1, ts_[U(ch)].hi_rec, hi_side);
        changed |= LowerHi(cl, SatAdd(ts_[U(ch)].hi, -off), s1);
      }
      if (SatAdd(ts_[U(cl)].lo, off) > ts_[U(ch)].lo) {
        Step s2;
        s2.anchor = hi_side;
        s2.lit = p;
        AddDep(&s2, ts_[U(cl)].lo_rec, lo_side);
        changed |= RaiseLo(ch, SatAdd(ts_[U(cl)].lo, off), s2);
      }
      if (Empty(ca)) {
        return ConflictEmpty(ca);
      }
      if (Empty(cb)) {
        return ConflictEmpty(cb);
      }
    }
    // Disequality-driven endpoint refinement: x != c tightens x's interval
    // when c sits exactly on an endpoint (this is what turns the compiler's
    // "bail if lhs == INT_MIN" guard into a usable bound).
    for (int p : diseq_lits_) {
      const Atom& a = atoms_[U(lit(p).atom)];
      if (!a.int_args) {
        continue;
      }
      int la = a.lhs;
      int lb = a.rhs;
      int ca = Find(la);
      int cb = Find(lb);
      int t = -1;   // The side that shrinks...
      int c = -1;   // ...away from the other side's single value.
      if (ts_[U(ca)].lo == ts_[U(ca)].hi) {
        t = lb;
        c = la;
      } else if (ts_[U(cb)].lo == ts_[U(cb)].hi) {
        t = la;
        c = lb;
      }
      if (t >= 0) {
        int rt = Find(t);
        int rc = Find(c);
        int64_t v = ts_[U(rc)].lo;
        Step s;
        s.anchor = t;
        s.lit = p;
        AddDep(&s, ts_[U(rc)].lo_rec, c);
        AddDep(&s, ts_[U(rc)].hi_rec, c);
        if (ts_[U(rt)].lo == v) {
          Step up = s;
          AddDep(&up, ts_[U(rt)].lo_rec, t);
          ts_[U(rt)].lo = v + 1;
          ts_[U(rt)].lo_rec = Record(up);
          changed = true;
        }
        if (ts_[U(rt)].hi == v) {
          Step down = s;
          AddDep(&down, ts_[U(rt)].hi_rec, t);
          ts_[U(rt)].hi = v - 1;
          ts_[U(rt)].hi_rec = Record(down);
          changed = true;
        }
      }
      if (Empty(ca)) {
        return ConflictEmpty(ca);
      }
      if (Empty(cb)) {
        return ConflictEmpty(cb);
      }
    }
    // Structural arithmetic: relate a term's class interval to its children.
    for (int32_t i : arith_terms_) {
      const Kind k = TermAt(i).kind;
      int x = Arg(i, 0);
      int cx = Find(x);
      int y = k == Kind::kNeg ? -1 : Arg(i, 1);
      int cy = y < 0 ? -1 : Find(y);
      Step slo;
      slo.anchor = i;
      slo.need = i;
      Step shi = slo;
      int64_t dlo = 0;
      int64_t dhi = 0;
      switch (k) {
        case Kind::kAdd:
          dlo = SatAdd(ts_[U(cx)].lo, ts_[U(cy)].lo);
          dhi = SatAdd(ts_[U(cx)].hi, ts_[U(cy)].hi);
          AddDep(&slo, ts_[U(cx)].lo_rec, x);
          AddDep(&slo, ts_[U(cy)].lo_rec, y);
          AddDep(&shi, ts_[U(cx)].hi_rec, x);
          AddDep(&shi, ts_[U(cy)].hi_rec, y);
          break;
        case Kind::kSub:
          dlo = SatAdd(ts_[U(cx)].lo, -ts_[U(cy)].hi);
          dhi = SatAdd(ts_[U(cx)].hi, -ts_[U(cy)].lo);
          AddDep(&slo, ts_[U(cx)].lo_rec, x);
          AddDep(&slo, ts_[U(cy)].hi_rec, y);
          AddDep(&shi, ts_[U(cx)].hi_rec, x);
          AddDep(&shi, ts_[U(cy)].lo_rec, y);
          break;
        case Kind::kMul: {
          int64_t c1 = SatMul(ts_[U(cx)].lo, ts_[U(cy)].lo);
          int64_t c2 = SatMul(ts_[U(cx)].lo, ts_[U(cy)].hi);
          int64_t c3 = SatMul(ts_[U(cx)].hi, ts_[U(cy)].lo);
          int64_t c4 = SatMul(ts_[U(cx)].hi, ts_[U(cy)].hi);
          dlo = std::min(std::min(c1, c2), std::min(c3, c4));
          dhi = std::max(std::max(c1, c2), std::max(c3, c4));
          for (Step* s : {&slo, &shi}) {
            AddDep(s, ts_[U(cx)].lo_rec, x);
            AddDep(s, ts_[U(cx)].hi_rec, x);
            AddDep(s, ts_[U(cy)].lo_rec, y);
            AddDep(s, ts_[U(cy)].hi_rec, y);
          }
          break;
        }
        case Kind::kNeg:
          dlo = -ts_[U(cx)].hi;
          dhi = -ts_[U(cx)].lo;
          AddDep(&slo, ts_[U(cx)].hi_rec, x);
          AddDep(&shi, ts_[U(cx)].lo_rec, x);
          break;
        default: {
          // Truncating division (or remainder) with a provably nonzero
          // divisor satisfies |a/b| <= |a|. With a possibly-zero divisor the
          // term stays unconstrained, matching SMT-LIB's arbitrary
          // div-by-zero.
          int32_t reason = -1;
          if (!DivisorExcludesZero(i, &reason)) {
            continue;
          }
          int64_t m = std::max(std::llabs(ts_[U(cx)].lo), std::llabs(ts_[U(cx)].hi));
          if (k == Kind::kMod) {
            int64_t mb = std::max(std::llabs(ts_[U(cy)].lo), std::llabs(ts_[U(cy)].hi));
            m = std::min(m, mb > 0 ? mb - 1 : 0);
          }
          dlo = -m;
          dhi = m;
          AddDep(&slo, ts_[U(cx)].lo_rec, x);
          AddDep(&slo, ts_[U(cx)].hi_rec, x);
          if (k == Kind::kMod) {
            AddDep(&slo, ts_[U(cy)].lo_rec, y);
            AddDep(&slo, ts_[U(cy)].hi_rec, y);
          }
          AddDep(&slo, reason, y);
          shi = slo;
          break;
        }
      }
      int r = Find(i);
      changed |= RaiseLo(r, dlo, slo);
      changed |= LowerHi(r, dhi, shi);
      if (Empty(r)) {
        return ConflictEmpty(r);
      }
      // Backward propagation for Add/Sub/Neg (exact inverses). Each narrowing
      // reads the intervals as the previous one left them.
      auto narrow = [&](int child, int64_t lo, const Step& s_lo, int64_t hi, const Step& s_hi) {
        int c = Find(child);
        changed |= RaiseLo(c, lo, s_lo);
        changed |= LowerHi(c, hi, s_hi);
      };
      auto step = [&](int anchor, int32_t b1, int v1, int32_t b2, int v2) {
        Step s;
        s.anchor = anchor;
        s.need = i;
        AddDep(&s, b1, v1);
        AddDep(&s, b2, v2);
        return s;
      };
      // The class states, read where each narrowing runs.
      const TermState& t = ts_[U(r)];
      const TermState& sy = ts_[U(cy < 0 ? r : cy)];
      if (k == Kind::kAdd) {
        // x ∈ t - y, then y ∈ t - x.
        narrow(x, SatAdd(t.lo, -sy.hi), step(x, t.lo_rec, i, sy.hi_rec, y),
               SatAdd(t.hi, -sy.lo), step(x, t.hi_rec, i, sy.lo_rec, y));
        const TermState& sx = ts_[U(Find(x))];
        narrow(y, SatAdd(t.lo, -sx.hi), step(y, t.lo_rec, i, sx.hi_rec, x),
               SatAdd(t.hi, -sx.lo), step(y, t.hi_rec, i, sx.lo_rec, x));
      } else if (k == Kind::kSub) {
        // x ∈ t + y, then y ∈ x - t.
        narrow(x, SatAdd(t.lo, sy.lo), step(x, t.lo_rec, i, sy.lo_rec, y),
               SatAdd(t.hi, sy.hi), step(x, t.hi_rec, i, sy.hi_rec, y));
        const TermState& sx = ts_[U(Find(x))];
        narrow(y, SatAdd(sx.lo, -t.hi), step(y, sx.lo_rec, x, t.hi_rec, i),
               SatAdd(sx.hi, -t.lo), step(y, sx.hi_rec, x, t.lo_rec, i));
      } else if (k == Kind::kNeg) {
        narrow(x, -t.hi, step(x, t.hi_rec, i, -1, -1), -t.lo, step(x, t.lo_rec, i, -1, -1));
      }
      for (int child : {x, y}) {
        if (child >= 0 && Empty(Find(child))) {
          return ConflictEmpty(Find(child));
        }
      }
    }
    if (!changed) {
      break;
    }
  }
  return true;
}

// After intervals converge, two classes pinned to the same single value
// cannot satisfy a disequality literal.
bool TheoryEngine::CheckSingletonDisequalities() {
  for (int p : diseq_lits_) {
    const Atom& a = atoms_[U(lit(p).atom)];
    if (!a.int_args) {
      continue;
    }
    int la = a.lhs;
    int lb = a.rhs;
    int ca = Find(la);
    int cb = Find(lb);
    const TermState& sa = ts_[U(ca)];
    const TermState& sb = ts_[U(cb)];
    if (sa.lo == sa.hi && sb.lo == sb.hi && sa.lo == sb.lo) {
      BeginExplain();
      WantLit(p);
      WantBound(ts_[U(ca)].lo_rec, la);
      WantBound(ts_[U(ca)].hi_rec, la);
      WantBound(ts_[U(cb)].lo_rec, lb);
      WantBound(ts_[U(cb)].hi_rec, lb);
      return Finish();
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Explanations.
// ---------------------------------------------------------------------------

void TheoryEngine::BeginExplain() {
  NextStamp(&explain_, &lit_mark_, &bound_mark_, &edge_mark_, &present_);
  lit_mark_.resize(std::max(lit_mark_.size(), lits_.size()), 0);
  bound_mark_.resize(std::max(bound_mark_.size(), bounds_.size()), 0);
  edge_mark_.resize(std::max(edge_mark_.size(), terms_.size()), 0);
  anc_mark_.resize(std::max(anc_mark_.size(), terms_.size()), 0);
  present_.resize(std::max(present_.size(), terms_.size()), 0);
  work_.clear();
  need_.clear();
  out_->clear();
}

void TheoryEngine::WantLit(int32_t lit) {
  if (lit_mark_[U(lit)] != explain_) {
    lit_mark_[U(lit)] = explain_;
    out_->push_back(lit);
  }
}

void TheoryEngine::WantBound(int32_t bound, int via) {
  if (bound >= 0) {
    Want({bound, via, bounds_[U(bound)].anchor});
  }
}

// An edge rests on its literal, on the structure of an `x ± c` term, or on
// the equality of the two class members it ties together.
void TheoryEngine::WantEdge(int32_t edge) {
  const Edge& e = edges_[U(edge)];
  if (e.lit >= 0) {
    WantLit(e.lit);
  }
  if (e.need >= 0) {
    need_.push_back(e.need);
  }
  if (e.eq_a >= 0) {
    Want({-1, e.eq_a, e.eq_b});
  }
}

// The reasons of the proof-forest edge a—b.
void TheoryEngine::WantReason(int a, int b, int32_t reason) {
  if (reason >= 0) {
    WantLit(reason);
  } else if (reason == kCongruence) {
    for (int k = 0; k < TermAt(a).args_end - TermAt(a).args_begin; ++k) {
      Want({-1, Arg(a, k), Arg(b, k)});
    }
  } else {
    const auto [begin, end] = cycles_[U(kCycleBase - reason)];
    for (int32_t k = begin; k < end; ++k) {
      WantEdge(cycle_edges_[U(k)]);
    }
  }
}

// Walks the shortest-path tree from zero to `node` (dir 1) or from `node` to
// zero (dir 2), wanting each edge.
void TheoryEngine::WantPath(int node, int8_t dir) {
  int steps = 0;
  for (int x = node; x != 0;) {
    const int32_t e = dir == 1 ? nodes_[U(x)].up_pred : nodes_[U(x)].down_pred;
    ICARUS_REQUIRE_MSG(e >= 0 && ++steps <= static_cast<int>(nodes_.size()),
                       "broken shortest-path tree in a theory explanation");
    WantEdge(e);
    x = dir == 1 ? edges_[U(e)].from : edges_[U(e)].to;
  }
}

// The negative cycle `entry` (u → v), the relaxation's path from v to the
// tail of `closing`, and `closing` back into u.
bool TheoryEngine::ConflictCycle(int32_t closing, int32_t entry) {
  BeginExplain();
  __int128 weight = edges_[U(closing)].w;
  WantEdge(closing);
  if (closing != entry) {
    const int v = edges_[U(entry)].to;
    int steps = 0;
    for (int x = edges_[U(closing)].from; x != v;) {
      const int32_t f = relax_pred_[U(x)];
      ICARUS_REQUIRE_MSG(++steps <= static_cast<int>(nodes_.size()),
                         "predecessor walk left the negative cycle");
      WantEdge(f);
      weight += edges_[U(f)].w;
      x = edges_[U(f)].from;
    }
    WantEdge(entry);
    weight += edges_[U(entry)].w;
  }
  ICARUS_REQUIRE_MSG(weight < 0, "difference cycle in an explanation is not negative");
  return Finish();
}

bool TheoryEngine::ConflictEmpty(int rep) {
  BeginExplain();
  int32_t lo = ts_[U(rep)].lo_rec;
  int32_t hi = ts_[U(rep)].hi_rec;
  Want({lo, -1, -1});
  Want({hi, -1, -1});
  if (lo >= 0 && hi >= 0) {
    Want({-1, bounds_[U(lo)].anchor, bounds_[U(hi)].anchor});
  }
  return Finish();
}

// Appends the literals behind a ~ b: the proof-forest path between them,
// with each edge's reasons queued.
void TheoryEngine::ExplainEq(int a, int b) {
  NextStamp(&anc_, &anc_mark_);
  for (int x = a;; x = ts_[U(x)].pf_parent) {
    anc_mark_[U(x)] = anc_;
    if (ts_[U(x)].pf_parent == x) {
      break;
    }
  }
  int lca = b;
  while (anc_mark_[U(lca)] != anc_) {
    ICARUS_REQUIRE_MSG(ts_[U(lca)].pf_parent != lca, "explaining an equality between two classes");
    lca = ts_[U(lca)].pf_parent;
  }
  for (int from : {a, b}) {
    for (int x = from; x != lca; x = ts_[U(x)].pf_parent) {
      if (edge_mark_[U(x)] == explain_) {
        continue;
      }
      edge_mark_[U(x)] = explain_;
      WantReason(x, ts_[U(x)].pf_parent, ts_[U(x)].pf_reason);
    }
  }
}

// Drains the work list into literal positions. A step that used a term's
// structure (an `x ± c` axiom edge, an arithmetic interval rule) needs that
// term in the check: if no wanted literal brings it in, the literal that
// did is added. Always returns false, the conflict answer.
bool TheoryEngine::Finish() {
  while (!work_.empty()) {
    Dep d = work_.back();
    work_.pop_back();
    if (d.a >= 0 && d.b >= 0 && d.a != d.b) {
      ExplainEq(d.a, d.b);
    }
    if (d.bound < 0 || bound_mark_[U(d.bound)] == explain_) {
      continue;
    }
    bound_mark_[U(d.bound)] = explain_;
    const Bound& b = bounds_[U(d.bound)];
    if (b.lit >= 0) {
      WantLit(b.lit);
    }
    if (b.need >= 0) {
      need_.push_back(b.need);
    }
    work_.insert(work_.end(), deps_.begin() + b.deps_begin, deps_.begin() + b.deps_end);
    if (b.path != 0) {
      WantPath(b.node, b.path);
    }
  }
  if (!need_.empty()) {
    auto mark = [this](int32_t p) {
      const Atom& a = atoms_[U(lit(p).atom)];
      for (int32_t k = a.closure_begin; k < a.closure_end; ++k) {
        present_[U(atom_closure_[U(k)])] = explain_;
      }
    };
    for (int p : *out_) {
      mark(p);
    }
    for (int32_t t : need_) {
      if (present_[U(t)] != explain_) {
        WantLit(ts_[U(t)].origin);
        mark(ts_[U(t)].origin);
      }
    }
  }
  ICARUS_REQUIRE_MSG(!out_->empty(), "theory conflict with an empty explanation");
  std::sort(out_->begin(), out_->end());
  return false;
}

// ---------------------------------------------------------------------------
// Models.
// ---------------------------------------------------------------------------

// Assigns each class a value: constants first, then the classes with
// difference nodes from the narrowest range to the widest, then the rest.
// Each value lies in the range the class's interval and the classes placed
// so far allow (with all-pairs shortest paths between classes every later
// class stays placeable) and avoids the values of its disequal neighbours; a
// small budgeted backtracking search undoes a choice that leaves a later
// class no value. When the search finds nothing it places every class in
// range regardless: a best-effort model outside difference logic.
void TheoryEngine::BuildModel(Model* model) const {
  std::vector<int32_t> reps;              // Classes, in order of first member.
  std::unordered_map<int32_t, int> cls;   // Rep → index into reps.
  for (int32_t t : active_terms_) {
    if (cls.emplace(Find(t), static_cast<int>(reps.size())).second) {
      reps.push_back(Find(t));
    }
  }
  const int nc = static_cast<int>(reps.size());
  std::vector<std::pair<int, int>> diseq;
  for (int p : diseq_lits_) {
    const Atom& a = atoms_[U(lit(p).atom)];
    diseq.emplace_back(cls.at(Find(a.lhs)), cls.at(Find(a.rhs)));
  }
  // The difference graph over classes: class node 0 is zero.
  std::vector<int> node(U(nc), -1);  // Per class: its class node, or -1.
  std::vector<int> node_of(nodes_.size(), 0);
  int nn = 1;
  for (size_t v = 1; v < nodes_.size(); ++v) {
    const int k = cls.at(Find(nodes_[v].term));
    if (node[U(k)] < 0) {
      node[U(k)] = nn++;
    }
    node_of[v] = node[U(k)];
  }
  const int zero = 0;
  std::vector<int64_t> d(U(nn * nn), kNoPath);
  auto at = [&](int u, int v) -> int64_t& { return d[U(u * nn + v)]; };
  for (const Edge& e : edges_) {
    int64_t& slot = at(node_of[U(e.from)], node_of[U(e.to)]);
    slot = std::min(slot, e.w);
  }
  for (int k = 0; k < nn; ++k) {
    at(k, k) = std::min<int64_t>(at(k, k), 0);
    for (int u = 0; u < nn; ++u) {
      if (at(u, k) == kNoPath) {
        continue;
      }
      for (int v = 0; v < nn; ++v) {
        if (at(k, v) != kNoPath) {
          at(u, v) = std::min(at(u, v), SatAdd(at(u, k), at(k, v)));
        }
      }
    }
  }
  auto rank = [&](int c) {
    if (ts_[U(reps[U(c)])].cst >= 0) {
      return std::make_pair(0, int64_t{0});
    }
    int v = node[U(c)];
    if (v < 0) {
      return std::make_pair(2, int64_t{0});
    }
    bool bounded = at(zero, v) != kNoPath && at(v, zero) != kNoPath;
    return std::make_pair(1, bounded ? SatAdd(at(zero, v), at(v, zero)) : kNoPath);
  };
  std::vector<int> order(U(nc));
  for (int c = 0; c < nc; ++c) {
    order[U(c)] = c;
  }
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) { return rank(a) < rank(b); });

  std::vector<int64_t> value(U(nc), 0);
  std::vector<char> placed(U(nc), 0);
  std::vector<int64_t> node_value(U(nn), 0);
  std::vector<char> node_placed(U(nn), 0);
  if (nn > 0) {
    node_placed[U(zero)] = 1;
  }
  auto set = [&](int c, int64_t val, bool on) {
    value[U(c)] = val;
    placed[U(c)] = on ? 1 : 0;
    if (int v = node[U(c)]; v >= 0) {
      node_value[U(v)] = val;
      node_placed[U(v)] = on ? 1 : 0;
    }
  };
  // The range class `c` may take given the nodes placed so far.
  auto range = [&](int c, int64_t* lo, int64_t* hi) {
    *lo = ts_[U(reps[U(c)])].lo;
    *hi = ts_[U(reps[U(c)])].hi;
    int v = node[U(c)];
    if (v < 0) {
      return;
    }
    int64_t dlo = kIntMin;
    int64_t dhi = kIntMax;
    for (int u = 0; u < nn; ++u) {
      if (node_placed[U(u)] && at(u, v) != kNoPath) {
        dhi = std::min(dhi, SatAdd(node_value[U(u)], at(u, v)));
      }
      if (node_placed[U(u)] && at(v, u) != kNoPath) {
        dlo = std::max(dlo, SatAdd(node_value[U(u)], -at(v, u)));
      }
    }
    if (std::max(*lo, dlo) <= std::min(*hi, dhi)) {
      *lo = std::max(*lo, dlo);
      *hi = std::min(*hi, dhi);
    } else {
      *lo = dlo;
      *hi = dhi;
    }
  };
  auto collides = [&](int c, int64_t cand) {
    for (const auto& [a, b] : diseq) {
      int other = a == c ? b : (b == c ? a : -1);
      if (other >= 0 && placed[U(other)] && value[U(other)] == cand) {
        return true;
      }
    }
    return false;
  };
  // Tries up to three non-colliding values per class, nearest the
  // smallest-magnitude point of its range. `relaxed` takes the first value
  // in range whatever it collides with.
  int budget = 4096;
  auto search = [&](auto&& self, size_t idx, bool relaxed) -> bool {
    if (idx == order.size()) {
      return true;
    }
    int c = order[idx];
    int64_t lo = 0;
    int64_t hi = 0;
    range(c, &lo, &hi);
    if (int32_t k = ts_[U(reps[U(c)])].cst; k >= 0) {
      lo = hi = TermAt(k).value;
    } else if (lo > hi) {
      if (!relaxed) {
        return false;
      }
      hi = lo;
    }
    const int64_t start = std::clamp<int64_t>(0, lo, hi);
    int tried = 0;
    for (int64_t k = 0; tried < 3 && (relaxed || --budget > 0); ++k) {
      const int64_t up = SatAdd(start, k);
      const int64_t down = SatAdd(start, -k);
      if (up > hi && down < lo) {
        break;
      }
      for (int64_t cand : {up, down}) {
        if (cand < lo || cand > hi || (!relaxed && collides(c, cand))) {
          continue;
        }
        ++tried;
        set(c, cand, true);
        if (self(self, idx + 1, relaxed)) {
          return true;
        }
        set(c, 0, false);
        if (k == 0) {
          break;  // up == down.
        }
      }
    }
    return false;
  };
  if (!search(search, 0, false)) {
    search(search, 0, true);
  }
  std::vector<std::vector<int32_t>> members(U(nc));
  for (int32_t t : active_terms_) {
    members[U(cls.at(Find(t)))].push_back(t);
  }
  for (int k = 0; k < nc; ++k) {
    int64_t val = value[U(k)];
    model->terms.emplace_back(TermAt(members[U(k)].front()).expr, val);
    // Every named variable in the class gets a witness entry, not just the
    // first member, so counterexample reports show a concrete value for each
    // symbolic input.
    for (int32_t m : members[U(k)]) {
      ExprRef e = TermAt(m).expr;
      if (e->kind == Kind::kVar) {
        model->witnesses.push_back(Witness{std::string(e->name), e->sort, val});
      }
    }
  }
}

}  // namespace icarus::sym
