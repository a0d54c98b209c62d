#include "src/sym/theory.h"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "src/support/check.h"
#include "src/support/str_util.h"
#include "src/sym/solver.h"

namespace icarus::sym {

namespace {

// The integer range the procedure works in; sums and products saturate here.
constexpr int64_t kIntMin = std::numeric_limits<int64_t>::min() / 4;
constexpr int64_t kIntMax = std::numeric_limits<int64_t>::max() / 4;
// No path between two difference nodes (model construction only).
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

// ---------------------------------------------------------------------------
// Registration: dense ids, once per solver.
// ---------------------------------------------------------------------------

int32_t TheoryEngine::InternSym(ExprRef e) {
  // Operators share the symbol space with applications, keyed as "$op<kind>".
  std::string name = e->kind == Kind::kApp ? e->name : StrCat("$op", static_cast<int>(e->kind));
  auto [it, inserted] = syms_.emplace(std::move(name), static_cast<int32_t>(syms_.size()));
  return it->second;
}

int TheoryEngine::InternTerm(ExprRef e) {
  auto it = term_ids_.find(e);
  if (it != term_ids_.end()) {
    return it->second;
  }
  std::vector<int32_t> args;
  bool first_order = !e->args.empty();
  for (ExprRef a : e->args) {
    if (a->sort == Sort::kBool) {
      first_order = false;
    } else {
      args.push_back(InternTerm(a));
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
  term_args_.insert(term_args_.end(), args.begin(), args.end());
  t.args_end = static_cast<int32_t>(term_args_.size());
  if (e->kind == Kind::kConstInt) {
    t.value = e->value;
  }
  // Constants are canonicalized to the right operand by the pool.
  if ((e->kind == Kind::kAdd || e->kind == Kind::kSub) && e->args[1]->kind == Kind::kConstInt) {
    t.has_offset = true;
    t.offset = e->kind == Kind::kAdd ? e->args[1]->value : -e->args[1]->value;
  }
  int id = static_cast<int>(terms_.size());
  terms_.push_back(t);
  stamp_.push_back(0);
  local_.push_back(-1);
  term_ids_.emplace(e, id);
  return id;
}

int TheoryEngine::AddAtom(ExprRef e) {
  auto it = atom_ids_.find(e);
  if (it != atom_ids_.end()) {
    return it->second;
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
  atom_ids_.emplace(e, id);
  return id;
}

// ---------------------------------------------------------------------------
// The check.
// ---------------------------------------------------------------------------

bool TheoryEngine::Check(const std::vector<TheoryLit>& lits, std::vector<int>* explanation) {
  lits_ = &lits;
  out_ = explanation;
  explanation->clear();
  CollectTerms();
  return Congruence() && CheckDisequalities() && CheckBoolPredicates() && DifferenceBounds() &&
         PropagateIntervals() && CheckSingletonDisequalities();
}

void TheoryEngine::CollectTerms() {
  NextStamp(&check_, &stamp_);
  glob_.clear();
  origin_.clear();
  const std::vector<TheoryLit>& lits = *lits_;
  for (size_t p = 0; p < lits.size(); ++p) {
    const Atom& a = atoms_[U(lits[p].atom)];
    for (int32_t k = a.closure_begin; k < a.closure_end; ++k) {
      int32_t t = atom_closure_[U(k)];
      if (stamp_[U(t)] == check_) {
        continue;
      }
      stamp_[U(t)] = check_;
      local_[U(t)] = static_cast<int32_t>(glob_.size());
      glob_.push_back(t);
      origin_.push_back(static_cast<int32_t>(p));
    }
  }
  const size_t n = glob_.size();
  uf_.resize(n);
  pf_parent_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    uf_[i] = static_cast<int32_t>(i);
    pf_parent_[i] = static_cast<int32_t>(i);
  }
  pf_reason_.assign(n, kCongruence);
  cst_.assign(n, -1);
  pred_first_.assign(n, -1);
  node_.assign(n, -1);
  lo_.assign(n, kIntMin);
  hi_.assign(n, kIntMax);
  lo_rec_.assign(n, -1);
  hi_rec_.assign(n, -1);
  node_rep_.clear();
  edges_.clear();
  bounds_.clear();
  deps_.clear();
  zero_ = -1;
}

int TheoryEngine::Find(int x) const {
  while (uf_[U(x)] != x) {
    uf_[U(x)] = uf_[U(uf_[U(x)])];
    x = uf_[U(x)];
  }
  return x;
}

int TheoryEngine::Arg(int local, int i) const {
  return LocalOf(term_args_[U(TermOf(local).args_begin + i)]);
}

// Joins the classes of `a` and `b` for `reason`, recording the edge a—b in
// the proof forest. Returns false (with the explanation) when the classes
// hold two different constants.
bool TheoryEngine::Merge(int a, int b, int32_t reason) {
  int ra = Find(a);
  int rb = Find(b);
  if (ra == rb) {
    return true;
  }
  int ca = cst_[U(ra)];
  int cb = cst_[U(rb)];
  if (ca >= 0 && cb >= 0 && TermOf(ca).value != TermOf(cb).value) {
    BeginExplain();
    if (reason >= 0) {
      WantLit(reason);
    } else {
      for (int k = 0; k < TermOf(a).args_end - TermOf(a).args_begin; ++k) {
        Want({-1, Arg(a, k), Arg(b, k)});
      }
    }
    Want({-1, a, ca});
    Want({-1, b, cb});
    return Finish();
  }
  // Re-root a's proof tree at a, then hang a under b.
  int prev = a;
  int cur = pf_parent_[U(a)];
  int32_t r = pf_reason_[U(a)];
  pf_parent_[U(a)] = a;
  while (prev != cur) {
    int next = pf_parent_[U(cur)];
    int32_t next_reason = pf_reason_[U(cur)];
    pf_parent_[U(cur)] = prev;
    pf_reason_[U(cur)] = r;
    if (next == cur) {
      break;
    }
    prev = cur;
    cur = next;
    r = next_reason;
  }
  pf_parent_[U(a)] = b;
  pf_reason_[U(a)] = reason;
  uf_[U(ra)] = rb;
  if (ca >= 0 && cb < 0) {
    cst_[U(rb)] = ca;
  }
  return true;
}

bool TheoryEngine::Congruence() {
  const std::vector<TheoryLit>& lits = *lits_;
  const int n = static_cast<int>(glob_.size());
  for (int i = 0; i < n; ++i) {
    if (TermOf(i).kind == Kind::kConstInt) {
      cst_[U(i)] = i;
    }
  }
  for (size_t p = 0; p < lits.size(); ++p) {
    const Atom& a = atoms_[U(lits[p].atom)];
    if (a.kind == Kind::kEq && lits[p].truth &&
        !Merge(LocalOf(a.lhs), LocalOf(a.rhs), static_cast<int32_t>(p))) {
      return false;
    }
  }
  // Congruence for applications and arithmetic: f(a...) and f(b...) merge
  // when their arguments are classwise merged. Rounds until nothing merges.
  size_t cap = 16;
  while (cap < 2 * static_cast<size_t>(n)) {
    cap *= 2;
  }
  auto signature = [this](int i) {
    const Term& t = TermOf(i);
    uint64_t h = static_cast<uint64_t>(t.sym) * 0x9E3779B97F4A7C15ULL;
    for (int k = 0; k < t.args_end - t.args_begin; ++k) {
      h = (h ^ static_cast<uint64_t>(Find(Arg(i, k)))) * 0xBF58476D1CE4E5B9ULL;
    }
    return h ^ (h >> 31);
  };
  auto same = [this](int i, int j) {
    const Term& ti = TermOf(i);
    const Term& tj = TermOf(j);
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
    for (int i = 0; i < n; ++i) {
      if (!TermOf(i).first_order) {
        continue;
      }
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

bool TheoryEngine::CheckDisequalities() {
  const std::vector<TheoryLit>& lits = *lits_;
  for (size_t p = 0; p < lits.size(); ++p) {
    const Atom& a = atoms_[U(lits[p].atom)];
    if (a.kind != Kind::kEq || lits[p].truth) {
      continue;
    }
    int la = LocalOf(a.lhs);
    int lb = LocalOf(a.rhs);
    if (Find(la) == Find(lb)) {
      BeginExplain();
      WantLit(static_cast<int32_t>(p));
      Want({-1, la, lb});
      return Finish();
    }
  }
  return true;
}

bool TheoryEngine::CheckBoolPredicates() {
  const std::vector<TheoryLit>& lits = *lits_;
  for (size_t p = 0; p < lits.size(); ++p) {
    const Atom& a = atoms_[U(lits[p].atom)];
    if (a.kind != Kind::kApp) {
      continue;
    }
    int l = LocalOf(a.lhs);
    int c = Find(l);
    int32_t q = pred_first_[U(c)];
    if (q < 0) {
      pred_first_[U(c)] = static_cast<int32_t>(p);
    } else if (lits[U(q)].truth != lits[p].truth) {
      BeginExplain();
      WantLit(static_cast<int32_t>(p));
      WantLit(q);
      Want({-1, l, LocalOf(atoms_[U(lits[U(q)].atom)].lhs)});
      return Finish();
    }
  }
  return true;
}

int TheoryEngine::NodeOf(int rep) {
  if (rep < 0) {
    if (zero_ < 0) {
      zero_ = static_cast<int>(node_rep_.size());
      node_rep_.push_back(-1);
    }
    return zero_;
  }
  if (node_[U(rep)] < 0) {
    node_[U(rep)] = static_cast<int32_t>(node_rep_.size());
    node_rep_.push_back(rep);
  }
  return node_[U(rep)];
}

void TheoryEngine::AddEdge(int from_rep, int to_rep, int64_t w, int32_t lit, int32_t tail,
                           int32_t head, int32_t need) {
  Edge e;
  e.from = NodeOf(from_rep);
  e.to = NodeOf(to_rep);
  e.w = w;
  e.lit = lit;
  e.tail = tail;
  e.head = head;
  e.need = need;
  edges_.push_back(e);
}

// Difference-bound reasoning over class representatives.
//
// Comparison literals and `x ± c` structure become edges "to - from <= w".
// A negative cycle is a conflict (this decides chains like x < y ∧ y < x,
// which intervals alone cannot). Shortest paths from and to the zero node
// then seed the class intervals.
bool TheoryEngine::DifferenceBounds() {
  const std::vector<TheoryLit>& lits = *lits_;
  for (size_t p = 0; p < lits.size(); ++p) {
    const Atom& a = atoms_[U(lits[p].atom)];
    if ((a.kind != Kind::kLt && a.kind != Kind::kLe) || !a.int_args) {
      continue;
    }
    int la = LocalOf(a.lhs);
    int lb = LocalOf(a.rhs);
    bool strict = a.kind == Kind::kLt;
    auto lit = static_cast<int32_t>(p);
    if (lits[p].truth) {
      AddEdge(Find(lb), Find(la), strict ? -1 : 0, lit, lb, la, -1);  // a - b <= -1 (or 0).
    } else {
      AddEdge(Find(la), Find(lb), strict ? 0 : -1, lit, la, lb, -1);  // b - a <= 0 (or -1).
    }
  }
  const int n_terms = static_cast<int>(glob_.size());
  for (int i = 0; i < n_terms; ++i) {
    if (TermOf(i).kind == Kind::kConstInt) {
      int64_t c = TermOf(i).value;
      AddEdge(-1, Find(i), c, -1, -1, i, -1);   // x - 0 <= c
      AddEdge(Find(i), -1, -c, -1, i, -1, -1);  // 0 - x <= -c
    }
  }
  for (int i = 0; i < n_terms; ++i) {
    const Term& t = TermOf(i);
    if (t.has_offset) {
      int x = Arg(i, 0);
      AddEdge(Find(x), Find(i), t.offset, -1, x, i, i);   // t - x <= c
      AddEdge(Find(i), Find(x), -t.offset, -1, i, x, i);  // x - t <= -c
    }
  }
  if (edges_.empty()) {
    return true;
  }
  NodeOf(-1);
  const int n = static_cast<int>(node_rep_.size());
  // Bellman-Ford from a virtual source (every distance starts at 0).
  dist_up_.assign(U(n), 0);
  pred_up_.assign(U(n), -1);
  int last = -1;
  for (int round = 0; round < n; ++round) {
    bool changed = false;
    for (size_t k = 0; k < edges_.size(); ++k) {
      const Edge& e = edges_[k];
      int64_t cand = SatAdd(dist_up_[U(e.from)], e.w);
      if (cand < dist_up_[U(e.to)]) {
        dist_up_[U(e.to)] = cand;
        pred_up_[U(e.to)] = static_cast<int32_t>(k);
        last = e.to;
        changed = true;
      }
    }
    if (!changed) {
      break;
    }
    if (round == n - 1) {
      return ConflictCycle(last);
    }
  }
  // Shortest paths from zero give upper bounds; to zero, lower bounds.
  auto shortest = [&](bool reversed, std::vector<int64_t>* dist, std::vector<int32_t>* pred) {
    dist->assign(U(n), kIntMax);
    pred->assign(U(n), -1);
    (*dist)[U(zero_)] = 0;
    for (int round = 0; round < n; ++round) {
      bool changed = false;
      for (size_t k = 0; k < edges_.size(); ++k) {
        const Edge& e = edges_[k];
        int u = reversed ? e.to : e.from;
        int v = reversed ? e.from : e.to;
        if ((*dist)[U(u)] != kIntMax && SatAdd((*dist)[U(u)], e.w) < (*dist)[U(v)]) {
          (*dist)[U(v)] = SatAdd((*dist)[U(u)], e.w);
          (*pred)[U(v)] = static_cast<int32_t>(k);
          changed = true;
        }
      }
      if (!changed) {
        break;
      }
    }
  };
  shortest(false, &dist_up_, &pred_up_);
  shortest(true, &dist_down_, &pred_down_);
  for (int v = 0; v < n; ++v) {
    int rep = node_rep_[U(v)];
    if (rep < 0) {
      continue;
    }
    if (dist_up_[U(v)] != kIntMax) {
      Step s;
      s.anchor = edges_[U(pred_up_[U(v)])].head;
      s.path = 1;
      s.node = v;
      LowerHi(rep, dist_up_[U(v)], s);
    }
    if (dist_down_[U(v)] != kIntMax) {
      Step s;
      s.anchor = edges_[U(pred_down_[U(v)])].tail;
      s.path = 2;
      s.node = v;
      RaiseLo(rep, -dist_down_[U(v)], s);
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
  if (v <= lo_[U(rep)]) {
    return false;
  }
  lo_[U(rep)] = v;
  lo_rec_[U(rep)] = Record(s);
  return true;
}

bool TheoryEngine::LowerHi(int rep, int64_t v, const Step& s) {
  if (v >= hi_[U(rep)]) {
    return false;
  }
  hi_[U(rep)] = v;
  hi_rec_[U(rep)] = Record(s);
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
  if (lo_[U(cls)] > 0 || hi_[U(cls)] < 0) {
    AddDep(&s, lo_[U(cls)] > 0 ? lo_rec_[U(cls)] : hi_rec_[U(cls)], y);
    *reason = Record(s);
    return true;
  }
  const std::vector<TheoryLit>& lits = *lits_;
  auto is_zero = [this](int c) {
    if (cst_[U(c)] >= 0) {
      return TermOf(cst_[U(c)]).value == 0;
    }
    return lo_[U(c)] == hi_[U(c)] && lo_[U(c)] == 0;
  };
  for (size_t p = 0; p < lits.size(); ++p) {
    const Atom& a = atoms_[U(lits[p].atom)];
    if (a.kind != Kind::kEq || lits[p].truth || !a.int_args) {
      continue;
    }
    int la = LocalOf(a.lhs);
    int lb = LocalOf(a.rhs);
    int ca = Find(la);
    int cb = Find(lb);
    int mine = -1;
    int zero = -1;
    if (ca == cls && is_zero(cb)) {
      mine = la;
      zero = lb;
    } else if (cb == cls && is_zero(ca)) {
      mine = lb;
      zero = la;
    } else {
      continue;
    }
    s.lit = static_cast<int32_t>(p);
    s.deps[s.n++] = {-1, mine, y};
    int cz = Find(zero);
    if (cst_[U(cz)] >= 0) {
      s.deps[s.n++] = {-1, zero, cst_[U(cz)]};
    } else {
      AddDep(&s, lo_rec_[U(cz)], zero);
      AddDep(&s, hi_rec_[U(cz)], zero);
    }
    *reason = Record(s);
    return true;
  }
  return false;
}

bool TheoryEngine::PropagateIntervals() {
  const std::vector<TheoryLit>& lits = *lits_;
  const int n = static_cast<int>(glob_.size());
  for (int i = 0; i < n; ++i) {
    if (TermOf(i).kind != Kind::kConstInt) {
      continue;
    }
    int r = Find(i);
    Step s;
    s.anchor = i;
    s.need = i;
    RaiseLo(r, TermOf(i).value, s);
    LowerHi(r, TermOf(i).value, s);
    if (Empty(r)) {
      return ConflictEmpty(r);
    }
  }
  for (int round = 0; round < kMaxIntervalRounds; ++round) {
    bool changed = false;
    // Comparison literals between class representatives.
    for (size_t p = 0; p < lits.size(); ++p) {
      const Atom& a = atoms_[U(lits[p].atom)];
      if ((a.kind != Kind::kLt && a.kind != Kind::kLe) || !a.int_args) {
        continue;
      }
      int la = LocalOf(a.lhs);
      int lb = LocalOf(a.rhs);
      int ca = Find(la);
      int cb = Find(lb);
      bool strict = a.kind == Kind::kLt;
      // a < b (or a <= b); negated, b <= a (or b < a).
      int lo_side = lits[p].truth ? la : lb;
      int hi_side = lits[p].truth ? lb : la;
      int64_t off = (strict == lits[p].truth) ? 1 : 0;
      int cl = Find(lo_side);
      int ch = Find(hi_side);
      Step s1;
      s1.anchor = lo_side;
      s1.lit = static_cast<int32_t>(p);
      AddDep(&s1, hi_rec_[U(ch)], hi_side);
      changed |= LowerHi(cl, SatAdd(hi_[U(ch)], -off), s1);
      Step s2;
      s2.anchor = hi_side;
      s2.lit = static_cast<int32_t>(p);
      AddDep(&s2, lo_rec_[U(cl)], lo_side);
      changed |= RaiseLo(ch, SatAdd(lo_[U(cl)], off), s2);
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
    for (size_t p = 0; p < lits.size(); ++p) {
      const Atom& a = atoms_[U(lits[p].atom)];
      if (a.kind != Kind::kEq || lits[p].truth || !a.int_args) {
        continue;
      }
      int la = LocalOf(a.lhs);
      int lb = LocalOf(a.rhs);
      int ca = Find(la);
      int cb = Find(lb);
      int t = -1;   // The side that shrinks...
      int c = -1;   // ...away from the other side's single value.
      if (lo_[U(ca)] == hi_[U(ca)]) {
        t = lb;
        c = la;
      } else if (lo_[U(cb)] == hi_[U(cb)]) {
        t = la;
        c = lb;
      }
      if (t >= 0) {
        int rt = Find(t);
        int rc = Find(c);
        int64_t v = lo_[U(rc)];
        Step s;
        s.anchor = t;
        s.lit = static_cast<int32_t>(p);
        AddDep(&s, lo_rec_[U(rc)], c);
        AddDep(&s, hi_rec_[U(rc)], c);
        if (lo_[U(rt)] == v) {
          Step up = s;
          AddDep(&up, lo_rec_[U(rt)], t);
          lo_[U(rt)] = v + 1;
          lo_rec_[U(rt)] = Record(up);
          changed = true;
        }
        if (hi_[U(rt)] == v) {
          Step down = s;
          AddDep(&down, hi_rec_[U(rt)], t);
          hi_[U(rt)] = v - 1;
          hi_rec_[U(rt)] = Record(down);
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
    for (int i = 0; i < n; ++i) {
      const Term& t = TermOf(i);
      Kind k = t.kind;
      if (k != Kind::kAdd && k != Kind::kSub && k != Kind::kMul && k != Kind::kNeg &&
          k != Kind::kDiv && k != Kind::kMod) {
        continue;
      }
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
          dlo = SatAdd(lo_[U(cx)], lo_[U(cy)]);
          dhi = SatAdd(hi_[U(cx)], hi_[U(cy)]);
          AddDep(&slo, lo_rec_[U(cx)], x);
          AddDep(&slo, lo_rec_[U(cy)], y);
          AddDep(&shi, hi_rec_[U(cx)], x);
          AddDep(&shi, hi_rec_[U(cy)], y);
          break;
        case Kind::kSub:
          dlo = SatAdd(lo_[U(cx)], -hi_[U(cy)]);
          dhi = SatAdd(hi_[U(cx)], -lo_[U(cy)]);
          AddDep(&slo, lo_rec_[U(cx)], x);
          AddDep(&slo, hi_rec_[U(cy)], y);
          AddDep(&shi, hi_rec_[U(cx)], x);
          AddDep(&shi, lo_rec_[U(cy)], y);
          break;
        case Kind::kMul: {
          int64_t c1 = SatMul(lo_[U(cx)], lo_[U(cy)]);
          int64_t c2 = SatMul(lo_[U(cx)], hi_[U(cy)]);
          int64_t c3 = SatMul(hi_[U(cx)], lo_[U(cy)]);
          int64_t c4 = SatMul(hi_[U(cx)], hi_[U(cy)]);
          dlo = std::min(std::min(c1, c2), std::min(c3, c4));
          dhi = std::max(std::max(c1, c2), std::max(c3, c4));
          for (Step* s : {&slo, &shi}) {
            AddDep(s, lo_rec_[U(cx)], x);
            AddDep(s, hi_rec_[U(cx)], x);
            AddDep(s, lo_rec_[U(cy)], y);
            AddDep(s, hi_rec_[U(cy)], y);
          }
          break;
        }
        case Kind::kNeg:
          dlo = -hi_[U(cx)];
          dhi = -lo_[U(cx)];
          AddDep(&slo, hi_rec_[U(cx)], x);
          AddDep(&shi, lo_rec_[U(cx)], x);
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
          int64_t m = std::max(std::llabs(lo_[U(cx)]), std::llabs(hi_[U(cx)]));
          if (k == Kind::kMod) {
            int64_t mb = std::max(std::llabs(lo_[U(cy)]), std::llabs(hi_[U(cy)]));
            m = std::min(m, mb > 0 ? mb - 1 : 0);
          }
          dlo = -m;
          dhi = m;
          AddDep(&slo, lo_rec_[U(cx)], x);
          AddDep(&slo, hi_rec_[U(cx)], x);
          if (k == Kind::kMod) {
            AddDep(&slo, lo_rec_[U(cy)], y);
            AddDep(&slo, hi_rec_[U(cy)], y);
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
      if (k == Kind::kAdd) {
        // x ∈ t - y, then y ∈ t - x.
        narrow(x, SatAdd(lo_[U(r)], -hi_[U(cy)]), step(x, lo_rec_[U(r)], i, hi_rec_[U(cy)], y),
               SatAdd(hi_[U(r)], -lo_[U(cy)]), step(x, hi_rec_[U(r)], i, lo_rec_[U(cy)], y));
        cx = Find(x);
        narrow(y, SatAdd(lo_[U(r)], -hi_[U(cx)]), step(y, lo_rec_[U(r)], i, hi_rec_[U(cx)], x),
               SatAdd(hi_[U(r)], -lo_[U(cx)]), step(y, hi_rec_[U(r)], i, lo_rec_[U(cx)], x));
      } else if (k == Kind::kSub) {
        // x ∈ t + y, then y ∈ x - t.
        narrow(x, SatAdd(lo_[U(r)], lo_[U(cy)]), step(x, lo_rec_[U(r)], i, lo_rec_[U(cy)], y),
               SatAdd(hi_[U(r)], hi_[U(cy)]), step(x, hi_rec_[U(r)], i, hi_rec_[U(cy)], y));
        cx = Find(x);
        narrow(y, SatAdd(lo_[U(cx)], -hi_[U(r)]), step(y, lo_rec_[U(cx)], x, hi_rec_[U(r)], i),
               SatAdd(hi_[U(cx)], -lo_[U(r)]), step(y, hi_rec_[U(cx)], x, lo_rec_[U(r)], i));
      } else if (k == Kind::kNeg) {
        narrow(x, -hi_[U(r)], step(x, hi_rec_[U(r)], i, -1, -1), -lo_[U(r)],
               step(x, lo_rec_[U(r)], i, -1, -1));
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
  const std::vector<TheoryLit>& lits = *lits_;
  for (size_t p = 0; p < lits.size(); ++p) {
    const Atom& a = atoms_[U(lits[p].atom)];
    if (a.kind != Kind::kEq || lits[p].truth || !a.int_args) {
      continue;
    }
    int la = LocalOf(a.lhs);
    int lb = LocalOf(a.rhs);
    int ca = Find(la);
    int cb = Find(lb);
    if (lo_[U(ca)] == hi_[U(ca)] && lo_[U(cb)] == hi_[U(cb)] && lo_[U(ca)] == lo_[U(cb)]) {
      BeginExplain();
      WantLit(static_cast<int32_t>(p));
      WantBound(lo_rec_[U(ca)], la);
      WantBound(hi_rec_[U(ca)], la);
      WantBound(lo_rec_[U(cb)], lb);
      WantBound(hi_rec_[U(cb)], lb);
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
  lit_mark_.resize(std::max(lit_mark_.size(), lits_->size()), 0);
  bound_mark_.resize(std::max(bound_mark_.size(), bounds_.size()), 0);
  edge_mark_.resize(std::max(edge_mark_.size(), glob_.size()), 0);
  anc_mark_.resize(std::max(anc_mark_.size(), glob_.size()), 0);
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

void TheoryEngine::WantEdge(const Edge& e) {
  if (e.lit >= 0) {
    WantLit(e.lit);
  }
  if (e.need >= 0) {
    need_.push_back(e.need);
  }
}

// Walks the shortest-path tree from zero to `node` (dir 1) or from `node` to
// zero (dir 2), wanting each edge and the equalities that join consecutive
// edges at a class.
void TheoryEngine::WantPath(int node, int8_t dir) {
  const std::vector<int32_t>& pred = dir == 1 ? pred_up_ : pred_down_;
  int steps = 0;
  for (int x = node; x != zero_;) {
    ICARUS_REQUIRE_MSG(pred[U(x)] >= 0 && ++steps <= static_cast<int>(node_rep_.size()),
                       "broken shortest-path tree in a theory explanation");
    const Edge& e = edges_[U(pred[U(x)])];
    WantEdge(e);
    int y = dir == 1 ? e.from : e.to;
    if (y != zero_) {
      const Edge& next = edges_[U(pred[U(y)])];
      Want(dir == 1 ? Dep{-1, next.head, e.tail} : Dep{-1, e.head, next.tail});
    }
    x = y;
  }
}

// The Bellman-Ford round that proved a negative cycle last relaxed `last`;
// walking its predecessors |nodes| times lands on the cycle.
bool TheoryEngine::ConflictCycle(int last) {
  BeginExplain();
  const int n = static_cast<int>(node_rep_.size());
  int v = last;
  for (int k = 0; k < n; ++k) {
    ICARUS_REQUIRE_MSG(pred_up_[U(v)] >= 0, "negative cycle without a predecessor chain");
    v = edges_[U(pred_up_[U(v)])].from;
  }
  __int128 weight = 0;
  int steps = 0;
  int x = v;
  do {
    const Edge& e = edges_[U(pred_up_[U(x)])];
    WantEdge(e);
    weight += e.w;
    int y = e.from;
    if (y != zero_) {
      Want({-1, edges_[U(pred_up_[U(y)])].head, e.tail});
    }
    x = y;
    ICARUS_REQUIRE_MSG(++steps <= n, "predecessor walk left the negative cycle");
  } while (x != v);
  ICARUS_REQUIRE_MSG(weight < 0, "difference cycle in an explanation is not negative");
  return Finish();
}

bool TheoryEngine::ConflictEmpty(int rep) {
  BeginExplain();
  int32_t lo = lo_rec_[U(rep)];
  int32_t hi = hi_rec_[U(rep)];
  Want({lo, -1, -1});
  Want({hi, -1, -1});
  if (lo >= 0 && hi >= 0) {
    Want({-1, bounds_[U(lo)].anchor, bounds_[U(hi)].anchor});
  }
  return Finish();
}

// Appends the literals behind a ~ b: the proof-forest path between them,
// with each congruence edge explained by its arguments (queued).
void TheoryEngine::ExplainEq(int a, int b) {
  NextStamp(&anc_, &anc_mark_);
  for (int x = a;; x = pf_parent_[U(x)]) {
    anc_mark_[U(x)] = anc_;
    if (pf_parent_[U(x)] == x) {
      break;
    }
  }
  int lca = b;
  while (anc_mark_[U(lca)] != anc_) {
    ICARUS_REQUIRE_MSG(pf_parent_[U(lca)] != lca, "explaining an equality between two classes");
    lca = pf_parent_[U(lca)];
  }
  for (int from : {a, b}) {
    for (int x = from; x != lca; x = pf_parent_[U(x)]) {
      if (edge_mark_[U(x)] == explain_) {
        continue;
      }
      edge_mark_[U(x)] = explain_;
      int32_t reason = pf_reason_[U(x)];
      if (reason >= 0) {
        WantLit(reason);
        continue;
      }
      int y = pf_parent_[U(x)];
      for (int k = 0; k < TermOf(x).args_end - TermOf(x).args_begin; ++k) {
        Want({-1, Arg(x, k), Arg(y, k)});
      }
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
    auto mark = [this](int32_t lit) {
      const Atom& a = atoms_[U((*lits_)[U(lit)].atom)];
      for (int32_t k = a.closure_begin; k < a.closure_end; ++k) {
        present_[U(atom_closure_[U(k)])] = explain_;
      }
    };
    for (int lit : *out_) {
      mark(lit);
    }
    for (int32_t t : need_) {
      if (present_[U(glob_[U(t)])] != explain_) {
        WantLit(origin_[U(t)]);
        mark(origin_[U(t)]);
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

// Assigns each class a value: constants first, then the difference nodes
// from the narrowest range to the widest, then the rest. Each value lies in
// the range the class's interval and the nodes placed so far allow (with
// all-pairs shortest paths every later node stays placeable) and avoids the
// values of its disequal neighbours; a small budgeted backtracking search
// undoes a choice that leaves a later class no value. When the search finds
// nothing it places every class in range regardless: a best-effort model
// outside difference logic.
void TheoryEngine::BuildModel(const std::vector<TheoryLit>& lits, Model* model) const {
  const int n = static_cast<int>(glob_.size());
  std::vector<int> reps;                  // Classes, in order of first member.
  std::vector<int> index_of(U(n), -1);    // Rep → index into reps.
  for (int i = 0; i < n; ++i) {
    int r = Find(i);
    if (index_of[U(r)] < 0) {
      index_of[U(r)] = static_cast<int>(reps.size());
      reps.push_back(r);
    }
  }
  std::vector<std::pair<int, int>> diseq;
  for (const TheoryLit& l : lits) {
    const Atom& a = atoms_[U(l.atom)];
    if (a.kind == Kind::kEq && !l.truth) {
      diseq.emplace_back(Find(LocalOf(a.lhs)), Find(LocalOf(a.rhs)));
    }
  }
  const int nn = static_cast<int>(node_rep_.size());  // Zero when no edges.
  std::vector<int64_t> d(U(nn * nn), kNoPath);
  auto at = [&](int u, int v) -> int64_t& { return d[U(u * nn + v)]; };
  for (const Edge& e : edges_) {
    at(e.from, e.to) = std::min(at(e.from, e.to), e.w);
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
  auto node = [&](int rep) { return node_[U(rep)]; };
  auto rank = [&](int rep) {
    if (cst_[U(rep)] >= 0) {
      return std::make_pair(0, int64_t{0});
    }
    int v = node(rep);
    if (v < 0) {
      return std::make_pair(2, int64_t{0});
    }
    bool bounded = at(zero_, v) != kNoPath && at(v, zero_) != kNoPath;
    return std::make_pair(1, bounded ? SatAdd(at(zero_, v), at(v, zero_)) : kNoPath);
  };
  std::vector<int> order = reps;
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) { return rank(a) < rank(b); });

  std::vector<int64_t> value(U(n), 0);
  std::vector<char> placed(U(n), 0);
  std::vector<int64_t> node_value(U(nn), 0);
  std::vector<char> node_placed(U(nn), 0);
  if (nn > 0) {
    node_placed[U(zero_)] = 1;
  }
  auto set = [&](int c, int64_t val, bool on) {
    value[U(c)] = val;
    placed[U(c)] = on ? 1 : 0;
    if (int v = node(c); v >= 0) {
      node_value[U(v)] = val;
      node_placed[U(v)] = on ? 1 : 0;
    }
  };
  // The range class `c` may take given the nodes placed so far.
  auto range = [&](int c, int64_t* lo, int64_t* hi) {
    *lo = lo_[U(c)];
    *hi = hi_[U(c)];
    int v = node(c);
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
    if (cst_[U(c)] >= 0) {
      lo = hi = TermOf(cst_[U(c)]).value;
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
  std::vector<std::vector<int>> members(reps.size());
  for (int i = 0; i < n; ++i) {
    members[U(index_of[U(Find(i))])].push_back(i);
  }
  for (size_t k = 0; k < reps.size(); ++k) {
    int64_t val = value[U(reps[k])];
    model->terms.emplace_back(TermOf(members[k].front()).expr, val);
    // Every named variable in the class gets a witness entry, not just the
    // first member, so counterexample reports show a concrete value for each
    // symbolic input.
    for (int m : members[k]) {
      ExprRef e = TermOf(m).expr;
      if (e->kind == Kind::kVar) {
        model->witnesses.push_back(Witness{e->name, e->sort, val});
      }
    }
  }
}

}  // namespace icarus::sym
