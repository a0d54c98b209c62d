#include "tests/reference_theory.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <unordered_map>

#include "src/support/str_util.h"

namespace icarus::sym {

namespace {

// ---------------------------------------------------------------------------
// Theory checking: congruence closure + interval propagation.
// ---------------------------------------------------------------------------

constexpr int64_t kIntMin = std::numeric_limits<int64_t>::min() / 4;
constexpr int64_t kIntMax = std::numeric_limits<int64_t>::max() / 4;

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

struct Interval {
  int64_t lo = kIntMin;
  int64_t hi = kIntMax;
  bool Empty() const { return lo > hi; }
  bool IsConst() const { return lo == hi; }
  bool Intersect(Interval o) {
    bool changed = false;
    if (o.lo > lo) {
      lo = o.lo;
      changed = true;
    }
    if (o.hi < hi) {
      hi = o.hi;
      changed = true;
    }
    return changed;
  }
};

Interval IvAdd(Interval a, Interval b) { return {SatAdd(a.lo, b.lo), SatAdd(a.hi, b.hi)}; }
Interval IvSub(Interval a, Interval b) { return {SatAdd(a.lo, -b.hi), SatAdd(a.hi, -b.lo)}; }
Interval IvNeg(Interval a) { return {-a.hi, -a.lo}; }
Interval IvMul(Interval a, Interval b) {
  int64_t c1 = SatMul(a.lo, b.lo);
  int64_t c2 = SatMul(a.lo, b.hi);
  int64_t c3 = SatMul(a.hi, b.lo);
  int64_t c4 = SatMul(a.hi, b.hi);
  return {std::min(std::min(c1, c2), std::min(c3, c4)),
          std::max(std::max(c1, c2), std::max(c3, c4))};
}

class TheoryChecker {
 public:
  // `literals` are (atom, truth) pairs. Returns false on theory conflict.
  bool Check(const std::vector<std::pair<ExprRef, bool>>& literals) {
    literals_ = &literals;
    CollectTerms();
    // Difference bounds can force two classes equal (a zero-weight cycle);
    // they merge, and the equality checks run again.
    for (bool merged = true; merged;) {
      if (!CongruenceClosure()) {
        return false;
      }
      if (!CheckDisequalities()) {
        return false;
      }
      if (!CheckBoolPredicates()) {
        return false;
      }
      merged = false;
      if (!DifferenceBounds(&merged)) {
        return false;
      }
    }
    if (!PropagateIntervals()) {
      return false;
    }
    if (!CheckSingletonDisequalities()) {
      return false;
    }
    return true;
  }

  // After a successful Check(), extracts concrete values per class rep.
  void BuildModel(Model* model);

 private:
  void AddTerm(ExprRef t) {
    if (term_index_.count(t) != 0) {
      return;
    }
    term_index_[t] = static_cast<int>(terms_.size());
    terms_.push_back(t);
    parent_.push_back(static_cast<int>(parent_.size()));
    for (ExprRef a : t->args) {
      if (a->sort != Sort::kBool) {
        AddTerm(a);
      }
    }
  }

  void CollectTerms() {
    for (const auto& [atom, truth] : *literals_) {
      switch (atom->kind) {
        case Kind::kEq:
        case Kind::kLt:
        case Kind::kLe:
          AddTerm(atom->args[0]);
          AddTerm(atom->args[1]);
          break;
        case Kind::kApp:
          // Boolean uninterpreted predicates participate in congruence so
          // that p(x)=true together with x==y and p(y)=false conflicts.
          AddTerm(atom);
          break;
        default:
          break;
      }
    }
  }

  int Find(int x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  // Returns false if the merge is inconsistent (two distinct constants).
  bool Union(int a, int b) {
    a = Find(a);
    b = Find(b);
    if (a == b) {
      return true;
    }
    ExprRef ca = class_const_.count(a) != 0 ? class_const_[a] : nullptr;
    ExprRef cb = class_const_.count(b) != 0 ? class_const_[b] : nullptr;
    if (ca != nullptr && cb != nullptr && ca->value != cb->value) {
      return false;
    }
    parent_[a] = b;
    if (ca != nullptr && cb == nullptr) {
      class_const_[b] = ca;
    }
    return true;
  }

  bool CongruenceClosure() {
    // Seed constants.
    for (size_t i = 0; i < terms_.size(); ++i) {
      if (terms_[i]->kind == Kind::kConstInt) {
        class_const_[static_cast<int>(i)] = terms_[i];
      }
    }
    // Positive equality literals.
    for (const auto& [atom, truth] : *literals_) {
      if (atom->kind == Kind::kEq && truth) {
        if (!Union(term_index_.at(atom->args[0]), term_index_.at(atom->args[1]))) {
          return false;
        }
      }
    }
    // Congruence for uninterpreted applications and arithmetic structure:
    // f(a...) and f(b...) merge when their arguments are classwise merged.
    bool changed = true;
    while (changed) {
      changed = false;
      std::map<std::pair<std::string, std::vector<int>>, int> sig;
      for (size_t i = 0; i < terms_.size(); ++i) {
        ExprRef t = terms_[i];
        if (t->args.empty()) {
          continue;
        }
        bool all_first_order = true;
        std::vector<int> arg_classes;
        arg_classes.reserve(t->args.size() + 1);
        for (ExprRef a : t->args) {
          if (a->sort == Sort::kBool) {
            all_first_order = false;
            break;
          }
          arg_classes.push_back(Find(term_index_.at(a)));
        }
        if (!all_first_order) {
          continue;
        }
        std::string fn = (t->kind == Kind::kApp) ? std::string(t->name)
                                                 : StrCat("$op", static_cast<int>(t->kind));
        auto key = std::make_pair(std::move(fn), std::move(arg_classes));
        auto [it, inserted] = sig.emplace(key, static_cast<int>(i));
        if (!inserted) {
          int r1 = Find(static_cast<int>(i));
          int r2 = Find(it->second);
          if (r1 != r2) {
            if (!Union(r1, r2)) {
              return false;
            }
            changed = true;
          }
        }
      }
    }
    return true;
  }

  bool CheckDisequalities() {
    for (const auto& [atom, truth] : *literals_) {
      if (atom->kind == Kind::kEq && !truth) {
        if (Find(term_index_.at(atom->args[0])) == Find(term_index_.at(atom->args[1]))) {
          return false;
        }
      }
    }
    return true;
  }

  bool CheckBoolPredicates() {
    std::unordered_map<int, bool> forced;
    for (const auto& [atom, truth] : *literals_) {
      if (atom->kind != Kind::kApp || atom->sort != Sort::kBool) {
        continue;
      }
      int cls = Find(term_index_.at(atom));
      auto [it, inserted] = forced.emplace(cls, truth);
      if (!inserted && it->second != truth) {
        return false;
      }
    }
    return true;
  }

  Interval& ClassInterval(int cls) { return intervals_[cls]; }

  // Difference-bound reasoning over congruence-class representatives.
  //
  // Comparison literals and add/sub-by-constant structure become edges
  // "a - b <= w". A negative cycle is a theory conflict (this is what
  // decides chains like x < y ∧ y < x, which pure interval propagation
  // cannot). Two classes with a path of weight 0 each way between them are
  // equal in every model: they merge (`*merged`). Shortest paths from/to the
  // distinguished ZERO node seed the interval table, and shortest-path
  // potentials later provide a satisfying assignment for model extraction.
  bool DifferenceBounds(bool* merged) {
    intervals_.clear();
    potential_.clear();
    struct Edge {
      int from;
      int to;
      int64_t w;  // node(to) - node(from) <= w
    };
    // Node numbering: 0..n-1 for class reps (dense remap), n for ZERO.
    std::map<int, int> rep_node;
    auto node_of = [&](int cls) {
      auto [it, inserted] = rep_node.emplace(cls, static_cast<int>(rep_node.size()));
      return it->second;
    };
    std::vector<Edge> edges;
    auto add_constraint = [&](int cls_a, int cls_b, int64_t w) {
      // cls_a - cls_b <= w  ⇒ edge b → a with weight w.
      edges.push_back({node_of(cls_b), node_of(cls_a), w});
    };
    constexpr int kZeroCls = -1;

    for (const auto& [atom, truth] : *literals_) {
      if (atom->kind != Kind::kLt && atom->kind != Kind::kLe) {
        continue;
      }
      if (atom->args[0]->sort != Sort::kInt) {
        continue;
      }
      int a = Find(term_index_.at(atom->args[0]));
      int b = Find(term_index_.at(atom->args[1]));
      bool strict = (atom->kind == Kind::kLt);
      if (truth) {
        add_constraint(a, b, strict ? -1 : 0);  // a - b <= -1 (or 0).
      } else {
        add_constraint(b, a, strict ? 0 : -1);  // b - a <= 0 (or -1).
      }
    }
    for (const auto& [cls, c] : class_const_) {
      int rep = Find(cls);
      add_constraint(rep, kZeroCls, c->value);   // x - 0 <= c
      add_constraint(kZeroCls, rep, -c->value);  // 0 - x <= -c
    }
    for (size_t i = 0; i < terms_.size(); ++i) {
      ExprRef t = terms_[i];
      // Constants are canonicalized to the right operand by the pool.
      if ((t->kind == Kind::kAdd || t->kind == Kind::kSub) &&
          t->args[1]->kind == Kind::kConstInt) {
        int tc = Find(static_cast<int>(i));
        int xc = Find(term_index_.at(t->args[0]));
        int64_t c = (t->kind == Kind::kAdd) ? t->args[1]->value : -t->args[1]->value;
        add_constraint(tc, xc, c);   // t - x <= c
        add_constraint(xc, tc, -c);  // x - t <= -c
      }
    }
    if (edges.empty()) {
      return true;
    }
    int zero_node = node_of(kZeroCls);
    int n = static_cast<int>(rep_node.size());
    // Bellman-Ford from a virtual super-source (all distances start 0).
    std::vector<int64_t> dist(static_cast<size_t>(n), 0);
    for (int round = 0; round < n; ++round) {
      bool changed = false;
      for (const Edge& e : edges) {
        if (SatAdd(dist[static_cast<size_t>(e.from)], e.w) < dist[static_cast<size_t>(e.to)]) {
          dist[static_cast<size_t>(e.to)] = SatAdd(dist[static_cast<size_t>(e.from)], e.w);
          changed = true;
        }
      }
      if (!changed) {
        break;
      }
      if (round == n - 1) {
        return false;  // Negative cycle: contradictory strict chain.
      }
    }
    // Shortest paths from ZERO give upper bounds; to ZERO give lower bounds.
    auto shortest_from = [&](int src, bool reversed) {
      std::vector<int64_t> d(static_cast<size_t>(n), kIntMax);
      d[static_cast<size_t>(src)] = 0;
      for (int round = 0; round < n; ++round) {
        bool changed = false;
        for (const Edge& e : edges) {
          int u = reversed ? e.to : e.from;
          int v = reversed ? e.from : e.to;
          if (d[static_cast<size_t>(u)] != kIntMax &&
              SatAdd(d[static_cast<size_t>(u)], e.w) < d[static_cast<size_t>(v)]) {
            d[static_cast<size_t>(v)] = SatAdd(d[static_cast<size_t>(u)], e.w);
            changed = true;
          }
        }
        if (!changed) {
          break;
        }
      }
      return d;
    };
    // All-pairs shortest paths; a zero-weight cycle pins its classes equal.
    constexpr int64_t kNoPath = std::numeric_limits<int64_t>::max();
    std::vector<std::vector<int64_t>> d(static_cast<size_t>(n),
                                        std::vector<int64_t>(static_cast<size_t>(n), kNoPath));
    for (const Edge& e : edges) {
      int64_t& slot = d[static_cast<size_t>(e.from)][static_cast<size_t>(e.to)];
      slot = std::min(slot, e.w);
    }
    for (int k = 0; k < n; ++k) {
      for (int u = 0; u < n; ++u) {
        for (int v = 0; v < n; ++v) {
          int64_t uk = d[static_cast<size_t>(u)][static_cast<size_t>(k)];
          int64_t kv = d[static_cast<size_t>(k)][static_cast<size_t>(v)];
          if (uk != kNoPath && kv != kNoPath) {
            int64_t& uv = d[static_cast<size_t>(u)][static_cast<size_t>(v)];
            uv = std::min(uv, SatAdd(uk, kv));
          }
        }
      }
    }
    for (const auto& [cu, u] : rep_node) {
      for (const auto& [cv, v] : rep_node) {
        if (cu == kZeroCls || cv == kZeroCls || u >= v ||
            d[static_cast<size_t>(u)][static_cast<size_t>(v)] != 0 ||
            d[static_cast<size_t>(v)][static_cast<size_t>(u)] != 0 || Find(cu) == Find(cv)) {
          continue;
        }
        if (!Union(cu, cv)) {
          return false;
        }
        *merged = true;
      }
    }
    if (*merged) {
      return true;  // The caller runs the equality checks and comes back.
    }
    std::vector<int64_t> from_zero = shortest_from(zero_node, /*reversed=*/false);
    std::vector<int64_t> to_zero = shortest_from(zero_node, /*reversed=*/true);
    for (const auto& [cls, node] : rep_node) {
      if (cls == kZeroCls) {
        continue;
      }
      Interval& iv = ClassInterval(cls);
      if (from_zero[static_cast<size_t>(node)] != kIntMax) {
        iv.Intersect({kIntMin, from_zero[static_cast<size_t>(node)]});
      }
      if (to_zero[static_cast<size_t>(node)] != kIntMax) {
        iv.Intersect({-to_zero[static_cast<size_t>(node)], kIntMax});
      }
      if (iv.Empty()) {
        return false;
      }
      // Record the potential-based witness for model extraction.
      potential_[cls] = dist[static_cast<size_t>(node)] - dist[static_cast<size_t>(zero_node)];
    }
    return true;
  }

  // After intervals converge, two classes pinned to the same single value
  // cannot satisfy a disequality literal.
  bool CheckSingletonDisequalities() {
    for (const auto& [atom, truth] : *literals_) {
      if (atom->kind != Kind::kEq || truth) {
        continue;
      }
      if (atom->args[0]->sort != Sort::kInt) {
        continue;
      }
      Interval ia = ClassInterval(Find(term_index_.at(atom->args[0])));
      Interval ib = ClassInterval(Find(term_index_.at(atom->args[1])));
      if (ia.IsConst() && ib.IsConst() && ia.lo == ib.lo) {
        return false;
      }
    }
    return true;
  }

  bool PropagateIntervals() {
    // Initialize from constants.
    for (const auto& [cls, c] : class_const_) {
      Interval& iv = ClassInterval(Find(cls));
      iv.Intersect({c->value, c->value});
      if (iv.Empty()) {
        return false;
      }
    }
    for (int round = 0; round < 64; ++round) {
      bool changed = false;
      // Comparison literals between class representatives.
      for (const auto& [atom, truth] : *literals_) {
        if (atom->kind != Kind::kLt && atom->kind != Kind::kLe) {
          continue;
        }
        if (atom->args[0]->sort != Sort::kInt) {
          continue;
        }
        int ca = Find(term_index_.at(atom->args[0]));
        int cb = Find(term_index_.at(atom->args[1]));
        Interval& ia = ClassInterval(ca);
        Interval& ib = ClassInterval(cb);
        bool strict = (atom->kind == Kind::kLt);
        if (truth) {
          // a < b (or a <= b).
          int64_t off = strict ? 1 : 0;
          changed |= ia.Intersect({kIntMin, SatAdd(ib.hi, -off)});
          changed |= ib.Intersect({SatAdd(ia.lo, off), kIntMax});
        } else {
          // !(a < b)  =>  b <= a ;  !(a <= b)  =>  b < a.
          int64_t off = strict ? 0 : 1;
          changed |= ib.Intersect({kIntMin, SatAdd(ia.hi, -off)});
          changed |= ia.Intersect({SatAdd(ib.lo, off), kIntMax});
        }
        if (ia.Empty() || ib.Empty()) {
          return false;
        }
      }
      // Disequality-driven endpoint refinement: x != c tightens x's interval
      // when c sits exactly on an endpoint (this is what turns the compiler's
      // "bail if lhs == INT_MIN" guard into a usable bound).
      for (const auto& [atom, truth] : *literals_) {
        if (atom->kind != Kind::kEq || truth || atom->args[0]->sort != Sort::kInt) {
          continue;
        }
        int ca = Find(term_index_.at(atom->args[0]));
        int cb = Find(term_index_.at(atom->args[1]));
        Interval& ia = ClassInterval(ca);
        Interval& ib = ClassInterval(cb);
        auto shrink = [&changed](Interval& iv, int64_t c) {
          if (iv.lo == c) {
            ++iv.lo;
            changed = true;
          }
          if (iv.hi == c) {
            --iv.hi;
            changed = true;
          }
        };
        if (ia.IsConst()) {
          shrink(ib, ia.lo);
        } else if (ib.IsConst()) {
          shrink(ia, ib.lo);
        }
        if (ia.Empty() || ib.Empty()) {
          return false;
        }
      }
      // Structural arithmetic: relate a node's class interval to its children.
      for (size_t i = 0; i < terms_.size(); ++i) {
        ExprRef t = terms_[i];
        Interval derived;
        bool have = true;
        switch (t->kind) {
          case Kind::kAdd:
            derived = IvAdd(ChildIv(t, 0), ChildIv(t, 1));
            break;
          case Kind::kSub:
            derived = IvSub(ChildIv(t, 0), ChildIv(t, 1));
            break;
          case Kind::kMul:
            derived = IvMul(ChildIv(t, 0), ChildIv(t, 1));
            break;
          case Kind::kNeg:
            derived = IvNeg(ChildIv(t, 0));
            break;
          case Kind::kDiv: {
            // Truncating division with a provably nonzero divisor satisfies
            // |a/b| <= |a|. (With a possibly-zero divisor the term stays
            // unconstrained, matching SMT-LIB's arbitrary div-by-zero.)
            if (!DivisorExcludesZero(t)) {
              have = false;
              break;
            }
            Interval a = ChildIv(t, 0);
            int64_t m = std::max(std::llabs(a.lo), std::llabs(a.hi));
            derived = {-m, m};
            break;
          }
          case Kind::kMod: {
            if (!DivisorExcludesZero(t)) {
              have = false;
              break;
            }
            Interval a = ChildIv(t, 0);
            Interval b = ChildIv(t, 1);
            int64_t ma = std::max(std::llabs(a.lo), std::llabs(a.hi));
            int64_t mb = std::max(std::llabs(b.lo), std::llabs(b.hi));
            int64_t m = std::min(ma, mb > 0 ? mb - 1 : 0);
            derived = {-m, m};
            break;
          }
          default:
            have = false;
            break;
        }
        if (!have) {
          continue;
        }
        Interval& iv = ClassInterval(Find(static_cast<int>(i)));
        changed |= iv.Intersect(derived);
        if (iv.Empty()) {
          return false;
        }
        // Backward propagation for Add/Sub/Neg (exact inverses).
        if (t->kind == Kind::kAdd) {
          changed |= NarrowChild(t, 0, IvSub(iv, ChildIv(t, 1)));
          changed |= NarrowChild(t, 1, IvSub(iv, ChildIv(t, 0)));
        } else if (t->kind == Kind::kSub) {
          changed |= NarrowChild(t, 0, IvAdd(iv, ChildIv(t, 1)));
          changed |= NarrowChild(t, 1, IvSub(ChildIv(t, 0), iv));
        } else if (t->kind == Kind::kNeg) {
          changed |= NarrowChild(t, 0, IvNeg(iv));
        }
        for (ExprRef a : t->args) {
          if (ClassInterval(Find(term_index_.at(a))).Empty()) {
            return false;
          }
        }
      }
      if (!changed) {
        break;
      }
    }
    return true;
  }

  Interval ChildIv(ExprRef t, int idx) {
    return ClassInterval(Find(term_index_.at(t->args[idx])));
  }

  // True when the divisor of `t` (a kDiv/kMod node) is provably nonzero:
  // its interval excludes 0, or an explicit disequality-to-zero literal
  // covers its congruence class.
  bool DivisorExcludesZero(ExprRef t) {
    int cls = Find(term_index_.at(t->args[1]));
    Interval iv = ClassInterval(cls);
    if (iv.lo > 0 || iv.hi < 0) {
      return true;
    }
    for (const auto& [atom, truth] : *literals_) {
      if (atom->kind != Kind::kEq || truth || atom->args[0]->sort != Sort::kInt) {
        continue;
      }
      int ca = Find(term_index_.at(atom->args[0]));
      int cb = Find(term_index_.at(atom->args[1]));
      auto is_zero = [&](int c) {
        auto it = class_const_.find(c);
        if (it != class_const_.end()) {
          return it->second->value == 0;
        }
        Interval civ = ClassInterval(c);
        return civ.IsConst() && civ.lo == 0;
      };
      if ((ca == cls && is_zero(cb)) || (cb == cls && is_zero(ca))) {
        return true;
      }
    }
    return false;
  }
  bool NarrowChild(ExprRef t, int idx, Interval by) {
    return ClassInterval(Find(term_index_.at(t->args[idx]))).Intersect(by);
  }

  const std::vector<std::pair<ExprRef, bool>>* literals_ = nullptr;
  std::vector<ExprRef> terms_;
  std::unordered_map<ExprRef, int> term_index_;
  std::vector<int> parent_;
  std::unordered_map<int, ExprRef> class_const_;
  std::unordered_map<int, Interval> intervals_;
  std::unordered_map<int, int64_t> potential_;  // Difference-bound witness per class.
};

void TheoryChecker::BuildModel(Model* model) {
  // Group terms by class; disequal classes must receive distinct values.
  std::map<int, std::vector<ExprRef>> classes;
  for (size_t i = 0; i < terms_.size(); ++i) {
    classes[Find(static_cast<int>(i))].push_back(terms_[i]);
  }
  // Disequality edges.
  std::map<int, std::set<int>> diseq;
  for (const auto& [atom, truth] : *literals_) {
    if (atom->kind == Kind::kEq && !truth) {
      int a = Find(term_index_.at(atom->args[0]));
      int b = Find(term_index_.at(atom->args[1]));
      diseq[a].insert(b);
      diseq[b].insert(a);
    }
  }
  std::map<int, int64_t> chosen;
  for (const auto& [cls, members] : classes) {
    Interval iv = intervals_.count(cls) != 0 ? intervals_.at(cls) : Interval{};
    int64_t v;
    if (class_const_.count(cls) != 0) {
      v = class_const_.at(cls)->value;
    } else if (potential_.count(cls) != 0) {
      // The shortest-path potential satisfies every difference constraint,
      // including strict chains, so it is the preferred witness.
      v = potential_.at(cls);
    } else {
      // Prefer small non-negative witnesses; keep bumping past neighbours that
      // must be distinct.
      v = std::clamp<int64_t>(0, iv.lo, iv.hi);
      auto collides = [&](int64_t cand) {
        if (diseq.count(cls) == 0) {
          return false;
        }
        for (int n : diseq.at(cls)) {
          auto it = chosen.find(n);
          if (it != chosen.end() && it->second == cand) {
            return true;
          }
        }
        return false;
      };
      while (collides(v) && v < iv.hi) {
        ++v;
      }
      while (collides(v) && v > iv.lo) {
        --v;
      }
    }
    chosen[cls] = v;
    model->terms.emplace_back(members.front(), v);
    // Every named variable in the class gets a witness entry — not just the
    // representative — so counterexample reports can show a concrete value
    // for each symbolic input, independent of class structure.
    for (ExprRef m : members) {
      if (m->kind == Kind::kVar) {
        model->witnesses.push_back(Witness{std::string(m->name), m->sort, v});
      }
    }
  }
}

}  // namespace

bool CheckTheory(const std::vector<std::pair<ExprRef, bool>>& literals, Model* model) {
  TheoryChecker theory;
  if (!theory.Check(literals)) {
    return false;
  }
  if (model == nullptr) {
    return true;
  }
  model->atoms = literals;
  theory.BuildModel(model);
  // Boolean variables are atoms, not theory terms; record their truth values
  // as witnesses alongside the integer/term class values.
  for (const auto& [atom, truth] : literals) {
    if (atom->kind == Kind::kVar && atom->sort == Sort::kBool) {
      model->witnesses.push_back(Witness{std::string(atom->name), Sort::kBool, truth ? 1 : 0});
    }
  }
  return true;
}

}  // namespace icarus::sym
