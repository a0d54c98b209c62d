#include "src/ast/fingerprint.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/ast/printer.h"
#include "src/obs/trace.h"
#include "src/support/str_util.h"

namespace icarus::ast {

namespace {

// FNV-1a over a byte stream. Hashing pieces in sequence gives the hash of
// their concatenation, so an item is hashed in place, never built as a
// string.
class Fnv1a {
 public:
  Fnv1a& operator<<(std::string_view s) {
    for (char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ULL;
    }
    return *this;
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

}  // namespace

// One item per declaration a unit can reach (function or op callback,
// extern, emitted op, enum): its hash, and the items it pulls into any unit
// that reaches it. Built once per module; read-only afterwards.
struct FingerprintMemo {
  struct Item {
    uint64_t hash = 0;
    std::vector<uint32_t> pulls;
  };
  std::vector<Item> items;
  std::unordered_map<const void*, uint32_t> slot;  // Declaration → index into items.

  static const FingerprintMemo& Of(const Module& module);
};

namespace {

// Hashes every declaration of a resolved module once. An item's text is
// what the unit fingerprint has always hashed for it:
//   fn \x1f name \x1f source_text
//   ext \x1f name \x1f ( p:T, ... ) -> R [\x1f requires|ensures expr]...
//   op \x1f language \x1f signature
//   enum \x1f name \x1f members joined by ','
class MemoBuilder {
 public:
  explicit MemoBuilder(const Module& module) : module_(module) {}

  std::shared_ptr<const FingerprintMemo> Build() {
    for (const auto& fn : module_.functions) {
      AddFunction(*fn);
    }
    for (const auto& compiler : module_.compilers) {
      for (const auto& cb : compiler->op_callbacks) {
        AddFunction(*cb);
      }
    }
    for (const auto& interp : module_.interpreters) {
      for (const auto& cb : interp->op_callbacks) {
        AddFunction(*cb);
      }
    }
    for (const auto& ext : module_.externs) {
      AddExtern(*ext);
    }
    for (const auto& lang : module_.languages) {
      for (const auto& op : lang->ops) {
        AddOp(*op);
      }
    }
    return std::move(memo_);
  }

 private:
  // The item index of `decl`, allocated on first mention; its hash and
  // pulls are filled when the declaration itself is added.
  uint32_t Slot(const void* decl) {
    auto [it, inserted] =
        memo_->slot.try_emplace(decl, static_cast<uint32_t>(memo_->items.size()));
    if (inserted) {
      memo_->items.emplace_back();
    }
    return it->second;
  }

  void Set(const void* decl, uint64_t hash, std::vector<uint32_t> pulls) {
    FingerprintMemo::Item& item = memo_->items[Slot(decl)];
    item.hash = hash;
    item.pulls = std::move(pulls);
  }

  void AddFunction(const FunctionDecl& fn) {
    std::vector<uint32_t> pulls;
    PullParams(fn.params, &pulls);
    PullBlock(fn.body, &pulls);
    Set(&fn, (Fnv1a() << "fn\x1f" << fn.name << "\x1f" << fn.source_text).value(),
        std::move(pulls));
  }

  void AddExtern(const ExternFnDecl& ext) {
    // Externs carry no source_text; hash the resolved declaration:
    // signature plus every contract clause. Contract expressions are what
    // the evaluator asserts, so their text is semantic content.
    Fnv1a h;
    h << "ext\x1f" << ext.name << "\x1f(";
    for (const Param& p : ext.params) {
      h << p.name << ":" << p.type_name << ",";
    }
    h << ")->" << ext.return_type_name;
    std::vector<uint32_t> pulls;
    PullParams(ext.params, &pulls);
    for (const ContractClause& clause : ext.contracts) {
      h << "\x1f" << (clause.is_requires ? "requires " : "ensures ") << PrintExpr(*clause.expr);
      // Contracts can themselves call externs (e.g. `slot <
      // Shape::numFixedSlots(...)`) whose contracts feed the same queries.
      PullExpr(clause.expr.get(), &pulls);
    }
    Set(&ext, h.value(), std::move(pulls));
  }

  void AddOp(const OpDecl& op) {
    std::vector<uint32_t> pulls;
    PullParams(op.params, &pulls);
    // Emitting an op pulls in its compiler lowering and its interpreter
    // semantics; whatever those emit is pulled by their own items.
    for (const auto& compiler : module_.compilers) {
      if (compiler->source_language == op.language) {
        Pull(compiler->FindCallback(&op), &pulls);
      }
    }
    for (const auto& interp : module_.interpreters) {
      if (interp->language == op.language) {
        Pull(interp->FindCallback(&op), &pulls);
      }
    }
    Set(&op,
        (Fnv1a() << "op\x1f" << (op.language != nullptr ? op.language->name : "") << "\x1f"
                 << PrintOpSignature(op))
            .value(),
        std::move(pulls));
  }

  void Pull(const void* decl, std::vector<uint32_t>* pulls) {
    if (decl != nullptr) {
      pulls->push_back(Slot(decl));
    }
  }

  // An enum pulls nothing, so it is hashed when first mentioned. Member
  // *order* matters: enum literals resolve to indices.
  void PullEnum(const EnumDecl* decl, std::vector<uint32_t>* pulls) {
    if (decl == nullptr) {
      return;
    }
    if (memo_->slot.count(decl) == 0) {
      Fnv1a h;
      h << "enum\x1f" << decl->name << "\x1f" << Join(decl->members, ",");
      Set(decl, h.value(), {});
    }
    pulls->push_back(Slot(decl));
  }

  void PullParams(const std::vector<Param>& params, std::vector<uint32_t>* pulls) {
    for (const Param& p : params) {
      if (p.type != nullptr && p.type->kind() == TypeKind::kEnum) {
        PullEnum(p.type->enum_decl(), pulls);
      }
    }
  }

  void PullExpr(const Expr* e, std::vector<uint32_t>* pulls) {
    if (e == nullptr) {
      return;
    }
    if (e->kind == ExprKind::kEnumLit) {
      PullEnum(e->enum_decl, pulls);
    }
    if (e->kind == ExprKind::kCall) {
      Pull(e->callee_fn, pulls);
      Pull(e->callee_ext, pulls);
    }
    for (const ExprPtr& a : e->args) {
      PullExpr(a.get(), pulls);
    }
  }

  void PullBlock(const std::vector<StmtPtr>& block, std::vector<uint32_t>* pulls) {
    for (const StmtPtr& stmt : block) {
      PullExpr(stmt->expr.get(), pulls);
      for (const ExprPtr& a : stmt->args) {
        PullExpr(a.get(), pulls);
      }
      if (stmt->kind == StmtKind::kEmit) {
        Pull(stmt->emit_op, pulls);
      }
      PullBlock(stmt->then_block, pulls);
      PullBlock(stmt->else_block, pulls);
    }
  }

  const Module& module_;
  std::shared_ptr<FingerprintMemo> memo_ = std::make_shared<FingerprintMemo>();
};

}  // namespace

const FingerprintMemo& FingerprintMemo::Of(const Module& module) {
  std::call_once(module.fingerprint_once_, [&module] {
    obs::ScopedSpan span("frontend.fingerprint");
    module.fingerprint_memo_ = MemoBuilder(module).Build();
  });
  return *module.fingerprint_memo_;
}

std::string Fingerprint::ToHex() const {
  return StrFormat("%016llx%016llx", static_cast<unsigned long long>(lo),
                   static_cast<unsigned long long>(hi));
}

StatusOr<Fingerprint> UnitFingerprint(const Module& module, const std::string& generator_name) {
  const FunctionDecl* generator = module.FindFunction(generator_name);
  if (generator == nullptr || generator->fn_kind != FnKind::kGenerator) {
    return Status::Error(StrCat("no generator named '", generator_name, "' to fingerprint"));
  }
  const FingerprintMemo& memo = FingerprintMemo::Of(module);

  // The unit is every item reachable from the generator's.
  std::vector<bool> reached(memo.items.size());
  std::vector<uint32_t> stack = {memo.slot.at(generator)};
  reached[stack.back()] = true;
  std::vector<uint64_t> hashes;
  while (!stack.empty()) {
    const FingerprintMemo::Item& item = memo.items[stack.back()];
    stack.pop_back();
    hashes.push_back(item.hash);
    for (uint32_t pulled : item.pulls) {
      if (!reached[pulled]) {
        reached[pulled] = true;
        stack.push_back(pulled);
      }
    }
  }

  // Sort + dedupe, so traversal and declaration order cannot leak in, then
  // fold through two independently seeded lanes — the same combination
  // scheme the solver-cache query fingerprint uses.
  std::sort(hashes.begin(), hashes.end());
  hashes.erase(std::unique(hashes.begin(), hashes.end()), hashes.end());
  Fingerprint fp;
  fp.lo = 0x6a09e667f3bcc908ULL;
  fp.hi = 0xbb67ae8584caa73bULL;
  for (uint64_t h : hashes) {
    fp.lo = Mix(fp.lo, h);
    fp.hi = Mix(fp.hi, h ^ 0xa5a5a5a5a5a5a5a5ULL);
  }
  fp.lo = Mix(fp.lo, hashes.size());
  fp.hi = Mix(fp.hi, hashes.size() + 1);
  return fp;
}

}  // namespace icarus::ast
