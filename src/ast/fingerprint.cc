#include "src/ast/fingerprint.h"

#include <algorithm>
#include <initializer_list>
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

// The one definition of which text of a declaration counts:
//   fn \x1f name \x1f source_text
//   ext \x1f name \x1f ( p:T, ... ) -> R [\x1f requires|ensures expr]...
//   op \x1f language \x1f signature
//   enum \x1f name \x1f members joined by ','
// Expressions and signatures are the printer's text (printer.h), built in
// one scratch buffer that every hash of a hasher reuses.
class ItemHasher {
 public:
  uint64_t operator()(const FunctionDecl& fn) {
    return (Fnv1a() << "fn\x1f" << fn.name << "\x1f" << fn.source_text).value();
  }

  uint64_t operator()(const ExternFnDecl& ext) {
    // Externs carry no source_text; hash the resolved declaration:
    // signature plus every contract clause. Contract expressions are what
    // the evaluator asserts, so their text is semantic content.
    Fnv1a h;
    h << "ext\x1f" << ext.name << "\x1f(";
    for (const Param& p : ext.params) {
      h << p.name << ":" << p.type_name << ",";
    }
    h << ")->" << ext.return_type_name;
    for (const ContractClause& clause : ext.contracts) {
      text_.clear();
      AppendExpr(*clause.expr, &text_);
      h << "\x1f" << (clause.is_requires ? "requires " : "ensures ") << text_;
    }
    return h.value();
  }

  uint64_t operator()(const OpDecl& op) {
    text_.clear();
    AppendOpSignature(op, &text_);
    return (Fnv1a() << "op\x1f" << (op.language != nullptr ? op.language->name : "") << "\x1f"
                    << text_)
        .value();
  }

  // Member *order* counts: enum literals resolve to indices.
  uint64_t operator()(const EnumDecl& decl) {
    Fnv1a h;
    h << "enum\x1f" << decl.name << "\x1f";
    for (size_t i = 0; i < decl.members.size(); ++i) {
      h << (i > 0 ? "," : "") << decl.members[i];
    }
    return h.value();
  }

 private:
  std::string text_;
};

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

// Hashes every declaration of a resolved module once. An item pulls what
// the resolver recorded the declaration references (ast.h References); an
// op also pulls its compiler lowering and its interpreter semantics.
class MemoBuilder {
 public:
  explicit MemoBuilder(const Module& module) : module_(module) {}

  std::shared_ptr<const FingerprintMemo> Build() {
    for (const auto& decl : module_.types().enums()) {
      Set(decl.get(), hash_(*decl), {});
    }
    for (const FunctionDecl* fn : module_.AllFunctions()) {
      Set(fn, hash_(*fn), Pulls(fn->refs));
    }
    for (const auto& ext : module_.externs) {
      Set(ext.get(), hash_(*ext), Pulls(ext->refs));
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

  void AddOp(const OpDecl& op) {
    std::vector<uint32_t> pulls = Pulls(op.refs);
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
    Set(&op, hash_(op), std::move(pulls));
  }

  void Pull(const void* decl, std::vector<uint32_t>* pulls) {
    if (decl != nullptr) {
      pulls->push_back(Slot(decl));
    }
  }

  std::vector<uint32_t> Pulls(const References& refs) {
    std::vector<uint32_t> pulls;
    pulls.reserve(refs.calls.size() + refs.emits.size() + refs.enums.size());
    for (const References::Call& call : refs.calls) {
      Pull(call.fn, &pulls);
      Pull(call.ext, &pulls);
    }
    for (const OpDecl* op : refs.emits) {
      Pull(op, &pulls);
    }
    for (const EnumDecl* decl : refs.enums) {
      Pull(decl, &pulls);
    }
    return pulls;
  }

  const Module& module_;
  ItemHasher hash_;
  std::shared_ptr<FingerprintMemo> memo_ = std::make_shared<FingerprintMemo>();
};

}  // namespace

const FingerprintMemo& FingerprintMemo::Of(const Module& module) {
  std::call_once(module.memo_once_, [&module] {
    obs::ScopedSpan span("frontend.fingerprint");
    module.memo_ = MemoBuilder(module).Build();
  });
  return *module.memo_;
}

std::string Fingerprint::ToHex() const {
  return StrFormat("%016llx%016llx", static_cast<unsigned long long>(lo),
                   static_cast<unsigned long long>(hi));
}

StatusOr<Fingerprint> UnitFingerprint(const Module& module, std::string_view generator_name) {
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

uint64_t ModuleHash(const Module& module) {
  // Declaration order counts (op order gives op indices), so the fold is
  // sequential. The headers of languages, compilers and interpreters are
  // the only text no item covers.
  auto header = [](std::initializer_list<std::string_view> parts) {
    Fnv1a h;
    for (std::string_view part : parts) {
      h << part << "\x1f";
    }
    return h.value();
  };
  ItemHasher hash;
  uint64_t h = 0x3c6ef372fe94f82bULL;
  for (const auto& decl : module.types().enums()) {
    h = Mix(h, hash(*decl));
  }
  for (const auto& lang : module.languages) {
    h = Mix(h, header({"language", lang->name}));
    for (const auto& op : lang->ops) {
      h = Mix(h, hash(*op));
    }
  }
  for (const auto& compiler : module.compilers) {
    h = Mix(h, header({"compiler", compiler->name, compiler->source_language_name,
                       compiler->target_language_name}));
  }
  for (const auto& interp : module.interpreters) {
    h = Mix(h, header({"interpreter", interp->name, interp->language_name}));
  }
  for (const auto& ext : module.externs) {
    h = Mix(h, hash(*ext));
  }
  for (const FunctionDecl* fn : module.AllFunctions()) {
    h = Mix(h, hash(*fn));
  }
  return h;
}

}  // namespace icarus::ast
