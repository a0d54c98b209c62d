#include "src/sym/expr.h"

#include "src/support/check.h"
#include "src/support/str_util.h"

namespace icarus::sym {

namespace {

uint64_t HashCombine(uint64_t h, uint64_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

const char* KindName(Kind k) {
  switch (k) {
    case Kind::kConstInt:
      return "int";
    case Kind::kConstBool:
      return "bool";
    case Kind::kVar:
      return "var";
    case Kind::kApp:
      return "app";
    case Kind::kAdd:
      return "+";
    case Kind::kSub:
      return "-";
    case Kind::kMul:
      return "*";
    case Kind::kDiv:
      return "div";
    case Kind::kMod:
      return "mod";
    case Kind::kNeg:
      return "neg";
    case Kind::kBitAnd:
      return "&";
    case Kind::kBitOr:
      return "|";
    case Kind::kBitXor:
      return "^";
    case Kind::kShl:
      return "<<";
    case Kind::kShr:
      return ">>";
    case Kind::kEq:
      return "==";
    case Kind::kLt:
      return "<";
    case Kind::kLe:
      return "<=";
    case Kind::kNot:
      return "!";
    case Kind::kAnd:
      return "&&";
    case Kind::kOr:
      return "||";
  }
  return "?";
}

}  // namespace

size_t ExprPool::NodeKeyHash::operator()(const NodeKey& k) const {
  uint64_t h = static_cast<uint64_t>(k.kind);
  h = HashCombine(h, static_cast<uint64_t>(k.sort));
  h = HashCombine(h, static_cast<uint64_t>(k.value));
  h = HashCombine(h, std::hash<std::string>()(k.name));
  for (ExprRef a : k.args) {
    h = HashCombine(h, reinterpret_cast<uintptr_t>(a));
  }
  return static_cast<size_t>(h);
}

ExprPool::ExprPool() {
  true_ = BoolConst(true);
  false_ = BoolConst(false);
}

ExprPool::~ExprPool() = default;

ExprRef ExprPool::Intern(Node node) {
  NodeKey key{node.kind, node.sort, node.value, node.name, node.args};
  auto it = interned_.find(key);
  if (it != interned_.end()) {
    return it->second;
  }
  node.id = next_id_++;
  // Canonical structural hash: children are already interned (and hashed), so
  // this is O(1) per node. Uses only structural content — never pointers or
  // ids — so two pools building the same term agree on the hash.
  uint64_t h = 0xcbf29ce484222325ULL;
  h = HashCombine(h, static_cast<uint64_t>(node.kind));
  h = HashCombine(h, static_cast<uint64_t>(node.sort));
  h = HashCombine(h, static_cast<uint64_t>(node.value));
  h = HashCombine(h, std::hash<std::string>()(node.name));
  for (ExprRef a : node.args) {
    h = HashCombine(h, a->chash);
  }
  node.chash = h;
  nodes_.push_back(std::make_unique<Node>(std::move(node)));
  ExprRef ref = nodes_.back().get();
  interned_.emplace(std::move(key), ref);
  return ref;
}

ExprRef ExprPool::IntConst(int64_t v) {
  Node n;
  n.kind = Kind::kConstInt;
  n.sort = Sort::kInt;
  n.value = v;
  return Intern(std::move(n));
}

ExprRef ExprPool::BoolConst(bool v) {
  Node n;
  n.kind = Kind::kConstBool;
  n.sort = Sort::kBool;
  n.value = v ? 1 : 0;
  return Intern(std::move(n));
}

ExprRef ExprPool::Var(const std::string& name, Sort sort) {
  Node n;
  n.kind = Kind::kVar;
  n.sort = sort;
  n.name = name;
  return Intern(std::move(n));
}

ExprRef ExprPool::Fresh(std::string_view prefix, Sort sort) {
  return Var(StrCat(prefix, "#", fresh_counter_++), sort);
}

ExprRef ExprPool::App(std::string_view fn, std::vector<ExprRef> args, Sort result_sort) {
  Node n;
  n.kind = Kind::kApp;
  n.sort = result_sort;
  n.name = fn;
  n.args = std::move(args);
  return Intern(std::move(n));
}

ExprRef ExprPool::MakeBinary(Kind kind, Sort sort, ExprRef a, ExprRef b) {
  Node n;
  n.kind = kind;
  n.sort = sort;
  n.args = {a, b};
  return Intern(std::move(n));
}

std::string ExprPool::ToString(ExprRef e) {
  ICARUS_CHECK(e != nullptr);
  switch (e->kind) {
    case Kind::kConstInt:
      return StrCat(e->value);
    case Kind::kConstBool:
      return e->value != 0 ? "true" : "false";
    case Kind::kVar:
      return e->name;
    case Kind::kApp: {
      std::vector<std::string> parts;
      parts.reserve(e->args.size());
      for (ExprRef a : e->args) {
        parts.push_back(ToString(a));
      }
      return StrCat(e->name, "(", Join(parts, ", "), ")");
    }
    case Kind::kNeg:
      return StrCat("-", ToString(e->args[0]));
    case Kind::kNot:
      return StrCat("!", ToString(e->args[0]));
    default:
      return StrCat("(", ToString(e->args[0]), " ", KindName(e->kind), " ",
                    ToString(e->args[1]), ")");
  }
}

}  // namespace icarus::sym
