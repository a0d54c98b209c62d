#include "src/sym/expr.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <functional>
#include <new>

#include "src/support/check.h"

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

// The table slot a structural hash starts probing from, before masking.
size_t Home(uint64_t chash) {
  return static_cast<size_t>((chash * 0x9E3779B97F4A7C15ULL) >> 32);
}

constexpr size_t kInitialSlots = 256;

}  // namespace

ExprPool::ExprPool() {
  slots_.assign(kInitialSlots, nullptr);
  true_ = BoolConst(true);
  false_ = BoolConst(false);
}

ExprPool::~ExprPool() = default;

ExprRef ExprPool::Intern(Kind kind, Sort sort, int64_t value, std::string_view name,
                         std::span<const ExprRef> args) {
  // Canonical structural hash: children are already interned (and hashed), so
  // this is O(1) per node. Uses only structural content — never pointers or
  // ids — so two pools building the same term agree on the hash. It also
  // places the node in the intern table.
  uint64_t h = 0xcbf29ce484222325ULL;
  h = HashCombine(h, static_cast<uint64_t>(kind));
  h = HashCombine(h, static_cast<uint64_t>(sort));
  h = HashCombine(h, static_cast<uint64_t>(value));
  h = HashCombine(h, std::hash<std::string_view>()(name));
  for (ExprRef a : args) {
    h = HashCombine(h, a->chash);
  }
  const size_t mask = slots_.size() - 1;
  size_t slot = Home(h) & mask;
  for (; slots_[slot] != nullptr; slot = (slot + 1) & mask) {
    const Node& n = *slots_[slot];
    if (n.chash == h && n.kind == kind && n.sort == sort && n.value == value && n.name == name &&
        std::equal(n.args.begin(), n.args.end(), args.begin(), args.end())) {
      return &n;
    }
  }
  if (2 * (size_ + 1) > slots_.size()) {
    Grow();
    slot = FreeSlot(h);
  }
  // One bump allocation: the node, then its arguments, then its name.
  char* at = static_cast<char*>(
      arena_.Allocate(sizeof(Node) + args.size_bytes() + name.size(), alignof(Node)));
  auto* arg_copy = reinterpret_cast<ExprRef*>(at + sizeof(Node));
  char* name_copy = reinterpret_cast<char*>(arg_copy + args.size());
  if (!args.empty()) {
    std::memcpy(arg_copy, args.data(), args.size_bytes());
  }
  if (!name.empty()) {
    std::memcpy(name_copy, name.data(), name.size());
  }
  const Node* node = new (at) Node{kind,
                                   sort,
                                   static_cast<uint32_t>(size_++),
                                   value,
                                   h,
                                   std::string_view(name_copy, name.size()),
                                   std::span<const ExprRef>(arg_copy, args.size())};
  slots_[slot] = node;
  return node;
}

size_t ExprPool::FreeSlot(uint64_t chash) const {
  const size_t mask = slots_.size() - 1;
  size_t slot = Home(chash) & mask;
  while (slots_[slot] != nullptr) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

void ExprPool::Grow() {
  std::vector<ExprRef> old = std::move(slots_);
  slots_.assign(2 * old.size(), nullptr);
  for (ExprRef n : old) {
    if (n != nullptr) {
      slots_[FreeSlot(n->chash)] = n;
    }
  }
}

ExprRef ExprPool::IntConst(int64_t v) { return Intern(Kind::kConstInt, Sort::kInt, v, {}, {}); }

ExprRef ExprPool::BoolConst(bool v) {
  return Intern(Kind::kConstBool, Sort::kBool, v ? 1 : 0, {}, {});
}

ExprRef ExprPool::Var(std::string_view name, Sort sort) {
  return Intern(Kind::kVar, sort, 0, name, {});
}

ExprRef ExprPool::Fresh(std::string_view prefix, Sort sort) {
  char digits[24];
  char* end = std::to_chars(digits, digits + sizeof(digits), fresh_counter_++).ptr;
  fresh_name_.assign(prefix);
  fresh_name_ += '#';
  fresh_name_.append(digits, static_cast<size_t>(end - digits));
  return Var(fresh_name_, sort);
}

ExprRef ExprPool::App(std::string_view fn, std::span<const ExprRef> args, Sort result_sort) {
  return Intern(Kind::kApp, result_sort, 0, fn, args);
}

ExprRef ExprPool::MakeUnary(Kind kind, Sort sort, ExprRef a) {
  return Intern(kind, sort, 0, {}, std::span<const ExprRef>(&a, 1));
}

ExprRef ExprPool::MakeBinary(Kind kind, Sort sort, ExprRef a, ExprRef b) {
  const ExprRef args[] = {a, b};
  return Intern(kind, sort, 0, {}, args);
}

std::string ExprPool::ToString(ExprRef e) {
  std::string out;
  AppendString(e, &out);
  return out;
}

void ExprPool::AppendString(ExprRef e, std::string* out) {
  ICARUS_CHECK(e != nullptr);
  switch (e->kind) {
    case Kind::kConstInt: {
      char digits[24];
      char* end = std::to_chars(digits, digits + sizeof(digits), e->value).ptr;
      out->append(digits, static_cast<size_t>(end - digits));
      return;
    }
    case Kind::kConstBool:
      *out += e->value != 0 ? "true" : "false";
      return;
    case Kind::kVar:
      *out += e->name;
      return;
    case Kind::kApp:
      *out += e->name;
      *out += '(';
      for (size_t i = 0; i < e->args.size(); ++i) {
        if (i > 0) {
          *out += ", ";
        }
        AppendString(e->args[i], out);
      }
      *out += ')';
      return;
    case Kind::kNeg:
      *out += '-';
      AppendString(e->args[0], out);
      return;
    case Kind::kNot:
      *out += '!';
      AppendString(e->args[0], out);
      return;
    default:
      *out += '(';
      AppendString(e->args[0], out);
      *out += ' ';
      *out += KindName(e->kind);
      *out += ' ';
      AppendString(e->args[1], out);
      *out += ')';
      return;
  }
}

}  // namespace icarus::sym
