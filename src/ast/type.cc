#include "src/ast/type.h"

namespace icarus::ast {

TypeTable::TypeTable() {
  void_ = Add(TypeKind::kVoid, "Void", nullptr);
  bool_ = Add(TypeKind::kBool, "Bool", nullptr);
  int32_ = Add(TypeKind::kInt32, "Int32", nullptr);
  int64_ = Add(TypeKind::kInt64, "Int64", nullptr);
  double_ = Add(TypeKind::kDouble, "Double", nullptr);
  label_ = Add(TypeKind::kLabel, "label", nullptr);
}

const Type* TypeTable::Add(TypeKind kind, std::string_view name, const EnumDecl* enum_decl) {
  if (by_name_.Find(name) != nullptr) {
    return nullptr;
  }
  Type& t = types_.emplace_back();
  t.kind_ = kind;
  t.enum_decl_ = enum_decl;
  t.name_ = name;
  by_name_.Insert(name, &t);
  return &t;
}

const Type* TypeTable::DeclareEnum(const EnumDecl& decl) {
  if (by_name_.Find(decl.name) != nullptr) {
    return nullptr;
  }
  enums_.push_back(std::make_unique<EnumDecl>(decl));
  return Add(TypeKind::kEnum, decl.name, enums_.back().get());
}

const Type* TypeTable::DeclareOpaque(std::string_view name) {
  return Add(TypeKind::kOpaque, name, nullptr);
}

const EnumDecl* TypeTable::LookupEnum(std::string_view name) const {
  const Type* t = Lookup(name);
  return (t != nullptr && t->kind() == TypeKind::kEnum) ? t->enum_decl() : nullptr;
}

}  // namespace icarus::ast
