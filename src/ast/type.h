// The Icarus DSL type system.
//
// Types are interned per Module, so equality is pointer equality:
//   - primitives: Void, Bool, Int32, Int64, Double
//   - enums: declared with `enum Name { A, B, ... }`
//   - opaque externs: declared with `extern type Name;` (JS runtime handles
//     such as Value, Object, Shape, and operand-id wrappers like ValueId)
//   - Label: the type of `label` parameters and locally-declared labels;
//     labels are deliberately second-class (cannot be stored or returned),
//     which is what makes static CFA construction possible (§3.2 of the
//     paper).
#ifndef ICARUS_AST_TYPE_H_
#define ICARUS_AST_TYPE_H_

#include <deque>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "src/support/name_table.h"

namespace icarus::ast {

// The name and members are views into the declaring module (ast.h).
struct EnumDecl {
  std::string_view name;
  std::span<const std::string_view> members;

  // Index of `member`, or -1.
  int IndexOf(std::string_view member) const {
    for (size_t i = 0; i < members.size(); ++i) {
      if (members[i] == member) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }
};

enum class TypeKind {
  kVoid,
  kBool,
  kInt32,
  kInt64,
  kDouble,
  kEnum,
  kOpaque,
  kLabel,
};

class Type {
 public:
  TypeKind kind() const { return kind_; }
  const EnumDecl* enum_decl() const { return enum_decl_; }
  // A view into the declaring module, or a literal for the primitives.
  std::string_view name() const { return name_; }

  bool IsInteger() const { return kind_ == TypeKind::kInt32 || kind_ == TypeKind::kInt64; }
  bool IsNumeric() const { return IsInteger() || kind_ == TypeKind::kDouble; }

 private:
  friend class TypeTable;
  TypeKind kind_ = TypeKind::kVoid;
  const EnumDecl* enum_decl_ = nullptr;
  std::string_view name_;
};

// Owns and interns types. One per Module.
class TypeTable {
 public:
  TypeTable();

  const Type* Void() const { return void_; }
  const Type* Bool() const { return bool_; }
  const Type* Int32() const { return int32_; }
  const Type* Int64() const { return int64_; }
  const Type* Double() const { return double_; }
  const Type* Label() const { return label_; }

  // Declares a new enum type; returns null if the name is taken. The
  // table keys on the declaration's name, so it must outlive the table.
  const Type* DeclareEnum(const EnumDecl& decl);
  // Declares a new opaque type; returns null if the name is taken. `name`
  // must outlive the table.
  const Type* DeclareOpaque(std::string_view name);

  // Looks up any named type (primitive, enum or opaque); null if unknown.
  const Type* Lookup(std::string_view name) const { return by_name_.Find(name); }

  // The enum declaration owning `name`, or null.
  const EnumDecl* LookupEnum(std::string_view name) const;

  // Every enum, in declaration order.
  const std::vector<std::unique_ptr<EnumDecl>>& enums() const { return enums_; }

 private:
  // Adds a type unless its name is taken.
  const Type* Add(TypeKind kind, std::string_view name, const EnumDecl* enum_decl);

  std::deque<Type> types_;  // A deque, so a type never moves.
  std::vector<std::unique_ptr<EnumDecl>> enums_;
  NameTable<const Type> by_name_;
  const Type* void_ = nullptr;
  const Type* bool_ = nullptr;
  const Type* int32_ = nullptr;
  const Type* int64_ = nullptr;
  const Type* double_ = nullptr;
  const Type* label_ = nullptr;
};

}  // namespace icarus::ast

#endif  // ICARUS_AST_TYPE_H_
