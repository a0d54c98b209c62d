// AST for the Icarus DSL.
//
// A Module holds every declaration of a JIT platform: enums, opaque extern
// types, extern functions with contracts, `language` op signatures, the
// source→target `compiler`, the target `interpreter` semantics, helper
// functions, and the top-level IC stub generators.
//
// The surface syntax follows the paper (Figures 7–11):
//
//   enum Condition { Equal, NotEqual }
//   extern type ValueId;
//   extern fn Value::typeTag(value: Value) -> JSValueType;
//   extern fn NativeObject::getFixedSlot(obj: Object, slot: Int32) -> Value
//     requires slot < Shape::numFixedSlots(Object::shape(obj));
//
//   language CacheIR {
//     op GuardToObject(inputId: ValueId);
//   }
//   language MASM {
//     op BranchTestObject(cond: Condition, valueReg: ValueReg, label branch);
//   }
//
//   compiler CacheIRCompiler : CacheIR -> MASM {
//     op GuardToObject(inputId: ValueId) { ... emit BranchTestObject(...); }
//   }
//
//   interpreter MASMInterp : MASM {
//     op BranchTestObject(cond: Condition, valueReg: ValueReg, label branch) {
//       assert cond == Condition::Equal || cond == Condition::NotEqual;
//       if ... { goto branch; }
//     }
//   }
//
//   fn helper(objId: ObjectId) emits CacheIR { ... }
//   generator tryAttachX(value: Value, valueId: ValueId) emits CacheIR { ... }
//
// Who owns what. The Module owns everything reachable from it, and no
// pointer, span or view into it may outlive it:
//   - its arena (Module::arena) holds one copy of each source chunk parsed
//     into it, every Expr and Stmt node, and every list of the AST: child
//     and statement lists, parameters, contract clauses, enum members and
//     the resolver's References. They are freed together with the module;
//     none is destroyed on its own, so arena types are trivially
//     destructible;
//   - every name, type name, emit callee and FunctionDecl::source_text is a
//     std::string_view into the module's copy of its chunk, or into the
//     arena when a qualified name was written with spaces around its `::`.
//     A view is valid exactly as long as the module;
//   - declarations (languages, ops, functions, externs, compilers,
//     interpreters, enums, types) are owned one by one through unique_ptr
//     or by the TypeTable, since a function or extern also owns its lowered
//     code.
#ifndef ICARUS_AST_AST_H_
#define ICARUS_AST_AST_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <vector>

#include "src/ast/type.h"
#include "src/support/arena.h"
#include "src/support/name_table.h"

namespace icarus::exec {
struct Code;  // src/exec/code.h
}  // namespace icarus::exec

namespace icarus::ast {

struct SrcLoc {
  int line = 0;
  int col = 0;
};

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class ExprKind : uint8_t {
  kIntLit,
  kBoolLit,
  kEnumLit,   // Condition::Equal
  kVar,       // local or parameter (possibly a label reference)
  kCall,      // qualified call: CacheIRCompiler::useValueId(x)
  kUnary,     // ! -
  kBinary,    // arithmetic / comparison / logical
};

enum class BinOp : uint8_t {
  kAdd, kSub, kMul, kDiv, kMod,
  kBitAnd, kBitOr, kBitXor, kShl, kShr,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kLAnd, kLOr,
};

enum class UnOp : uint8_t {
  kNot,
  kNeg,
};

struct FunctionDecl;
struct ExternFnDecl;
struct Expr;
struct Stmt;

// A list of nodes, in the module's arena like the nodes themselves.
using ExprList = std::span<Expr* const>;
using StmtList = std::span<Stmt* const>;

struct Expr {
  ExprKind kind = ExprKind::kIntLit;
  BinOp bin_op = BinOp::kAdd;
  UnOp un_op = UnOp::kNot;
  bool bool_val = false;     // kBoolLit
  SrcLoc loc;

  int64_t int_val = 0;       // kIntLit
  std::string_view name;     // kVar: variable name; kEnumLit: "Enum::Member";
                             // kCall: qualified callee name
  ExprList args;             // kCall arguments; kUnary/kBinary operands

  // --- Filled by the resolver ---
  bool is_label = false;                // kVar naming a label
  int enum_index = -1;                  // kEnumLit
  int var_slot = -1;                    // kVar: index into the frame
  const Type* type = nullptr;
  const EnumDecl* enum_decl = nullptr;  // kEnumLit
  const FunctionDecl* callee_fn = nullptr;   // kCall to a DSL function
  const ExternFnDecl* callee_ext = nullptr;  // kCall to an extern
};

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

struct OpDecl;

enum class StmtKind : uint8_t {
  kLet,          // let x [: T] = e;
  kAssign,       // x = e;
  kIf,           // if e { ... } else { ... }
  kAssert,       // assert e;
  kAssume,       // assume e;
  kEmit,         // emit [Lang::]Op(args);
  kLabelDecl,    // label l;
  kBind,         // bind l;
  kGoto,         // goto l;          (interpreter callbacks only)
  kFailureLabel, // failure l;       (label pre-bound to the stub's bail-out)
  kReturn,       // return [e];
  kExprStmt,     // e;
};

struct Stmt {
  StmtKind kind = StmtKind::kLet;
  SrcLoc loc;

  std::string_view name;        // kLet/kAssign target; label name for label stmts
  std::string_view type_name;   // kLet optional annotation
  Expr* expr = nullptr;         // kLet init / kAssign value / condition / operand
  StmtList then_block;
  StmtList else_block;

  std::string_view emit_callee;  // kEmit: qualified op name
  ExprList args;                 // kEmit arguments

  // --- Filled by the resolver ---
  int var_slot = -1;                  // kLet/kAssign/kLabelDecl/kFailureLabel
  const Type* decl_type = nullptr;    // kLet
  const struct LanguageDecl* emit_lang = nullptr;  // kEmit
  const OpDecl* emit_op = nullptr;                 // kEmit
};

// ---------------------------------------------------------------------------
// Declarations
// ---------------------------------------------------------------------------

struct Param {
  std::string_view name;
  std::string_view type_name;   // As written; empty for labels.
  bool is_label = false;
  // Resolved:
  const Type* type = nullptr;
  int slot = -1;
};

// What one declaration references, recorded by the resolver as it binds
// them: each callee, op and enum once, in order of first mention. The
// recursion check, the unit fingerprint's memo, Platform::TotalLoc and the
// CFA builder read these lists; none of them walks the AST.
struct References {
  // A callee of the body or the contract clauses, and where the first call
  // to it is written.
  struct Call {
    const FunctionDecl* fn = nullptr;  // Exactly one of fn and ext is set.
    const ExternFnDecl* ext = nullptr;
    SrcLoc loc;
  };
  std::span<const Call> calls;
  std::span<const OpDecl* const> emits;    // The ops of the body's `emit`s.
  std::span<const EnumDecl* const> enums;  // Enum parameter types and enum literals.
};

struct OpDecl {
  std::string_view name;
  std::span<Param> params;
  SrcLoc loc;
  const LanguageDecl* language = nullptr;
  int index = -1;  // Position within the language.
  References refs;  // Resolved; an op has no body, so only its parameter enums.
};

struct LanguageDecl {
  std::string_view name;
  std::vector<std::unique_ptr<OpDecl>> ops;
  NameTable<const OpDecl> by_name;

  const OpDecl* FindOp(std::string_view op) const { return by_name.Find(op); }
};

enum class FnKind : uint8_t {
  kHelper,      // fn — pure or emitting helper
  kGenerator,   // generator — top-level IC stub generator
  kCompilerOp,  // `op` callback inside a compiler block
  kInterpOp,    // `op` callback inside an interpreter block
};

struct FunctionDecl {
  FnKind fn_kind = FnKind::kHelper;
  std::string_view name;  // Qualified (e.g. "CacheIRCompiler::emitGuardToObject").
  std::span<Param> params;
  std::string_view return_type_name;     // Empty → Void.
  std::string_view emits_language_name;  // `emits Lang`; empty if pure.
  StmtList body;
  SrcLoc loc;

  // Resolved:
  const Type* return_type = nullptr;
  const LanguageDecl* emits_language = nullptr;
  const OpDecl* op = nullptr;        // kCompilerOp/kInterpOp: the handled op.
  const struct CompilerDecl* compiler = nullptr;
  const struct InterpreterDecl* interpreter = nullptr;
  int num_slots = 0;                 // Frame size (params + locals + labels).
  References refs;

  // Source text of this function as written (for LoC reporting à la Fig. 12).
  std::string_view source_text;

  // The flat form the evaluator runs (exec::Lowered), built at the first
  // execution of this function. Threads that share the module race for it
  // through the once flag.
  mutable std::once_flag lower_once;
  mutable std::shared_ptr<const exec::Code> lowered;
};

struct ContractClause {
  bool is_requires = false;  // requires vs ensures
  Expr* expr = nullptr;
};

struct ExternFnDecl {
  std::string_view name;  // Qualified.
  std::span<Param> params;
  std::string_view return_type_name;  // Empty → Void.
  std::span<const ContractClause> contracts;
  SrcLoc loc;

  // Resolved:
  const Type* return_type = nullptr;
  int num_slots = 0;  // params (+1 for `result` in ensures clauses).
  References refs;    // Of the contract clauses.

  // The contract as flat code (exec::LoweredContract), built like
  // FunctionDecl::lowered at the first call without a host handler.
  mutable std::once_flag lower_once;
  mutable std::shared_ptr<const exec::Code> lowered;
};

struct CompilerDecl {
  std::string_view name;
  std::string_view source_language_name;
  std::string_view target_language_name;
  std::vector<std::unique_ptr<FunctionDecl>> op_callbacks;
  SrcLoc loc;

  // Resolved:
  const LanguageDecl* source_language = nullptr;
  const LanguageDecl* target_language = nullptr;
  // The callback of each source-language op, indexed by OpDecl::index.
  std::vector<const FunctionDecl*> by_op;

  const FunctionDecl* FindCallback(const OpDecl* op) const {
    return op->language == source_language && static_cast<size_t>(op->index) < by_op.size()
               ? by_op[static_cast<size_t>(op->index)]
               : nullptr;
  }
};

struct InterpreterDecl {
  std::string_view name;
  std::string_view language_name;
  std::vector<std::unique_ptr<FunctionDecl>> op_callbacks;
  SrcLoc loc;

  // Resolved:
  const LanguageDecl* language = nullptr;
  // The callback of each op of `language`, indexed by OpDecl::index.
  std::vector<const FunctionDecl*> by_op;

  const FunctionDecl* FindCallback(const OpDecl* op) const {
    return op->language == language && static_cast<size_t>(op->index) < by_op.size()
               ? by_op[static_cast<size_t>(op->index)]
               : nullptr;
  }
};

// ---------------------------------------------------------------------------
// Module
// ---------------------------------------------------------------------------

struct FingerprintMemo;  // fingerprint.cc

class Module {
  // Declared first, so it is freed last: the rest holds views into it.
  Arena arena_;

 public:
  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  // Holds the module's source copies, nodes and lists (see the top of this
  // file); the parser and the resolver allocate from it.
  Arena& arena() { return arena_; }

  TypeTable& types() { return types_; }
  const TypeTable& types() const { return types_; }

  std::vector<std::unique_ptr<LanguageDecl>> languages;
  std::vector<std::unique_ptr<FunctionDecl>> functions;
  std::vector<std::unique_ptr<ExternFnDecl>> externs;
  std::vector<std::unique_ptr<CompilerDecl>> compilers;
  std::vector<std::unique_ptr<InterpreterDecl>> interpreters;

  // Resolved: the name tables of `functions` and `externs`. Resolve fills
  // them and rejects a duplicate name, so FindFunction and FindExtern
  // answer only after it.
  NameTable<const FunctionDecl> functions_by_name;
  NameTable<const ExternFnDecl> externs_by_name;

  const LanguageDecl* FindLanguage(std::string_view name) const;
  const FunctionDecl* FindFunction(std::string_view name) const {
    return functions_by_name.Find(name);
  }
  const ExternFnDecl* FindExtern(std::string_view name) const {
    return externs_by_name.Find(name);
  }
  const CompilerDecl* FindCompiler(std::string_view name) const;
  const InterpreterDecl* FindInterpreter(std::string_view name) const;

  // Every generator (FnKind::kGenerator) in declaration order.
  std::vector<const FunctionDecl*> Generators() const;
  // Every function: `functions`, then each compiler's and each
  // interpreter's op callbacks, in declaration order.
  std::vector<const FunctionDecl*> AllFunctions() const;

  // True once UnitFingerprint has memoised this module's declarations
  // (fingerprint.h). A frozen module takes no more parsing or resolving:
  // Parser::ParseInto and Resolve fail an ICARUS_CHECK on it.
  bool frozen() const { return memo_ != nullptr; }

 private:
  friend struct FingerprintMemo;

  TypeTable types_;
  // Built by the first UnitFingerprint call, once across threads. A
  // shared_ptr, so this header needs only the memo's declaration.
  mutable std::once_flag memo_once_;
  mutable std::shared_ptr<const FingerprintMemo> memo_;
};

}  // namespace icarus::ast

#endif  // ICARUS_AST_AST_H_
