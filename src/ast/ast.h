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
#ifndef ICARUS_AST_AST_H_
#define ICARUS_AST_AST_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/ast/type.h"

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

enum class ExprKind {
  kIntLit,
  kBoolLit,
  kEnumLit,   // Condition::Equal
  kVar,       // local or parameter (possibly a label reference)
  kCall,      // qualified call: CacheIRCompiler::useValueId(x)
  kUnary,     // ! -
  kBinary,    // arithmetic / comparison / logical
};

enum class BinOp {
  kAdd, kSub, kMul, kDiv, kMod,
  kBitAnd, kBitOr, kBitXor, kShl, kShr,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kLAnd, kLOr,
};

enum class UnOp {
  kNot,
  kNeg,
};

struct FunctionDecl;
struct ExternFnDecl;
struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr {
  ExprKind kind;
  SrcLoc loc;

  int64_t int_val = 0;       // kIntLit
  bool bool_val = false;     // kBoolLit
  std::string name;          // kVar: variable name; kEnumLit: "Enum::Member";
                             // kCall: qualified callee name
  BinOp bin_op = BinOp::kAdd;
  UnOp un_op = UnOp::kNot;
  std::vector<ExprPtr> args;  // kCall arguments; kUnary/kBinary operands

  // --- Filled by the resolver ---
  const Type* type = nullptr;
  const EnumDecl* enum_decl = nullptr;  // kEnumLit
  int enum_index = -1;                  // kEnumLit
  int var_slot = -1;                    // kVar: index into the frame
  bool is_label = false;                // kVar naming a label
  const FunctionDecl* callee_fn = nullptr;   // kCall to a DSL function
  const ExternFnDecl* callee_ext = nullptr;  // kCall to an extern
};

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

struct OpDecl;
struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

enum class StmtKind {
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
  StmtKind kind;
  SrcLoc loc;

  std::string name;        // kLet/kAssign target; label name for label stmts
  std::string type_name;   // kLet optional annotation
  ExprPtr expr;            // kLet init / kAssign value / condition / operand
  std::vector<StmtPtr> then_block;
  std::vector<StmtPtr> else_block;

  std::string emit_callee;      // kEmit: qualified op name
  std::vector<ExprPtr> args;    // kEmit arguments

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
  std::string name;
  std::string type_name;   // As written; empty for labels.
  bool is_label = false;
  // Resolved:
  const Type* type = nullptr;
  int slot = -1;
};

struct OpDecl {
  std::string name;
  std::vector<Param> params;
  const LanguageDecl* language = nullptr;
  int index = -1;  // Position within the language.
};

struct LanguageDecl {
  std::string name;
  std::vector<std::unique_ptr<OpDecl>> ops;
  std::map<std::string, OpDecl*> by_name;

  const OpDecl* FindOp(const std::string& op) const {
    auto it = by_name.find(op);
    return it == by_name.end() ? nullptr : it->second;
  }
};

enum class FnKind {
  kHelper,      // fn — pure or emitting helper
  kGenerator,   // generator — top-level IC stub generator
  kCompilerOp,  // `op` callback inside a compiler block
  kInterpOp,    // `op` callback inside an interpreter block
};

struct FunctionDecl {
  FnKind fn_kind = FnKind::kHelper;
  std::string name;  // Qualified (e.g. "CacheIRCompiler::emitGuardToObject").
  std::vector<Param> params;
  std::string return_type_name;           // Empty → Void.
  std::string emits_language_name;        // `emits Lang`; empty if pure.
  std::vector<StmtPtr> body;
  SrcLoc loc;

  // Resolved:
  const Type* return_type = nullptr;
  const LanguageDecl* emits_language = nullptr;
  const OpDecl* op = nullptr;        // kCompilerOp/kInterpOp: the handled op.
  const struct CompilerDecl* compiler = nullptr;
  const struct InterpreterDecl* interpreter = nullptr;
  int num_slots = 0;                 // Frame size (params + locals + labels).

  // Source text of this function as written (for LoC reporting à la Fig. 12).
  std::string source_text;

  // The flat form the evaluator runs (exec::Lowered), built at the first
  // execution of this function. Threads that share the module race for it
  // through the once flag.
  mutable std::once_flag lower_once;
  mutable std::shared_ptr<const exec::Code> lowered;
};

struct ContractClause {
  bool is_requires = false;  // requires vs ensures
  ExprPtr expr;
};

struct ExternFnDecl {
  std::string name;  // Qualified.
  std::vector<Param> params;
  std::string return_type_name;  // Empty → Void.
  std::vector<ContractClause> contracts;
  SrcLoc loc;

  // Resolved:
  const Type* return_type = nullptr;
  int num_slots = 0;  // params (+1 for `result` in ensures clauses).

  // The contract as flat code (exec::LoweredContract), built like
  // FunctionDecl::lowered at the first call without a host handler.
  mutable std::once_flag lower_once;
  mutable std::shared_ptr<const exec::Code> lowered;
};

struct CompilerDecl {
  std::string name;
  std::string source_language_name;
  std::string target_language_name;
  std::vector<std::unique_ptr<FunctionDecl>> op_callbacks;

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
  std::string name;
  std::string language_name;
  std::vector<std::unique_ptr<FunctionDecl>> op_callbacks;

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
 public:
  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  TypeTable& types() { return types_; }
  const TypeTable& types() const { return types_; }

  std::vector<std::unique_ptr<LanguageDecl>> languages;
  std::vector<std::unique_ptr<FunctionDecl>> functions;
  std::vector<std::unique_ptr<ExternFnDecl>> externs;
  std::vector<std::unique_ptr<CompilerDecl>> compilers;
  std::vector<std::unique_ptr<InterpreterDecl>> interpreters;

  // Resolved: the name tables of `functions` and `externs`, keyed by views
  // of the declarations' own names. Resolve fills them and rejects a
  // duplicate name, so FindFunction and FindExtern answer only after it.
  std::unordered_map<std::string_view, const FunctionDecl*> functions_by_name;
  std::unordered_map<std::string_view, const ExternFnDecl*> externs_by_name;

  const LanguageDecl* FindLanguage(const std::string& name) const;
  const FunctionDecl* FindFunction(const std::string& name) const;
  const ExternFnDecl* FindExtern(const std::string& name) const;
  const CompilerDecl* FindCompiler(const std::string& name) const;
  const InterpreterDecl* FindInterpreter(const std::string& name) const;

  // Every generator (FnKind::kGenerator) in declaration order.
  std::vector<const FunctionDecl*> Generators() const;

  // True once UnitFingerprint has memoised this module's declarations
  // (fingerprint.h). A frozen module takes no more parsing or resolving:
  // Parser::ParseInto and Resolve fail an ICARUS_CHECK on it.
  bool frozen() const { return fingerprint_memo_ != nullptr; }

 private:
  friend struct FingerprintMemo;

  TypeTable types_;
  // Built by the first UnitFingerprint call, once across threads. A
  // shared_ptr, so this header needs only the memo's declaration.
  mutable std::once_flag fingerprint_once_;
  mutable std::shared_ptr<const FingerprintMemo> fingerprint_memo_;
};

}  // namespace icarus::ast

#endif  // ICARUS_AST_AST_H_
