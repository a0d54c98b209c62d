#include "src/extract/cpp_backend.h"

#include <algorithm>

#include "src/machine/machine_state.h"
#include "src/support/str_util.h"

namespace icarus::extract {

namespace {

// The machine builtin that ends a stub run (exec/externs.cc). Extracted
// interpreter callbacks return kStubReturn in its place, so the runner learns
// of the return from the callback's result.
constexpr char kReturnFromStub[] = "MASM::returnFromStub";

std::string Mangle(std::string_view name) { return ReplaceAll(name, "::", "_"); }

// Generated-code type for a DSL type. Integer DSL values extract as int64_t:
// the interpreter semantics compute mathematically and range-check at Int32
// stores, so narrowing would change behaviour.
std::string CppType(const ast::Type* type) {
  switch (type->kind()) {
    case ast::TypeKind::kVoid:
      return "void";
    case ast::TypeKind::kBool:
      return "bool";
    case ast::TypeKind::kInt32:
    case ast::TypeKind::kInt64:
      return "int64_t";
    case ast::TypeKind::kDouble:
      return "double";
    case ast::TypeKind::kEnum:
    case ast::TypeKind::kOpaque:
      return std::string(type->name());
    case ast::TypeKind::kLabel:
      return "Label";
  }
  ICARUS_UNREACHABLE("cpp type");
}

std::string ParamType(const ast::Param& p) { return p.is_label ? "Label" : CppType(p.type); }

bool IsRegisterParam(const ast::Param& p) {
  return !p.is_label && (p.type->name() == "Reg" || p.type->name() == "ValueReg");
}

// C++ expression converting the baked int64 operand `operand` to `p`'s type.
std::string FromOperand(const ast::Param& p, const std::string& operand) {
  if (p.is_label) {
    return StrCat("Label{", operand, "}");
  }
  switch (p.type->kind()) {
    case ast::TypeKind::kBool:
      return StrCat("(", operand, " != 0)");
    case ast::TypeKind::kInt32:
    case ast::TypeKind::kInt64:
      return operand;
    case ast::TypeKind::kDouble:
      return StrCat("DoubleFromBits(", operand, ")");
    case ast::TypeKind::kEnum:
    case ast::TypeKind::kOpaque:
      return StrCat("static_cast<", CppType(p.type), ">(", operand, ")");
    case ast::TypeKind::kVoid:
    case ast::TypeKind::kLabel:
      break;
  }
  ICARUS_UNREACHABLE("operand type");
}

const char* BinOpText(ast::BinOp op) {
  switch (op) {
    case ast::BinOp::kAdd: return "+";
    case ast::BinOp::kSub: return "-";
    case ast::BinOp::kMul: return "*";
    case ast::BinOp::kDiv: return "/";
    case ast::BinOp::kMod: return "%";
    case ast::BinOp::kBitAnd: return "&";
    case ast::BinOp::kBitOr: return "|";
    case ast::BinOp::kBitXor: return "^";
    case ast::BinOp::kShl: return "<<";
    case ast::BinOp::kShr: return ">>";
    case ast::BinOp::kEq: return "==";
    case ast::BinOp::kNe: return "!=";
    case ast::BinOp::kLt: return "<";
    case ast::BinOp::kLe: return "<=";
    case ast::BinOp::kGt: return ">";
    case ast::BinOp::kGe: return ">=";
    case ast::BinOp::kLAnd: return "&&";
    case ast::BinOp::kLOr: return "||";
  }
  return "?";
}

class Generator {
 public:
  Generator(const platform::Platform& platform, const std::vector<StubRunner>& runners)
      : platform_(platform), module_(platform.module()), runners_(runners) {}

  CppExtraction Run() {
    CppExtraction out;
    out.header = Header();
    out.binding_skeleton = BindingSkeleton();
    return out;
  }

 private:
  // --- Expressions ---

  std::string GenExpr(const ast::Expr& expr) {
    switch (expr.kind) {
      case ast::ExprKind::kIntLit:
        return StrCat("INT64_C(", expr.int_val, ")");
      case ast::ExprKind::kBoolLit:
        return expr.bool_val ? "true" : "false";
      case ast::ExprKind::kEnumLit:
        return ReplaceAll(expr.name, "::", "::k");
      case ast::ExprKind::kVar:
        return std::string(expr.name);
      case ast::ExprKind::kUnary:
        return StrCat(expr.un_op == ast::UnOp::kNot ? "!" : "-", "(",
                      GenExpr(*expr.args[0]), ")");
      case ast::ExprKind::kBinary: {
        // JS-style % on negatives matches C++ % (both truncate); shifts are
        // performed in 64 bits, mirroring the evaluator's mathematical ints.
        return StrCat("(", GenExpr(*expr.args[0]), " ", BinOpText(expr.bin_op), " ",
                      GenExpr(*expr.args[1]), ")");
      }
      case ast::ExprKind::kCall: {
        std::vector<std::string> args;
        args.reserve(expr.args.size() + 1);
        if (expr.callee_fn != nullptr) {
          args.push_back("host");
          for (const ast::Expr* a : expr.args) {
            args.push_back(GenExpr(*a));
          }
          return StrCat(FnName(*expr.callee_fn), "(", Join(args, ", "), ")");
        }
        for (const ast::Expr* a : expr.args) {
          args.push_back(GenExpr(*a));
        }
        return StrCat("host.", Mangle(expr.callee_ext->name), "(", Join(args, ", "), ")");
      }
    }
    ICARUS_UNREACHABLE("expr");
  }

  // --- Statements ---

  // The compiler whose source language is `lang`, or null for a target
  // language.
  const ast::CompilerDecl* CompilerFrom(const ast::LanguageDecl* lang) const {
    for (const auto& comp : module_.compilers) {
      if (comp->source_language == lang) {
        return comp.get();
      }
    }
    return nullptr;
  }

  void GenEmit(const ast::Stmt& stmt, const std::string& pad, std::string* out) {
    std::vector<std::string> args;
    args.reserve(stmt.args.size() + 1);
    args.emplace_back();  // The host, or the target op.
    for (const ast::Expr* a : stmt.args) {
      args.push_back(GenExpr(*a));
    }
    const ast::CompilerDecl* compiler = CompilerFrom(stmt.emit_lang);
    if (compiler == nullptr) {
      args[0] = StrCat(stmt.emit_lang->name, "Op::k", stmt.emit_op->name);
      *out += StrCat(pad, "host.emit(", Join(args, ", "), ");\n");
      return;
    }
    // A source op streams straight into its compiler callback (Figure 3).
    const ast::FunctionDecl* cb = compiler->FindCallback(stmt.emit_op);
    if (cb == nullptr) {
      *out += StrCat(pad, "ICARUS_EXTRACTED_ASSERT(!\"no ", compiler->name, " callback for ",
                     stmt.emit_lang->name, "::", stmt.emit_op->name, "\");\n");
      return;
    }
    args[0] = "host";
    *out += StrCat(pad, FnName(*cb), "(", Join(args, ", "), ");\n");
  }

  static bool CallsExtern(const ast::Expr& expr, const char* name) {
    return expr.kind == ast::ExprKind::kCall && expr.callee_ext != nullptr &&
           expr.callee_ext->name == name;
  }

  void GenBlock(ast::StmtList block, int indent, bool in_interp, std::string* out) {
    std::string pad(static_cast<size_t>(indent), ' ');
    for (const ast::Stmt* stmt : block) {
      switch (stmt->kind) {
        case ast::StmtKind::kLet:
          *out += StrCat(pad, CppType(stmt->decl_type), " ", stmt->name, " = ",
                         GenExpr(*stmt->expr), ";\n");
          break;
        case ast::StmtKind::kAssign:
          *out += StrCat(pad, stmt->name, " = ", GenExpr(*stmt->expr), ";\n");
          break;
        case ast::StmtKind::kIf: {
          *out += StrCat(pad, "if (", GenExpr(*stmt->expr), ") {\n");
          GenBlock(stmt->then_block, indent + 2, in_interp, out);
          if (!stmt->else_block.empty()) {
            *out += StrCat(pad, "} else {\n");
            GenBlock(stmt->else_block, indent + 2, in_interp, out);
          }
          *out += StrCat(pad, "}\n");
          break;
        }
        case ast::StmtKind::kAssert:
          *out += StrCat(pad, "ICARUS_EXTRACTED_ASSERT(", GenExpr(*stmt->expr), ");\n");
          break;
        case ast::StmtKind::kAssume:
          *out += StrCat(pad, "ICARUS_EXTRACTED_ASSUME(", GenExpr(*stmt->expr), ");\n");
          break;
        case ast::StmtKind::kEmit:
          GenEmit(*stmt, pad, out);
          break;
        case ast::StmtKind::kLabelDecl:
          *out += StrCat(pad, "Label ", stmt->name, " = host.newLabel();\n");
          break;
        case ast::StmtKind::kFailureLabel:
          *out += StrCat(pad, "Label ", stmt->name, " = host.failureLabel();\n");
          break;
        case ast::StmtKind::kBind:
          *out += StrCat(pad, "host.bindLabel(", stmt->name, ");\n");
          break;
        case ast::StmtKind::kGoto:
          *out += StrCat(pad, "return ", stmt->name, ".id;\n");
          break;
        case ast::StmtKind::kReturn:
          if (stmt->expr != nullptr) {
            *out += StrCat(pad, "return ", GenExpr(*stmt->expr), ";\n");
          } else {
            *out += StrCat(pad, "return", in_interp ? " kFallThrough" : "", ";\n");
          }
          break;
        case ast::StmtKind::kExprStmt:
          if (in_interp && CallsExtern(*stmt->expr, kReturnFromStub)) {
            *out += StrCat(pad, "return kStubReturn;\n");
          } else {
            *out += StrCat(pad, GenExpr(*stmt->expr), ";\n");
          }
          break;
      }
    }
  }

  // --- Functions ---

  static std::string FnName(const ast::FunctionDecl& fn) {
    switch (fn.fn_kind) {
      case ast::FnKind::kCompilerOp:
        return StrCat("compile_", fn.compiler->source_language_name, "_", fn.name);
      case ast::FnKind::kInterpOp:
        return StrCat("interp_", fn.interpreter->language_name, "_", fn.name);
      default:
        return Mangle(fn.name);
    }
  }

  std::string Signature(const ast::FunctionDecl& fn) {
    bool is_interp = fn.fn_kind == ast::FnKind::kInterpOp;
    std::string ret = is_interp ? "int64_t" : CppType(fn.return_type);
    std::vector<std::string> params = {"Host& host"};
    for (const ast::Param& p : fn.params) {
      params.push_back(StrCat(ParamType(p), " ", p.name));
    }
    return StrCat("template <class Host>\ninline ", ret, " ", FnName(fn), "(",
                  Join(params, ", "), ")");
  }

  std::string GenFunction(const ast::FunctionDecl& fn) {
    bool is_interp = fn.fn_kind == ast::FnKind::kInterpOp;
    std::string out = Signature(fn) + " {\n";
    GenBlock(fn.body, 2, is_interp, &out);
    if (is_interp) {
      out += "  return kFallThrough;\n";
    }
    out += "}\n";
    return out;
  }

  // Arguments unpacking baked operands for a call of `params`.
  static std::vector<std::string> OperandArgs(std::span<const ast::Param> params,
                                              const char* array) {
    std::vector<std::string> args = {"host"};
    for (size_t i = 0; i < params.size(); ++i) {
      args.push_back(FromOperand(params[i], StrCat(array, "[", i, "]")));
    }
    return args;
  }

  // --- Top-level pieces ---

  std::string Enums() {
    std::string out;
    for (const char* name :
         {"JSValueType", "AttachDecision", "Condition", "ClassKind", "JSOp", "ICMode",
          "Int32BitOpKind"}) {
      const ast::EnumDecl* decl = module_.types().LookupEnum(name);
      if (decl == nullptr) {
        continue;
      }
      std::vector<std::string> members;
      members.reserve(decl->members.size());
      for (std::string_view m : decl->members) {
        members.push_back(StrCat("k", m));
      }
      out += StrCat("enum class ", decl->name, " : int { ", Join(members, ", "), " };\n");
    }
    return out;
  }

  std::string Handles() {
    std::string out = "// Opaque engine handles.\n";
    for (const char* name : {"Value", "Object", "Shape", "String", "Symbol", "BigInt",
                             "GetterSetter", "PropertyKey", "ValueId", "ObjectId", "Int32Id",
                             "StringId", "SymbolId", "Reg", "ValueReg"}) {
      if (module_.types().Lookup(name) != nullptr) {
        out += StrCat("using ", name, " = uint64_t;\n");
      }
    }
    return out;
  }

  // One op enum per target language: the first argument of host.emit and
  // how the runner table names ops.
  std::string OpEnums() {
    std::string out;
    for (const auto& lang : module_.languages) {
      if (CompilerFrom(lang.get()) != nullptr) {
        continue;
      }
      std::vector<std::string> members;
      members.reserve(lang->ops.size());
      for (const auto& op : lang->ops) {
        members.push_back(StrCat("k", op->name));
      }
      out += StrCat("enum class ", lang->name, "Op : int { ", Join(members, ", "), " };\n");
    }
    return out;
  }

  // Op names per target language, indexed by <Lang>Op.
  std::string OpNames() {
    std::string out;
    for (const auto& lang : module_.languages) {
      if (CompilerFrom(lang.get()) != nullptr) {
        continue;
      }
      std::vector<std::string> names;
      names.reserve(lang->ops.size());
      for (const auto& op : lang->ops) {
        names.push_back(StrCat("\"", op->name, "\""));
      }
      out += StrCat("inline constexpr const char* k", lang->name, "OpNames[] = {",
                    Join(names, ", "), "};\n");
    }
    return out;
  }

  // The C++ expression passing operand `k` of a runner as parameter `p`:
  // the literal when the key fixes it, a read from the stub otherwise.
  static std::string RunnerArg(const ast::Param& p, const std::optional<int64_t>& fixed,
                               size_t k) {
    return FromOperand(p, fixed.has_value() ? StrCat("INT64_C(", *fixed, ")")
                                            : StrCat("operands[", k, "]"));
  }

  static std::string StubRunnerFunction(const ast::InterpreterDecl& interp, size_t index,
                                        const StubRunnerKey& key) {
    const int n = static_cast<int>(key.ops.size());
    // A label operand jumps to an instruction of the list, or bails: the
    // failure label and a label bound past the last instruction both do.
    auto jumps_within = [n](const ast::Param& p, const std::optional<int64_t>& operand) {
      return p.is_label && *operand >= 0 && *operand < n;
    };
    std::vector<bool> targeted(static_cast<size_t>(n), false);
    size_t k = 0;
    for (const ast::OpDecl* op : key.ops) {
      for (const ast::Param& p : op->params) {
        if (jumps_within(p, key.operands[k])) {
          targeted[static_cast<size_t>(*key.operands[k])] = true;
        }
        ++k;
      }
    }
    std::string out = StrCat("// ", Join(Names(key), " ; "), "\ntemplate <class Host>\n",
                             "[[gnu::flatten]] inline bool stub_runner_", index,
                             "(Host& host, [[maybe_unused]] const int64_t* operands) {\n");
    k = 0;
    for (int i = 0; i < n; ++i) {
      const ast::OpDecl& op = *key.ops[static_cast<size_t>(i)];
      if (targeted[static_cast<size_t>(i)]) {
        out += StrCat("instr_", i, ":\n");
      }
      const ast::FunctionDecl* cb = interp.FindCallback(&op);
      if (cb == nullptr) {
        out += StrCat("  ICARUS_EXTRACTED_ASSERT(!\"no interpreter callback for ",
                      op.language->name, "::", op.name, "\");\n  return false;\n");
        k += op.params.size();
        continue;
      }
      std::vector<std::string> args = {"host"};
      std::vector<int64_t> jumps;
      for (const ast::Param& p : cb->params) {
        args.push_back(RunnerArg(p, key.operands[k], k));
        if (jumps_within(p, key.operands[k]) &&
            std::find(jumps.begin(), jumps.end(), *key.operands[k]) == jumps.end()) {
          jumps.push_back(*key.operands[k]);
        }
        ++k;
      }
      out += StrCat("  switch (", FnName(*cb), "(", Join(args, ", "), ")) {\n",
                    "    case kFallThrough: break;\n    case kStubReturn: return true;\n");
      for (int64_t target : jumps) {
        out += StrCat("    case INT64_C(", target, "): goto instr_", target, ";\n");
      }
      out += "    default: return false;\n  }\n";
    }
    out += "  return false;\n}\n\n";
    return out;
  }

  // `type name[] = {items};`, or nothing when `items` is empty (C++ has no
  // zero-length arrays); *ref is what a table entry points at.
  static std::string ConstexprArray(const std::string& type, const std::string& name,
                                    const std::vector<std::string>& items, std::string* ref) {
    if (items.empty()) {
      *ref = "nullptr";
      return "";
    }
    *ref = name;
    return StrCat("inline constexpr ", type, " ", name, "[] = {", Join(items, ", "), "};\n");
  }

  // One runner per distinct instruction list an attached SME path emitted,
  // and kStubRunners, the table of their keys. The platform's meta-stubs run
  // its one interpreter (Platform::MakeMetaStub).
  std::string StubRunners() {
    if (module_.interpreters.size() != 1) {
      return "";
    }
    const ast::InterpreterDecl& interp = *module_.interpreters.front();
    const std::string op_type = StrCat(interp.language->name, "Op");
    std::string out = StrCat(
        "// --- Stub runners ---\n"
        "//\n"
        "// One per distinct ", interp.language->name,
        " instruction list that an attached path of the verifier's\n"
        "// symbolic meta-execution emitted, over every generator. A runner runs its\n"
        "// list straight through with every interpreter callback inlined. Operands\n"
        "// that were constants on the path (registers, labels, conditions, tags) are\n"
        "// literals; the rest are read from `operands`, the stub's operands flattened\n"
        "// in instruction order. Labels only jump forward. A runner returns true when\n"
        "// the stub returned (its result is in the output register) and false when\n"
        "// it bailed.\n\n"
        "// An operand a runner fixes: its index among the stub's flattened operands\n"
        "// and its value. A label's value is the index of the instruction it is\n"
        "// bound to, or kFailureTarget for the failure label.\n"
        "struct FixedOperand {\n  int index;\n  int64_t value;\n};\n\n"
        "inline constexpr int64_t kFailureTarget = ",
        exec::kLabelFailure,
        ";\n\n"
        "template <class Host>\n"
        "struct StubRunnerEntry {\n"
        "  const char* generators;  // Whose paths emitted the list, space-separated.\n"
        "  const ",
        op_type,
        "* ops;\n"
        "  int num_ops;\n"
        "  const int* input_regs;  // Register of each generator input at entry.\n"
        "  int num_inputs;\n"
        "  const FixedOperand* fixed;\n"
        "  int num_fixed;\n"
        "  bool (*run)(Host& host, const int64_t* operands);\n"
        "};\n\n");
    std::vector<std::string> table;
    for (size_t i = 0; i < runners_.size(); ++i) {
      const StubRunnerKey& key = runners_[i].key;
      out += StubRunnerFunction(interp, i, key);
      std::vector<std::string> ops;
      for (const ast::OpDecl* op : key.ops) {
        ops.push_back(StrCat(op_type, "::k", op->name));
      }
      std::vector<std::string> inputs;
      for (int reg : key.input_regs) {
        inputs.push_back(StrCat(reg));
      }
      std::vector<std::string> fixed;
      for (size_t k = 0; k < key.operands.size(); ++k) {
        if (key.operands[k].has_value()) {
          fixed.push_back(StrCat("{", k, ", INT64_C(", *key.operands[k], ")}"));
        }
      }
      const std::string prefix = StrCat("kStubRunner", i);
      std::string ops_ref, inputs_ref, fixed_ref;
      out += ConstexprArray(op_type, prefix + "Ops", ops, &ops_ref);
      out += ConstexprArray("int", prefix + "Inputs", inputs, &inputs_ref);
      out += ConstexprArray("FixedOperand", prefix + "Fixed", fixed, &fixed_ref);
      out += "\n";
      table.push_back(StrCat("    {\"", Join(runners_[i].generators, " "), "\", ", ops_ref, ", ",
                             ops.size(), ", ", inputs_ref, ", ", inputs.size(), ", ", fixed_ref,
                             ", ", fixed.size(), ", &stub_runner_", i, "<Host>},\n"));
    }
    if (!table.empty()) {
      out += StrCat("template <class Host>\n",
                    "inline constexpr StubRunnerEntry<Host> kStubRunners[] = {\n",
                    Join(table, ""), "};\n\n");
    }
    return out;
  }

  static std::vector<std::string> Names(const StubRunnerKey& key) {
    std::vector<std::string> names;
    names.reserve(key.ops.size());
    for (const ast::OpDecl* op : key.ops) {
      names.emplace_back(op->name);
    }
    return names;
  }

  std::string GeneratorTable() {
    std::string out =
        "// --- Generators by name: each entry unpacks the generator's arguments ---\n\n"
        "template <class Host>\n"
        "struct GeneratorEntry {\n"
        "  const char* name;\n"
        "  int num_params;\n"
        "  AttachDecision (*run)(Host& host, const int64_t* args);\n"
        "};\n\n";
    std::vector<std::string> table;
    for (const ast::FunctionDecl* gen : module_.Generators()) {
      std::string fn = StrCat("generator_", FnName(*gen));
      table.push_back(
          StrCat("    {\"", gen->name, "\", ", gen->params.size(), ", &", fn, "<Host>},\n"));
      out += StrCat("template <class Host>\ninline AttachDecision ", fn,
                    "(Host& host, const int64_t* args) {\n  return ", FnName(*gen), "(",
                    Join(OperandArgs(gen->params, "args"), ", "), ");\n}\n\n");
    }
    out += "template <class Host>\ninline constexpr GeneratorEntry<Host> kGenerators[] = {\n";
    for (const std::string& entry : table) {
      out += entry;
    }
    out += "};\n";
    return out;
  }

  std::string Header() {
    std::string out = StrCat(
        "// GENERATED by the Icarus C++ extraction backend. Do not edit.\n"
        "//\n"
        "// Contains: enums mirroring the DSL declarations, the verified\n"
        "// generator/compiler/interpreter code as templates over the binding-layer\n"
        "// host, one stub runner per instruction list an attached SME path emitted,\n"
        "// and the runner and generator tables.\n"
        "#ifndef ICARUS_EXTRACTED_H_\n#define ICARUS_EXTRACTED_H_\n\n"
        "#include <cassert>\n#include <cstdint>\n#include <cstring>\n\n"
        "#ifndef ICARUS_EXTRACTED_ASSERT\n"
        "#define ICARUS_EXTRACTED_ASSERT(cond) assert(cond)\n"
        "#endif\n"
        "#ifndef ICARUS_EXTRACTED_ASSUME\n"
        "#define ICARUS_EXTRACTED_ASSUME(cond) ((void)0)\n"
        "#endif\n\n"
        "namespace icarus_extracted {\n\n"
        "// Platform::Fingerprint() of the platform this header was extracted from.\n"
        "inline constexpr char kPlatformFingerprint[] = \"",
        platform_.Fingerprint(),
        "\";\n\n"
        "struct Label { int64_t id; };\n\n"
        "// Interpreter callbacks return where control goes next: kFallThrough, the\n"
        "// id of the label they jump to, or kStubReturn once the stub returned.\n"
        "inline constexpr int64_t kFallThrough = -1;\n"
        "inline constexpr int64_t kStubReturn = -3;\n\n"
        "inline double DoubleFromBits(int64_t bits) {\n"
        "  double d;\n  std::memcpy(&d, &bits, sizeof(d));\n  return d;\n}\n\n");
    out += Enums();
    out += "\n";
    out += Handles();
    out += "\n";
    out += OpEnums();
    out += "\n// --- Forward declarations (the DSL is non-recursive) ---\n";
    const std::vector<const ast::FunctionDecl*> fns = module_.AllFunctions();
    for (const ast::FunctionDecl* fn : fns) {
      out += Signature(*fn) + ";\n";
    }
    out += "\n// --- Definitions ---\n\n";
    for (const ast::FunctionDecl* fn : fns) {
      out += GenFunction(*fn);
      out += "\n";
    }
    out += OpNames();
    out += "\n";
    out += StubRunners();
    out += GeneratorTable();
    out += "\n}  // namespace icarus_extracted\n\n#endif  // ICARUS_EXTRACTED_H_\n";
    return out;
  }

  std::string BindingSkeleton() {
    std::string out =
        "// GENERATED binding-layer skeleton: a host whose members are stubs.\n"
        "// Replace each body with a bridge into the real engine; the extracted\n"
        "// templates instantiate with any class providing these members.\n"
        "namespace icarus_extracted {\n\n"
        "class SkeletonHost final {\n public:\n";
    for (const auto& ext : module_.externs) {
      if (ext->name == kReturnFromStub) {
        continue;  // Extracted code returns kStubReturn instead.
      }
      std::vector<std::string> params;
      for (const ast::Param& p : ext->params) {
        params.push_back(StrCat(ParamType(p), " ", p.name));
      }
      std::string ret = CppType(ext->return_type);
      out += StrCat("  ", ret, " ", Mangle(ext->name), "(", Join(params, ", "), ") { ",
                    ret == "void" ? "" : StrCat("return ", ret, "{}; "), "}\n");
    }
    out += "  Label newLabel() { return Label{next_label_++}; }\n";
    out += "  Label failureLabel() { return Label{-2}; }\n";
    out += "  void bindLabel(Label label) { (void)label; }\n";
    for (const auto& lang : module_.languages) {
      if (CompilerFrom(lang.get()) == nullptr) {
        out += StrCat("  template <class... Operands>\n  void emit(", lang->name,
                      "Op op, Operands... operands) {}\n");
      }
    }
    out += "\n private:\n  int64_t next_label_ = 0;\n};\n\n}  // namespace icarus_extracted\n";
    return out;
  }

  const platform::Platform& platform_;
  const ast::Module& module_;
  const std::vector<StubRunner>& runners_;
};

}  // namespace

StatusOr<StubRunnerKey> RunnerKeyForPath(std::string_view generator,
                                         const exec::EmitState& emits,
                                         const std::vector<int>& input_regs) {
  StubRunnerKey key;
  key.input_regs = input_regs;
  const int n = static_cast<int>(emits.target.size());
  for (int i = 0; i < n; ++i) {
    const exec::Instr& instr = emits.target[static_cast<size_t>(i)];
    std::span<const ast::Param> params = instr.op->params;
    if (instr.args.size() != params.size()) {
      return Status::Error(StrCat(generator, ": MASM instruction ", i, " (", instr.op->name,
                                  ") has ", instr.args.size(), " operands, not ",
                                  params.size()));
    }
    key.ops.push_back(instr.op);
    for (size_t j = 0; j < params.size(); ++j) {
      const exec::Value& arg = instr.args[j];
      auto where = [&] {
        return StrCat(generator, ": operand ", params[j].name, " of MASM instruction ", i, " (",
                      instr.op->name, ")");
      };
      if (params[j].is_label) {
        const int target =
            arg.IsLabel() && static_cast<size_t>(arg.label_id) < emits.labels.size()
                ? emits.labels[static_cast<size_t>(arg.label_id)].target
                : exec::kLabelUnbound;
        if (target == exec::kLabelUnbound) {
          return Status::Error(StrCat(where(), " is a label that is not a constant"));
        }
        if (target >= 0 && target <= i) {
          return Status::Error(StrCat(where(), " targets instruction ", target,
                                      ", not a later one: stub runners only jump forward"));
        }
        key.operands.push_back(target);
        continue;
      }
      const bool constant = arg.term != nullptr && arg.term->IsConst();
      if (IsRegisterParam(params[j])) {
        if (!constant) {
          return Status::Error(StrCat(where(), " is a register that is not a constant"));
        }
        if (arg.term->value < 0 || arg.term->value >= machine::kNumRegs) {
          return Status::Error(StrCat(where(), " is register ", arg.term->value,
                                      ", outside the register file"));
        }
      }
      key.operands.push_back(constant ? std::optional<int64_t>(arg.term->value) : std::nullopt);
    }
  }
  return key;
}

StatusOr<std::vector<StubRunnerKey>> RunnerKeysForGenerator(const platform::Platform& platform,
                                                            std::string_view generator,
                                                            meta::MetaExecutor& executor) {
  StatusOr<meta::MetaStub> made = platform.MakeMetaStub(generator);
  if (!made.ok()) {
    return made.status();
  }
  meta::MetaStub stub = made.take();
  // The registers each path allocated for the generator's operand inputs,
  // read back from its machine state once the inputs are built.
  std::vector<int> input_regs;
  stub.inputs = [inputs = stub.inputs, fn = stub.generator, &input_regs](
                    exec::EvalContext& ctx, std::vector<exec::Value>* args) -> Status {
    ICARUS_RETURN_IF_ERROR(inputs(ctx, args));
    input_regs.clear();
    for (size_t i = 0; i < fn->params.size() && i < args->size(); ++i) {
      if (platform::IsOperandIdType(fn->params[i].type)) {
        StatusOr<int> reg = ctx.machine().UseOperand(static_cast<int>((*args)[i].term->value));
        if (!reg.ok()) {
          return reg.status();
        }
        input_regs.push_back(reg.value());
      }
    }
    return Status::Ok();
  };
  std::vector<StubRunnerKey> keys;
  Status failed = Status::Ok();
  executor.set_attached_path_hook([&](exec::EvalContext& ctx) {
    if (!failed.ok()) {
      return;
    }
    StatusOr<StubRunnerKey> key = RunnerKeyForPath(generator, ctx.emits(), input_regs);
    if (key.ok()) {
      keys.push_back(key.take());
    } else {
      failed = key.status();
    }
  });
  const meta::MetaResult result = executor.Run(stub);
  executor.set_attached_path_hook(nullptr);
  if (result.inconclusive) {
    return Status::Error(StrCat(generator, ": symbolic meta-execution is inconclusive (",
                                Join(result.limit_notes, "; "),
                                "), so its stubs cannot be compiled"));
  }
  ICARUS_RETURN_IF_ERROR(failed);
  return keys;
}

StatusOr<std::vector<StubRunner>> EnumerateStubRunners(const platform::Platform& platform) {
  std::vector<StubRunner> runners;
  for (const ast::FunctionDecl* gen : platform.module().Generators()) {
    meta::MetaExecutor executor(&platform.module(), &platform.externs());
    StatusOr<std::vector<StubRunnerKey>> keys =
        RunnerKeysForGenerator(platform, gen->name, executor);
    if (!keys.ok()) {
      return keys.status();
    }
    for (StubRunnerKey& key : keys.value()) {
      auto it = std::find_if(runners.begin(), runners.end(),
                             [&](const StubRunner& r) { return r.key == key; });
      if (it == runners.end()) {
        runners.push_back({std::move(key), {std::string(gen->name)}});
      } else if (it->generators.back() != gen->name) {
        it->generators.emplace_back(gen->name);
      }
    }
  }
  return runners;
}

StatusOr<CppExtraction> ExtractCpp(const platform::Platform& platform) {
  StatusOr<std::vector<StubRunner>> runners = EnumerateStubRunners(platform);
  if (!runners.ok()) {
    return runners.status();
  }
  Generator generator(platform, runners.value());
  return generator.Run();
}

}  // namespace icarus::extract
