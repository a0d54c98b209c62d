#include "src/extract/cpp_backend.h"

#include "src/support/str_util.h"

namespace icarus::extract {

namespace {

// The machine builtin that ends a stub run (exec/externs.cc). Extracted
// interpreter callbacks return kStubReturn in its place, so the runner learns
// of the return from the callback's result.
constexpr char kReturnFromStub[] = "MASM::returnFromStub";

std::string Mangle(const std::string& name) { return ReplaceAll(name, "::", "_"); }

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
      return type->name();
    case ast::TypeKind::kLabel:
      return "Label";
  }
  ICARUS_UNREACHABLE("cpp type");
}

std::string ParamType(const ast::Param& p) { return p.is_label ? "Label" : CppType(p.type); }

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
  explicit Generator(const platform::Platform& platform)
      : platform_(platform), module_(platform.module()) {}

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
        return expr.name;
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
          for (const ast::ExprPtr& a : expr.args) {
            args.push_back(GenExpr(*a));
          }
          return StrCat(FnName(*expr.callee_fn), "(", Join(args, ", "), ")");
        }
        for (const ast::ExprPtr& a : expr.args) {
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
    for (const ast::ExprPtr& a : stmt.args) {
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

  void GenBlock(const std::vector<ast::StmtPtr>& block, int indent, bool in_interp,
                std::string* out) {
    std::string pad(static_cast<size_t>(indent), ' ');
    for (const ast::StmtPtr& stmt : block) {
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
  static std::vector<std::string> OperandArgs(const std::vector<ast::Param>& params,
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
      for (const std::string& m : decl->members) {
        members.push_back("k" + m);
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
  // the index into the language's thunk table.
  std::string OpEnums() {
    std::string out;
    for (const auto& lang : module_.languages) {
      if (CompilerFrom(lang.get()) != nullptr) {
        continue;
      }
      std::vector<std::string> members;
      members.reserve(lang->ops.size());
      for (const auto& op : lang->ops) {
        members.push_back("k" + op->name);
      }
      out += StrCat("enum class ", lang->name, "Op : int { ", Join(members, ", "), " };\n");
    }
    return out;
  }

  std::string Thunks() {
    std::string out;
    for (const auto& interp : module_.interpreters) {
      const ast::LanguageDecl& lang = *interp->language;
      out += StrCat("// --- ", lang.name, " thunks: one per op, called with the op's baked "
                    "operands ---\n\n");
      std::vector<std::string> table;
      for (const auto& op : lang.ops) {
        std::string thunk = StrCat("thunk_", lang.name, "_", op->name);
        table.push_back(StrCat("    &", thunk, "<Host>,\n"));
        out += StrCat("template <class Host>\ninline int64_t ", thunk,
                      "(Host& host, const int64_t* operands) {\n");
        const ast::FunctionDecl* cb = interp->FindCallback(op.get());
        if (cb == nullptr) {
          out += StrCat("  ICARUS_EXTRACTED_ASSERT(!\"no ", interp->name, " callback for ",
                        lang.name, "::", op->name, "\");\n  return kFallThrough;\n}\n\n");
          continue;
        }
        out += StrCat("  return ", FnName(*cb), "(",
                      Join(OperandArgs(cb->params, "operands"), ", "), ");\n}\n\n");
      }
      out += StrCat("template <class Host>\nusing ", lang.name,
                    "Thunk = int64_t (*)(Host& host, const int64_t* operands);\n\n");
      out += StrCat("// Indexed by ", lang.name, "Op.\ntemplate <class Host>\ninline constexpr ",
                    lang.name, "Thunk<Host> k", lang.name, "Thunks[] = {\n");
      for (const std::string& entry : table) {
        out += entry;
      }
      out += "};\n\n";
    }
    return out;
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
        "// host, per-op interpreter thunks and the generator table.\n"
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
    std::vector<const ast::FunctionDecl*> fns;
    for (const auto& fn : module_.functions) {
      fns.push_back(fn.get());
    }
    for (const auto& comp : module_.compilers) {
      for (const auto& cb : comp->op_callbacks) {
        fns.push_back(cb.get());
      }
    }
    for (const auto& interp : module_.interpreters) {
      for (const auto& cb : interp->op_callbacks) {
        fns.push_back(cb.get());
      }
    }
    for (const ast::FunctionDecl* fn : fns) {
      out += Signature(*fn) + ";\n";
    }
    out += "\n// --- Definitions ---\n\n";
    for (const ast::FunctionDecl* fn : fns) {
      out += GenFunction(*fn);
      out += "\n";
    }
    out += Thunks();
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
};

}  // namespace

StatusOr<CppExtraction> ExtractCpp(const platform::Platform& platform) {
  Generator generator(platform);
  return generator.Run();
}

}  // namespace icarus::extract
