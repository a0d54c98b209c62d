// Lexer / parser / resolver / printer tests for the Icarus DSL frontend.
#include <gtest/gtest.h>

#include <set>

#include "src/ast/ast.h"
#include "src/ast/fingerprint.h"
#include "src/ast/lexer.h"
#include "src/ast/parser.h"
#include "src/ast/printer.h"
#include "src/ast/resolver.h"
#include "src/platform/platform.h"
#include "src/support/str_util.h"

namespace icarus::ast {
namespace {

TEST(Lexer, BasicTokens) {
  constexpr std::string_view kSource = "fn foo(x: Int32) -> Bool { return x == 0x10; } // comment";
  Lexer lexer(kSource);
  std::vector<Token> toks = lexer.LexAll();
  ASSERT_GE(toks.size(), 2u);
  EXPECT_EQ(toks[0].kind, Tok::kKwFn);
  EXPECT_EQ(toks[1].kind, Tok::kIdent);
  EXPECT_EQ(TokenText(kSource, toks[1]), "foo");
  EXPECT_EQ(toks.back().kind, Tok::kEof);
  bool saw_hex = false;
  for (const Token& t : toks) {
    int64_t value = 0;
    if (t.kind == Tok::kIntLit && ReadIntLiteral(TokenText(kSource, t), &value) && value == 16) {
      saw_hex = true;
    }
  }
  EXPECT_TRUE(saw_hex);
}

TEST(Lexer, OperatorsAndComments) {
  Lexer lexer("== != <= >= << >> && || :: -> /* block\ncomment */ %");
  std::vector<Token> toks = lexer.LexAll();
  std::vector<Tok> kinds;
  for (const Token& t : toks) {
    kinds.push_back(t.kind);
  }
  std::vector<Tok> expected = {Tok::kEqEq, Tok::kNe,    Tok::kLe,         Tok::kGe,
                               Tok::kShl,  Tok::kShr,   Tok::kAndAnd,     Tok::kOrOr,
                               Tok::kColonColon, Tok::kArrow, Tok::kPercent, Tok::kEof};
  EXPECT_EQ(kinds, expected);
}

TEST(Lexer, ErrorToken) {
  Lexer lexer("fn @");
  std::vector<Token> toks = lexer.LexAll();
  EXPECT_EQ(toks.back().kind, Tok::kError);
}

TEST(Lexer, TracksLines) {
  Lexer lexer("a\nb\n  c");
  std::vector<Token> toks = lexer.LexAll();
  EXPECT_EQ(toks[0].line, 1);
  EXPECT_EQ(toks[1].line, 2);
  EXPECT_EQ(toks[2].line, 3);
  EXPECT_EQ(toks[2].col, 3);
}

constexpr char kMiniPlatform[] = R"(
enum Tag { A, B }
extern type Thing;
extern fn Thing::tagOf(t: Thing) -> Tag;
extern fn Thing::make(tag: Tag) -> Thing
  ensures Thing::tagOf(result) == tag;

language Src {
  op DoIt(x: Int32);
}
language Tgt {
  op Branch(x: Int32, label l);
  op Nop();
}

compiler C : Src -> Tgt {
  op DoIt(x: Int32) {
    label done: Tgt;
    emit Branch(x, done);
    emit Nop();
    bind done;
  }
}

interpreter I : Tgt {
  op Branch(x: Int32, label l) {
    if x > 0 {
      goto l;
    }
  }
  op Nop() {
  }
}

fn helper(x: Int32) -> Int32 {
  let y = x + 1;
  return y * 2;
}

generator genDoIt(v: Int32) emits Src {
  if v > 10 {
    emit Src::DoIt(v);
    return AttachDecision::Attach;
  }
  return AttachDecision::NoAction;
}

enum AttachDecision { NoAction, Attach }
)";

TEST(Parser, MiniPlatformParsesAndResolves) {
  Module module;
  Status st = Parser::ParseInto(&module, kMiniPlatform);
  ASSERT_TRUE(st.ok()) << st.message();
  st = Resolve(&module);
  ASSERT_TRUE(st.ok()) << st.message();

  const LanguageDecl* src = module.FindLanguage("Src");
  ASSERT_NE(src, nullptr);
  EXPECT_EQ(src->ops.size(), 1u);
  const LanguageDecl* tgt = module.FindLanguage("Tgt");
  ASSERT_NE(tgt, nullptr);
  ASSERT_NE(tgt->FindOp("Branch"), nullptr);
  EXPECT_TRUE(tgt->FindOp("Branch")->params[1].is_label);

  const CompilerDecl* comp = module.FindCompiler("C");
  ASSERT_NE(comp, nullptr);
  EXPECT_EQ(comp->source_language, src);
  EXPECT_EQ(comp->target_language, tgt);
  EXPECT_NE(comp->FindCallback(src->FindOp("DoIt")), nullptr);

  const InterpreterDecl* interp = module.FindInterpreter("I");
  ASSERT_NE(interp, nullptr);
  EXPECT_NE(interp->FindCallback(tgt->FindOp("Branch")), nullptr);

  const FunctionDecl* gen = module.FindFunction("genDoIt");
  ASSERT_NE(gen, nullptr);
  EXPECT_EQ(gen->fn_kind, FnKind::kGenerator);
  EXPECT_EQ(gen->emits_language, src);
  EXPECT_FALSE(gen->source_text.empty());

  const ExternFnDecl* make = module.FindExtern("Thing::make");
  ASSERT_NE(make, nullptr);
  EXPECT_EQ(make->contracts.size(), 1u);
  EXPECT_FALSE(make->contracts[0].is_requires);
}

TEST(Parser, RejectsUnknownType) {
  Module module;
  ASSERT_TRUE(Parser::ParseInto(&module, "fn f(x: Bogus) { return; }").ok());
  Status st = Resolve(&module);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("unknown type"), std::string::npos);
}

TEST(Parser, RejectsSyntaxError) {
  Module module;
  Status st = Parser::ParseInto(&module, "fn f( { }");
  EXPECT_FALSE(st.ok());
}

TEST(Resolver, RejectsRecursion) {
  struct Case {
    const char* source;
    const char* diagnostic;  // Names the call that closes the cycle.
  };
  const Case cases[] = {
      {"fn a(x: Int32) -> Int32 { return b(x); }\n"
       "fn b(x: Int32) -> Int32 { return a(x); }",
       "resolve error at line 2, col 34: recursive call involving a "},
      // Through a contract: calling the extern runs its clauses, which call
      // back into the function that called it.
      {"extern fn Loop::size(x: Int32) -> Int32 requires ok(x);\n"
       "fn ok(x: Int32) -> Bool { return Loop::size(x) >= 0; }",
       "resolve error at line 1, col 50: recursive call involving ok "},
  };
  for (const Case& c : cases) {
    Module module;
    ASSERT_TRUE(Parser::ParseInto(&module, c.source).ok()) << c.source;
    Status st = Resolve(&module);
    EXPECT_FALSE(st.ok()) << c.source;
    EXPECT_NE(st.message().find(c.diagnostic), std::string::npos) << st.message();
  }
}

TEST(Resolver, RejectsLabelStoredInVariable) {
  Module module;
  constexpr char kSrc[] = R"(
language T { op N(); }
compiler C : T -> T {
  op N() {
    label l;
    let x = l;
    bind l;
  }
}
)";
  ASSERT_TRUE(Parser::ParseInto(&module, kSrc).ok());
  EXPECT_FALSE(Resolve(&module).ok());
}

TEST(Resolver, RejectsGotoOutsideInterpreter) {
  Module module;
  constexpr char kSrc[] = R"(
language T { op N(label l); }
compiler C : T -> T {
  op N(label l) {
    goto l;
  }
}
)";
  ASSERT_TRUE(Parser::ParseInto(&module, kSrc).ok());
  Status st = Resolve(&module);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("goto"), std::string::npos);
}

TEST(Resolver, RequiresExactlyOneBind) {
  Module module;
  constexpr char kSrc[] = R"(
language T { op N(); }
compiler C : T -> T {
  op N() {
    label l;
  }
}
)";
  ASSERT_TRUE(Parser::ParseInto(&module, kSrc).ok());
  Status st = Resolve(&module);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("bound"), std::string::npos);
}

TEST(Resolver, TypeChecksOperators) {
  Module module;
  ASSERT_TRUE(
      Parser::ParseInto(&module, "fn f(x: Int32, b: Bool) -> Bool { return x && b; }").ok());
  EXPECT_FALSE(Resolve(&module).ok());
}

TEST(Resolver, RejectsDuplicateFunction) {
  Module module;
  ASSERT_TRUE(Parser::ParseInto(&module,
                                "fn helper(x: Int32) -> Int32 { return x; }\n"
                                "fn helper(x: Int32) -> Int32 { return x + 1; }\n"
                                "fn user(x: Int32) -> Int32 { return helper(x); }")
                  .ok());
  Status st = Resolve(&module);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("duplicate function 'helper'"), std::string::npos) << st.message();
}

TEST(Resolver, RejectsDuplicateExtern) {
  Module module;
  ASSERT_TRUE(Parser::ParseInto(&module,
                                "extern type E;\n"
                                "extern fn E::f(e: E) -> Int32;\n"
                                "extern fn E::f(e: E) -> Bool;")
                  .ok());
  Status st = Resolve(&module);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("duplicate extern 'E::f'"), std::string::npos) << st.message();
}

TEST(Resolver, RejectsDuplicateOpCallback) {
  constexpr char kLanguages[] = "language S { op DoIt(); }\nlanguage T { op Nop(); }\n";
  Module compiled;
  ASSERT_TRUE(Parser::ParseInto(&compiled, StrCat(kLanguages, R"(
compiler C : S -> T {
  op DoIt() { emit Nop(); }
  op DoIt() { }
}
)")).ok());
  Status st = Resolve(&compiled);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("compiler C: duplicate callback for op 'DoIt'"), std::string::npos)
      << st.message();

  Module interpreted;
  ASSERT_TRUE(Parser::ParseInto(&interpreted, StrCat(kLanguages, R"(
interpreter I : T {
  op Nop() { }
  op Nop() { }
}
)")).ok());
  st = Resolve(&interpreted);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("interpreter I: duplicate callback for op 'Nop'"),
            std::string::npos)
      << st.message();
}

// Checks resolver.h's post-conditions on one function's (or extern's)
// parameters and code, and collects what they reference on the way.
class PostconditionWalk {
 public:
  PostconditionWalk(std::string_view where, int num_slots)
      : where_(where), num_slots_(num_slots) {}

  int exprs() const { return exprs_; }

  void Params(std::span<const Param> params) {
    for (const Param& p : params) {
      Slot(p.slot, p.name);
      if (p.type->kind() == TypeKind::kEnum) {
        enums_.insert(p.type->enum_decl());
      }
    }
  }

  // The declaration's recorded references are exactly what the walk met,
  // each once.
  void ExpectRecorded(const References& refs) const {
    std::set<const void*> callees;
    for (const References::Call& call : refs.calls) {
      EXPECT_NE(call.fn == nullptr, call.ext == nullptr) << where_;
      callees.insert(call.fn != nullptr ? static_cast<const void*>(call.fn) : call.ext);
    }
    EXPECT_EQ(callees, callees_) << where_;
    EXPECT_EQ(callees.size(), refs.calls.size()) << where_ << ": a callee listed twice";
    EXPECT_EQ(std::set<const OpDecl*>(refs.emits.begin(), refs.emits.end()), emits_) << where_;
    EXPECT_EQ(emits_.size(), refs.emits.size()) << where_ << ": an op listed twice";
    EXPECT_EQ(std::set<const EnumDecl*>(refs.enums.begin(), refs.enums.end()), enums_)
        << where_;
    EXPECT_EQ(enums_.size(), refs.enums.size()) << where_ << ": an enum listed twice";
  }

  void Walk(const Expr& e) {
    ++exprs_;
    EXPECT_NE(e.type, nullptr) << where_ << ": " << PrintExpr(e);
    if (e.kind == ExprKind::kCall) {
      EXPECT_NE(e.callee_fn == nullptr, e.callee_ext == nullptr) << where_ << ": " << e.name;
      callees_.insert(e.callee_fn != nullptr ? static_cast<const void*>(e.callee_fn)
                                             : e.callee_ext);
    }
    if (e.kind == ExprKind::kEnumLit) {
      enums_.insert(e.enum_decl);
    }
    if (e.kind == ExprKind::kVar) {
      Slot(e.var_slot, e.name);
    }
    for (const Expr* a : e.args) {
      Walk(*a);
    }
  }

  void Walk(StmtList block) {
    for (const Stmt* stmt : block) {
      switch (stmt->kind) {
        case StmtKind::kLet:
        case StmtKind::kAssign:
        case StmtKind::kLabelDecl:
        case StmtKind::kFailureLabel:
        case StmtKind::kBind:
        case StmtKind::kGoto:
          Slot(stmt->var_slot, stmt->name);
          break;
        case StmtKind::kEmit:
          EXPECT_NE(stmt->emit_lang, nullptr) << where_ << ": emit " << stmt->emit_callee;
          EXPECT_NE(stmt->emit_op, nullptr) << where_ << ": emit " << stmt->emit_callee;
          emits_.insert(stmt->emit_op);
          break;
        case StmtKind::kExprStmt:
          if (stmt->emit_lang != nullptr) {
            // A rewritten `emit Helper(...)`: a call to an emitting helper.
            ASSERT_EQ(stmt->expr->kind, ExprKind::kCall) << where_;
            ASSERT_NE(stmt->expr->callee_fn, nullptr) << where_ << ": " << stmt->expr->name;
            EXPECT_EQ(stmt->expr->callee_fn->emits_language, stmt->emit_lang) << where_;
          }
          break;
        default:
          break;
      }
      if (stmt->expr != nullptr) {
        Walk(*stmt->expr);
      }
      for (const Expr* a : stmt->args) {
        Walk(*a);
      }
      Walk(stmt->then_block);
      Walk(stmt->else_block);
    }
  }

 private:
  void Slot(int slot, std::string_view name) {
    EXPECT_GE(slot, 0) << where_ << ": " << name;
    EXPECT_LT(slot, num_slots_) << where_ << ": " << name;
  }

  std::string where_;
  int num_slots_;
  int exprs_ = 0;
  std::set<const void*> callees_;
  std::set<const OpDecl*> emits_;
  std::set<const EnumDecl*> enums_;
};

TEST(Resolver, PlatformMeetsThePostconditions) {
  auto loaded = platform::Platform::Load();
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  const Module& module = loaded.value()->module();
  int exprs = 0;
  auto walk_function = [&exprs](const FunctionDecl& fn) {
    PostconditionWalk walk(fn.name, fn.num_slots);
    walk.Params(fn.params);
    walk.Walk(fn.body);
    walk.ExpectRecorded(fn.refs);
    exprs += walk.exprs();
  };
  for (const auto& fn : module.functions) {
    EXPECT_EQ(module.FindFunction(fn->name), fn.get()) << fn->name;
    walk_function(*fn);
  }
  for (const auto& ext : module.externs) {
    EXPECT_EQ(module.FindExtern(ext->name), ext.get()) << ext->name;
    PostconditionWalk walk(ext->name, ext->num_slots);
    walk.Params(ext->params);
    for (const ContractClause& clause : ext->contracts) {
      walk.Walk(*clause.expr);
    }
    walk.ExpectRecorded(ext->refs);
    exprs += walk.exprs();
  }
  for (const auto& lang : module.languages) {
    for (const auto& op : lang->ops) {
      std::set<const EnumDecl*> enums;
      for (const Param& p : op->params) {
        if (p.type->kind() == TypeKind::kEnum) {
          enums.insert(p.type->enum_decl());
        }
      }
      EXPECT_TRUE(op->refs.calls.empty() && op->refs.emits.empty()) << op->name;
      EXPECT_EQ(std::set<const EnumDecl*>(op->refs.enums.begin(), op->refs.enums.end()), enums)
          << lang->name << "::" << op->name;
      EXPECT_EQ(op->refs.enums.size(), enums.size()) << op->name;
    }
  }
  for (const auto& comp : module.compilers) {
    for (const auto& cb : comp->op_callbacks) {
      ASSERT_NE(cb->op, nullptr) << cb->name;
      EXPECT_EQ(comp->FindCallback(cb->op), cb.get()) << comp->name << "::" << cb->name;
      walk_function(*cb);
    }
  }
  for (const auto& interp : module.interpreters) {
    for (const auto& cb : interp->op_callbacks) {
      ASSERT_NE(cb->op, nullptr) << cb->name;
      EXPECT_EQ(interp->FindCallback(cb->op), cb.get()) << interp->name << "::" << cb->name;
      walk_function(*cb);
    }
  }
  EXPECT_GT(exprs, 1000) << "the walk missed most of the platform";
}

// The grammar's binary operators and their precedence (higher binds
// tighter), written out independently of the parser.
struct BinaryOpPrec {
  const char* text;
  int prec;
};
constexpr BinaryOpPrec kBinaryOps[] = {
    {"||", 1}, {"&&", 2}, {"|", 3},  {"^", 4},  {"&", 5},  {"==", 6},
    {"!=", 6}, {"<", 7},  {"<=", 7}, {">", 7},  {">=", 7}, {"<<", 8},
    {">>", 8}, {"+", 9},  {"-", 9},  {"*", 10}, {"/", 10}, {"%", 10},
};

// Parses `return <expr>;` and prints the expression back; the printer
// parenthesizes every binary expression, so the text shows the tree.
std::string ParseAndPrint(const std::string& expr) {
  Module module;
  Status st = Parser::ParseInto(&module, StrCat("fn f() { return ", expr, "; }"));
  EXPECT_TRUE(st.ok()) << expr << ": " << st.message();
  if (!st.ok()) {
    return "";
  }
  return PrintExpr(*module.functions[0]->body[0]->expr);
}

TEST(Parser, BinaryOperatorsFollowPrecedenceAndAssociateLeft) {
  for (const BinaryOpPrec& first : kBinaryOps) {
    for (const BinaryOpPrec& second : kBinaryOps) {
      std::string src = StrCat("a ", first.text, " b ", second.text, " c");
      std::string left = StrCat("((a ", first.text, " b) ", second.text, " c)");
      std::string right = StrCat("(a ", first.text, " (b ", second.text, " c))");
      EXPECT_EQ(ParseAndPrint(src), second.prec > first.prec ? right : left) << src;
    }
  }
  // Unary operators bind tighter than any binary one.
  EXPECT_EQ(ParseAndPrint("-a * b"), "(-a * b)");
  EXPECT_EQ(ParseAndPrint("!a && b"), "(!a && b)");
}

TEST(FrontendDeathTest, FingerprintingFreezesTheModule) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Module module;
  ASSERT_TRUE(Parser::ParseInto(&module, kMiniPlatform).ok());
  ASSERT_TRUE(Resolve(&module).ok());
  EXPECT_FALSE(module.frozen());
  ASSERT_TRUE(UnitFingerprint(module, "genDoIt").ok());
  EXPECT_TRUE(module.frozen());
  EXPECT_DEATH((void)Parser::ParseInto(&module, ""), "frozen");
  EXPECT_DEATH((void)Resolve(&module), "frozen");
}

TEST(Printer, RoundTripsThroughParser) {
  Module module;
  ASSERT_TRUE(Parser::ParseInto(&module, kMiniPlatform).ok());
  ASSERT_TRUE(Resolve(&module).ok());
  std::string printed = PrintModule(module);
  // Re-parse the printed output together with the enums/externs it needs.
  Module module2;
  std::string full = "enum Tag { A, B }\nenum AttachDecision { NoAction, Attach }\n"
                     "extern type Thing;\n"
                     "extern fn Thing::tagOf(t: Thing) -> Tag;\n"
                     "extern fn Thing::make(tag: Tag) -> Thing\n"
                     "  ensures Thing::tagOf(result) == tag;\n" +
                     printed;
  Status st = Parser::ParseInto(&module2, full);
  ASSERT_TRUE(st.ok()) << st.message() << "\n" << printed;
  st = Resolve(&module2);
  ASSERT_TRUE(st.ok()) << st.message() << "\n" << printed;
  // Printing again is a fixpoint.
  EXPECT_EQ(PrintModule(module2), printed);
}

}  // namespace
}  // namespace icarus::ast
