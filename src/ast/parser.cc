#include "src/ast/parser.h"

#include <memory>

#include "src/ast/lexer.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/support/check.h"
#include "src/support/str_util.h"

namespace icarus::ast {

namespace {

// A binary operator and its precedence: higher binds tighter, 0 means the
// token is not a binary operator. All 18 associate left; unary `!` and `-`
// bind tighter than any of them.
struct BinaryOperator {
  BinOp op = BinOp::kAdd;
  int prec = 0;
};

BinaryOperator BinaryOperatorOf(Tok tok) {
  switch (tok) {
    case Tok::kOrOr: return {BinOp::kLOr, 1};
    case Tok::kAndAnd: return {BinOp::kLAnd, 2};
    case Tok::kPipe: return {BinOp::kBitOr, 3};
    case Tok::kCaret: return {BinOp::kBitXor, 4};
    case Tok::kAmp: return {BinOp::kBitAnd, 5};
    case Tok::kEqEq: return {BinOp::kEq, 6};
    case Tok::kNe: return {BinOp::kNe, 6};
    case Tok::kLt: return {BinOp::kLt, 7};
    case Tok::kLe: return {BinOp::kLe, 7};
    case Tok::kGt: return {BinOp::kGt, 7};
    case Tok::kGe: return {BinOp::kGe, 7};
    case Tok::kShl: return {BinOp::kShl, 8};
    case Tok::kShr: return {BinOp::kShr, 8};
    case Tok::kPlus: return {BinOp::kAdd, 9};
    case Tok::kMinus: return {BinOp::kSub, 9};
    case Tok::kStar: return {BinOp::kMul, 10};
    case Tok::kSlash: return {BinOp::kDiv, 10};
    case Tok::kPercent: return {BinOp::kMod, 10};
    default: return {};
  }
}

class ParserImpl {
 public:
  ParserImpl(Module* module, std::string_view source)
      : module_(module), source_(source) {
    Lexer lexer(source);
    tokens_ = lexer.LexAll();
  }

  Status Run() {
    if (tokens_.back().kind == Tok::kError) {
      return Status::Error(tokens_.back().message);
    }
    while (!At(Tok::kEof)) {
      ICARUS_RETURN_IF_ERROR(TopLevel());
    }
    return Status::Ok();
  }

 private:
  // --- Token cursor -------------------------------------------------------

  const Token& Cur() const { return tokens_[idx_]; }
  const Token& Ahead(size_t n) const {
    size_t i = idx_ + n;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  bool At(Tok k) const { return Cur().kind == k; }
  const Token& Take() { return tokens_[idx_++]; }
  bool Eat(Tok k) {
    if (At(k)) {
      ++idx_;
      return true;
    }
    return false;
  }

  Status Err(const std::string& msg) {
    std::string found = Cur().kind == Tok::kIdent ? std::string(Cur().text) : TokName(Cur().kind);
    return Status::Error(StrFormat("parse error at line %d, col %d: %s (found '%s')", Cur().line,
                                   Cur().col, msg.c_str(), found.c_str()));
  }

  // Consumes a `k` token; `text` (optional) receives its spelling, a view
  // into the source.
  Status Expect(Tok k, std::string_view* text = nullptr) {
    if (!At(k)) {
      return Err(StrCat("expected '", TokName(k), "'"));
    }
    const Token& t = Take();
    if (text != nullptr) {
      *text = t.text;
    }
    return Status::Ok();
  }

  SrcLoc Loc() const { return SrcLoc{Cur().line, Cur().col}; }

  // --- Top-level declarations ---------------------------------------------

  Status TopLevel() {
    switch (Cur().kind) {
      case Tok::kKwEnum:
        return EnumDeclTop();
      case Tok::kKwExtern:
        return ExternDeclTop();
      case Tok::kKwLanguage:
        return LanguageDeclTop();
      case Tok::kKwCompiler:
        return CompilerDeclTop();
      case Tok::kKwInterpreter:
        return InterpreterDeclTop();
      case Tok::kKwFn:
      case Tok::kKwGenerator:
        return FunctionDeclTop();
      default:
        return Err("expected a top-level declaration");
    }
  }

  Status EnumDeclTop() {
    Take();  // enum
    std::string_view name;
    ICARUS_RETURN_IF_ERROR(Expect(Tok::kIdent, &name));
    ICARUS_RETURN_IF_ERROR(Expect(Tok::kLBrace));
    EnumDecl decl;
    decl.name = name;
    while (!At(Tok::kRBrace)) {
      std::string_view member;
      ICARUS_RETURN_IF_ERROR(Expect(Tok::kIdent, &member));
      decl.members.emplace_back(member);
      if (!Eat(Tok::kComma)) {
        break;
      }
    }
    ICARUS_RETURN_IF_ERROR(Expect(Tok::kRBrace));
    if (module_->types().DeclareEnum(std::move(decl)) == nullptr) {
      return Status::Error(StrCat("duplicate type name '", name, "'"));
    }
    return Status::Ok();
  }

  Status ExternDeclTop() {
    Take();  // extern
    if (Eat(Tok::kKwType)) {
      std::string_view name;
      ICARUS_RETURN_IF_ERROR(Expect(Tok::kIdent, &name));
      ICARUS_RETURN_IF_ERROR(Expect(Tok::kSemi));
      if (module_->types().DeclareOpaque(std::string(name)) == nullptr) {
        return Status::Error(StrCat("duplicate type name '", name, "'"));
      }
      return Status::Ok();
    }
    ICARUS_RETURN_IF_ERROR(Expect(Tok::kKwFn));
    auto decl = std::make_unique<ExternFnDecl>();
    decl->loc = Loc();
    ICARUS_RETURN_IF_ERROR(QualIdent(&decl->name));
    ICARUS_RETURN_IF_ERROR(ParamList(&decl->params));
    if (Eat(Tok::kArrow)) {
      std::string_view ret;
      ICARUS_RETURN_IF_ERROR(Expect(Tok::kIdent, &ret));
      decl->return_type_name = ret;
    }
    while (At(Tok::kKwRequires) || At(Tok::kKwEnsures)) {
      ContractClause clause;
      clause.is_requires = Take().kind == Tok::kKwRequires;
      ICARUS_RETURN_IF_ERROR(ParseExpr(&clause.expr));
      decl->contracts.push_back(std::move(clause));
    }
    ICARUS_RETURN_IF_ERROR(Expect(Tok::kSemi));
    module_->externs.push_back(std::move(decl));
    return Status::Ok();
  }

  Status LanguageDeclTop() {
    Take();  // language
    std::string_view name;
    ICARUS_RETURN_IF_ERROR(Expect(Tok::kIdent, &name));
    ICARUS_RETURN_IF_ERROR(Expect(Tok::kLBrace));
    auto lang = std::make_unique<LanguageDecl>();
    lang->name = name;
    while (!At(Tok::kRBrace)) {
      ICARUS_RETURN_IF_ERROR(Expect(Tok::kKwOp));
      auto op = std::make_unique<OpDecl>();
      op->loc = Loc();
      std::string_view op_name;
      ICARUS_RETURN_IF_ERROR(Expect(Tok::kIdent, &op_name));
      op->name = op_name;
      ICARUS_RETURN_IF_ERROR(ParamList(&op->params));
      ICARUS_RETURN_IF_ERROR(Expect(Tok::kSemi));
      op->language = lang.get();
      op->index = static_cast<int>(lang->ops.size());
      if (lang->by_name.count(op->name) != 0) {
        return Status::Error(StrCat("duplicate op '", op->name, "' in language ", lang->name));
      }
      lang->by_name[op->name] = op.get();
      lang->ops.push_back(std::move(op));
    }
    ICARUS_RETURN_IF_ERROR(Expect(Tok::kRBrace));
    module_->languages.push_back(std::move(lang));
    return Status::Ok();
  }

  Status CompilerDeclTop() {
    Take();  // compiler
    auto decl = std::make_unique<CompilerDecl>();
    decl->loc = Loc();
    std::string_view name;
    ICARUS_RETURN_IF_ERROR(Expect(Tok::kIdent, &name));
    decl->name = name;
    ICARUS_RETURN_IF_ERROR(Expect(Tok::kColon));
    std::string_view src;
    ICARUS_RETURN_IF_ERROR(Expect(Tok::kIdent, &src));
    decl->source_language_name = src;
    ICARUS_RETURN_IF_ERROR(Expect(Tok::kArrow));
    std::string_view tgt;
    ICARUS_RETURN_IF_ERROR(Expect(Tok::kIdent, &tgt));
    decl->target_language_name = tgt;
    ICARUS_RETURN_IF_ERROR(Expect(Tok::kLBrace));
    while (!At(Tok::kRBrace)) {
      std::unique_ptr<FunctionDecl> cb;
      ICARUS_RETURN_IF_ERROR(OpCallback(FnKind::kCompilerOp, &cb));
      decl->op_callbacks.push_back(std::move(cb));
    }
    ICARUS_RETURN_IF_ERROR(Expect(Tok::kRBrace));
    module_->compilers.push_back(std::move(decl));
    return Status::Ok();
  }

  Status InterpreterDeclTop() {
    Take();  // interpreter
    auto decl = std::make_unique<InterpreterDecl>();
    decl->loc = Loc();
    std::string_view name;
    ICARUS_RETURN_IF_ERROR(Expect(Tok::kIdent, &name));
    decl->name = name;
    ICARUS_RETURN_IF_ERROR(Expect(Tok::kColon));
    std::string_view lang;
    ICARUS_RETURN_IF_ERROR(Expect(Tok::kIdent, &lang));
    decl->language_name = lang;
    ICARUS_RETURN_IF_ERROR(Expect(Tok::kLBrace));
    while (!At(Tok::kRBrace)) {
      std::unique_ptr<FunctionDecl> cb;
      ICARUS_RETURN_IF_ERROR(OpCallback(FnKind::kInterpOp, &cb));
      decl->op_callbacks.push_back(std::move(cb));
    }
    ICARUS_RETURN_IF_ERROR(Expect(Tok::kRBrace));
    module_->interpreters.push_back(std::move(decl));
    return Status::Ok();
  }

  // `op Name(params) { body }` inside a compiler/interpreter block.
  Status OpCallback(FnKind kind, std::unique_ptr<FunctionDecl>* out) {
    size_t start_offset = Cur().offset;
    ICARUS_RETURN_IF_ERROR(Expect(Tok::kKwOp));
    auto fn = std::make_unique<FunctionDecl>();
    fn->fn_kind = kind;
    fn->loc = Loc();
    std::string_view name;
    ICARUS_RETURN_IF_ERROR(Expect(Tok::kIdent, &name));
    fn->name = name;
    ICARUS_RETURN_IF_ERROR(ParamList(&fn->params));
    size_t end_offset = 0;
    ICARUS_RETURN_IF_ERROR(Block(&fn->body, &end_offset));
    fn->source_text = std::string(source_.substr(start_offset, end_offset - start_offset));
    *out = std::move(fn);
    return Status::Ok();
  }

  Status FunctionDeclTop() {
    size_t start_offset = Cur().offset;
    bool is_generator = Cur().kind == Tok::kKwGenerator;
    Take();  // fn / generator
    auto fn = std::make_unique<FunctionDecl>();
    fn->fn_kind = is_generator ? FnKind::kGenerator : FnKind::kHelper;
    fn->loc = Loc();
    ICARUS_RETURN_IF_ERROR(QualIdent(&fn->name));
    ICARUS_RETURN_IF_ERROR(ParamList(&fn->params));
    if (Eat(Tok::kArrow)) {
      std::string_view ret;
      ICARUS_RETURN_IF_ERROR(Expect(Tok::kIdent, &ret));
      fn->return_type_name = ret;
    }
    if (Eat(Tok::kKwEmits)) {
      std::string_view lang;
      ICARUS_RETURN_IF_ERROR(Expect(Tok::kIdent, &lang));
      fn->emits_language_name = lang;
    }
    if (is_generator && fn->return_type_name.empty()) {
      fn->return_type_name = "AttachDecision";
    }
    size_t end_offset = 0;
    ICARUS_RETURN_IF_ERROR(Block(&fn->body, &end_offset));
    fn->source_text = std::string(source_.substr(start_offset, end_offset - start_offset));
    module_->functions.push_back(std::move(fn));
    return Status::Ok();
  }

  // --- Shared pieces -------------------------------------------------------

  Status QualIdent(std::string* out) {
    std::string_view first;
    ICARUS_RETURN_IF_ERROR(Expect(Tok::kIdent, &first));
    *out = first;
    while (At(Tok::kColonColon)) {
      Take();
      std::string_view next;
      ICARUS_RETURN_IF_ERROR(Expect(Tok::kIdent, &next));
      out->append("::");
      out->append(next);
    }
    return Status::Ok();
  }

  Status ParamList(std::vector<Param>* out) {
    ICARUS_RETURN_IF_ERROR(Expect(Tok::kLParen));
    while (!At(Tok::kRParen)) {
      Param p;
      if (Eat(Tok::kKwLabel)) {
        p.is_label = true;
        std::string_view name;
        ICARUS_RETURN_IF_ERROR(Expect(Tok::kIdent, &name));
        p.name = name;
        // Optional `: Lang` annotation, accepted and ignored (the target
        // language of a label is implied by its context).
        if (Eat(Tok::kColon)) {
          ICARUS_RETURN_IF_ERROR(Expect(Tok::kIdent));
        }
      } else {
        std::string_view name;
        ICARUS_RETURN_IF_ERROR(Expect(Tok::kIdent, &name));
        p.name = name;
        ICARUS_RETURN_IF_ERROR(Expect(Tok::kColon));
        std::string_view type;
        ICARUS_RETURN_IF_ERROR(Expect(Tok::kIdent, &type));
        p.type_name = type;
      }
      out->push_back(std::move(p));
      if (!Eat(Tok::kComma)) {
        break;
      }
    }
    return Expect(Tok::kRParen);
  }

  // Parses `{ stmt* }`. `end_offset` (optional) receives the offset just
  // past the closing brace.
  Status Block(std::vector<StmtPtr>* out, size_t* end_offset = nullptr) {
    ICARUS_RETURN_IF_ERROR(Expect(Tok::kLBrace));
    while (!At(Tok::kRBrace)) {
      StmtPtr stmt;
      ICARUS_RETURN_IF_ERROR(Statement(&stmt));
      out->push_back(std::move(stmt));
    }
    if (end_offset != nullptr) {
      *end_offset = Cur().offset + 1;  // '}' is one byte.
    }
    return Expect(Tok::kRBrace);
  }

  // --- Statements ----------------------------------------------------------

  Status Statement(StmtPtr* out) {
    if (++depth_ > kMaxNestingDepth) {
      --depth_;
      return Err("statement nesting too deep");
    }
    Status st = StatementImpl(out);
    --depth_;
    return st;
  }

  Status StatementImpl(StmtPtr* out) {
    auto stmt = std::make_unique<Stmt>();
    stmt->loc = Loc();
    switch (Cur().kind) {
      case Tok::kKwLet: {
        Take();
        stmt->kind = StmtKind::kLet;
        std::string_view name;
        ICARUS_RETURN_IF_ERROR(Expect(Tok::kIdent, &name));
        stmt->name = name;
        if (Eat(Tok::kColon)) {
          std::string_view type;
          ICARUS_RETURN_IF_ERROR(Expect(Tok::kIdent, &type));
          stmt->type_name = type;
        }
        ICARUS_RETURN_IF_ERROR(Expect(Tok::kAssign));
        ICARUS_RETURN_IF_ERROR(ParseExpr(&stmt->expr));
        ICARUS_RETURN_IF_ERROR(Expect(Tok::kSemi));
        break;
      }
      case Tok::kKwIf: {
        Take();
        stmt->kind = StmtKind::kIf;
        ICARUS_RETURN_IF_ERROR(ParseExpr(&stmt->expr));
        ICARUS_RETURN_IF_ERROR(Block(&stmt->then_block));
        if (Eat(Tok::kKwElse)) {
          if (At(Tok::kKwIf)) {
            StmtPtr nested;
            ICARUS_RETURN_IF_ERROR(Statement(&nested));
            stmt->else_block.push_back(std::move(nested));
          } else {
            ICARUS_RETURN_IF_ERROR(Block(&stmt->else_block));
          }
        }
        break;
      }
      case Tok::kKwAssert:
      case Tok::kKwAssume: {
        stmt->kind = Take().kind == Tok::kKwAssert ? StmtKind::kAssert : StmtKind::kAssume;
        ICARUS_RETURN_IF_ERROR(ParseExpr(&stmt->expr));
        ICARUS_RETURN_IF_ERROR(Expect(Tok::kSemi));
        break;
      }
      case Tok::kKwEmit: {
        Take();
        stmt->kind = StmtKind::kEmit;
        ICARUS_RETURN_IF_ERROR(QualIdent(&stmt->emit_callee));
        ICARUS_RETURN_IF_ERROR(Expect(Tok::kLParen));
        while (!At(Tok::kRParen)) {
          ExprPtr arg;
          ICARUS_RETURN_IF_ERROR(ParseExpr(&arg));
          stmt->args.push_back(std::move(arg));
          if (!Eat(Tok::kComma)) {
            break;
          }
        }
        ICARUS_RETURN_IF_ERROR(Expect(Tok::kRParen));
        ICARUS_RETURN_IF_ERROR(Expect(Tok::kSemi));
        break;
      }
      case Tok::kKwLabel: {
        Take();
        stmt->kind = StmtKind::kLabelDecl;
        std::string_view name;
        ICARUS_RETURN_IF_ERROR(Expect(Tok::kIdent, &name));
        stmt->name = name;
        if (Eat(Tok::kColon)) {
          ICARUS_RETURN_IF_ERROR(Expect(Tok::kIdent));
        }
        ICARUS_RETURN_IF_ERROR(Expect(Tok::kSemi));
        break;
      }
      case Tok::kKwBind:
      case Tok::kKwGoto:
      case Tok::kKwFailure: {
        Tok k = Take().kind;
        stmt->kind = k == Tok::kKwBind    ? StmtKind::kBind
                     : k == Tok::kKwGoto  ? StmtKind::kGoto
                                          : StmtKind::kFailureLabel;
        std::string_view name;
        ICARUS_RETURN_IF_ERROR(Expect(Tok::kIdent, &name));
        stmt->name = name;
        ICARUS_RETURN_IF_ERROR(Expect(Tok::kSemi));
        break;
      }
      case Tok::kKwReturn: {
        Take();
        stmt->kind = StmtKind::kReturn;
        if (!At(Tok::kSemi)) {
          ICARUS_RETURN_IF_ERROR(ParseExpr(&stmt->expr));
        }
        ICARUS_RETURN_IF_ERROR(Expect(Tok::kSemi));
        break;
      }
      default: {
        // Either `x = expr;` or an expression statement.
        if (At(Tok::kIdent) && Ahead(1).kind == Tok::kAssign) {
          stmt->kind = StmtKind::kAssign;
          stmt->name = Take().text;
          Take();  // '='
          ICARUS_RETURN_IF_ERROR(ParseExpr(&stmt->expr));
          ICARUS_RETURN_IF_ERROR(Expect(Tok::kSemi));
        } else {
          stmt->kind = StmtKind::kExprStmt;
          ICARUS_RETURN_IF_ERROR(ParseExpr(&stmt->expr));
          ICARUS_RETURN_IF_ERROR(Expect(Tok::kSemi));
        }
        break;
      }
    }
    *out = std::move(stmt);
    return Status::Ok();
  }

  // --- Expressions ---------------------------------------------------------

  // Recursion budget shared by nested expressions and statements: deeply
  // nested malformed input must produce a diagnostic, not a stack overflow.
  static constexpr int kMaxNestingDepth = 200;

  Status ParseExpr(ExprPtr* out) {
    if (++depth_ > kMaxNestingDepth) {
      --depth_;
      return Err("expression nesting too deep");
    }
    Status st = BinaryExpr(1, out);
    --depth_;
    return st;
  }

  // Precedence climbing: a unary operand, then every binary operator that
  // binds at least as tightly as `min_prec`. An operator's right operand
  // takes only tighter operators, so equal precedences associate left.
  Status BinaryExpr(int min_prec, ExprPtr* out) {
    ICARUS_RETURN_IF_ERROR(UnaryExpr(out));
    while (true) {
      BinaryOperator bin = BinaryOperatorOf(Cur().kind);
      if (bin.prec == 0 || bin.prec < min_prec) {
        return Status::Ok();
      }
      SrcLoc loc = Loc();
      Take();
      ExprPtr rhs;
      ICARUS_RETURN_IF_ERROR(BinaryExpr(bin.prec + 1, &rhs));
      auto expr = std::make_unique<Expr>();
      expr->kind = ExprKind::kBinary;
      expr->loc = loc;
      expr->bin_op = bin.op;
      expr->args.push_back(std::move(*out));
      expr->args.push_back(std::move(rhs));
      *out = std::move(expr);
    }
  }

  Status UnaryExpr(ExprPtr* out) {
    if (At(Tok::kBang) || At(Tok::kMinus)) {
      auto expr = std::make_unique<Expr>();
      expr->kind = ExprKind::kUnary;
      expr->loc = Loc();
      expr->un_op = Take().kind == Tok::kBang ? UnOp::kNot : UnOp::kNeg;
      ExprPtr operand;
      ICARUS_RETURN_IF_ERROR(UnaryExpr(&operand));
      expr->args.push_back(std::move(operand));
      *out = std::move(expr);
      return Status::Ok();
    }
    return PrimaryExpr(out);
  }

  Status PrimaryExpr(ExprPtr* out) {
    auto expr = std::make_unique<Expr>();
    expr->loc = Loc();
    switch (Cur().kind) {
      case Tok::kIntLit:
        expr->kind = ExprKind::kIntLit;
        expr->int_val = Take().int_val;
        break;
      case Tok::kKwTrue:
      case Tok::kKwFalse:
        expr->kind = ExprKind::kBoolLit;
        expr->bool_val = Take().kind == Tok::kKwTrue;
        break;
      case Tok::kLParen: {
        Take();
        ExprPtr inner;
        ICARUS_RETURN_IF_ERROR(ParseExpr(&inner));
        ICARUS_RETURN_IF_ERROR(Expect(Tok::kRParen));
        *out = std::move(inner);
        return Status::Ok();
      }
      case Tok::kIdent: {
        std::string name;
        ICARUS_RETURN_IF_ERROR(QualIdent(&name));
        if (At(Tok::kLParen)) {
          expr->kind = ExprKind::kCall;
          expr->name = std::move(name);
          Take();  // '('
          while (!At(Tok::kRParen)) {
            ExprPtr arg;
            ICARUS_RETURN_IF_ERROR(ParseExpr(&arg));
            expr->args.push_back(std::move(arg));
            if (!Eat(Tok::kComma)) {
              break;
            }
          }
          ICARUS_RETURN_IF_ERROR(Expect(Tok::kRParen));
        } else if (Contains(name, "::")) {
          // Qualified non-call: an enum literal like Condition::Equal.
          expr->kind = ExprKind::kEnumLit;
          expr->name = std::move(name);
        } else {
          expr->kind = ExprKind::kVar;
          expr->name = std::move(name);
        }
        break;
      }
      case Tok::kStrLit:
        return Err("string literals are not part of the Icarus DSL");
      default:
        return Err("expected an expression");
    }
    *out = std::move(expr);
    return Status::Ok();
  }

  Module* module_;
  std::string_view source_;
  std::vector<Token> tokens_;
  size_t idx_ = 0;
  int depth_ = 0;
};

}  // namespace

Status Parser::ParseInto(Module* module, std::string_view source) {
  ICARUS_CHECK(!module->frozen());
  obs::ScopedSpan span("frontend.parse");
  ParserImpl impl(module, source);
  Status status = impl.Run();
  if (obs::Enabled()) {
    static obs::Counter* parses = obs::Registry::Global().GetCounter(
        "icarus_frontend_parses_total", "Modules run through Parser::ParseInto");
    parses->Add(1);
    if (!status.ok()) {
      static obs::Counter* errors = obs::Registry::Global().GetCounter(
          "icarus_frontend_parse_errors_total", "Parses that returned an error status");
      errors->Add(1);
    }
  }
  return status;
}

}  // namespace icarus::ast
