#include "src/ast/parser.h"

#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "src/ast/lexer.h"
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

// A stack of list elements: a list under construction pushes its elements
// above a mark, and Pop moves them into the arena at their exact size. Lists
// nest (an argument's own arguments are pushed and popped before the
// argument is), so one stack serves every list of its element type.
template <typename T>
class ListStack {
 public:
  size_t Mark() const { return items_.size(); }
  void Push(const T& item) { items_.push_back(item); }
  std::span<T> Pop(size_t mark, Arena* arena) {
    std::span<T> list = arena->Copy(std::span<const T>(items_).subspan(mark));
    items_.resize(mark);
    return list;
  }

 private:
  std::vector<T> items_;
};

class ParserImpl {
 public:
  // `source` is the module's own copy, which every kept name views.
  ParserImpl(Module* module, std::string_view source)
      : module_(module), arena_(&module->arena()), source_(source), lexer_(source) {
    tokens_ = lexer_.LexAll();
  }

  Status Run() {
    if (tokens_.back().kind == Tok::kError) {
      return Status::Error(lexer_.error());
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
  std::string_view Text(const Token& t) const { return TokenText(source_, t); }

  Status Err(const std::string& msg) {
    std::string_view found = Cur().kind == Tok::kIdent ? Text(Cur()) : TokName(Cur().kind);
    return Status::Error(StrCat("parse error at line ", Cur().line, ", col ", Cur().col, ": ",
                                msg, " (found '", found, "')"));
  }

  // An error about the declaration named by `name`, at its position.
  static Status ErrAt(const Token& name, const std::string& msg) {
    return Status::Error(StrCat("parse error at line ", name.line, ", col ", name.col, ": ", msg));
  }

  // Consumes a `k` token; `text` (optional) receives its spelling, a view
  // into the source.
  Status Expect(Tok k, std::string_view* text = nullptr) {
    if (!At(k)) {
      return Err(StrCat("expected '", TokName(k), "'"));
    }
    const Token& t = Take();
    if (text != nullptr) {
      *text = Text(t);
    }
    return Status::Ok();
  }

  SrcLoc Loc() const { return SrcLoc{Cur().line, Cur().col}; }

  ExprList Exprs(std::initializer_list<Expr*> items) {
    return arena_->Copy(std::span<Expr* const>(items.begin(), items.size()));
  }

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
    const Token& name_tok = Cur();
    EnumDecl decl;
    ICARUS_RETURN_IF_ERROR(Expect(Tok::kIdent, &decl.name));
    ICARUS_RETURN_IF_ERROR(Expect(Tok::kLBrace));
    const size_t mark = members_.Mark();
    while (!At(Tok::kRBrace)) {
      std::string_view member;
      ICARUS_RETURN_IF_ERROR(Expect(Tok::kIdent, &member));
      members_.Push(member);
      if (!Eat(Tok::kComma)) {
        break;
      }
    }
    ICARUS_RETURN_IF_ERROR(Expect(Tok::kRBrace));
    decl.members = members_.Pop(mark, arena_);
    if (module_->types().DeclareEnum(decl) == nullptr) {
      return ErrAt(name_tok, StrCat("duplicate type name '", decl.name, "'"));
    }
    return Status::Ok();
  }

  Status ExternDeclTop() {
    Take();  // extern
    if (Eat(Tok::kKwType)) {
      const Token& name_tok = Cur();
      std::string_view name;
      ICARUS_RETURN_IF_ERROR(Expect(Tok::kIdent, &name));
      ICARUS_RETURN_IF_ERROR(Expect(Tok::kSemi));
      if (module_->types().DeclareOpaque(name) == nullptr) {
        return ErrAt(name_tok, StrCat("duplicate type name '", name, "'"));
      }
      return Status::Ok();
    }
    ICARUS_RETURN_IF_ERROR(Expect(Tok::kKwFn));
    auto decl = std::make_unique<ExternFnDecl>();
    decl->loc = Loc();
    ICARUS_RETURN_IF_ERROR(QualIdent(&decl->name));
    ICARUS_RETURN_IF_ERROR(ParamList(&decl->params));
    if (Eat(Tok::kArrow)) {
      ICARUS_RETURN_IF_ERROR(Expect(Tok::kIdent, &decl->return_type_name));
    }
    const size_t mark = clauses_.Mark();
    while (At(Tok::kKwRequires) || At(Tok::kKwEnsures)) {
      ContractClause clause;
      clause.is_requires = Take().kind == Tok::kKwRequires;
      ICARUS_RETURN_IF_ERROR(ParseExpr(&clause.expr));
      clauses_.Push(clause);
    }
    decl->contracts = clauses_.Pop(mark, arena_);
    ICARUS_RETURN_IF_ERROR(Expect(Tok::kSemi));
    module_->externs.push_back(std::move(decl));
    return Status::Ok();
  }

  Status LanguageDeclTop() {
    Take();  // language
    auto lang = std::make_unique<LanguageDecl>();
    ICARUS_RETURN_IF_ERROR(Expect(Tok::kIdent, &lang->name));
    ICARUS_RETURN_IF_ERROR(Expect(Tok::kLBrace));
    while (!At(Tok::kRBrace)) {
      ICARUS_RETURN_IF_ERROR(Expect(Tok::kKwOp));
      auto op = std::make_unique<OpDecl>();
      op->loc = Loc();
      const Token& name_tok = Cur();
      ICARUS_RETURN_IF_ERROR(Expect(Tok::kIdent, &op->name));
      ICARUS_RETURN_IF_ERROR(ParamList(&op->params));
      ICARUS_RETURN_IF_ERROR(Expect(Tok::kSemi));
      op->language = lang.get();
      op->index = static_cast<int>(lang->ops.size());
      if (!lang->by_name.Insert(op->name, op.get())) {
        return ErrAt(name_tok,
                     StrCat("duplicate op '", op->name, "' in language ", lang->name));
      }
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
    ICARUS_RETURN_IF_ERROR(Expect(Tok::kIdent, &decl->name));
    ICARUS_RETURN_IF_ERROR(Expect(Tok::kColon));
    ICARUS_RETURN_IF_ERROR(Expect(Tok::kIdent, &decl->source_language_name));
    ICARUS_RETURN_IF_ERROR(Expect(Tok::kArrow));
    ICARUS_RETURN_IF_ERROR(Expect(Tok::kIdent, &decl->target_language_name));
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
    ICARUS_RETURN_IF_ERROR(Expect(Tok::kIdent, &decl->name));
    ICARUS_RETURN_IF_ERROR(Expect(Tok::kColon));
    ICARUS_RETURN_IF_ERROR(Expect(Tok::kIdent, &decl->language_name));
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
    ICARUS_RETURN_IF_ERROR(Expect(Tok::kIdent, &fn->name));
    ICARUS_RETURN_IF_ERROR(ParamList(&fn->params));
    size_t end_offset = 0;
    ICARUS_RETURN_IF_ERROR(Block(&fn->body, &end_offset));
    fn->source_text = source_.substr(start_offset, end_offset - start_offset);
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
      ICARUS_RETURN_IF_ERROR(Expect(Tok::kIdent, &fn->return_type_name));
    }
    if (Eat(Tok::kKwEmits)) {
      ICARUS_RETURN_IF_ERROR(Expect(Tok::kIdent, &fn->emits_language_name));
    }
    if (is_generator && fn->return_type_name.empty()) {
      fn->return_type_name = "AttachDecision";
    }
    size_t end_offset = 0;
    ICARUS_RETURN_IF_ERROR(Block(&fn->body, &end_offset));
    fn->source_text = source_.substr(start_offset, end_offset - start_offset);
    module_->functions.push_back(std::move(fn));
    return Status::Ok();
  }

  // --- Shared pieces -------------------------------------------------------

  // `A::B::c`: a view of the source when written without spaces around the
  // `::`s, as it nearly always is; otherwise the joined spelling, copied
  // into the arena.
  Status QualIdent(std::string_view* out) {
    const size_t first = idx_;
    ICARUS_RETURN_IF_ERROR(Expect(Tok::kIdent));
    size_t joined = Text(tokens_[first]).size();
    while (At(Tok::kColonColon)) {
      Take();
      ICARUS_RETURN_IF_ERROR(Expect(Tok::kIdent));
      joined += 2 + Text(tokens_[idx_ - 1]).size();
    }
    const Token& last = tokens_[idx_ - 1];
    const size_t begin = tokens_[first].offset;
    if (last.offset + last.length - begin == joined) {
      *out = source_.substr(begin, joined);
      return Status::Ok();
    }
    name_.clear();
    for (size_t i = first; i < idx_; ++i) {
      name_.append(tokens_[i].kind == Tok::kColonColon ? "::" : Text(tokens_[i]));
    }
    *out = arena_->Copy(name_);
    return Status::Ok();
  }

  Status ParamList(std::span<Param>* out) {
    ICARUS_RETURN_IF_ERROR(Expect(Tok::kLParen));
    const size_t mark = params_.Mark();
    while (!At(Tok::kRParen)) {
      Param p;
      if (Eat(Tok::kKwLabel)) {
        p.is_label = true;
        ICARUS_RETURN_IF_ERROR(Expect(Tok::kIdent, &p.name));
        // Optional `: Lang` annotation, accepted and ignored (the target
        // language of a label is implied by its context).
        if (Eat(Tok::kColon)) {
          ICARUS_RETURN_IF_ERROR(Expect(Tok::kIdent));
        }
      } else {
        ICARUS_RETURN_IF_ERROR(Expect(Tok::kIdent, &p.name));
        ICARUS_RETURN_IF_ERROR(Expect(Tok::kColon));
        ICARUS_RETURN_IF_ERROR(Expect(Tok::kIdent, &p.type_name));
      }
      params_.Push(p);
      if (!Eat(Tok::kComma)) {
        break;
      }
    }
    *out = params_.Pop(mark, arena_);
    return Expect(Tok::kRParen);
  }

  // Parses `{ stmt* }`. `end_offset` (optional) receives the offset just
  // past the closing brace.
  Status Block(StmtList* out, size_t* end_offset = nullptr) {
    ICARUS_RETURN_IF_ERROR(Expect(Tok::kLBrace));
    const size_t mark = stmts_.Mark();
    while (!At(Tok::kRBrace)) {
      Stmt* stmt = nullptr;
      ICARUS_RETURN_IF_ERROR(Statement(&stmt));
      stmts_.Push(stmt);
    }
    *out = stmts_.Pop(mark, arena_);
    if (end_offset != nullptr) {
      *end_offset = Cur().offset + 1;  // '}' is one byte.
    }
    return Expect(Tok::kRBrace);
  }

  // Parses `(expr, ...)` after a callee.
  Status Arguments(ExprList* out) {
    ICARUS_RETURN_IF_ERROR(Expect(Tok::kLParen));
    const size_t mark = exprs_.Mark();
    while (!At(Tok::kRParen)) {
      Expr* arg = nullptr;
      ICARUS_RETURN_IF_ERROR(ParseExpr(&arg));
      exprs_.Push(arg);
      if (!Eat(Tok::kComma)) {
        break;
      }
    }
    *out = exprs_.Pop(mark, arena_);
    return Expect(Tok::kRParen);
  }

  // --- Statements ----------------------------------------------------------

  Status Statement(Stmt** out) {
    if (++depth_ > kMaxNestingDepth) {
      --depth_;
      return Err("statement nesting too deep");
    }
    Status st = StatementImpl(out);
    --depth_;
    return st;
  }

  Status StatementImpl(Stmt** out) {
    Stmt* stmt = arena_->New<Stmt>();
    stmt->loc = Loc();
    switch (Cur().kind) {
      case Tok::kKwLet: {
        Take();
        stmt->kind = StmtKind::kLet;
        ICARUS_RETURN_IF_ERROR(Expect(Tok::kIdent, &stmt->name));
        if (Eat(Tok::kColon)) {
          ICARUS_RETURN_IF_ERROR(Expect(Tok::kIdent, &stmt->type_name));
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
            Stmt* nested = nullptr;
            ICARUS_RETURN_IF_ERROR(Statement(&nested));
            stmt->else_block = arena_->Copy(std::span<Stmt* const>(&nested, 1));
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
        ICARUS_RETURN_IF_ERROR(Arguments(&stmt->args));
        ICARUS_RETURN_IF_ERROR(Expect(Tok::kSemi));
        break;
      }
      case Tok::kKwLabel: {
        Take();
        stmt->kind = StmtKind::kLabelDecl;
        ICARUS_RETURN_IF_ERROR(Expect(Tok::kIdent, &stmt->name));
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
        ICARUS_RETURN_IF_ERROR(Expect(Tok::kIdent, &stmt->name));
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
          stmt->name = Text(Take());
          Take();  // '='
        } else {
          stmt->kind = StmtKind::kExprStmt;
        }
        ICARUS_RETURN_IF_ERROR(ParseExpr(&stmt->expr));
        ICARUS_RETURN_IF_ERROR(Expect(Tok::kSemi));
        break;
      }
    }
    *out = stmt;
    return Status::Ok();
  }

  // --- Expressions ---------------------------------------------------------

  // Recursion budget shared by nested expressions and statements: deeply
  // nested malformed input must produce a diagnostic, not a stack overflow.
  static constexpr int kMaxNestingDepth = 200;

  Status ParseExpr(Expr** out) {
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
  Status BinaryExpr(int min_prec, Expr** out) {
    ICARUS_RETURN_IF_ERROR(UnaryExpr(out));
    while (true) {
      BinaryOperator bin = BinaryOperatorOf(Cur().kind);
      if (bin.prec == 0 || bin.prec < min_prec) {
        return Status::Ok();
      }
      SrcLoc loc = Loc();
      Take();
      Expr* rhs = nullptr;
      ICARUS_RETURN_IF_ERROR(BinaryExpr(bin.prec + 1, &rhs));
      Expr* expr = arena_->New<Expr>();
      expr->kind = ExprKind::kBinary;
      expr->loc = loc;
      expr->bin_op = bin.op;
      expr->args = Exprs({*out, rhs});
      *out = expr;
    }
  }

  Status UnaryExpr(Expr** out) {
    if (At(Tok::kBang) || At(Tok::kMinus)) {
      Expr* expr = arena_->New<Expr>();
      expr->kind = ExprKind::kUnary;
      expr->loc = Loc();
      expr->un_op = Take().kind == Tok::kBang ? UnOp::kNot : UnOp::kNeg;
      Expr* operand = nullptr;
      ICARUS_RETURN_IF_ERROR(UnaryExpr(&operand));
      expr->args = Exprs({operand});
      *out = expr;
      return Status::Ok();
    }
    return PrimaryExpr(out);
  }

  Status PrimaryExpr(Expr** out) {
    SrcLoc loc = Loc();
    Expr* expr = nullptr;
    switch (Cur().kind) {
      case Tok::kIntLit: {
        expr = arena_->New<Expr>();
        expr->kind = ExprKind::kIntLit;
        const bool read = ReadIntLiteral(Text(Take()), &expr->int_val);
        ICARUS_CHECK(read);  // The lexer lets only readable literals through.
        break;
      }
      case Tok::kKwTrue:
      case Tok::kKwFalse:
        expr = arena_->New<Expr>();
        expr->kind = ExprKind::kBoolLit;
        expr->bool_val = Take().kind == Tok::kKwTrue;
        break;
      case Tok::kLParen: {
        Take();
        ICARUS_RETURN_IF_ERROR(ParseExpr(out));
        return Expect(Tok::kRParen);
      }
      case Tok::kIdent: {
        expr = arena_->New<Expr>();
        ICARUS_RETURN_IF_ERROR(QualIdent(&expr->name));
        if (At(Tok::kLParen)) {
          expr->kind = ExprKind::kCall;
          ICARUS_RETURN_IF_ERROR(Arguments(&expr->args));
        } else if (Contains(expr->name, "::")) {
          // Qualified non-call: an enum literal like Condition::Equal.
          expr->kind = ExprKind::kEnumLit;
        } else {
          expr->kind = ExprKind::kVar;
        }
        break;
      }
      case Tok::kStrLit:
        return Err("string literals are not part of the Icarus DSL");
      default:
        return Err("expected an expression");
    }
    expr->loc = loc;
    *out = expr;
    return Status::Ok();
  }

  Module* module_;
  Arena* arena_;
  std::string_view source_;
  Lexer lexer_;
  std::vector<Token> tokens_;
  size_t idx_ = 0;
  int depth_ = 0;
  // Elements of the lists being built, one stack per element type.
  ListStack<Expr*> exprs_;
  ListStack<Stmt*> stmts_;
  ListStack<Param> params_;
  ListStack<ContractClause> clauses_;
  ListStack<std::string_view> members_;
  std::string name_;  // QualIdent's buffer for a spaced-out name.
};

}  // namespace

Status Parser::ParseInto(Module* module, std::string_view source) {
  ICARUS_CHECK(!module->frozen());
  obs::ScopedSpan span("frontend.parse");
  ParserImpl impl(module, module->arena().Copy(source));
  return impl.Run();
}

}  // namespace icarus::ast
