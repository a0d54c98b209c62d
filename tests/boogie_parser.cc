#include "tests/boogie_parser.h"

#include <cctype>
#include <vector>

#include "src/support/str_util.h"

namespace icarus::boogie {

namespace {

// ---------------------------------------------------------------------------
// Lexer (Boogie identifiers may contain $ # . ').
// ---------------------------------------------------------------------------

struct Tok {
  enum class Kind { kIdent, kInt, kPunct, kEof } kind = Kind::kEof;
  std::string text;
  int64_t value = 0;
  int line = 1;
};

class Lexer {
 public:
  explicit Lexer(std::string_view src) : src_(src) {}

  StatusOr<std::vector<Tok>> LexAll() {
    std::vector<Tok> out;
    while (true) {
      SkipTrivia();
      if (pos_ >= src_.size()) {
        out.push_back(Tok{Tok::Kind::kEof, "", 0, line_});
        return out;
      }
      char c = src_[pos_];
      if (IsIdentChar(c) && (std::isdigit(static_cast<unsigned char>(c)) == 0)) {
        std::string ident;
        while (pos_ < src_.size() && IsIdentChar(src_[pos_])) {
          ident.push_back(src_[pos_++]);
        }
        out.push_back(Tok{Tok::Kind::kIdent, std::move(ident), 0, line_});
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
        int64_t v = 0;
        while (pos_ < src_.size() && std::isdigit(static_cast<unsigned char>(src_[pos_])) != 0) {
          v = v * 10 + (src_[pos_++] - '0');
        }
        out.push_back(Tok{Tok::Kind::kInt, "", v, line_});
        continue;
      }
      // Multi-char punctuation first.
      static const char* kMulti[] = {":=", "==>", "<==>", "==", "!=", "<=", ">=",
                                     "&&", "||", "{:", nullptr};
      bool matched = false;
      for (int i = 0; kMulti[i] != nullptr; ++i) {
        std::string_view m(kMulti[i]);
        if (src_.substr(pos_, m.size()) == m) {
          out.push_back(Tok{Tok::Kind::kPunct, std::string(m), 0, line_});
          pos_ += m.size();
          matched = true;
          break;
        }
      }
      if (matched) {
        continue;
      }
      static const std::string kSingle = "(){}[],;:<>+-*/%!=";
      if (kSingle.find(c) != std::string::npos) {
        out.push_back(Tok{Tok::Kind::kPunct, std::string(1, c), 0, line_});
        ++pos_;
        continue;
      }
      return Status::Error(StrFormat("boogie lexer: unexpected '%c' at line %d", c, line_));
    }
  }

 private:
  static bool IsIdentChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' || c == '$' ||
           c == '#' || c == '.' || c == '\'';
  }
  void SkipTrivia() {
    while (pos_ < src_.size()) {
      char c = src_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
      } else if (std::isspace(static_cast<unsigned char>(c)) != 0) {
        ++pos_;
      } else if (c == '/' && pos_ + 1 < src_.size() && src_[pos_ + 1] == '/') {
        while (pos_ < src_.size() && src_[pos_] != '\n') {
          ++pos_;
        }
      } else if (c == '/' && pos_ + 1 < src_.size() && src_[pos_ + 1] == '*') {
        pos_ += 2;
        while (pos_ + 1 < src_.size() && !(src_[pos_] == '*' && src_[pos_ + 1] == '/')) {
          if (src_[pos_] == '\n') {
            ++line_;
          }
          ++pos_;
        }
        pos_ += 2;
      } else {
        break;
      }
    }
  }
  std::string_view src_;
  size_t pos_ = 0;
  int line_ = 1;
};

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

class Parser {
 public:
  explicit Parser(std::vector<Tok> toks) : toks_(std::move(toks)) {}

  StatusOr<std::unique_ptr<Program>> Run() {
    auto program = std::make_unique<Program>();
    while (!AtEof()) {
      ICARUS_RETURN_IF_ERROR(TopLevel(program.get()));
    }
    return program;
  }

 private:
  const Tok& Cur() const { return toks_[idx_]; }
  bool AtEof() const { return Cur().kind == Tok::Kind::kEof; }
  bool AtIdent(std::string_view s) const {
    return Cur().kind == Tok::Kind::kIdent && Cur().text == s;
  }
  bool AtPunct(std::string_view s) const {
    return Cur().kind == Tok::Kind::kPunct && Cur().text == s;
  }
  Tok Take() { return toks_[idx_++]; }
  bool EatIdent(std::string_view s) {
    if (AtIdent(s)) {
      ++idx_;
      return true;
    }
    return false;
  }
  bool EatPunct(std::string_view s) {
    if (AtPunct(s)) {
      ++idx_;
      return true;
    }
    return false;
  }
  Status Err(const std::string& msg) {
    return Status::Error(StrFormat("boogie parse error at line %d: %s (found '%s')",
                                   Cur().line, msg.c_str(), Cur().text.c_str()));
  }
  Status ExpectPunct(std::string_view s) {
    if (!EatPunct(s)) {
      return Err(StrCat("expected '", std::string(s), "'"));
    }
    return Status::Ok();
  }
  Status ExpectIdent(std::string* out) {
    if (Cur().kind != Tok::Kind::kIdent) {
      return Err("expected identifier");
    }
    *out = Take().text;
    return Status::Ok();
  }

  Status TopLevel(Program* program) {
    if (EatIdent("type")) {
      TypeDecl t;
      ICARUS_RETURN_IF_ERROR(ExpectIdent(&t.name));
      ICARUS_RETURN_IF_ERROR(ExpectPunct(";"));
      program->types.push_back(std::move(t));
      return Status::Ok();
    }
    if (EatIdent("const")) {
      ConstDecl c;
      c.unique = EatIdent("unique");
      ICARUS_RETURN_IF_ERROR(ExpectIdent(&c.name));
      ICARUS_RETURN_IF_ERROR(ExpectPunct(":"));
      ICARUS_RETURN_IF_ERROR(ExpectIdent(&c.type));
      ICARUS_RETURN_IF_ERROR(ExpectPunct(";"));
      program->constants.push_back(std::move(c));
      return Status::Ok();
    }
    if (EatIdent("var")) {
      GlobalDecl g;
      ICARUS_RETURN_IF_ERROR(ExpectIdent(&g.name));
      ICARUS_RETURN_IF_ERROR(ExpectPunct(":"));
      ICARUS_RETURN_IF_ERROR(ExpectIdent(&g.type));
      ICARUS_RETURN_IF_ERROR(ExpectPunct(";"));
      program->globals.push_back(std::move(g));
      return Status::Ok();
    }
    if (EatIdent("function")) {
      FunctionDecl f;
      ICARUS_RETURN_IF_ERROR(ExpectIdent(&f.name));
      ICARUS_RETURN_IF_ERROR(TypedNameList(&f.params));
      ICARUS_RETURN_IF_ERROR(ExpectPunct(":"));
      ICARUS_RETURN_IF_ERROR(ExpectIdent(&f.return_type));
      ICARUS_RETURN_IF_ERROR(ExpectPunct(";"));
      program->functions.push_back(std::move(f));
      return Status::Ok();
    }
    if (EatIdent("axiom")) {
      AxiomDecl a;
      ICARUS_RETURN_IF_ERROR(ParseExpr(&a.expr));
      ICARUS_RETURN_IF_ERROR(ExpectPunct(";"));
      program->axioms.push_back(std::move(a));
      return Status::Ok();
    }
    if (EatIdent("procedure")) {
      return Procedure(program);
    }
    return Err("expected a top-level declaration");
  }

  Status TypedNameList(std::vector<TypedName>* out) {
    ICARUS_RETURN_IF_ERROR(ExpectPunct("("));
    while (!AtPunct(")")) {
      TypedName n;
      ICARUS_RETURN_IF_ERROR(ExpectIdent(&n.name));
      ICARUS_RETURN_IF_ERROR(ExpectPunct(":"));
      ICARUS_RETURN_IF_ERROR(ExpectIdent(&n.type));
      out->push_back(std::move(n));
      if (!EatPunct(",")) {
        break;
      }
    }
    return ExpectPunct(")");
  }

  Status Procedure(Program* program) {
    auto proc = std::make_unique<ProcedureDecl>();
    if (EatPunct("{:")) {
      std::string attr;
      ICARUS_RETURN_IF_ERROR(ExpectIdent(&attr));
      proc->entrypoint = (attr == "entrypoint");
      ICARUS_RETURN_IF_ERROR(ExpectPunct("}"));
    }
    ICARUS_RETURN_IF_ERROR(ExpectIdent(&proc->name));
    ICARUS_RETURN_IF_ERROR(TypedNameList(&proc->params));
    if (EatIdent("returns")) {
      ICARUS_RETURN_IF_ERROR(TypedNameList(&proc->returns));
    }
    while (true) {
      if (EatIdent("modifies")) {
        std::string m;
        ICARUS_RETURN_IF_ERROR(ExpectIdent(&m));
        ICARUS_RETURN_IF_ERROR(ExpectPunct(";"));
        proc->modifies.push_back(std::move(m));
      } else if (EatIdent("requires")) {
        ExprPtr e;
        ICARUS_RETURN_IF_ERROR(ParseExpr(&e));
        ICARUS_RETURN_IF_ERROR(ExpectPunct(";"));
        proc->requires_clauses.push_back(std::move(e));
      } else if (EatIdent("ensures")) {
        ExprPtr e;
        ICARUS_RETURN_IF_ERROR(ParseExpr(&e));
        ICARUS_RETURN_IF_ERROR(ExpectPunct(";"));
        proc->ensures_clauses.push_back(std::move(e));
      } else {
        break;
      }
    }
    if (EatPunct(";")) {
      proc->has_body = false;
      program->procedures.push_back(std::move(proc));
      return Status::Ok();
    }
    proc->has_body = true;
    ICARUS_RETURN_IF_ERROR(ExpectPunct("{"));
    while (EatIdent("var")) {
      TypedName local;
      ICARUS_RETURN_IF_ERROR(ExpectIdent(&local.name));
      ICARUS_RETURN_IF_ERROR(ExpectPunct(":"));
      ICARUS_RETURN_IF_ERROR(ExpectIdent(&local.type));
      ICARUS_RETURN_IF_ERROR(ExpectPunct(";"));
      proc->locals.push_back(std::move(local));
    }
    while (!AtPunct("}")) {
      StmtPtr stmt;
      ICARUS_RETURN_IF_ERROR(Statement(&stmt));
      proc->body.push_back(std::move(stmt));
    }
    ICARUS_RETURN_IF_ERROR(ExpectPunct("}"));
    program->procedures.push_back(std::move(proc));
    return Status::Ok();
  }

  Status Block(std::vector<StmtPtr>* out) {
    ICARUS_RETURN_IF_ERROR(ExpectPunct("{"));
    while (!AtPunct("}")) {
      StmtPtr stmt;
      ICARUS_RETURN_IF_ERROR(Statement(&stmt));
      out->push_back(std::move(stmt));
    }
    return ExpectPunct("}");
  }

  Status Statement(StmtPtr* out) {
    auto stmt = std::make_unique<Stmt>();
    if (AtIdent("assert") || AtIdent("assume")) {
      stmt->kind = Take().text == "assert" ? Stmt::Kind::kAssert : Stmt::Kind::kAssume;
      ICARUS_RETURN_IF_ERROR(ParseExpr(&stmt->expr));
      ICARUS_RETURN_IF_ERROR(ExpectPunct(";"));
    } else if (EatIdent("havoc")) {
      stmt->kind = Stmt::Kind::kHavoc;
      ICARUS_RETURN_IF_ERROR(ExpectIdent(&stmt->target));
      ICARUS_RETURN_IF_ERROR(ExpectPunct(";"));
    } else if (EatIdent("call")) {
      stmt->kind = Stmt::Kind::kCall;
      std::string first;
      ICARUS_RETURN_IF_ERROR(ExpectIdent(&first));
      if (AtPunct(",") || AtPunct(":=")) {
        stmt->call_lhs.push_back(std::move(first));
        while (EatPunct(",")) {
          std::string lhs;
          ICARUS_RETURN_IF_ERROR(ExpectIdent(&lhs));
          stmt->call_lhs.push_back(std::move(lhs));
        }
        ICARUS_RETURN_IF_ERROR(ExpectPunct(":="));
        ICARUS_RETURN_IF_ERROR(ExpectIdent(&stmt->callee));
      } else {
        stmt->callee = std::move(first);
      }
      ICARUS_RETURN_IF_ERROR(ExpectPunct("("));
      while (!AtPunct(")")) {
        ExprPtr arg;
        ICARUS_RETURN_IF_ERROR(ParseExpr(&arg));
        stmt->args.push_back(std::move(arg));
        if (!EatPunct(",")) {
          break;
        }
      }
      ICARUS_RETURN_IF_ERROR(ExpectPunct(")"));
      ICARUS_RETURN_IF_ERROR(ExpectPunct(";"));
    } else if (EatIdent("goto")) {
      stmt->kind = Stmt::Kind::kGoto;
      std::string target;
      ICARUS_RETURN_IF_ERROR(ExpectIdent(&target));
      stmt->goto_targets.push_back(std::move(target));
      while (EatPunct(",")) {
        ICARUS_RETURN_IF_ERROR(ExpectIdent(&target));
        stmt->goto_targets.push_back(std::move(target));
      }
      ICARUS_RETURN_IF_ERROR(ExpectPunct(";"));
    } else if (EatIdent("return")) {
      stmt->kind = Stmt::Kind::kReturn;
      ICARUS_RETURN_IF_ERROR(ExpectPunct(";"));
    } else if (EatIdent("if")) {
      stmt->kind = Stmt::Kind::kIf;
      ICARUS_RETURN_IF_ERROR(ExpectPunct("("));
      ICARUS_RETURN_IF_ERROR(ParseExpr(&stmt->expr));
      ICARUS_RETURN_IF_ERROR(ExpectPunct(")"));
      ICARUS_RETURN_IF_ERROR(Block(&stmt->then_block));
      if (EatIdent("else")) {
        ICARUS_RETURN_IF_ERROR(Block(&stmt->else_block));
      }
    } else if (Cur().kind == Tok::Kind::kIdent) {
      std::string name = Take().text;
      if (EatPunct(":")) {
        stmt->kind = Stmt::Kind::kLabel;
        stmt->target = std::move(name);
      } else if (EatPunct(":=")) {
        stmt->kind = Stmt::Kind::kAssign;
        stmt->target = std::move(name);
        ICARUS_RETURN_IF_ERROR(ParseExpr(&stmt->expr));
        ICARUS_RETURN_IF_ERROR(ExpectPunct(";"));
      } else {
        return Err("expected ':' or ':=' after identifier");
      }
    } else {
      return Err("expected a statement");
    }
    *out = std::move(stmt);
    return Status::Ok();
  }

  // --- Expressions (precedence climbing) ---

  Status ParseExpr(ExprPtr* out) { return OrExpr(out); }

  Status OrExpr(ExprPtr* out) {
    ICARUS_RETURN_IF_ERROR(AndExpr(out));
    while (AtPunct("||")) {
      Take();
      ExprPtr rhs;
      ICARUS_RETURN_IF_ERROR(AndExpr(&rhs));
      *out = Expr::Binary("||", std::move(*out), std::move(rhs));
    }
    return Status::Ok();
  }
  Status AndExpr(ExprPtr* out) {
    ICARUS_RETURN_IF_ERROR(CmpExpr(out));
    while (AtPunct("&&")) {
      Take();
      ExprPtr rhs;
      ICARUS_RETURN_IF_ERROR(CmpExpr(&rhs));
      *out = Expr::Binary("&&", std::move(*out), std::move(rhs));
    }
    return Status::Ok();
  }
  Status CmpExpr(ExprPtr* out) {
    ICARUS_RETURN_IF_ERROR(AddSubExpr(out));
    for (const char* op : {"==", "!=", "<=", ">=", "<", ">"}) {
      if (AtPunct(op)) {
        Take();
        ExprPtr rhs;
        ICARUS_RETURN_IF_ERROR(AddSubExpr(&rhs));
        *out = Expr::Binary(op, std::move(*out), std::move(rhs));
        break;
      }
    }
    return Status::Ok();
  }
  Status AddSubExpr(ExprPtr* out) {
    ICARUS_RETURN_IF_ERROR(MulExpr(out));
    while (AtPunct("+") || AtPunct("-")) {
      std::string op = Take().text;
      ExprPtr rhs;
      ICARUS_RETURN_IF_ERROR(MulExpr(&rhs));
      *out = Expr::Binary(op, std::move(*out), std::move(rhs));
    }
    return Status::Ok();
  }
  Status MulExpr(ExprPtr* out) {
    ICARUS_RETURN_IF_ERROR(UnaryExpr(out));
    while (AtPunct("*") || AtIdent("div") || AtIdent("mod")) {
      std::string op = Take().text;
      ExprPtr rhs;
      ICARUS_RETURN_IF_ERROR(UnaryExpr(&rhs));
      *out = Expr::Binary(op, std::move(*out), std::move(rhs));
    }
    return Status::Ok();
  }
  Status UnaryExpr(ExprPtr* out) {
    if (AtPunct("!") || AtPunct("-")) {
      std::string op = Take().text;
      ExprPtr operand;
      ICARUS_RETURN_IF_ERROR(UnaryExpr(&operand));
      *out = Expr::Unary(op, std::move(operand));
      return Status::Ok();
    }
    return PrimaryExpr(out);
  }
  Status PrimaryExpr(ExprPtr* out) {
    if (Cur().kind == Tok::Kind::kInt) {
      *out = Expr::Int(Take().value);
      return Status::Ok();
    }
    if (AtIdent("true") || AtIdent("false")) {
      *out = Expr::Bool(Take().text == "true");
      return Status::Ok();
    }
    if (EatPunct("(")) {
      ICARUS_RETURN_IF_ERROR(ParseExpr(out));
      return ExpectPunct(")");
    }
    if (Cur().kind == Tok::Kind::kIdent) {
      std::string name = Take().text;
      if (EatPunct("(")) {
        std::vector<ExprPtr> args;
        while (!AtPunct(")")) {
          ExprPtr arg;
          ICARUS_RETURN_IF_ERROR(ParseExpr(&arg));
          args.push_back(std::move(arg));
          if (!EatPunct(",")) {
            break;
          }
        }
        ICARUS_RETURN_IF_ERROR(ExpectPunct(")"));
        *out = Expr::App(std::move(name), std::move(args));
        return Status::Ok();
      }
      *out = Expr::Var(std::move(name));
      return Status::Ok();
    }
    return Err("expected an expression");
  }

  std::vector<Tok> toks_;
  size_t idx_ = 0;
};

}  // namespace

StatusOr<std::unique_ptr<Program>> ParseProgram(std::string_view source) {
  Lexer lexer(source);
  StatusOr<std::vector<Tok>> toks = lexer.LexAll();
  if (!toks.ok()) {
    return toks.status();
  }
  Parser parser(toks.take());
  return parser.Run();
}

}  // namespace icarus::boogie
