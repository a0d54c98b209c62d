#include "src/ast/ast.h"

namespace icarus::ast {

const LanguageDecl* Module::FindLanguage(std::string_view name) const {
  for (const auto& l : languages) {
    if (l->name == name) {
      return l.get();
    }
  }
  return nullptr;
}

const CompilerDecl* Module::FindCompiler(std::string_view name) const {
  for (const auto& c : compilers) {
    if (c->name == name) {
      return c.get();
    }
  }
  return nullptr;
}

const InterpreterDecl* Module::FindInterpreter(std::string_view name) const {
  for (const auto& i : interpreters) {
    if (i->name == name) {
      return i.get();
    }
  }
  return nullptr;
}

std::vector<const FunctionDecl*> Module::Generators() const {
  std::vector<const FunctionDecl*> out;
  for (const auto& f : functions) {
    if (f->fn_kind == FnKind::kGenerator) {
      out.push_back(f.get());
    }
  }
  return out;
}

std::vector<const FunctionDecl*> Module::AllFunctions() const {
  size_t count = functions.size();
  for (const auto& c : compilers) {
    count += c->op_callbacks.size();
  }
  for (const auto& i : interpreters) {
    count += i->op_callbacks.size();
  }
  std::vector<const FunctionDecl*> out;
  out.reserve(count);
  for (const auto& f : functions) {
    out.push_back(f.get());
  }
  for (const auto& c : compilers) {
    for (const auto& cb : c->op_callbacks) {
      out.push_back(cb.get());
    }
  }
  for (const auto& i : interpreters) {
    for (const auto& cb : i->op_callbacks) {
      out.push_back(cb.get());
    }
  }
  return out;
}

}  // namespace icarus::ast
