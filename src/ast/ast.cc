#include "src/ast/ast.h"

namespace icarus::ast {

const LanguageDecl* Module::FindLanguage(const std::string& name) const {
  for (const auto& l : languages) {
    if (l->name == name) {
      return l.get();
    }
  }
  return nullptr;
}

const FunctionDecl* Module::FindFunction(const std::string& name) const {
  auto it = functions_by_name.find(name);
  return it == functions_by_name.end() ? nullptr : it->second;
}

const ExternFnDecl* Module::FindExtern(const std::string& name) const {
  auto it = externs_by_name.find(name);
  return it == externs_by_name.end() ? nullptr : it->second;
}

const CompilerDecl* Module::FindCompiler(const std::string& name) const {
  for (const auto& c : compilers) {
    if (c->name == name) {
      return c.get();
    }
  }
  return nullptr;
}

const InterpreterDecl* Module::FindInterpreter(const std::string& name) const {
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
  std::vector<const FunctionDecl*> out;
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
