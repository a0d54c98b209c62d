#include "src/platform/platform.h"

#include <set>

#include "src/ast/fingerprint.h"
#include "src/ast/parser.h"
#include "src/ast/resolver.h"
#include "src/exec/externs.h"
#include "src/support/str_util.h"

namespace icarus::platform {

bool IsOperandIdType(const ast::Type* t) {
  if (t->kind() != ast::TypeKind::kOpaque) {
    return false;
  }
  std::string_view n = t->name();
  return n == "ValueId" || n == "ObjectId" || n == "Int32Id" || n == "StringId" ||
         n == "SymbolId";
}

StatusOr<std::unique_ptr<Platform>> Platform::Load() {
  return LoadWithExtra({});
}

StatusOr<std::unique_ptr<Platform>> Platform::LoadWithExtra(
    const std::vector<std::string>& extra_sources) {
  auto platform = std::unique_ptr<Platform>(new Platform());
  platform->module_ = std::make_unique<ast::Module>();
  ast::Module* module = platform->module_.get();

  // Views: ParseInto copies each chunk into the module.
  std::vector<std::string_view> sources = {
      PreludeSource(), CacheIRSource(), MasmSource(), CompilerSource(), InterpreterSource(),
      GeneratorsSource(),
  };
  sources.reserve(sources.size() + 2 * Bugs().size() + extra_sources.size());
  for (const BugDef& bug : Bugs()) {
    sources.emplace_back(bug.buggy_src);
    sources.emplace_back(bug.fixed_src);
  }
  for (const std::string& extra : extra_sources) {
    sources.emplace_back(extra);
  }
  for (size_t i = 0; i < sources.size(); ++i) {
    Status st = ast::Parser::ParseInto(module, sources[i]);
    if (!st.ok()) {
      return Status::Error(StrCat("platform chunk ", i, ": ", st.message()));
    }
  }
  ICARUS_RETURN_IF_ERROR(ast::Resolve(module));
  exec::RegisterMachineBuiltins(&platform->externs_, module);
  return platform;
}

StatusOr<meta::MetaStub> Platform::MakeMetaStub(std::string_view generator_name) const {
  const ast::FunctionDecl* generator = module_->FindFunction(generator_name);
  if (generator == nullptr || generator->fn_kind != ast::FnKind::kGenerator) {
    return Status::Error(StrCat("no generator named '", generator_name, "'"));
  }
  meta::MetaStub stub;
  stub.generator = generator;
  stub.compiler = module_->FindCompiler("CacheIRCompiler");
  stub.interpreter = module_->FindInterpreter("MASMInterp");
  if (stub.compiler == nullptr || stub.interpreter == nullptr) {
    return Status::Error("platform is missing the compiler or interpreter");
  }
  const ast::EnumDecl* attach = module_->types().LookupEnum("AttachDecision");
  ICARUS_CHECK(attach != nullptr);
  stub.attach_index = attach->IndexOf("Attach");

  const ast::Module* module = module_.get();
  stub.inputs = [generator, module](exec::EvalContext& ctx,
                                    std::vector<exec::Value>* args) -> Status {
    for (const ast::Param& p : generator->params) {
      if (IsOperandIdType(p.type)) {
        // Allocate the operand and its input register; the register's
        // run-time content is an *independent* fresh symbolic value (the
        // adversarial future input the guards must handle).
        int id = ctx.machine().NewOperandId();
        StatusOr<int> reg = ctx.machine().DefineOperand(id);
        if (!reg.ok()) {
          return reg.status();
        }
        std::string_view type_name = p.type->name();
        machine::RegContent content;
        const ast::Type* payload_type;
        if (type_name == "ObjectId") {
          content = machine::RegContent::kObject;
          payload_type = module->types().Lookup("Object");
        } else if (type_name == "Int32Id") {
          content = machine::RegContent::kInt32;
          payload_type = module->types().Int32();
        } else if (type_name == "StringId") {
          content = machine::RegContent::kString;
          payload_type = module->types().Lookup("String");
        } else if (type_name == "SymbolId") {
          content = machine::RegContent::kSymbol;
          payload_type = module->types().Lookup("Symbol");
        } else {
          content = machine::RegContent::kValue;
          payload_type = module->types().Lookup("Value");
        }
        exec::Value run_input = ctx.FreshValue(StrCat("run_", p.name), payload_type);
        Status st = ctx.machine().WriteReg(reg.value(), content, run_input.term);
        if (!st.ok()) {
          return st;
        }
        args->push_back(exec::Value::Of(p.type, ctx.pool().IntConst(id)));
      } else {
        // Generation-time sample inputs and heuristic knobs (mode, jsop, ...)
        // are fresh symbolic constants: the meta-stub covers every choice.
        args->push_back(ctx.FreshValue(StrCat("gen_", p.name), p.type));
      }
    }
    return Status::Ok();
  };
  return stub;
}

std::string Platform::Fingerprint() const {
  return StrFormat("%016llx", static_cast<unsigned long long>(ast::ModuleHash(*module_)));
}

int Platform::TotalLoc(std::string_view generator_name) const {
  const ast::FunctionDecl* generator = module_->FindFunction(generator_name);
  if (generator == nullptr) {
    return 0;
  }
  const ast::CompilerDecl* compiler = module_->FindCompiler("CacheIRCompiler");
  const ast::InterpreterDecl* interpreter = module_->FindInterpreter("MASMInterp");

  // Everything reached from the generator through calls and through the
  // compiler and interpreter callbacks of emitted ops; externs are leaves.
  std::set<const ast::FunctionDecl*> visited = {generator};
  std::vector<const ast::FunctionDecl*> worklist = {generator};
  auto reach = [&](const ast::FunctionDecl* fn) {
    if (fn != nullptr && visited.insert(fn).second) {
      worklist.push_back(fn);
    }
  };
  int loc = 0;
  while (!worklist.empty()) {
    const ast::FunctionDecl* fn = worklist.back();
    worklist.pop_back();
    loc += CountNonBlankLines(fn->source_text);
    for (const ast::References::Call& call : fn->refs.calls) {
      reach(call.fn);
    }
    for (const ast::OpDecl* op : fn->refs.emits) {
      if (compiler != nullptr) {
        reach(compiler->FindCallback(op));
      }
      if (interpreter != nullptr) {
        reach(interpreter->FindCallback(op));
      }
    }
  }
  return loc;
}

int Platform::NumCacheIROps() const {
  const ast::LanguageDecl* lang = module_->FindLanguage("CacheIR");
  return lang == nullptr ? 0 : static_cast<int>(lang->ops.size());
}

int Platform::NumMasmOps() const {
  const ast::LanguageDecl* lang = module_->FindLanguage("MASM");
  return lang == nullptr ? 0 : static_cast<int>(lang->ops.size());
}

int Platform::PreludeLoc() const { return CountNonBlankLines(PreludeSource()); }
int Platform::CompilerLoc() const { return CountNonBlankLines(CompilerSource()); }
int Platform::InterpreterLoc() const { return CountNonBlankLines(InterpreterSource()); }

}  // namespace icarus::platform
