#include "src/exec/externs.h"

#include "src/support/str_util.h"

namespace icarus::exec {

namespace {

using machine::RegContent;

constexpr int64_t kInt32Min = -2147483648LL;
constexpr int64_t kInt32Max = 2147483647LL;

const ast::Type* TypeOf(const ast::Module* module, const char* name) {
  const ast::Type* t = module->types().Lookup(name);
  ICARUS_REQUIRE_MSG(t != nullptr, name);
  return t;
}

// Reads a register as `content`, failing the path (never aborting the
// process) on discipline violations.
StatusOr<Value> ReadRegAs(EvalContext& ctx, const Value& reg, RegContent content,
                          const ast::Type* result_type, const char* who) {
  StatusOr<int64_t> r = GetConstInt(reg);
  if (!r.ok()) {
    return r.status();
  }
  StatusOr<machine::RegVal> rv = ctx.machine().ReadReg(static_cast<int>(r.value()), content, who);
  if (!rv.ok()) {
    return rv.status();
  }
  return Value::Of(result_type, rv.value().term);
}

StatusOr<Value> WriteRegAs(EvalContext& ctx, const Value& reg, RegContent content,
                           const Value& payload, const char* who) {
  StatusOr<int64_t> r = GetConstInt(reg);
  if (!r.ok()) {
    return r.status();
  }
  Status writable = ctx.machine().CheckWritable(static_cast<int>(r.value()), who);
  if (!writable.ok()) {
    return writable;
  }
  Status st = ctx.machine().WriteReg(static_cast<int>(r.value()), content, payload.term);
  if (!st.ok()) {
    return st;
  }
  return Value::Void(ctx.module().types().Void());
}

}  // namespace

StatusOr<int64_t> GetConstInt(const Value& v) {
  if (v.term == nullptr || !v.term->IsConst()) {
    return Status::Error("expected a compile-time-concrete value");
  }
  return v.term->value;
}

void RegisterMachineBuiltins(ExternRegistry* registry, const ast::Module* module) {
  const ast::Type* void_type = module->types().Void();
  const ast::Type* int32 = module->types().Int32();
  const ast::Type* value_type = TypeOf(module, "Value");
  const ast::Type* object_type = TypeOf(module, "Object");
  const ast::Type* string_type = TypeOf(module, "String");
  const ast::Type* symbol_type = TypeOf(module, "Symbol");
  const ast::Type* double_type = module->types().Double();
  const ast::Type* reg_type = TypeOf(module, "Reg");
  const ast::Type* value_reg_type = TypeOf(module, "ValueReg");

  auto ok_void = [void_type]() { return Value::Void(void_type); };

  // ----- Compile-time: operand table and register allocation -----

  auto use_operand = [reg_type](EvalContext& ctx,
                                const std::vector<Value>& args) -> StatusOr<Value> {
    StatusOr<int64_t> id = GetConstInt(args[0]);
    if (!id.ok()) {
      return id.status();
    }
    StatusOr<int> reg = ctx.machine().UseOperand(static_cast<int>(id.value()));
    if (!reg.ok()) {
      return reg.status();
    }
    return Value::Of(reg_type, ctx.pool().IntConst(reg.value()));
  };
  // All the typed use*Id accessors share the allocator model.
  registry->Register(*module, "CacheIRCompiler::useValueId",
                     [use_operand, value_reg_type](EvalContext& ctx,
                                                   const std::vector<Value>& args)
                         -> StatusOr<Value> {
                       StatusOr<Value> v = use_operand(ctx, args);
                       if (!v.ok()) {
                         return v.status();
                       }
                       return Value::Of(value_reg_type, v.value().term);
                     });
  for (const char* name :
       {"CacheIRCompiler::useObjectId", "CacheIRCompiler::useInt32Id",
        "CacheIRCompiler::useStringId", "CacheIRCompiler::useSymbolId"}) {
    registry->Register(*module, name, use_operand);
  }

  // Writer-side creation of fresh operand ids, and compiler-side binding of
  // a result operand to a register.
  registry->Register(
      *module, "CacheIR::newInt32Id",
      [module](EvalContext& ctx, const std::vector<Value>& args) -> StatusOr<Value> {
        return Value::Of(TypeOf(module, "Int32Id"),
                         ctx.pool().IntConst(ctx.machine().NewOperandId()));
      });
  registry->Register(
      *module, "CacheIRCompiler::defineOperandReg",
      [reg_type](EvalContext& ctx, const std::vector<Value>& args) -> StatusOr<Value> {
        StatusOr<int64_t> id = GetConstInt(args[0]);
        if (!id.ok()) {
          return id.status();
        }
        StatusOr<int> reg = ctx.machine().DefineOperand(static_cast<int>(id.value()));
        if (!reg.ok()) {
          return reg.status();
        }
        return Value::Of(reg_type, ctx.pool().IntConst(reg.value()));
      });
  registry->Register(
      *module, "CacheIRCompiler::allocScratchReg",
      [reg_type](EvalContext& ctx, const std::vector<Value>& args) -> StatusOr<Value> {
        StatusOr<int> reg = ctx.machine().AllocScratch();
        if (!reg.ok()) {
          return reg.status();
        }
        return Value::Of(reg_type, ctx.pool().IntConst(reg.value()));
      });
  registry->Register(
      *module, "CacheIRCompiler::releaseReg",
      [ok_void](EvalContext& ctx, const std::vector<Value>& args) -> StatusOr<Value> {
        StatusOr<int64_t> reg = GetConstInt(args[0]);
        if (!reg.ok()) {
          return reg.status();
        }
        Status st = ctx.machine().ReleaseScratch(static_cast<int>(reg.value()));
        if (!st.ok()) {
          return st;
        }
        return ok_void();
      });
  registry->Register(
      *module, "MASM::ecxReg",
      [reg_type](EvalContext& ctx, const std::vector<Value>& args) -> StatusOr<Value> {
        return Value::Of(reg_type, ctx.pool().IntConst(machine::kEcxReg));
      });
  registry->Register(
      *module, "CacheIRCompiler::outputReg",
      [value_reg_type](EvalContext& ctx, const std::vector<Value>& args) -> StatusOr<Value> {
        return Value::Of(value_reg_type, ctx.pool().IntConst(machine::MachineState::OutputReg()));
      });

  // Operand-id reinterpretation (SpiderMonkey's OperandId::to*Id family —
  // the id payload is unchanged, only the static type refines).
  auto reinterpret_id = [](const ast::Type* to) {
    return [to](EvalContext& ctx, const std::vector<Value>& args) -> StatusOr<Value> {
      return Value::Of(to, args[0].term);
    };
  };
  registry->Register(*module, "OperandId::toObjectId", reinterpret_id(TypeOf(module, "ObjectId")));
  registry->Register(*module, "OperandId::toInt32Id", reinterpret_id(TypeOf(module, "Int32Id")));
  registry->Register(*module, "OperandId::toStringId", reinterpret_id(TypeOf(module, "StringId")));
  registry->Register(*module, "OperandId::toSymbolId", reinterpret_id(TypeOf(module, "SymbolId")));
  registry->Register(*module, "ValueReg::scratchReg", reinterpret_id(reg_type));

  // Compile-time static type knowledge.
  registry->Register(
      *module, "CacheIRCompiler::hasKnownType",
      [](EvalContext& ctx, const std::vector<Value>& args) -> StatusOr<Value> {
        StatusOr<int64_t> id = GetConstInt(args[0]);
        if (!id.ok()) {
          return id.status();
        }
        bool known = ctx.machine().KnownType(static_cast<int>(id.value())) >= 0;
        return Value::Of(ctx.module().types().Bool(), ctx.pool().BoolConst(known));
      });
  registry->Register(
      *module, "CacheIRCompiler::knownType",
      [module](EvalContext& ctx, const std::vector<Value>& args) -> StatusOr<Value> {
        StatusOr<int64_t> id = GetConstInt(args[0]);
        if (!id.ok()) {
          return id.status();
        }
        int t = ctx.machine().KnownType(static_cast<int>(id.value()));
        if (t < 0) {
          return Status::Error("knownType queried for an operand with no static type");
        }
        return Value::Of(TypeOf(module, "JSValueType"), ctx.pool().IntConst(t));
      });
  registry->Register(
      *module, "CacheIRCompiler::setKnownType",
      [ok_void](EvalContext& ctx, const std::vector<Value>& args) -> StatusOr<Value> {
        StatusOr<int64_t> id = GetConstInt(args[0]);
        StatusOr<int64_t> t = GetConstInt(args[1]);
        if (!id.ok()) {
          return id.status();
        }
        if (!t.ok()) {
          return t.status();
        }
        Status st = ctx.machine().SetKnownType(static_cast<int>(id.value()),
                                               static_cast<int>(t.value()));
        if (!st.ok()) {
          return st;
        }
        return ok_void();
      });

  // ----- Run-time: register file -----

  struct RegAccessor {
    const char* get_name;
    const char* set_name;
    RegContent content;
    const ast::Type* type;
  };
  const RegAccessor accessors[] = {
      {"MASM::getValue", "MASM::setValue", RegContent::kValue, value_type},
      {"MASM::getInt32", "MASM::setInt32", RegContent::kInt32, int32},
      {"MASM::getObject", "MASM::setObject", RegContent::kObject, object_type},
      {"MASM::getString", "MASM::setString", RegContent::kString, string_type},
      {"MASM::getSymbol", "MASM::setSymbol", RegContent::kSymbol, symbol_type},
      {"MASM::getIntPtr", "MASM::setIntPtr", RegContent::kIntPtr, module->types().Int64()},
      {"MASM::getBool", "MASM::setBool", RegContent::kBool, module->types().Bool()},
      {"MASM::getDouble", "MASM::setDouble", RegContent::kDouble, double_type},
  };
  for (const RegAccessor& acc : accessors) {
    registry->Register(*module, acc.get_name,
                       [acc](EvalContext& ctx,
                             const std::vector<Value>& args) -> StatusOr<Value> {
                         return ReadRegAs(ctx, args[0], acc.content, acc.type, acc.get_name);
                       });
    registry->Register(
      *module,        acc.set_name,
        [acc, ok_void](EvalContext& ctx, const std::vector<Value>& args) -> StatusOr<Value> {
          // Int32 stores must be in range: this is the invariant that makes
          // missing overflow guards visible (the Int32 binary-op bugs).
          if (acc.content == RegContent::kInt32) {
            sym::ExprPool& pool = ctx.pool();
            sym::ExprRef in_range =
                pool.And(pool.Le(pool.IntConst(kInt32Min), args[1].term),
                         pool.Le(args[1].term, pool.IntConst(kInt32Max)));
            if (!ctx.CheckAssert(
                    in_range, [&acc] { return StrCat(acc.set_name, ": value fits in int32"); },
                    acc.set_name, 0)) {
              return Value::Void(ctx.module().types().Void());
            }
          }
          return WriteRegAs(ctx, args[0], acc.content, args[1], acc.set_name);
        });
  }

  // ----- Run-time: stack and ABI -----

  auto push_reg = [ok_void](EvalContext& ctx,
                            const std::vector<Value>& args) -> StatusOr<Value> {
    StatusOr<int64_t> reg = GetConstInt(args[0]);
    if (!reg.ok()) {
      return reg.status();
    }
    ctx.machine().Push(ctx.machine().ReadRegRaw(static_cast<int>(reg.value())));
    return ok_void();
  };
  auto pop_reg = [ok_void](EvalContext& ctx,
                           const std::vector<Value>& args) -> StatusOr<Value> {
    StatusOr<int64_t> reg = GetConstInt(args[0]);
    if (!reg.ok()) {
      return reg.status();
    }
    StatusOr<machine::RegVal> top = ctx.machine().Pop();
    if (!top.ok()) {
      return top.status();
    }
    Status st = ctx.machine().WriteReg(static_cast<int>(reg.value()), top.value().content,
                                       top.value().term);
    if (!st.ok()) {
      return st;
    }
    return ok_void();
  };
  registry->Register(*module, "MASM::pushReg", push_reg);
  registry->Register(*module, "MASM::popReg", pop_reg);
  registry->Register(*module, "MASM::pushValueReg", push_reg);
  registry->Register(*module, "MASM::popValueReg", pop_reg);
  registry->Register(
      *module, "MASM::dropStack",
      [ok_void](EvalContext& ctx, const std::vector<Value>& args) -> StatusOr<Value> {
        StatusOr<int64_t> n = GetConstInt(args[0]);
        if (!n.ok()) {
          return n.status();
        }
        for (int64_t i = 0; i < n.value(); ++i) {
          StatusOr<machine::RegVal> top = ctx.machine().Pop();
          if (!top.ok()) {
            return top.status();
          }
        }
        return ok_void();
      });
  registry->Register(
      *module, "MASM::saveLiveRegs",
      [ok_void](EvalContext& ctx, const std::vector<Value>& args) -> StatusOr<Value> {
        ctx.machine().SaveLiveRegs();
        return ok_void();
      });
  registry->Register(
      *module, "MASM::restoreLiveRegs",
      [ok_void](EvalContext& ctx, const std::vector<Value>& args) -> StatusOr<Value> {
        Status st = ctx.machine().RestoreLiveRegs();
        if (!st.ok()) {
          return st;
        }
        return ok_void();
      });
  registry->Register(
      *module, "MASM::clobberVolatileRegs",
      [ok_void](EvalContext& ctx, const std::vector<Value>& args) -> StatusOr<Value> {
        ctx.machine().ClobberVolatileRegs();
        return ok_void();
      });
  registry->Register(
      *module, "MASM::returnFromStub",
      [ok_void](EvalContext& ctx, const std::vector<Value>& args) -> StatusOr<Value> {
        ctx.stub_return_requested = true;
        return ok_void();
      });
  registry->Register(
      *module, "MASM::stackDepth",
      [int32](EvalContext& ctx, const std::vector<Value>& args) -> StatusOr<Value> {
        return Value::Of(int32, ctx.pool().IntConst(ctx.machine().stack_depth()));
      });
}

}  // namespace icarus::exec
