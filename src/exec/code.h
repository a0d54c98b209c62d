// The flat form the evaluator runs. Each resolved DSL function, and each
// extern's contract, is lowered once, at its first execution, to a vector
// of instructions over numbered frame slots: the resolver's slots (params,
// locals, labels) followed by temporaries that hold intermediate values of
// one statement. Control flow is explicit (branch and jump targets), and a
// call pushes a frame instead of recursing, so the whole state of a path is
// data that a choice point can copy (src/exec/evaluator.h, Explorer).
#ifndef ICARUS_EXEC_CODE_H_
#define ICARUS_EXEC_CODE_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/ast/ast.h"

namespace icarus::exec {

// `s` is the frame's slots; operands are slot numbers.
enum class Op : uint8_t {
  kInt,         // s[dst] = the Int constant `imm` of `type` (int and enum literals)
  kBool,        // s[dst] = the Bool constant `imm`
  kMove,        // s[dst] = s[a]
  kNot,         // s[dst] = !s[a]
  kNeg,         // s[dst] = -s[a]
  kBinary,      // s[dst] = s[a] `bin_op` s[b]
  kCall,        // s[dst] = fn(args): pushes fn's frame
  kCallExtern,  // s[dst] = ext(args): its host handler, or a frame running its contract
  kBranch,      // to `target` unless s[a]; a symbolic s[a] forks the path
  kJump,        // to `target`
  kAssert,      // s[a] must hold on every model of the path (`stmt` is the assert)
  kAssume,      // s[a] joins the path condition; the path ends if that is infeasible
  kEmit,        // emit stmt->emit_op(args)
  kLabel,       // s[dst] = a new label (`stmt` declares it, local or failure)
  kBind,        // binds label s[a] to the next target instruction
  kGoto,        // interpreter callbacks: the stub continues at label s[a]
  kReturn,      // returns s[a], or void when a < 0
  // Extern contracts only (the frame's code is the extern's):
  kRequire,     // s[a] must hold: requires clause number `imm`
  kApply,       // s[dst] = ext(params) as an uninterpreted application
  kEnsure,      // s[a] joins the path condition unchecked (an ensures clause)
};

struct Insn {
  Op op = Op::kReturn;
  ast::BinOp bin_op = ast::BinOp::kAdd;  // kBinary
  int dst = -1;
  int a = -1;
  int b = -1;
  int target = -1;                       // kBranch, kJump
  int args = 0;                          // kCall, kCallExtern, kEmit: the argument slots
  int num_args = 0;                      //   are Code::arg_slots[args, args + num_args)
  int64_t imm = 0;                       // kInt, kBool, kRequire
  // The one type or declaration the op reads (no op reads two), shared so
  // that an instruction stays 48 bytes: the platform lowers to about 2,700.
  union {
    const ast::Type* type = nullptr;     // kInt, kBool, kNot, kNeg, kBinary: result type
    const ast::FunctionDecl* fn;         // kCall
    const ast::ExternFnDecl* ext;        // kCallExtern
    const ast::Stmt* stmt;               // kAssert, kAssume, kEmit, kLabel, kBind
  };
};

struct Code {
  std::string_view name;                    // The function's or extern's name.
  const ast::FunctionDecl* fn = nullptr;    // Null for an extern contract.
  const ast::ExternFnDecl* ext = nullptr;   // Null for a function.
  std::vector<Insn> insns;
  std::vector<int> arg_slots;
  std::vector<int> param_slots;             // The slot of each parameter, in order.
  int num_slots = 0;                        // Frame size: resolver slots + temporaries.
};

// The flat form of `fn` or of `ext`'s contract, lowered at the first call
// and kept on the declaration; safe to call from threads sharing a module.
const Code& Lowered(const ast::FunctionDecl& fn);
const Code& LoweredContract(const ast::ExternFnDecl& ext);

}  // namespace icarus::exec

#endif  // ICARUS_EXEC_CODE_H_
