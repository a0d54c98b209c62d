// Machine-state model shared by the two phases of a meta-stub:
//
//   Compile time (generator phase): a model of SpiderMonkey's CacheIR
//   register allocator — operand-id → register bindings, allocation states,
//   scratch handling. The register-discipline checks of §4.2 ("registers are
//   not double-allocated, allocated improperly, or clobbered") live here and
//   fire as concrete meta-level failures (bug 1654947's class).
//
//   Run time (interpreter phase): the register file and native stack the
//   generated MASM code operates on. Registers hold *typed* contents — a
//   boxed Value, an unboxed object pointer, a raw Int32, ... — and reading a
//   register at the wrong type is a type-confusion failure. The stack-depth
//   bookkeeping catches stack-consistency bugs (1471361's class).
//
// All mutating operations return Status; an error message describes the
// violated discipline and is surfaced by the verifier as a counterexample on
// the current path.
#ifndef ICARUS_MACHINE_MACHINE_STATE_H_
#define ICARUS_MACHINE_MACHINE_STATE_H_

#include <map>
#include <string>
#include <vector>

#include "src/support/status.h"
#include "src/sym/expr.h"

namespace icarus::machine {

// Physical register file size. Register ids 0..kNumRegs-1; a ValueReg is a
// single 64-bit register holding a boxed Value (x86-64 NaN-boxing model).
inline constexpr int kNumRegs = 8;
// Dedicated output register (SpiderMonkey's output ValueReg for IC results).
inline constexpr int kOutputReg = 7;

// What a register currently holds.
enum class RegContent {
  kNone,     // Nothing / clobbered.
  kValue,    // Boxed JS Value.
  kInt32,    // Raw 32-bit integer.
  kObject,   // Unboxed object pointer.
  kString,   // Unboxed string pointer.
  kSymbol,   // Unboxed symbol pointer.
  kBigInt,   // Unboxed bigint pointer.
  kIntPtr,   // Raw pointer-sized integer (e.g. private slots).
  kDouble,   // Floating-point value (modeled in the GP file for simplicity).
  kBool,     // Raw boolean.
};

const char* RegContentName(RegContent c);

struct RegVal {
  RegContent content = RegContent::kNone;
  sym::ExprRef term = nullptr;
};

// Compile-time allocation state of a register.
enum class AllocState {
  kFree,
  kOperand,  // Holds a live CacheIR operand.
  kScratch,  // Allocated as a scratch register.
};

class MachineState {
 public:
  MachineState() = default;

  // ------------------------------------------------------------------
  // Compile-time: operand table and register allocation.
  // ------------------------------------------------------------------

  // Allocates the next CacheIR operand id (the writer's new*OperandId).
  int NewOperandId() { return next_operand_id_++; }

  // Binds `operand_id` to a fresh register; returns the register id. Used
  // when defining stub inputs and when ops define result operands.
  StatusOr<int> DefineOperand(int operand_id);

  // The register bound to `operand_id` (allocating semantics of
  // useValueId/useObjectId/...): errors if the operand is unknown.
  StatusOr<int> UseOperand(int operand_id);

  // Allocates a scratch register; errors when the file is exhausted.
  StatusOr<int> AllocScratch();

  // Releases a scratch register back to the pool.
  Status ReleaseScratch(int reg);

  // Marks `reg` as writable output (no discipline tracking for the
  // dedicated output register).
  static int OutputReg() { return kOutputReg; }

  AllocState alloc_state(int reg) const;

  // Checks that writing `reg` at compile time is legal: the register must be
  // allocated (operand, scratch or output). This is the clobber check — the
  // compiler emitting a write to a live register it does not own is exactly
  // bug 1654947.
  Status CheckWritable(int reg, const std::string& who) const;

  // Compile-time static type knowledge per operand (CacheIRCompiler::knownType).
  void SetKnownType(int operand_id, int js_type);
  int KnownType(int operand_id) const;  // -1 when unknown.

  // ------------------------------------------------------------------
  // Run-time: register file.
  // ------------------------------------------------------------------

  Status WriteReg(int reg, RegContent content, sym::ExprRef term);
  StatusOr<RegVal> ReadReg(int reg, RegContent expected, const std::string& who) const;
  // Reads whatever is there (for save/restore and diagnostics).
  RegVal ReadRegRaw(int reg) const;

  // Marks volatile registers clobbered (runtime-call ABI modeling). Reads of
  // clobbered registers fail until they are rewritten.
  void ClobberVolatileRegs();
  // Saves / restores the live register set around a runtime call
  // (PushRegsInMask / PopRegsInMask).
  void SaveLiveRegs();
  Status RestoreLiveRegs();
  bool live_regs_saved() const { return !saved_regs_.empty(); }

  // ------------------------------------------------------------------
  // Run-time: native stack.
  // ------------------------------------------------------------------

  void Push(RegVal v);
  StatusOr<RegVal> Pop();
  int stack_depth() const { return static_cast<int>(stack_.size()); }

  // Stack balance check at stub exits (bug class 1471361).
  Status CheckStackBalanced(const std::string& where) const;

  std::string Describe() const;

 private:
  struct RegState {
    AllocState alloc = AllocState::kFree;
    int operand_id = -1;
    RegVal val;
    bool clobbered = false;
    // True once the compiler has ever owned this register (operand or
    // scratch). Writes emitted by the compiler are checked against this:
    // a write to a register the allocator never handed out is the
    // register-clobbering discipline violation (bug 1654947's class).
    bool ever_allocated = false;
  };

  RegState regs_[kNumRegs];
  std::map<int, int> operand_to_reg_;
  std::map<int, int> known_types_;
  std::vector<RegVal> stack_;
  std::vector<std::vector<RegVal>> saved_regs_;
  int entry_stack_depth_ = 0;
  int next_operand_id_ = 0;
};

}  // namespace icarus::machine

#endif  // ICARUS_MACHINE_MACHINE_STATE_H_
