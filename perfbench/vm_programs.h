// Seeded bytecode programs for the two VM workloads.
//
// A program is a counted loop whose body holds one statement per entry of the
// IC op menu of the five Fig. 13 analogues, in seeded order:
//
//   GetProp on a fixed or a dynamic slot, GetElem on a dense array or an
//   arguments object, array and typed-array `length`, int32 add / sub / mul /
//   div / mod / and / or / xor, int32 compare, negation and bitwise not.
//
// Each statement folds its value into an accumulator, which the program
// returns, so any IC stub that computes a wrong value changes the result.
//
// Every statement has k receiver or operand variants and picks variant
// `i % k` on iteration i. With k = 1 every site is monomorphic (vm-hot-loop).
// In a polymorphic set (vm-fresh-code) the program set holds 8 programs and
// each menu entry gets each k in 1..8 once across them, in seeded order, so
// every seed carries the same mix; variants are objects of distinct shapes,
// other classes, doubles, null or undefined, and sites with k > 6 outgrow
// the interpreter's per-site stub limit.
#ifndef PERFBENCH_VM_PROGRAMS_H_
#define PERFBENCH_VM_PROGRAMS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/vm/bytecode.h"
#include "src/vm/object.h"

namespace perfbench {

// Operands one IC site of a generated program sees (`hit`; a polymorphic
// site has one sample per variant) and operands a stub attached for them must
// reject (`bail`), for timing the IC layers from outside the interpreter.
struct SiteSample {
  icarus::vm::BytecodeInstr instr{icarus::vm::Op::kPop};
  int num_operands = 0;
  icarus::vm::JsValue hit[2];
  icarus::vm::JsValue bail[2];
};

struct ProgramSet {
  std::unique_ptr<icarus::vm::Runtime> runtime;
  // Interpreter IC sites are keyed by program address: never resize this
  // vector after BuildProgramSet returns.
  std::vector<icarus::vm::BytecodeProgram> programs;
  std::vector<SiteSample> samples;
};

struct ProgramSetParams {
  int programs = 8;
  int iterations = 100;
  bool polymorphic = false;
};

ProgramSet BuildProgramSet(uint64_t seed, const ProgramSetParams& params);

}  // namespace perfbench

#endif  // PERFBENCH_VM_PROGRAMS_H_
