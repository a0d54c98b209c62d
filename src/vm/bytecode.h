// Bytecode for the mini-JS VM: a small stack machine whose property/element
// accesses, arithmetic, and comparisons run through inline-cache sites.
#ifndef ICARUS_VM_BYTECODE_H_
#define ICARUS_VM_BYTECODE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/vm/value.h"

namespace icarus::vm {

enum class Op : uint8_t {
  kLoadConst,    // push constant
  kLoadLocal,    // push locals[a]
  kStoreLocal,   // locals[a] = pop
  kGetProp,      // push GetProperty(pop, atom a)     [IC site]
  kGetElem,      // key = pop, obj = pop, push obj[key]  [IC site]
  kBinary,       // rhs = pop, lhs = pop, push lhs <binop a> rhs  [IC site]
  kCompare,      // rhs = pop, lhs = pop, push lhs <jsop a> rhs   [IC site]
  kNeg,          // push -pop                          [IC site]
  kBitNot,       // push ~pop                          [IC site]
  kJump,         // pc = a
  kJumpIfFalse,  // if (!ToBoolean(pop)) pc = a
  kPop,
  kDup,
  kReturn,       // return pop
};

// Binary kinds for Op::kBinary.
enum class BinKind : int32_t {
  kAdd = 0, kSub, kMul, kDiv, kMod, kBitAnd, kBitOr, kBitXor,
};

// Comparison ops for Op::kCompare, in the platform's JSOp order.
enum class CmpKind : int32_t {
  kEq = 0, kNe, kLt, kLe, kGt, kGe, kStrictEq, kStrictNe,
};

struct BytecodeInstr {
  Op op;
  int32_t a = 0;            // Local index / atom / jump target / kind.
  uint64_t const_bits = 0;  // kLoadConst payload.

  // Field by field: the struct has padding.
  friend bool operator==(const BytecodeInstr&, const BytecodeInstr&) = default;
};

struct BytecodeProgram {
  std::vector<BytecodeInstr> code;
  int num_locals = 0;
  std::string name;
};

// Small builder to keep workload definitions readable.
class ProgramBuilder {
 public:
  explicit ProgramBuilder(std::string name) { program_.name = std::move(name); }

  int Local() { return program_.num_locals++; }

  ProgramBuilder& Const(JsValue v) { return Push({Op::kLoadConst, 0, v.raw()}); }
  ProgramBuilder& Load(int local) { return Push({Op::kLoadLocal, local, 0}); }
  ProgramBuilder& Store(int local) { return Push({Op::kStoreLocal, local, 0}); }
  ProgramBuilder& GetProp(int32_t atom) { return Push({Op::kGetProp, atom, 0}); }
  ProgramBuilder& GetElem() { return Push({Op::kGetElem, 0, 0}); }
  ProgramBuilder& Binary(BinKind kind) {
    return Push({Op::kBinary, static_cast<int32_t>(kind), 0});
  }
  ProgramBuilder& Compare(CmpKind kind) {
    return Push({Op::kCompare, static_cast<int32_t>(kind), 0});
  }
  ProgramBuilder& Neg() { return Push({Op::kNeg, 0, 0}); }
  ProgramBuilder& BitNot() { return Push({Op::kBitNot, 0, 0}); }
  ProgramBuilder& Pop() { return Push({Op::kPop, 0, 0}); }
  ProgramBuilder& Dup() { return Push({Op::kDup, 0, 0}); }
  ProgramBuilder& Return() { return Push({Op::kReturn, 0, 0}); }

  // Labels / jumps (single-pass with patching).
  int Here() const { return static_cast<int>(program_.code.size()); }
  int JumpIfFalsePlaceholder() {
    Push({Op::kJumpIfFalse, -1, 0});
    return Here() - 1;
  }
  int JumpPlaceholder() {
    Push({Op::kJump, -1, 0});
    return Here() - 1;
  }
  void JumpTo(int target) { Push({Op::kJump, target, 0}); }
  void Patch(int instr_index, int target) {
    program_.code[static_cast<size_t>(instr_index)].a = target;
  }

  BytecodeProgram Build() { return std::move(program_); }

 private:
  ProgramBuilder& Push(BytecodeInstr instr) {
    program_.code.push_back(instr);
    return *this;
  }
  BytecodeProgram program_;
};

}  // namespace icarus::vm

#endif  // ICARUS_VM_BYTECODE_H_
