#include "src/machine/machine_state.h"

#include "src/support/str_util.h"

namespace icarus::machine {

const char* RegContentName(RegContent c) {
  switch (c) {
    case RegContent::kNone: return "none";
    case RegContent::kValue: return "Value";
    case RegContent::kInt32: return "Int32";
    case RegContent::kObject: return "Object";
    case RegContent::kString: return "String";
    case RegContent::kSymbol: return "Symbol";
    case RegContent::kBigInt: return "BigInt";
    case RegContent::kIntPtr: return "IntPtr";
    case RegContent::kDouble: return "Double";
    case RegContent::kBool: return "Bool";
  }
  return "?";
}

StatusOr<int> MachineState::DefineOperand(int operand_id) {
  if (operand_to_reg_.count(operand_id) != 0) {
    return Status::Error(StrCat("operand ", operand_id, " defined twice"));
  }
  for (int r = 0; r < kNumRegs; ++r) {
    if (r == kOutputReg || regs_[r].alloc != AllocState::kFree) {
      continue;
    }
    regs_[r].alloc = AllocState::kOperand;
    regs_[r].operand_id = operand_id;
    regs_[r].ever_allocated = true;
    operand_to_reg_[operand_id] = r;
    return r;
  }
  return Status::Error("register file exhausted while defining operand");
}

StatusOr<int> MachineState::UseOperand(int operand_id) {
  auto it = operand_to_reg_.find(operand_id);
  if (it == operand_to_reg_.end()) {
    return Status::Error(StrCat("use of undefined operand ", operand_id));
  }
  return it->second;
}

StatusOr<int> MachineState::AllocScratch() {
  for (int r = 0; r < kNumRegs; ++r) {
    if (r == kOutputReg || regs_[r].alloc != AllocState::kFree) {
      continue;
    }
    regs_[r].alloc = AllocState::kScratch;
    regs_[r].ever_allocated = true;
    return r;
  }
  return Status::Error("register file exhausted while allocating scratch");
}

Status MachineState::ReleaseScratch(int reg) {
  if (reg < 0 || reg >= kNumRegs) {
    return Status::Error(StrCat("release of invalid register r", reg));
  }
  if (regs_[reg].alloc != AllocState::kScratch) {
    return Status::Error(StrCat("release of r", reg, " which is not a scratch register"));
  }
  regs_[reg].alloc = AllocState::kFree;
  return Status::Ok();
}

AllocState MachineState::alloc_state(int reg) const {
  ICARUS_CHECK(reg >= 0 && reg < kNumRegs);
  return regs_[reg].alloc;
}

Status MachineState::CheckWritable(int reg, const std::string& who) const {
  if (reg < 0 || reg >= kNumRegs) {
    return Status::Error(StrCat(who, ": invalid register r", reg));
  }
  if (reg == kOutputReg) {
    return Status::Ok();
  }
  if (!regs_[reg].ever_allocated) {
    return Status::Error(StrCat(who, ": write to unallocated register r", reg,
                                " (register clobbering)"));
  }
  return Status::Ok();
}

void MachineState::SetKnownType(int operand_id, int js_type) {
  known_types_[operand_id] = js_type;
}

int MachineState::KnownType(int operand_id) const {
  auto it = known_types_.find(operand_id);
  return it == known_types_.end() ? -1 : it->second;
}

Status MachineState::WriteReg(int reg, RegContent content, sym::ExprRef term) {
  if (reg < 0 || reg >= kNumRegs) {
    return Status::Error(StrCat("write to invalid register r", reg));
  }
  regs_[reg].val = RegVal{content, term};
  regs_[reg].clobbered = false;
  return Status::Ok();
}

StatusOr<RegVal> MachineState::ReadReg(int reg, RegContent expected,
                                       const std::string& who) const {
  if (reg < 0 || reg >= kNumRegs) {
    return Status::Error(StrCat(who, ": read of invalid register r", reg));
  }
  const RegState& rs = regs_[reg];
  if (rs.clobbered) {
    return Status::Error(StrCat(who, ": read of r", reg,
                                " which was clobbered by a runtime call (missing ",
                                "save/restore of live registers)"));
  }
  if (rs.val.content == RegContent::kNone) {
    return Status::Error(StrCat(who, ": read of uninitialized register r", reg));
  }
  if (rs.val.content != expected) {
    return Status::Error(StrCat(who, ": type confusion reading r", reg, " as ",
                                RegContentName(expected), " but it holds ",
                                RegContentName(rs.val.content)));
  }
  return rs.val;
}

RegVal MachineState::ReadRegRaw(int reg) const {
  ICARUS_CHECK(reg >= 0 && reg < kNumRegs);
  return regs_[reg].val;
}

void MachineState::ClobberVolatileRegs() {
  // All registers except the output are caller-saved in this model.
  for (int r = 0; r < kNumRegs; ++r) {
    if (r == kOutputReg) {
      continue;
    }
    regs_[r].clobbered = true;
  }
}

void MachineState::SaveLiveRegs() {
  std::vector<RegVal> snapshot;
  snapshot.reserve(kNumRegs);
  for (int r = 0; r < kNumRegs; ++r) {
    snapshot.push_back(regs_[r].val);
  }
  saved_regs_.push_back(std::move(snapshot));
  // The saved copies live on the stack in the real engine.
  for (int i = 0; i < kNumRegs; ++i) {
    Push(RegVal{RegContent::kIntPtr, nullptr});
  }
}

Status MachineState::RestoreLiveRegs() {
  if (saved_regs_.empty()) {
    return Status::Error("PopRegsInMask without a matching PushRegsInMask");
  }
  for (int i = 0; i < kNumRegs; ++i) {
    StatusOr<RegVal> popped = Pop();
    if (!popped.ok()) {
      return popped.status();
    }
  }
  const std::vector<RegVal>& snapshot = saved_regs_.back();
  for (int r = 0; r < kNumRegs; ++r) {
    regs_[r].val = snapshot[static_cast<size_t>(r)];
    regs_[r].clobbered = false;
  }
  saved_regs_.pop_back();
  return Status::Ok();
}

void MachineState::Push(RegVal v) { stack_.push_back(v); }

StatusOr<RegVal> MachineState::Pop() {
  if (static_cast<int>(stack_.size()) <= entry_stack_depth_) {
    return Status::Error("stack underflow: pop past the stub's entry frame");
  }
  RegVal v = stack_.back();
  stack_.pop_back();
  return v;
}

Status MachineState::CheckStackBalanced(const std::string& where) const {
  if (static_cast<int>(stack_.size()) != entry_stack_depth_) {
    return Status::Error(StrCat("stack imbalance at ", where, ": depth ", stack_.size(),
                                " vs ", entry_stack_depth_,
                                " at entry (stack consistency violation)"));
  }
  if (!saved_regs_.empty()) {
    return Status::Error(StrCat("live registers still saved at ", where,
                                " (missing PopRegsInMask)"));
  }
  return Status::Ok();
}

std::string MachineState::Describe() const {
  std::vector<std::string> parts;
  for (int r = 0; r < kNumRegs; ++r) {
    const RegState& rs = regs_[r];
    if (rs.alloc == AllocState::kFree && rs.val.content == RegContent::kNone) {
      continue;
    }
    std::string alloc = rs.alloc == AllocState::kFree      ? "free"
                        : rs.alloc == AllocState::kOperand ? StrCat("operand", rs.operand_id)
                                                           : "scratch";
    parts.push_back(StrCat("r", r, "[", alloc, "]=", RegContentName(rs.val.content),
                           rs.val.term != nullptr
                               ? StrCat(":", sym::ExprPool::ToString(rs.val.term))
                               : ""));
  }
  parts.push_back(StrCat("stack_depth=", stack_.size()));
  return Join(parts, " ");
}

}  // namespace icarus::machine
