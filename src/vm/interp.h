// The mini-JS bytecode interpreter with pluggable inline-cache strategies:
//
//   kNone   — every operation takes the slow path (the oracle semantics);
//   kNative — hand-written C++ IC stubs, the way a stock engine implements
//             them (the "No ICARUS" arm of Figure 13);
//   kIcarus — stubs attached and run by the verified Icarus code itself,
//             extracted to C++ at build time (ic.h): the extracted generator
//             and compiler emit MASM, and a hit is one call into the
//             straight-line runner the build compiled for that MASM from
//             the extracted MASM semantics (the "ICARUS" arm of Figure 13).
//
// Both IC arms put a newly attached stub in front of a site's older ones,
// as SpiderMonkey does: the older stubs just failed on these operands.
//
// The kIcarus arm resolves each IC op's candidate generators to indices into
// the extracted generator table once, at construction, and attaches through
// IcCompiler's one attach path (ic.h) with arguments built on the stack.
//
// A program's IC sites are tied to the code they were built for: Run
// rebuilds them when the program at an address no longer has that code (a
// program freed and another allocated in its place).
//
// All three strategies share the same slow path, so differential runs across
// strategies are the conformance oracle (§4.5's jstests analogue).
#ifndef ICARUS_VM_INTERP_H_
#define ICARUS_VM_INTERP_H_

#include <map>
#include <memory>
#include <vector>

#include "src/vm/bytecode.h"
#include "src/vm/ic.h"
#include "src/vm/object.h"
#include "src/vm/stub_engine.h"

namespace icarus::vm {

enum class IcStrategy { kNone, kNative, kIcarus };

struct InterpStats {
  int64_t steps = 0;
  int64_t ic_hits = 0;
  int64_t ic_bails = 0;
  int64_t ic_misses = 0;
  int64_t stubs_attached = 0;
};

// Hand-written IC stub (the stock-engine baseline).
struct NativeStub {
  enum class Kind {
    kGetPropFixedSlot,
    kGetPropDynamicSlot,
    kGetPropArrayLength,
    kGetPropTypedArrayLength,
    kGetElemDense,
    kGetElemArgs,
    kBinInt32,
    kCmpInt32,
    kNegInt32,
    kNotInt32,
  };
  Kind kind;
  uint32_t shape_id = 0;
  int slot = 0;
  int32_t op = 0;  // BinKind / CmpKind payload.
};

class Interpreter {
 public:
  // `ic_compiler` may be null when strategy != kIcarus.
  Interpreter(Runtime* runtime, IcCompiler* ic_compiler, IcStrategy strategy);

  // Runs the program; IC sites persist across calls on the same program
  // (stubs attached on one run keep serving later runs, like a warmed-up
  // engine).
  JsValue Run(const BytecodeProgram& program);

  const InterpStats& stats() const { return stats_; }
  // Empties every IC site (stubs and failed-attach count) in place: the
  // sites and their stub vectors keep their storage for the next run.
  void ResetIcs();

  // Slow-path semantics, exposed for differential tests.
  JsValue SlowGetProp(JsValue receiver, PropKey atom);
  JsValue SlowGetElem(JsValue receiver, JsValue key);
  JsValue SlowBinary(BinKind kind, JsValue lhs, JsValue rhs);
  JsValue SlowCompare(CmpKind kind, JsValue lhs, JsValue rhs);
  JsValue SlowNeg(JsValue v);
  JsValue SlowBitNot(JsValue v);

 private:
  struct IcSite {
    std::vector<CompiledStub> icarus_stubs;
    std::vector<NativeStub> native_stubs;
    int failed_attaches = 0;
  };

  // One program's sites, dense per pc, and a copy of the code they serve.
  struct ProgramSites {
    std::vector<BytecodeInstr> code;
    std::vector<IcSite> sites;
  };

  // One attach candidate: an extracted generator (IcCompiler::FindGenerator)
  // and how many of its op's attach arguments it takes.
  struct Candidate {
    int generator = -1;
    int num_args = 0;
  };

  // Each IC op's candidates, in the order AttachIcarus tries them.
  struct Candidates {
    std::vector<Candidate> get_length;  // kGetProp of `length`.
    std::vector<Candidate> get_prop;    // kGetProp of any other atom.
    std::vector<Candidate> get_elem;
    std::vector<Candidate> binary[8];  // By BinKind.
    std::vector<Candidate> compare;
    std::vector<Candidate> neg;
    std::vector<Candidate> bit_not;
  };

  JsValue ExecIcOp(IcSite* site, const BytecodeInstr& instr, const JsValue* operands,
                   int num_operands);
  bool TryIcarusStubs(IcSite* site, const JsValue* operands, int num_operands, JsValue* out);
  bool TryNativeStubs(IcSite* site, const JsValue* operands, int num_operands, JsValue* out);
  void AttachIcarus(IcSite* site, const BytecodeInstr& instr, const JsValue* operands);
  void AttachNative(IcSite* site, const BytecodeInstr& instr, const JsValue* operands);

  Runtime* runtime_;
  IcCompiler* ic_compiler_;
  IcStrategy strategy_;
  std::unique_ptr<StubEngine> engine_;
  Candidates candidates_;  // kIcarus only.
  std::map<const BytecodeProgram*, ProgramSites> sites_;
  InterpStats stats_;
};

}  // namespace icarus::vm

#endif  // ICARUS_VM_INTERP_H_
