// The two VM workloads, over seeded programs from vm_programs.h.
//
// vm-hot-loop: 8 monomorphic programs; set-up warms every IC site, and a pass
// runs each program once under IcStrategy::kIcarus at a large trip count, so
// the StubEngine::Run hit path does the work and attach does none.
//
// vm-fresh-code: 8 polymorphic programs; every pass starts from empty IC sites
// (Interpreter::ResetIcs) and runs each program at a short trip count, so
// attach, bails and the slow path do the work.
//
// Every program's result must equal its IcStrategy::kNone (slow path only)
// result; the hand-written kNative ICs are checked against it too. Traced
// rounds add the stock (kNative) and no-IC (kNone) reference arms, and after
// them the IC layers are timed from outside on the programs' own operands:
// IcCompiler::TryAttach, StubEngine::Run on hit and bail operands, and the
// Interpreter::Slow* paths.
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "src/platform/platform.h"
#include "src/support/str_util.h"
#include "src/vm/interp.h"
#include "src/vm/stub_engine.h"
#include "vm_programs.h"

namespace perfbench {

namespace {

using icarus::platform::Platform;
using icarus::vm::BinKind;
using icarus::vm::BytecodeInstr;
using icarus::vm::CmpKind;
using icarus::vm::CompiledStub;
using icarus::vm::ConcreteArg;
using icarus::vm::IcCompiler;
using icarus::vm::IcStrategy;
using icarus::vm::Interpreter;
using icarus::vm::InterpStats;
using icarus::vm::JsValue;
using icarus::vm::Op;
using icarus::vm::PropKey;
using icarus::vm::Runtime;
using icarus::vm::StubEngine;
using icarus::vm::StubOutcome;

constexpr int kPrograms = 8;
constexpr int kHotIterations = 2000;
constexpr int kFreshIterations = 48;

struct VmState {
  std::unique_ptr<Platform> platform;
  std::unique_ptr<IcCompiler> compiler;
  ProgramSet set;
  std::unique_ptr<Interpreter> interp;  // kIcarus, the system under test.
};

// The generators the interpreter tries, in its order, for one IC site (the
// candidate lists of Interpreter::AttachIcarus).
using Candidates = std::vector<std::pair<std::string, std::vector<ConcreteArg>>>;
Candidates CandidatesFor(const Runtime& rt, const BytecodeInstr& instr, const JsValue* ops) {
  using K = ConcreteArg::Kind;
  auto boxed = [](JsValue v) { return ConcreteArg{K::kBoxedValue, v, 0}; };
  auto operand = [](JsValue v) { return ConcreteArg{K::kOperand, v, 0}; };
  auto raw = [](int64_t r) { return ConcreteArg{K::kRaw, JsValue(), r}; };
  Candidates out;
  switch (instr.op) {
    case Op::kGetProp: {
      int64_t atom = instr.a;
      if (static_cast<PropKey>(atom) == rt.length_atom()) {
        out.push_back({"tryAttachObjectLength", {boxed(ops[0]), operand(ops[0])}});
        out.push_back({"bug1685925_fixed", {boxed(ops[0]), operand(ops[0]), raw(atom), raw(0)}});
      }
      out.push_back({"tryAttachNativeGetPropFixedSlot", {boxed(ops[0]), operand(ops[0]), raw(atom)}});
      out.push_back({"tryAttachNativeGetPropDynamicSlot", {boxed(ops[0]), operand(ops[0]), raw(atom)}});
      break;
    }
    case Op::kGetElem: {
      std::vector<ConcreteArg> args = {boxed(ops[0]), operand(ops[0]), boxed(ops[1]),
                                       operand(ops[1])};
      out.push_back({"tryAttachDenseElement", args});
      out.push_back({"tryAttachArgumentsObjectArg", args});
      break;
    }
    case Op::kBinary: {
      static const std::map<BinKind, std::string> kArith = {
          {BinKind::kAdd, "tryAttachInt32Add"}, {BinKind::kSub, "tryAttachInt32Sub"},
          {BinKind::kMul, "tryAttachInt32Mul"}, {BinKind::kDiv, "tryAttachInt32Div"},
          {BinKind::kMod, "tryAttachInt32Mod"},
      };
      BinKind kind = static_cast<BinKind>(instr.a);
      std::vector<ConcreteArg> args = {boxed(ops[0]), operand(ops[0]), boxed(ops[1]),
                                       operand(ops[1])};
      auto it = kArith.find(kind);
      if (it != kArith.end()) {
        out.push_back({it->second, args});
      } else {
        args.push_back(raw(kind == BinKind::kBitAnd ? 0 : kind == BinKind::kBitOr ? 1 : 2));
        out.push_back({"tryAttachInt32Bitwise", args});
      }
      break;
    }
    case Op::kCompare: {
      std::vector<ConcreteArg> args = {boxed(ops[0]), operand(ops[0]), boxed(ops[1]),
                                       operand(ops[1]), raw(instr.a)};
      out.push_back({"tryAttachCompareInt32", args});
      out.push_back({"tryAttachCompareNullUndefined", args});
      out.push_back({"tryAttachCompareStrictDifferentTypes", args});
      break;
    }
    case Op::kNeg:
      out.push_back({"tryAttachInt32Negation", {boxed(ops[0]), operand(ops[0])}});
      break;
    case Op::kBitNot:
      out.push_back({"tryAttachInt32Not", {boxed(ops[0]), operand(ops[0])}});
      break;
    default:
      break;
  }
  return out;
}

JsValue SlowOp(Interpreter& interp, const BytecodeInstr& instr, const JsValue* ops) {
  switch (instr.op) {
    case Op::kGetProp: return interp.SlowGetProp(ops[0], static_cast<PropKey>(instr.a));
    case Op::kGetElem: return interp.SlowGetElem(ops[0], ops[1]);
    case Op::kBinary: return interp.SlowBinary(static_cast<BinKind>(instr.a), ops[0], ops[1]);
    case Op::kCompare: return interp.SlowCompare(static_cast<CmpKind>(instr.a), ops[0], ops[1]);
    case Op::kNeg: return interp.SlowNeg(ops[0]);
    default: return interp.SlowBitNot(ops[0]);
  }
}

// Nanoseconds per call of `fn`: median over 5 blocks of 64 calls.
template <typename Fn>
double NsPerCall(Fn&& fn) {
  constexpr int kReps = 64;
  std::vector<double> blocks;
  for (int b = 0; b < 5; ++b) {
    int64_t t0 = WallNs();
    for (int r = 0; r < kReps; ++r) {
      fn();
    }
    blocks.push_back(static_cast<double>(WallNs() - t0) / kReps);
  }
  return Median(blocks);
}

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) {
    sum += x;
  }
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

// Per-call cost of each IC layer, averaged over the programs' IC sites.
struct LayerCosts {
  double attach_us = 0.0;     // One IcCompiler::TryAttach call.
  double stub_hit_ns = 0.0;   // StubEngine::Run returning kReturn.
  double stub_bail_ns = 0.0;  // StubEngine::Run returning kBail.
  double slow_path_ns = 0.0;  // Interpreter::Slow*.
};

LayerCosts TimeLayers(const Platform* platform, const ProgramSet& set, Tracer* tracer) {
  ScopedSpan root(tracer, "vm.layer_timing");
  Runtime* rt = set.runtime.get();
  IcCompiler compiler(platform);  // Own instance: the workload's counters stay clean.
  StubEngine engine(compiler.masm());
  Interpreter slow(rt, nullptr, IcStrategy::kNone);
  std::vector<double> attach_us, hit_ns, bail_ns, slow_ns;
  volatile uint64_t sink = 0;  // Keeps the timed results observable.
  for (const SiteSample& s : set.samples) {
    std::optional<CompiledStub> stub;
    for (const auto& [generator, args] : CandidatesFor(*rt, s.instr, s.hit)) {
      std::vector<double> calls;
      for (int rep = 0; rep < 3; ++rep) {
        int64_t t0 = WallNs();
        auto attached = compiler.TryAttach(rt, generator, args);
        calls.push_back(static_cast<double>(WallNs() - t0) / 1e3);
        if (rep == 0 && attached.ok() && attached.value().has_value()) {
          stub = std::move(*attached.value());
        }
      }
      attach_us.push_back(Median(calls));
      if (stub) {
        break;
      }
    }
    if (stub) {
      JsValue out;
      if (engine.Run(rt, *stub, s.hit, s.num_operands, &out) == StubOutcome::kReturn) {
        hit_ns.push_back(NsPerCall([&] {
          engine.Run(rt, *stub, s.hit, s.num_operands, &out);
          sink = sink + out.raw();
        }));
      }
      if (engine.Run(rt, *stub, s.bail, s.num_operands, &out) == StubOutcome::kBail) {
        bail_ns.push_back(NsPerCall([&] { engine.Run(rt, *stub, s.bail, s.num_operands, &out); }));
      }
    }
    slow_ns.push_back(NsPerCall([&] { sink = sink + SlowOp(slow, s.instr, s.hit).raw(); }));
  }
  return {Mean(attach_us), Mean(hit_ns), Mean(bail_ns), Mean(slow_ns)};
}

bool RunVm(const Options& options, bool fresh, Tracer* tracer, Result* result) {
  ProgramSetParams params;
  params.programs = kPrograms;
  params.iterations = fresh ? kFreshIterations : kHotIterations;
  params.polymorphic = fresh;
  result->params = {
      {"programs", icarus::StrCat(kPrograms, " x 17 statements, one per IC menu entry, seeded order")},
      {"iterations", icarus::StrCat(params.iterations, " loop trips per program per pass")},
      {"variants", fresh ? "k in 1..8 receivers/operands per site, each k once per menu entry"
                         : "k = 1: every site monomorphic"},
      {"ics", fresh ? "reset before every pass" : "warmed in set-up"},
      {"why", fresh ? "attach, bails and the slow path dominate (ROADMAP item 1(b))"
                    : "the StubEngine::Run hit path dominates, attach does none "
                      "(ROADMAP item 1(a))"},
  };

  bool loaded_ok = true;
  const SetupFn setup = [&]() -> std::shared_ptr<void> {
    auto s = std::make_shared<VmState>();
    auto loaded = Platform::Load();
    if (!loaded.ok()) {
      loaded_ok = false;
      return nullptr;
    }
    s->platform = loaded.take();
    s->compiler = std::make_unique<IcCompiler>(s->platform.get());
    s->set = BuildProgramSet(options.seed, params);
    s->interp = std::make_unique<Interpreter>(s->set.runtime.get(), s->compiler.get(),
                                              IcStrategy::kIcarus);
    if (!fresh) {
      for (const auto& program : s->set.programs) {
        s->interp->Run(program);
      }
    }
    return s;
  };
  std::shared_ptr<VmState> state = std::static_pointer_cast<VmState>(TimeSetup(setup, result));
  if (!loaded_ok) {
    std::fprintf(stderr, "platform load failed\n");
    return false;
  }
  const auto& programs = state->set.programs;
  Runtime* rt = state->set.runtime.get();

  // References: the slow path alone is the answer; the hand-written ICs must
  // agree with it.
  Interpreter none(rt, nullptr, IcStrategy::kNone);
  Interpreter native(rt, nullptr, IcStrategy::kNative);
  std::vector<uint64_t> expected;
  for (const auto& program : programs) {
    expected.push_back(none.Run(program).raw());
    if (native.Run(program).raw() != expected.back()) {
      ++result->wrong_outputs;
    }
  }

  auto run_checked = [&](Interpreter& interp, size_t p, bool count_op) {
    if (count_op) {
      ++result->ops;
    }
    try {
      if (interp.Run(programs[p]).raw() != expected[p]) {
        ++result->wrong_outputs;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", programs[p].name.c_str(), e.what());
      ++result->failed_ops;
      ++result->wrong_outputs;
    }
  };
  Interpreter& icarus = *state->interp;
  auto pass = [&] {
    if (fresh) {
      icarus.ResetIcs();
    }
    for (size_t p = 0; p < programs.size(); ++p) {
      run_checked(icarus, p, true);
    }
  };

  auto traced = [&] {
    InterpStats before = icarus.stats();
    int64_t attach_before = state->compiler->attach_calls();
    {
      ScopedSpan pass_span(tracer, "pass");
      if (fresh) {
        icarus.ResetIcs();
      }
      for (size_t p = 0; p < programs.size(); ++p) {
        ScopedSpan span(tracer, "vm.run");
        run_checked(icarus, p, true);
      }
    }
    const InterpStats& after = icarus.stats();
    double hits = static_cast<double>(after.ic_hits - before.ic_hits);
    double misses = static_cast<double>(after.ic_misses - before.ic_misses);
    double bails = static_cast<double>(after.ic_bails - before.ic_bails);
    double attached = static_cast<double>(after.stubs_attached - before.stubs_attached);
    double calls = static_cast<double>(state->compiler->attach_calls() - attach_before);
    LayerSamples& l = result->layers;
    l.Add("trace.pass_ms", tracer->LastRootStats("pass")["pass"].max_ms);
    l.Add("vm.ic_ops", hits + misses);
    l.Add("vm.ic_hits", hits);
    l.Add("vm.ic_misses", misses);
    l.Add("vm.ic_bails", bails);
    l.Add("vm.stubs_attached", attached);
    l.Add("vm.attach_calls", calls);
    l.Add("vm.hit_rate", hits + misses > 0 ? hits / (hits + misses) : 0.0);
    l.Add("vm.bails_per_hit", hits > 0 ? bails / hits : 0.0);
    l.Add("vm.attach_success", calls > 0 ? attached / calls : 0.0);

    // Reference arms, same programs and IC policy as the measured pass.
    {
      ScopedSpan span(tracer, "stock.pass");
      if (fresh) {
        native.ResetIcs();
      }
      for (size_t p = 0; p < programs.size(); ++p) {
        run_checked(native, p, false);
      }
    }
    l.Add("vm.stock_pass_ms", tracer->LastRootStats("stock.pass")["stock.pass"].max_ms);
    {
      ScopedSpan span(tracer, "noic.pass");
      for (size_t p = 0; p < programs.size(); ++p) {
        run_checked(none, p, false);
      }
    }
    l.Add("vm.noic_pass_ms", tracer->LastRootStats("noic.pass")["noic.pass"].max_ms);
  };

  pass();  // Warm-up.
  MeasurePasses(options, tracer, result, pass, traced, setup);
  if (!options.trace) {
    return true;
  }
  tracer->set_enabled(true);
  LayerCosts costs = TimeLayers(state->platform.get(), state->set, tracer);
  for (int rep = 0; rep < 3; ++rep) {
    TracePlatformLoad(tracer, result);
  }
  tracer->set_enabled(false);

  LayerSamples& l = result->layers;
  double pass_ns = l.Median("trace.pass_ms") * 1e6;
  double stub_share = (l.Median("vm.ic_hits") * costs.stub_hit_ns +
                       l.Median("vm.ic_bails") * costs.stub_bail_ns) /
                      pass_ns;
  double attach_share = l.Median("vm.attach_calls") * costs.attach_us * 1e3 / pass_ns;
  double slow_share = l.Median("vm.ic_misses") * costs.slow_path_ns / pass_ns;
  l.Add("vm.attach_us", costs.attach_us);
  l.Add("vm.stub_hit_ns", costs.stub_hit_ns);
  l.Add("vm.stub_bail_ns", costs.stub_bail_ns);
  l.Add("vm.slow_path_ns", costs.slow_path_ns);
  l.Add("vm.stub_share", stub_share);
  l.Add("vm.attach_share", attach_share);
  l.Add("vm.slow_share", slow_share);
  l.Add("vm.icarus_over_stock", Median(result->passes.wall_ms) / l.Median("vm.stock_pass_ms"));
  l.Add("trace.unattributed_pct", 100.0 * (1.0 - stub_share - attach_share - slow_share));
  return true;
}

}  // namespace

bool RunVmHotLoop(const Options& options, Tracer* tracer, Result* result) {
  return RunVm(options, /*fresh=*/false, tracer, result);
}

bool RunVmFreshCode(const Options& options, Tracer* tracer, Result* result) {
  return RunVm(options, /*fresh=*/true, tracer, result);
}

}  // namespace perfbench
