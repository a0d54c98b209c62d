#include "src/cfa/cfa.h"

#include "src/support/str_util.h"

namespace icarus::cfa {

namespace {

// Graphviz double-quoted strings treat `"` and `\` specially; op names come
// from user-supplied generator sources, so escape rather than trust them.
std::string EscapeDotLabel(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c);
  }
  return out;
}

}  // namespace

int Cfa::NodeFor(const ast::OpDecl* op, const ast::Stmt* emit_site, int source_index,
                 const ast::OpDecl* source_op) {
  auto key = std::make_pair(emit_site, source_index);
  auto it = by_site_.find(key);
  if (it != by_site_.end()) {
    return it->second;
  }
  Node node;
  node.id = static_cast<int>(nodes_.size());
  node.op = op;
  node.emit_site = emit_site;
  node.source_op = source_op;
  nodes_.push_back(node);
  by_site_[key] = node.id;
  return node.id;
}

void Cfa::RebuildAdjacency() const {
  // Slot layout: sentinels first (id + 3 maps kFailure/kExit/kEntry to
  // 0/1/2), then real nodes at id + 3.
  adjacency_.assign(nodes_.size() + 3, {});
  for (const auto& [from, to] : edges_) {
    adjacency_[static_cast<size_t>(from + 3)].push_back(to);
  }
  adjacency_dirty_ = false;
}

const std::vector<int>& Cfa::Successors(int node) const {
  if (adjacency_dirty_) {
    RebuildAdjacency();
  }
  static const std::vector<int> kEmpty;
  size_t slot = static_cast<size_t>(node + 3);
  if (slot >= adjacency_.size()) {
    return kEmpty;
  }
  return adjacency_[slot];
}

int64_t Cfa::CountPaths(int max_len, int64_t cap) const {
  // DP over (node, remaining length): number of op sequences from `node`
  // that reach an exit within the budget. Saturating arithmetic: both
  // operands stay in [0, cap], so test against the headroom *before* adding
  // (computing a + b first would be signed overflow once cap is near
  // INT64_MAX).
  auto sat_add = [cap](int64_t a, int64_t b) { return a >= cap - b ? cap : a + b; };
  size_t n = nodes_.size();
  // reach[l][v] = sequences of length <= l starting at node v ending in exit.
  std::vector<int64_t> prev(n, 0);
  std::vector<int64_t> cur(n, 0);
  for (int l = 1; l <= max_len; ++l) {
    for (size_t v = 0; v < n; ++v) {
      int64_t total = 0;
      for (int succ : Successors(static_cast<int>(v))) {
        if (succ == kExit || succ == kFailure) {
          total = sat_add(total, 1);
        } else if (succ >= 0) {
          total = sat_add(total, prev[static_cast<size_t>(succ)]);
        }
      }
      cur[static_cast<size_t>(v)] = total;
    }
    prev = cur;
  }
  int64_t total = 0;
  for (int succ : Successors(kEntry)) {
    if (succ == kExit || succ == kFailure) {
      total = sat_add(total, 1);
    } else if (succ >= 0) {
      total = sat_add(total, prev[static_cast<size_t>(succ)]);
    }
  }
  return total;
}

std::string Cfa::ToDot() const {
  std::string out = "digraph cfa {\n  rankdir=TB;\n  node [shape=box, fontsize=10];\n";
  out += "  entry [shape=circle, label=\"\"];\n";
  out += "  exit [shape=doublecircle, label=\"exit\"];\n";
  out += "  failure [shape=doublecircle, label=\"fail\"];\n";
  // Group nodes by their source (CacheIR) op, like Figure 6's purple boxes.
  std::map<const ast::OpDecl*, std::vector<const Node*>> groups;
  for (const Node& node : nodes_) {
    groups[node.source_op].push_back(&node);
  }
  int cluster = 0;
  for (const auto& [source_op, members] : groups) {
    if (source_op != nullptr) {
      out += StrCat("  subgraph cluster_", cluster++, " {\n    label=\"",
                    EscapeDotLabel(source_op->name), "\";\n    style=rounded;\n");
    }
    for (const Node* node : members) {
      out += StrCat(source_op != nullptr ? "    " : "  ", "n", node->id, " [label=\"",
                    EscapeDotLabel(node->op->name), "\"];\n");
    }
    if (source_op != nullptr) {
      out += "  }\n";
    }
  }
  auto name_of = [](int id) -> std::string {
    if (id == kEntry) {
      return "entry";
    }
    if (id == kExit) {
      return "exit";
    }
    if (id == kFailure) {
      return "failure";
    }
    return StrCat("n", id);
  };
  for (const auto& [from, to] : edges_) {
    out += StrCat("  ", name_of(from), " -> ", name_of(to), ";\n");
  }
  out += "}\n";
  return out;
}

std::string Cfa::Summary() const {
  return StrFormat("CFA: %d nodes, %d edges, %lld paths (len<=32)", num_nodes(), num_edges(),
                   static_cast<long long>(CountPaths(32, 1000000)));
}

StatusOr<Cfa> CfaBuilder::Build(const meta::MetaStub& stub) {
  Cfa cfa;
  // Which target ops can end the stub (their interpreter callback reaches
  // MASM::returnFromStub)?
  auto op_can_return = [&](const ast::OpDecl* op) {
    const ast::FunctionDecl* cb = stub.interpreter->FindCallback(op);
    if (cb == nullptr) {
      return false;
    }
    bool found = false;
    auto walk_expr = [&](auto&& self, const ast::Expr* e) -> void {
      if (e == nullptr || found) {
        return;
      }
      if (e->kind == ast::ExprKind::kCall && e->callee_ext != nullptr &&
          e->callee_ext->name == "MASM::returnFromStub") {
        found = true;
        return;
      }
      for (const ast::ExprPtr& a : e->args) {
        self(self, a.get());
      }
    };
    auto walk_block = [&](auto&& self, const std::vector<ast::StmtPtr>& block) -> void {
      for (const ast::StmtPtr& stmt : block) {
        walk_expr(walk_expr, stmt->expr.get());
        for (const ast::ExprPtr& a : stmt->args) {
          walk_expr(walk_expr, a.get());
        }
        self(self, stmt->then_block);
        self(self, stmt->else_block);
      }
    };
    walk_block(walk_block, cb->body);
    return found;
  };

  sym::ExprPool pool;
  exec::EvalContext ctx(module_, &pool, externs_);
  ctx.set_abstract_mode(true);
  exec::Explorer explorer(&ctx);
  explorer.set_compiler(stub.compiler);
  std::vector<exec::Value> args;
  ICARUS_RETURN_IF_ERROR(stub.inputs(ctx, &args));
  explorer.Call(stub.generator, args);
  int paths = 0;
  constexpr int kMaxAbstractPaths = 100000;

  do {
    if (++paths > kMaxAbstractPaths) {
      return Status::Error("abstract path budget exhausted while building the CFA");
    }
    exec::Value decision;
    if (explorer.Run(&decision) != exec::Explorer::Stop::kReturned ||
        decision.term == nullptr || decision.term->kind != sym::Kind::kConstInt ||
        decision.term->value != stub.attach_index) {
      continue;  // No stub attached on this abstract path.
    }

    // Fold this path's buffer and label structure into the automaton.
    const exec::EmitState& emits = ctx.emits();
    int buffer_size = static_cast<int>(emits.target.size());
    std::vector<int> node_at(static_cast<size_t>(buffer_size));
    for (int i = 0; i < buffer_size; ++i) {
      const exec::Instr& instr = emits.target[static_cast<size_t>(i)];
      node_at[static_cast<size_t>(i)] =
          cfa.NodeFor(instr.op, instr.emit_site, instr.source_index, instr.source_op);
    }
    for (int i = 0; i < buffer_size; ++i) {
      const exec::Instr& instr = emits.target[static_cast<size_t>(i)];
      int node = node_at[static_cast<size_t>(i)];
      if (i == 0) {
        cfa.AddEdge(kEntry, node);
      }
      if (op_can_return(instr.op)) {
        cfa.AddEdge(node, kExit);
      } else if (i + 1 < buffer_size) {
        cfa.AddEdge(node, node_at[static_cast<size_t>(i) + 1]);
      } else {
        cfa.AddEdge(node, kExit);
      }
      // Jump edges via label operands.
      for (const exec::Value& arg : instr.args) {
        if (!arg.IsLabel()) {
          continue;
        }
        const exec::LabelInfo& label = emits.labels[static_cast<size_t>(arg.label_id)];
        if (label.is_failure) {
          cfa.AddEdge(node, kFailure);
        } else if (label.target >= buffer_size) {
          cfa.AddEdge(node, kExit);
        } else if (label.target >= 0) {
          cfa.AddEdge(node, node_at[static_cast<size_t>(label.target)]);
        }
      }
    }
    if (buffer_size == 0) {
      cfa.AddEdge(kEntry, kExit);
    }
  } while (explorer.Backtrack());
  return cfa;
}

}  // namespace icarus::cfa
