// Control-flow automaton (CFA) over the target instructions a stub
// generator can emit (§2.4). Nodes are identified by *static emit sites*
// (the `emit` statements in the compiler, which Icarus can track because
// labels are second-class); edges over-approximate the control-flow
// transfers — fallthrough, forward jumps through bound labels, and bail-outs
// to the failure exit — across all stubs the generator can produce.
//
// The automaton serves three purposes here, mirroring the paper:
//   - it is the artifact that makes the interpreter phase tractable (the
//     meta-executor realizes the same constraint natively by interpreting
//     per-path op-concrete buffers; see meta/meta_executor.h);
//   - it drives the CFA-constrained mode of the ablation benchmark, where
//     path counts through the automaton are compared against the naive k^n
//     enumeration;
//   - it can be exported to GraphViz DOT for inspection (Figure 6).
#ifndef ICARUS_CFA_CFA_H_
#define ICARUS_CFA_CFA_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/ast/ast.h"
#include "src/exec/evaluator.h"
#include "src/meta/meta_executor.h"
#include "src/support/status.h"

namespace icarus::cfa {

// Special node ids.
inline constexpr int kEntry = -1;
inline constexpr int kExit = -2;     // Normal stub return / fallthrough.
inline constexpr int kFailure = -3;  // Bail-out to the IC failure path.

struct Node {
  int id = 0;
  const ast::OpDecl* op = nullptr;
  const ast::Stmt* emit_site = nullptr;
  // The source (CacheIR) op whose compilation emitted this instruction, when
  // known; groups nodes the way Figure 6 draws its boxes.
  const ast::OpDecl* source_op = nullptr;
};

class Cfa {
 public:
  const std::vector<Node>& nodes() const { return nodes_; }
  const std::set<std::pair<int, int>>& edges() const { return edges_; }

  // Nodes are keyed by (emit site, source-instruction index) — the emitPath
  // discipline of §2.4 — so re-running a compiler callback for a later
  // source instruction creates a fresh node instead of a spurious cycle.
  int NodeFor(const ast::OpDecl* op, const ast::Stmt* emit_site, int source_index,
              const ast::OpDecl* source_op);
  void AddEdge(int from, int to) {
    if (edges_.insert({from, to}).second) {
      adjacency_dirty_ = true;
    }
  }

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int num_edges() const { return static_cast<int>(edges_.size()); }

  // Successors of `node` (kEntry for entry successors), served from a
  // precomputed adjacency index rebuilt lazily after edge mutations.
  const std::vector<int>& Successors(int node) const;

  // Number of distinct instruction sequences (paths entry → exit/failure) of
  // length <= max_len, saturating at `cap`.
  int64_t CountPaths(int max_len, int64_t cap = INT64_MAX / 4) const;

  // GraphViz DOT rendering (grouped by source op like Figure 6).
  std::string ToDot() const;

  std::string Summary() const;

 private:
  void RebuildAdjacency() const;

  std::vector<Node> nodes_;
  std::map<std::pair<const ast::Stmt*, int>, int> by_site_;
  std::set<std::pair<int, int>> edges_;
  // Lazily-built adjacency index: successors_[id + kNumSentinels] for real
  // nodes, dedicated slots for the sentinels. Successors() used to scan the
  // whole edge set per call, making CountPaths O(len * nodes * edges).
  mutable std::vector<std::vector<int>> adjacency_;
  mutable bool adjacency_dirty_ = true;
};

// Builds the CFA for a meta-stub by abstract (all-branches) execution of the
// generator + compiler: every branch is explored regardless of feasibility,
// and the emitted instruction/label structure of each abstract path is folded
// into the automaton. On loop-free, non-recursive Icarus programs this
// enumerates the same over-approximation the paper's static analyzer walks.
class CfaBuilder {
 public:
  CfaBuilder(const ast::Module* module, const exec::ExternRegistry* externs)
      : module_(module), externs_(externs) {}

  StatusOr<Cfa> Build(const meta::MetaStub& stub);

 private:
  const ast::Module* module_;
  const exec::ExternRegistry* externs_;
};

}  // namespace icarus::cfa

#endif  // ICARUS_CFA_CFA_H_
