/// \file
/// Deterministic gossip primitives over a BFS spanning tree — the classic
/// CONGEST building blocks (broadcast down, convergecast up) expressed on
/// this library's traversal + accounting substrate.
///
/// A `GossipTree` is the BFS tree of the root's connected component,
/// extracted from a `BfsScratch` run by replaying its claim order
/// (graph/frontier_bfs.h): the parent of w is the frontier vertex that first
/// scanned w, so the tree is a pure function of the graph and the root.
///
/// Both primitives move one payload per tree edge per level, so a
/// height-h tree costs h message rounds, each charged through the ledger's
/// CONGEST mode (local/round_ledger.h): ceil(payload_bits / B) per level
/// under CONGEST(B), exactly 1 per level in LOCAL. Execution is again an
/// accounting overlay — the computed values are identical for every B.
///
/// These are the primitives a distributed deployment uses for global
/// coordination (leader election of parameters, termination detection,
/// aggregate statistics); tests/test_congest.cpp pins their values and
/// charges.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "graph/graph.h"
#include "local/round_ledger.h"

namespace deltacol {

/// BFS spanning tree of the root's connected component. Vertices outside the
/// component have parent(v) = -1, depth(v) = -1 and appear in no child list.
struct GossipTree {
  int root = 0;
  /// parent[v]: BFS-tree parent (-1 for the root and for unreached vertices).
  std::vector<int> parent;
  /// depth[v]: distance from the root (-1 for unreached vertices).
  std::vector<int> depth;
  /// children[v]: tree children in ascending vertex order (deterministic
  /// fold order for convergecast).
  std::vector<std::vector<int>> children;
  /// Height of the tree = max depth (0 for a single-vertex component).
  int height = 0;
  /// Vertices in the root's component (= number of tree nodes).
  int num_nodes = 0;

  bool reached(int v) const {
    return depth[static_cast<std::size_t>(v)] >= 0;
  }
};

/// Builds the BFS spanning tree rooted at `root`.
GossipTree build_gossip_tree(const Graph& g, int root);

/// Broadcast: the root's `value` propagates down the tree, one level per
/// message round, each round carrying `payload_bits` bits on every tree edge
/// of that level. Charges height * ceil(payload_bits / B) rounds (height
/// rounds in LOCAL). Returns the delivered value per vertex (`fill` for
/// vertices outside the root's component).
std::vector<std::int64_t> gossip_broadcast(const GossipTree& tree,
                                           std::int64_t value,
                                           std::int64_t payload_bits,
                                           RoundLedger& ledger,
                                           std::string_view phase,
                                           std::int64_t fill = 0);

/// Associative fold a convergecast aggregates with.
enum class GossipOp {
  kSum,
  kMin,
  kMax,
};

/// Convergecast: every vertex contributes values[v]; aggregates flow up the
/// tree (leaves first), each internal vertex folding its own value with its
/// children's subtree aggregates in ascending child order. One 64-bit
/// message per tree edge per level: charges height * ceil(64 / B) rounds.
/// Returns the per-vertex subtree aggregate (the global aggregate is at the
/// root; vertices outside the component return their own value unchanged).
std::vector<std::int64_t> gossip_convergecast(
    const GossipTree& tree, const std::vector<std::int64_t>& values,
    GossipOp op, RoundLedger& ledger, std::string_view phase);

}  // namespace deltacol
