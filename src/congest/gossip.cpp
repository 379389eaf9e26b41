#include "congest/gossip.h"

#include <algorithm>

#include "graph/frontier_bfs.h"
#include "util/check.h"

namespace deltacol {

GossipTree build_gossip_tree(const Graph& g, int root) {
  const int n = g.num_vertices();
  DC_REQUIRE(0 <= root && root < n, "gossip root out of range");

  BfsScratch scratch;
  scratch.run(g, root);

  GossipTree tree;
  tree.root = root;
  tree.parent.assign(static_cast<std::size_t>(n), -1);
  tree.depth.assign(static_cast<std::size_t>(n), -1);
  tree.children.resize(static_cast<std::size_t>(n));
  tree.height = scratch.num_levels() - 1;
  tree.num_nodes = static_cast<int>(scratch.order().size());

  for (int v : scratch.order()) {
    tree.depth[static_cast<std::size_t>(v)] = scratch.dist(v);
  }
  // Claim-order replay: sweep the visit order; the first frontier vertex u
  // whose neighbor scan reaches a next-level vertex w is exactly the vertex
  // that claimed w in the BFS, so parent assignment reproduces its tree.
  std::vector<char> claimed(static_cast<std::size_t>(n), 0);
  claimed[static_cast<std::size_t>(root)] = 1;
  for (int u : scratch.order()) {
    const int du = scratch.dist(u);
    for (int w : g.neighbors(u)) {
      if (!scratch.visited(w) || claimed[static_cast<std::size_t>(w)]) continue;
      if (scratch.dist(w) != du + 1) continue;
      claimed[static_cast<std::size_t>(w)] = 1;
      tree.parent[static_cast<std::size_t>(w)] = u;
      tree.children[static_cast<std::size_t>(u)].push_back(w);
    }
  }
  // Child lists fill in claim order; sort ascending for the convergecast
  // fold contract (a stable, engine-independent order).
  for (auto& c : tree.children) std::sort(c.begin(), c.end());
  return tree;
}

std::vector<std::int64_t> gossip_broadcast(const GossipTree& tree,
                                           std::int64_t value,
                                           std::int64_t payload_bits,
                                           RoundLedger& ledger,
                                           std::string_view phase,
                                           std::int64_t fill) {
  DC_REQUIRE(payload_bits >= 1, "broadcast payload must be at least one bit");
  const std::size_t n = tree.parent.size();
  std::vector<std::int64_t> out(n, fill);
  for (std::size_t v = 0; v < n; ++v) {
    if (tree.depth[v] >= 0) out[v] = value;
  }
  // One message round per tree level below the root; every edge of the
  // level carries the full payload, so the heaviest edge load is
  // payload_bits and CONGEST(B) charges ceil(payload_bits / B) per level.
  if (tree.height >= 1) {
    ledger.charge_message_round(payload_bits, phase, tree.height);
  }
  return out;
}

namespace {

std::int64_t fold(GossipOp op, std::int64_t a, std::int64_t b) {
  switch (op) {
    case GossipOp::kSum: return a + b;
    case GossipOp::kMin: return std::min(a, b);
    case GossipOp::kMax: return std::max(a, b);
  }
  return a;
}

}  // namespace

std::vector<std::int64_t> gossip_convergecast(
    const GossipTree& tree, const std::vector<std::int64_t>& values,
    GossipOp op, RoundLedger& ledger, std::string_view phase) {
  const std::size_t n = tree.parent.size();
  DC_REQUIRE(values.size() == n, "one value per vertex");
  std::vector<std::int64_t> agg = values;
  // Deepest level first: children are finalized before their parent folds
  // them in (ascending child order — fixed in build_gossip_tree).
  std::vector<int> by_depth;
  by_depth.reserve(n);
  for (std::size_t v = 0; v < n; ++v) {
    if (tree.depth[v] >= 0) by_depth.push_back(static_cast<int>(v));
  }
  std::sort(by_depth.begin(), by_depth.end(), [&](int a, int b) {
    const int da = tree.depth[static_cast<std::size_t>(a)];
    const int db = tree.depth[static_cast<std::size_t>(b)];
    return da != db ? da > db : a < b;
  });
  for (int v : by_depth) {
    for (int c : tree.children[static_cast<std::size_t>(v)]) {
      agg[static_cast<std::size_t>(v)] =
          fold(op, agg[static_cast<std::size_t>(v)],
               agg[static_cast<std::size_t>(c)]);
    }
  }
  // One 64-bit aggregate per tree edge per level, deepest level first.
  if (tree.height >= 1) {
    ledger.charge_message_round(64, phase, tree.height);
  }
  return agg;
}

}  // namespace deltacol
