// Connectivity and biconnectivity (block) decomposition.
//
// Blocks (maximal 2-connected subgraphs, with bridges as K2 blocks) are the
// backbone of the Gallai-tree characterization of non-degree-choosable
// graphs (Theorem 8 of the paper): a graph is a Gallai tree iff every block
// is a clique or an odd cycle.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace deltacol {

struct ConnectedComponents {
  std::vector<int> component;  // component id per vertex, dense in [0, count)
  int count = 0;

  std::vector<std::vector<int>> vertex_sets() const;
};
ConnectedComponents connected_components(const Graph& g);

bool is_connected(const Graph& g);

struct BlockDecomposition {
  // Vertex sets of the blocks. A bridge contributes a 2-vertex block; an
  // isolated vertex contributes no block.
  std::vector<std::vector<int>> blocks;
  // True for cut vertices (articulation points).
  std::vector<bool> is_articulation;
};

// Iterative Tarjan/Hopcroft lowpoint algorithm; linear time, no recursion so
// deep graphs (long paths) are safe.
BlockDecomposition block_decomposition(const Graph& g);

// Reusable state for enumerate_blocks: the lowpoint DFS arrays, and the
// blocks of the last call stored flat. Buffers grow to the largest graph
// seen and are reused, so repeated calls allocate nothing in steady state.
struct BlockScratch {
  struct Frame {
    int vertex;
    int parent;
    int next_neighbor;  // index into neighbors(vertex)
  };
  std::vector<int> disc;
  std::vector<int> low;
  std::vector<int> vertex_stack;  // discovered vertices not yet in a block
  std::vector<Frame> frames;
  // Block b of the last call is block_vertices[block_offsets[b],
  // block_offsets[b + 1]), in no particular order.
  std::vector<int> block_vertices;
  std::vector<int> block_offsets;

  int num_blocks() const { return static_cast<int>(block_offsets.size()) - 1; }
  std::span<const int> block(int b) const {
    const auto i = static_cast<std::size_t>(b);
    const auto lo = static_cast<std::size_t>(block_offsets[i]);
    const auto hi = static_cast<std::size_t>(block_offsets[i + 1]);
    return {block_vertices.data() + lo, hi - lo};
  }
};

// The block enumeration behind block_decomposition, over any adjacency with
// num_vertices() and neighbors(v) (a Graph, or a caller's local CSR). Blocks
// are emitted in the order they close, each as its vertex set (unsorted:
// callers that need order sort, callers that do not skip the cost); a
// bridge is a 2-vertex block and an isolated vertex yields none. A vertex
// stack replaces the edge stack: when tree edge (p, u) closes a block, the
// block is p plus every vertex still stacked above and including u.
template <typename Adjacency>
void enumerate_blocks(const Adjacency& g, BlockScratch& s) {
  const int n = g.num_vertices();
  s.disc.assign(static_cast<std::size_t>(n), -1);
  s.low.resize(static_cast<std::size_t>(n));
  s.vertex_stack.clear();
  s.frames.clear();
  s.block_vertices.clear();
  s.block_offsets.assign(1, 0);
  auto disc = [&s](int v) -> int& {
    return s.disc[static_cast<std::size_t>(v)];
  };
  auto low = [&s](int v) -> int& {
    return s.low[static_cast<std::size_t>(v)];
  };
  int timer = 0;
  for (int root = 0; root < n; ++root) {
    if (disc(root) != -1) continue;
    disc(root) = low(root) = timer++;
    s.vertex_stack.push_back(root);
    s.frames.push_back({root, -1, 0});
    while (!s.frames.empty()) {
      auto& f = s.frames.back();
      const int u = f.vertex;
      const auto nb = g.neighbors(u);
      // Scan u's remaining neighbours up to the first undiscovered one.
      int child = -1;
      while (child == -1 && f.next_neighbor < static_cast<int>(nb.size())) {
        const int w = nb[static_cast<std::size_t>(f.next_neighbor++)];
        if (disc(w) == -1) {
          child = w;
        } else if (w != f.parent) {
          low(u) = std::min(low(u), disc(w));
        }
      }
      if (child != -1) {
        disc(child) = low(child) = timer++;
        s.vertex_stack.push_back(child);
        s.frames.push_back({child, u, 0});  // invalidates f
        continue;
      }
      s.frames.pop_back();
      if (s.frames.empty()) {
        s.vertex_stack.pop_back();  // the root; its blocks are all closed
        continue;
      }
      const int p = s.frames.back().vertex;
      low(p) = std::min(low(p), low(u));
      if (low(u) < disc(p)) continue;
      // p separates u's subtree: close the block hanging off edge (p, u).
      int x = -1;
      do {
        x = s.vertex_stack.back();
        s.vertex_stack.pop_back();
        s.block_vertices.push_back(x);
      } while (x != u);
      s.block_vertices.push_back(p);
      s.block_offsets.push_back(static_cast<int>(s.block_vertices.size()));
    }
  }
}

}  // namespace deltacol
