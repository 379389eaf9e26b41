#include "graph/components.h"

#include <algorithm>
#include <queue>

namespace deltacol {

std::vector<std::vector<int>> ConnectedComponents::vertex_sets() const {
  std::vector<std::vector<int>> sets(static_cast<std::size_t>(count));
  for (int v = 0; v < static_cast<int>(component.size()); ++v) {
    sets[static_cast<std::size_t>(component[v])].push_back(v);
  }
  return sets;
}

ConnectedComponents connected_components(const Graph& g) {
  ConnectedComponents cc;
  const int n = g.num_vertices();
  cc.component.assign(static_cast<std::size_t>(n), -1);
  for (int s = 0; s < n; ++s) {
    if (cc.component[s] != -1) continue;
    const int id = cc.count++;
    std::queue<int> q;
    cc.component[s] = id;
    q.push(s);
    while (!q.empty()) {
      const int u = q.front();
      q.pop();
      for (int w : g.neighbors(u)) {
        if (cc.component[w] == -1) {
          cc.component[w] = id;
          q.push(w);
        }
      }
    }
  }
  return cc;
}

bool is_connected(const Graph& g) {
  if (g.num_vertices() <= 1) return true;
  return connected_components(g).count == 1;
}

BlockDecomposition block_decomposition(const Graph& g) {
  BlockScratch s;
  enumerate_blocks(g, s);
  BlockDecomposition out;
  out.blocks.reserve(static_cast<std::size_t>(s.num_blocks()));
  // Cut vertices are exactly the vertices lying in two or more blocks.
  std::vector<int> num_blocks_of(static_cast<std::size_t>(g.num_vertices()), 0);
  for (int b = 0; b < s.num_blocks(); ++b) {
    const auto block = s.block(b);
    auto& sorted = out.blocks.emplace_back(block.begin(), block.end());
    std::sort(sorted.begin(), sorted.end());
    for (int v : block) ++num_blocks_of[static_cast<std::size_t>(v)];
  }
  out.is_articulation.assign(static_cast<std::size_t>(g.num_vertices()), false);
  for (int v = 0; v < g.num_vertices(); ++v) {
    out.is_articulation[static_cast<std::size_t>(v)] =
        num_blocks_of[static_cast<std::size_t>(v)] >= 2;
  }
  return out;
}

}  // namespace deltacol
