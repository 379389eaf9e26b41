#include "graph/graph.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace deltacol {

Graph Graph::from_edges(int n, std::span<const Edge> edges) {
  DC_REQUIRE(n >= 0, "vertex count must be non-negative");
  std::vector<Edge> normalized;
  normalized.reserve(edges.size());
  for (const auto& [u, v] : edges) {
    DC_REQUIRE(0 <= u && u < n && 0 <= v && v < n, "edge endpoint out of range");
    DC_REQUIRE(u != v, "self-loops are not allowed in simple graphs");
    normalized.emplace_back(std::min(u, v), std::max(u, v));
  }
  std::sort(normalized.begin(), normalized.end());
  normalized.erase(std::unique(normalized.begin(), normalized.end()),
                   normalized.end());

  Graph g;
  g.offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const auto& [u, v] : normalized) {
    ++g.offsets_[static_cast<std::size_t>(u) + 1];
    ++g.offsets_[static_cast<std::size_t>(v) + 1];
  }
  for (int v = 0; v < n; ++v) g.offsets_[v + 1] += g.offsets_[v];
  g.adj_.resize(normalized.size() * 2);
  std::vector<int> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const auto& [u, v] : normalized) {
    g.adj_[static_cast<std::size_t>(cursor[u]++)] = v;
    g.adj_[static_cast<std::size_t>(cursor[v]++)] = u;
  }
  for (int v = 0; v < n; ++v) {
    auto nb = g.adj_.begin() + g.offsets_[v];
    std::sort(nb, g.adj_.begin() + g.offsets_[v + 1]);
  }
  g.set_degree_bounds();
  return g;
}

Graph Graph::from_sorted_csr(std::vector<int> offsets, std::vector<int> adj) {
  DC_REQUIRE(!offsets.empty() && offsets.front() == 0 &&
                 static_cast<std::size_t>(offsets.back()) == adj.size(),
             "CSR offsets must run from 0 to the adjacency size");
  Graph g;
  g.offsets_ = std::move(offsets);
  g.adj_ = std::move(adj);
  for (int v = 0; v < g.num_vertices(); ++v) {
    DC_REQUIRE(g.degree(v) >= 0, "CSR offsets must be non-decreasing");
  }
  g.set_degree_bounds();
  return g;
}

void Graph::set_degree_bounds() {
  const int n = num_vertices();
  max_degree_ = 0;
  min_degree_ = n > 0 ? n : 0;
  for (int v = 0; v < n; ++v) {
    max_degree_ = std::max(max_degree_, degree(v));
    min_degree_ = std::min(min_degree_, degree(v));
  }
}

bool Graph::has_edge(int u, int v) const {
  const auto nb = neighbors(u);
  return std::binary_search(nb.begin(), nb.end(), v);
}

std::vector<Edge> Graph::edge_list() const {
  std::vector<Edge> out;
  out.reserve(static_cast<std::size_t>(num_edges()));
  for (int u = 0; u < num_vertices(); ++u) {
    for (int v : neighbors(u)) {
      if (u < v) out.emplace_back(u, v);
    }
  }
  return out;
}

void GraphBuilder::add_edge(int u, int v) {
  DC_REQUIRE(0 <= u && u < n_ && 0 <= v && v < n_, "edge endpoint out of range");
  DC_REQUIRE(u != v, "self-loops are not allowed in simple graphs");
  edges_.emplace_back(u, v);
}

bool GraphBuilder::has_edge(int u, int v) const {
  for (const auto& [a, b] : edges_) {
    if ((a == u && b == v) || (a == v && b == u)) return true;
  }
  return false;
}

}  // namespace deltacol
