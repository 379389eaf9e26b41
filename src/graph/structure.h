// Structural predicates from the paper's Section 2: cliques, cycles, paths,
// nice graphs, and Gallai trees (Definition 7 / Theorem 8).
#pragma once

#include <span>
#include <vector>

#include "graph/graph.h"

namespace deltacol {

// Whole-graph predicates. All treat the graph as-is (they do not look at a
// subset); use ops.h::induced_subgraph to test a vertex subset.
bool is_clique(const Graph& g);       // complete graph on >= 1 vertices
bool is_cycle(const Graph& g);        // connected, every degree exactly 2, n >= 3
bool is_odd_cycle(const Graph& g);
bool is_path(const Graph& g);         // connected, max degree <= 2, not a cycle
// "Nice" per [PS95]: connected and neither a path, a cycle, nor a clique.
// Nice graphs are exactly the connected graphs the paper's algorithms accept.
bool is_nice(const Graph& g);

// A Gallai tree: every block is a clique or an odd cycle (Definition 7).
// By Theorem 8 [ERT79, Viz76], Gallai trees are exactly the graphs that are
// NOT degree-choosable.
bool is_gallai_tree(const Graph& g);

// Is `block`, the vertex set of one block of g (as enumerate_blocks or
// block_decomposition emit it), a clique or an odd cycle? Decided in place
// from in-block degrees, with no induced subgraph: a block is connected, so
// it is a clique iff every member has |B| - 1 in-block neighbours, and an
// odd cycle iff every member has exactly 2 and |B| is odd. `mark` is caller
// scratch with a zero entry for every vertex of g; it is all zero again on
// return. `Adjacency` is a Graph or anything with the same neighbors(v).
template <typename Adjacency>
bool is_gallai_block(const Adjacency& g, std::span<const int> block,
                     std::vector<char>& mark) {
  const int size = static_cast<int>(block.size());
  if (size <= 3) return true;  // a bridge (K2) or a triangle (K3)
  for (int v : block) mark[static_cast<std::size_t>(v)] = 1;
  bool clique = true;
  bool odd_cycle = size % 2 == 1;
  for (int v : block) {
    int in_block_degree = 0;
    for (int w : g.neighbors(v)) {
      in_block_degree += mark[static_cast<std::size_t>(w)];
    }
    clique = clique && in_block_degree == size - 1;
    odd_cycle = odd_cycle && in_block_degree == 2;
    if (!clique && !odd_cycle) break;
  }
  for (int v : block) mark[static_cast<std::size_t>(v)] = 0;
  return clique || odd_cycle;
}

// Does the vertex subset induce a clique in g? `Adjacency` is a Graph or
// anything with the same has_edge(u, v).
template <typename Adjacency>
bool induces_clique(const Adjacency& g, std::span<const int> vertices) {
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    for (std::size_t j = i + 1; j < vertices.size(); ++j) {
      if (!g.has_edge(vertices[i], vertices[j])) return false;
    }
  }
  return true;
}

}  // namespace deltacol
