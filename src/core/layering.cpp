#include "core/layering.h"

#include <algorithm>

#include "coloring/list_coloring.h"
#include "graph/frontier_bfs.h"
#include "util/check.h"

namespace deltacol {

namespace {

// Materializes a Layering from the engine's level slices: layer[v] from the
// levels, then members from one pass over v = 0..n-1, so every layer comes
// out in id order (the contract downstream phases and the golden round
// counts were built against) without a sort.
Layering layering_from_scratch(const BfsScratch& scratch, int n) {
  Layering out;
  out.layer.assign(static_cast<std::size_t>(n), kNoLayer);
  out.num_layers = scratch.num_levels();
  out.members.resize(static_cast<std::size_t>(out.num_layers));
  for (int l = 0; l < out.num_layers; ++l) {
    const auto lv = scratch.level(l);
    out.members[static_cast<std::size_t>(l)].reserve(lv.size());
    for (int v : lv) out.layer[static_cast<std::size_t>(v)] = l;
  }
  for (int v = 0; v < n; ++v) {
    const int l = out.layer[static_cast<std::size_t>(v)];
    if (l != kNoLayer) out.members[static_cast<std::size_t>(l)].push_back(v);
  }
  return out;
}

}  // namespace

Layering build_layers(const Graph& g, const std::vector<int>& base,
                      int max_depth) {
  for (int s : base) {
    DC_REQUIRE(0 <= s && s < g.num_vertices(), "base vertex out of range");
  }
  BfsScratch scratch;
  scratch.run_multi(g, base, max_depth);
  return layering_from_scratch(scratch, g.num_vertices());
}

Layering build_layers_restricted(const Graph& g, const std::vector<int>& base,
                                 int max_depth,
                                 const std::vector<bool>& allowed) {
  DC_REQUIRE(allowed.size() == static_cast<std::size_t>(g.num_vertices()),
             "allowed mask size mismatch");
  for (int s : base) {
    DC_REQUIRE(0 <= s && s < g.num_vertices(), "base vertex out of range");
    DC_REQUIRE(allowed[static_cast<std::size_t>(s)],
               "base vertex excluded by the restriction mask");
  }
  BfsScratch scratch;
  scratch.run_multi_filtered(g, base, max_depth, [&](int v) {
    return allowed[static_cast<std::size_t>(v)];
  });
  return layering_from_scratch(scratch, g.num_vertices());
}

void color_vertex_set_as_list_instance(const Graph& g,
                                       const std::vector<int>& vertices,
                                       int delta, const Coloring& schedule,
                                       int schedule_colors, ListEngine engine,
                                       Rng* rng, Coloring& c,
                                       RoundLedger& ledger,
                                       std::string_view phase,
                                       ThreadPool* pool) {
  const int n = g.num_vertices();
  DC_REQUIRE(static_cast<int>(c.size()) == n, "coloring size mismatch");
  for (int v : vertices) {
    DC_REQUIRE(0 <= v && v < n, "instance vertex out of range");
  }
  std::vector<int> todo;
  for (int v : vertices) {
    if (c[static_cast<std::size_t>(v)] == kUncolored) todo.push_back(v);
  }
  if (!std::is_sorted(todo.begin(), todo.end())) {
    std::sort(todo.begin(), todo.end());
  }
  todo.erase(std::unique(todo.begin(), todo.end()), todo.end());
  if (todo.empty()) return;
  switch (engine) {
    case ListEngine::kDeterministic:
      det_list_coloring(g, todo, Palette::uniform(delta), schedule,
                        schedule_colors, c, ledger, phase, pool);
      break;
    case ListEngine::kRandomized:
      DC_REQUIRE(rng != nullptr, "randomized engine needs an Rng");
      rand_list_coloring(g, todo, Palette::uniform(delta), schedule,
                         schedule_colors, *rng, c, ledger, phase, pool);
      break;
  }
}

void color_layers_in_reverse(const Graph& g, const Layering& layering,
                             int delta, const Coloring& schedule,
                             int schedule_colors, ListEngine engine, Rng* rng,
                             Coloring& c, RoundLedger& ledger,
                             std::string_view phase, ThreadPool* pool) {
  // Layers are inherently sequential (layer i needs i+1 colored); the
  // parallelism lives inside each layer's instance.
  for (int i = layering.num_layers - 1; i >= 1; --i) {
    color_vertex_set_as_list_instance(
        g, layering.members[static_cast<std::size_t>(i)], delta, schedule,
        schedule_colors, engine, rng, c, ledger, phase, pool);
  }
}

}  // namespace deltacol
