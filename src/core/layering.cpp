#include "core/layering.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "coloring/list_coloring.h"
#include "graph/frontier_bfs.h"
#include "graph/ops.h"
#include "runtime/thread_pool.h"
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

// Marks the vertices of the running instance in the caller's coloring. It
// is not a color, so every palette scan (first_free_color,
// num_free_colors) skips it, and it differs from kUncolored, so instance
// vertices are told apart from the other uncolored vertices, which block
// nothing.
constexpr Color kInInstance = -2;

// Colors in [0, palette) that no colored neighbor of v uses.
int num_free_colors(const Graph& g, const Coloring& c, int v, int palette) {
  int free = palette;
  for (int base = 0; base < palette; base += 64) {
    const int width = std::min(64, palette - base);
    std::uint64_t used = 0;
    for (int u : g.neighbors(v)) {
      const int x = c[static_cast<std::size_t>(u)] - base;
      if (0 <= x && x < width) used |= std::uint64_t{1} << x;
    }
    free -= std::popcount(used);
  }
  return free;
}

// The deterministic engine, run on the parent graph. `todo` is ascending
// and marked kInInstance in c. A vertex's list is the palette minus its
// colored neighbors' colors, so the first feasible list color is the
// smallest color free in G, and uncolored vertices outside the instance
// block nothing: each schedule class sweep gives each member
// first_free_color over its G-neighbors, written straight into c.
void color_in_place(const Graph& g, const std::vector<int>& todo, int delta,
                    const Coloring& schedule, int schedule_colors,
                    Coloring& c, RoundLedger& ledger, std::string_view phase,
                    ThreadPool* pool) {
  // Entry checks, one pass over the instance (reads only): the (deg+1)
  // precondition and a proper schedule on the instance's edges.
  constexpr char kShortList = 1;
  constexpr char kScheduleClash = 2;
  const int k = static_cast<int>(todo.size());
  std::vector<char> fault(static_cast<std::size_t>(k), 0);
  pooled_for(pool, 0, k, [&](int i) {
    const int v = todo[static_cast<std::size_t>(i)];
    const Color s = schedule[static_cast<std::size_t>(v)];
    bool clash = s < 0 || s >= schedule_colors;
    int instance_degree = 0;
    int colored = 0;  // colored neighbors, an upper bound on blocked colors
    for (int u : g.neighbors(v)) {
      const Color x = c[static_cast<std::size_t>(u)];
      if (x == kInInstance) {
        ++instance_degree;
        clash = clash || schedule[static_cast<std::size_t>(u)] == s;
      } else if (0 <= x && x < delta) {
        ++colored;
      }
    }
    const bool short_list =
        delta - colored < instance_degree + 1 &&
        num_free_colors(g, c, v, delta) < instance_degree + 1;
    fault[static_cast<std::size_t>(i)] = static_cast<char>(
        (short_list ? kShortList : 0) | (clash ? kScheduleClash : 0));
  });
  char faults = 0;
  for (char f : fault) faults = static_cast<char>(faults | f);
  if (faults != 0) {
    for (int v : todo) c[static_cast<std::size_t>(v)] = kUncolored;
    DC_ENSURE((faults & kShortList) == 0,
              "layer instance is not (deg+1): some vertex lacks an uncolored "
              "lower-layer neighbor");
    DC_REQUIRE((faults & kScheduleClash) == 0,
               "schedule must be a proper coloring of the instance");
  }

  // Bucket by schedule class (a counting sort: ids stay ascending inside
  // each class).
  std::vector<int> class_start(static_cast<std::size_t>(schedule_colors) + 1,
                               0);
  for (int v : todo) {
    ++class_start[static_cast<std::size_t>(
        schedule[static_cast<std::size_t>(v)]) + 1];
  }
  for (int s = 0; s < schedule_colors; ++s) {
    class_start[static_cast<std::size_t>(s) + 1] +=
        class_start[static_cast<std::size_t>(s)];
  }
  std::vector<int> next(class_start.begin(), class_start.end() - 1);
  std::vector<int> by_class(static_cast<std::size_t>(k));
  for (int v : todo) {
    const auto s = static_cast<std::size_t>(schedule[static_cast<std::size_t>(v)]);
    by_class[static_cast<std::size_t>(next[s]++)] = v;
  }

  for (int s = 0; s < schedule_colors; ++s) {
    // All members of class s choose simultaneously. No instance edge joins
    // two of them (checked above), so no member reads a slot another member
    // writes, and the sweep is a parallel-for. Empty classes still cost a
    // round: on a real network nobody knows they are empty.
    pooled_for(pool, class_start[static_cast<std::size_t>(s)],
               class_start[static_cast<std::size_t>(s) + 1], [&](int j) {
                 const int v = by_class[static_cast<std::size_t>(j)];
                 const auto x = first_free_color(g, c, v, delta);
                 DC_ENSURE(x.has_value(),
                           "list instance vertex ran out of colors (instance "
                           "violated the deg+1 precondition)");
                 c[static_cast<std::size_t>(v)] = *x;
               });
    ledger.charge(1, phase);
  }
}

// The randomized engine, on the induced instance graph: its clash test
// needs every instance vertex's proposal, which the subgraph keys densely.
void color_via_subgraph(const Graph& g, const std::vector<int>& todo,
                        int delta, const Coloring& schedule,
                        int schedule_colors, Rng* rng, Coloring& c,
                        RoundLedger& ledger, std::string_view phase,
                        ThreadPool* pool) {
  const auto sub = induced_subgraph(g, todo);
  ListAssignment lists(static_cast<std::size_t>(sub.graph.num_vertices()));
  Coloring sub_schedule(static_cast<std::size_t>(sub.graph.num_vertices()));
  // Per-instance-vertex setup reads the frozen partial coloring and writes
  // i-private slots: a parallel-for.
  pooled_for(pool, 0, sub.graph.num_vertices(), [&](int i) {
    const int p = sub.to_parent[static_cast<std::size_t>(i)];
    lists[static_cast<std::size_t>(i)] = free_colors(g, c, p, delta);
    sub_schedule[static_cast<std::size_t>(i)] =
        schedule[static_cast<std::size_t>(p)];
  });
  DC_ENSURE(lists_have_deg_plus_one(sub.graph, lists),
            "layer instance is not (deg+1): some vertex lacks an uncolored "
            "lower-layer neighbor");
  DC_REQUIRE(rng != nullptr, "randomized engine needs an Rng");
  Coloring sub_c(static_cast<std::size_t>(sub.graph.num_vertices()), kUncolored);
  rand_list_coloring(sub.graph, lists, sub_schedule, schedule_colors, *rng,
                     sub_c, ledger, phase, pool);
  for (int i = 0; i < sub.graph.num_vertices(); ++i) {
    c[sub.to_parent[static_cast<std::size_t>(i)]] = sub_c[i];
  }
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
  DC_REQUIRE(static_cast<int>(schedule.size()) == n, "schedule size mismatch");
  for (int v : vertices) {
    DC_REQUIRE(0 <= v && v < n, "instance vertex out of range");
  }
  // Marking dedups: a repeated vertex is no longer kUncolored.
  std::vector<int> todo;
  for (int v : vertices) {
    if (c[static_cast<std::size_t>(v)] == kUncolored) {
      c[static_cast<std::size_t>(v)] = kInInstance;
      todo.push_back(v);
    }
  }
  if (todo.empty()) return;
  if (!std::is_sorted(todo.begin(), todo.end())) {
    std::sort(todo.begin(), todo.end());
  }
  switch (engine) {
    case ListEngine::kDeterministic:
      color_in_place(g, todo, delta, schedule, schedule_colors, c, ledger,
                     phase, pool);
      break;
    case ListEngine::kRandomized:
      for (int v : todo) c[static_cast<std::size_t>(v)] = kUncolored;
      color_via_subgraph(g, todo, delta, schedule, schedule_colors, rng, c,
                         ledger, phase, pool);
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
