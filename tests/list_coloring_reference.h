// The explicit-list (deg+1)-list coloring engines, kept as the oracle for
// the in-place engines of coloring/list_coloring.h. They run on a whole
// graph with one materialized list per vertex; reference_instance runs
// them on an induced copy of an instance, with each list the palette minus
// the colored neighbors' colors. The in-place engines must reproduce them
// bit for bit: same colors, same rounds, same Rng stream.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "coloring/coloring.h"
#include "core/layering.h"
#include "graph/graph.h"
#include "graph/ops.h"
#include "local/round_ledger.h"
#include "util/check.h"
#include "util/math_util.h"
#include "util/rng.h"

namespace deltacol::reference {

// Checks |L(v)| >= deg_g(v) + 1 for all v.
inline bool lists_have_deg_plus_one(const Graph& g,
                                    const ListAssignment& lists) {
  if (static_cast<int>(lists.size()) != g.num_vertices()) return false;
  for (int v = 0; v < g.num_vertices(); ++v) {
    if (static_cast<int>(lists[static_cast<std::size_t>(v)].size()) <
        g.degree(v) + 1) {
      return false;
    }
  }
  return true;
}

// The list colors of v not used by a colored neighbor, in list order.
inline std::vector<Color> feasible(const Graph& g, const ListAssignment& lists,
                                   const Coloring& c, int v) {
  std::vector<Color> out;
  for (Color x : lists[static_cast<std::size_t>(v)]) {
    bool ok = true;
    for (int u : g.neighbors(v)) {
      if (c[static_cast<std::size_t>(u)] == x) {
        ok = false;
        break;
      }
    }
    if (ok) out.push_back(x);
  }
  return out;
}

// Colors every kUncolored vertex: each schedule class in turn, each member
// its first feasible list color. One round per class.
inline void det_list_coloring(const Graph& g, const ListAssignment& lists,
                              const Coloring& schedule, int schedule_colors,
                              Coloring& out, RoundLedger& ledger) {
  DC_REQUIRE(is_proper_with_palette(g, schedule, schedule_colors),
             "schedule must be a proper coloring");
  std::vector<std::vector<int>> buckets(
      static_cast<std::size_t>(schedule_colors));
  for (int v = 0; v < g.num_vertices(); ++v) {
    if (out[static_cast<std::size_t>(v)] == kUncolored) {
      buckets[static_cast<std::size_t>(schedule[static_cast<std::size_t>(v)])]
          .push_back(v);
    }
  }
  for (const auto& bucket : buckets) {
    for (int v : bucket) {
      const auto feas = feasible(g, lists, out, v);
      DC_ENSURE(!feas.empty(), "reference det: vertex ran out of colors");
      out[static_cast<std::size_t>(v)] = feas.front();
    }
    ledger.charge(1, "t");
  }
}

// Trial coloring: every uncolored vertex draws a feasible list color (in
// ascending id order from one Rng) and keeps it unless an uncolored
// neighbor drew the same; after 4 ceil(log2 n) + 16 rounds the
// deterministic engine finishes.
inline void rand_list_coloring(const Graph& g, const ListAssignment& lists,
                               const Coloring& schedule, int schedule_colors,
                               Rng& rng, Coloring& out, RoundLedger& ledger) {
  const int n = g.num_vertices();
  std::vector<int> active;
  for (int v = 0; v < n; ++v) {
    if (out[static_cast<std::size_t>(v)] == kUncolored) active.push_back(v);
  }
  const int max_rounds =
      4 * ceil_log2(static_cast<std::uint64_t>(std::max(2, n))) + 16;
  std::vector<Color> proposal(static_cast<std::size_t>(n), kUncolored);
  for (int round = 0; round < max_rounds && !active.empty(); ++round) {
    for (int v : active) {
      const auto feas = feasible(g, lists, out, v);
      DC_ENSURE(!feas.empty(), "reference rand: empty feasible set");
      proposal[static_cast<std::size_t>(v)] =
          feas[static_cast<std::size_t>(rng.next_below(feas.size()))];
    }
    std::vector<int> kept;
    std::vector<int> winners;
    for (int v : active) {
      bool clash = false;
      for (int u : g.neighbors(v)) {
        clash = clash || (out[static_cast<std::size_t>(u)] == kUncolored &&
                          proposal[static_cast<std::size_t>(u)] ==
                              proposal[static_cast<std::size_t>(v)]);
      }
      (clash ? kept : winners).push_back(v);
    }
    for (int v : winners) {
      out[static_cast<std::size_t>(v)] = proposal[static_cast<std::size_t>(v)];
    }
    for (int v : active) proposal[static_cast<std::size_t>(v)] = kUncolored;
    active = std::move(kept);
    ledger.charge(1, "t");
  }
  if (!active.empty()) {
    det_list_coloring(g, lists, schedule, schedule_colors, out, ledger);
  }
}

// One instance of color_vertex_set_as_list_instance, run on the induced
// copy of its uncolored vertices with explicit lists.
inline void reference_instance(const Graph& g,
                               const std::vector<int>& vertices, int delta,
                               const Coloring& schedule, int schedule_colors,
                               ListEngine engine, Rng* rng, Coloring& c,
                               RoundLedger& ledger) {
  std::vector<int> todo;
  for (int v : vertices) {
    if (c[static_cast<std::size_t>(v)] == kUncolored) todo.push_back(v);
  }
  if (todo.empty()) return;
  const auto sub = induced_subgraph(g, todo);
  const int k = sub.graph.num_vertices();
  ListAssignment lists(static_cast<std::size_t>(k));
  Coloring sub_schedule(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    const int p = sub.to_parent[static_cast<std::size_t>(i)];
    lists[static_cast<std::size_t>(i)] = free_colors(g, c, p, delta);
    sub_schedule[static_cast<std::size_t>(i)] =
        schedule[static_cast<std::size_t>(p)];
  }
  DC_ENSURE(lists_have_deg_plus_one(sub.graph, lists),
            "reference instance is not (deg+1)");
  Coloring sub_c(static_cast<std::size_t>(k), kUncolored);
  if (engine == ListEngine::kDeterministic) {
    det_list_coloring(sub.graph, lists, sub_schedule, schedule_colors, sub_c,
                      ledger);
  } else {
    rand_list_coloring(sub.graph, lists, sub_schedule, schedule_colors, *rng,
                       sub_c, ledger);
  }
  for (int i = 0; i < k; ++i) {
    c[static_cast<std::size_t>(sub.to_parent[static_cast<std::size_t>(i)])] =
        sub_c[static_cast<std::size_t>(i)];
  }
}

}  // namespace deltacol::reference
