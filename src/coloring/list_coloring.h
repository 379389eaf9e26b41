// Distributed (deg+1)-list coloring — the workhorse subroutine of the
// paper's layering technique (Theorems 18 and 19 are invoked every time a
// layer B_i / C_i / D_i is colored).
//
// Lists are implicit: the list of v is [0, palette(v)) minus the colors of
// v's colored neighbors. An instance is a set of uncolored vertices of the
// caller's graph, colored in place in the caller's coloring: no induced
// copy, no per-vertex lists. Uncolored vertices outside the instance block
// nothing and compete with nobody.
//
// Two round rules with the same contract (see DESIGN.md "Substitutions"):
//  * det_list_coloring  — deterministic; sweeps the color classes of a
//    symmetry-breaking schedule coloring (e.g. Linial's O(Delta^2) colors),
//    each member taking its smallest free color. Rounds: one per schedule
//    class. Stands in for [FHK16]+[BEG17].
//  * rand_list_coloring — randomized trial coloring (each uncolored vertex
//    proposes a uniformly random free color, keeps it if no instance
//    neighbor proposed the same). O(log n) rounds w.h.p. Stands in for
//    [Gha16].
//
// Both require the (deg+1) precondition on entry: every instance vertex
// has more free colors than instance neighbors. Each instance neighbor
// takes at most one color, so the precondition holds for the rest of the
// run and no vertex runs out of colors.
#pragma once

#include <string_view>
#include <vector>

#include "coloring/coloring.h"
#include "graph/graph.h"
#include "local/round_ledger.h"
#include "util/rng.h"

namespace deltacol {

class ThreadPool;  // src/runtime/thread_pool.h; nullptr = serial

// The palette of an instance: one color count for every vertex, or
// deg_g(v) + 1 for each v.
class Palette {
 public:
  static constexpr Palette uniform(int colors) { return Palette(colors); }
  static constexpr Palette degree_plus_one() { return Palette(-1); }

  int operator()(const Graph& g, int v) const {
    return colors_ >= 0 ? colors_ : g.degree(v) + 1;
  }

 private:
  explicit constexpr Palette(int colors) : colors_(colors) {}
  int colors_;  // -1: deg + 1
};

// Colors every vertex of `todo` in c. `todo` is strictly ascending and
// every member is kUncolored in c; c and schedule are indexed like g.
// Colored entries of c are fixed and respected. Throws ContractViolation,
// leaving c as it was, when some instance vertex has fewer free colors
// than instance neighbors + 1, when an instance edge joins two vertices of
// one schedule class, or when a member's schedule color lies outside
// [0, num_schedule_colors). Charges num_schedule_colors rounds to `phase`.
void det_list_coloring(const Graph& g, const std::vector<int>& todo,
                       Palette palette, const Coloring& schedule,
                       int num_schedule_colors, Coloring& c,
                       RoundLedger& ledger, std::string_view phase,
                       ThreadPool* pool = nullptr);

// Randomized variant, same contract and entry checks. Draws are serial in
// ascending id order, so the run depends on the Rng alone, not on the
// thread count. Falls back to the deterministic sweep after
// 4 ceil(log2 k) + 16 unsuccessful rounds, k = |todo| (the w.h.p. bound
// failed; the fallback cost is charged to the same phase, so reported
// rounds stay honest).
void rand_list_coloring(const Graph& g, const std::vector<int>& todo,
                        Palette palette, const Coloring& schedule,
                        int num_schedule_colors, Rng& rng, Coloring& c,
                        RoundLedger& ledger, std::string_view phase,
                        ThreadPool* pool = nullptr);

}  // namespace deltacol
