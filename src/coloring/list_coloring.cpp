#include "coloring/list_coloring.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "runtime/thread_pool.h"
#include "util/check.h"
#include "util/math_util.h"

namespace deltacol {

namespace {

// While an instance runs, member todo[i] holds kInInstance - i in the
// caller's coloring. A marker is not a color, so every palette scan skips
// it, and it differs from kUncolored, so members are told apart from the
// other uncolored vertices, which block nothing. The trial rule reads a
// member's proposal slot off its marker.
constexpr Color kInInstance = -2;

bool in_instance(Color x) { return x <= kInInstance; }
std::size_t instance_index(Color x) {
  return static_cast<std::size_t>(kInInstance - x);
}

// Bitmask of the colors in [base, base + width) (width <= 64) used by v's
// colored neighbors, bit i for color base + i.
std::uint64_t used_window(const Graph& g, const Coloring& c, int v, int base,
                          int width) {
  std::uint64_t used = 0;
  for (int u : g.neighbors(v)) {
    const int x = c[static_cast<std::size_t>(u)] - base;
    if (0 <= x && x < width) used |= std::uint64_t{1} << x;
  }
  return used;
}

// Colors in [0, palette) that no colored neighbor of v uses.
int num_free_colors(const Graph& g, const Coloring& c, int v, int palette) {
  int free = palette;
  for (int base = 0; base < palette; base += 64) {
    const int width = std::min(64, palette - base);
    free -= std::popcount(used_window(g, c, v, base, width));
  }
  return free;
}

// The r-th (from 0, ascending) of those free colors; r < their number.
Color nth_free_color(const Graph& g, const Coloring& c, int v, int palette,
                     std::uint64_t r) {
  for (int base = 0; base < palette; base += 64) {
    const int width = std::min(64, palette - base);
    std::uint64_t free = ~used_window(g, c, v, base, width);
    if (width < 64) free &= (std::uint64_t{1} << width) - 1;
    const auto count = static_cast<std::uint64_t>(std::popcount(free));
    if (r < count) {
      for (; r > 0; --r) free &= free - 1;  // drop the r lowest free colors
      return base + std::countr_zero(free);
    }
    r -= count;
  }
  DC_ENSURE(false, "nth_free_color: rank beyond the free colors");
  return kUncolored;
}

// Marks the instance in c, then checks it in one read-only pass over the
// members: the (deg+1) precondition and a proper schedule on the
// instance's edges. On a fault every member is kUncolored again before the
// throw.
void mark_and_check(const Graph& g, const std::vector<int>& todo,
                    Palette palette, const Coloring& schedule,
                    int schedule_colors, Coloring& c, ThreadPool* pool) {
  const int n = g.num_vertices();
  DC_REQUIRE(static_cast<int>(c.size()) == n, "coloring size mismatch");
  DC_REQUIRE(static_cast<int>(schedule.size()) == n, "schedule size mismatch");
  const int k = static_cast<int>(todo.size());
  int prev = -1;
  for (int v : todo) {
    DC_REQUIRE(prev < v && v < n,
               "instance must be ascending vertex ids in range");
    DC_REQUIRE(c[static_cast<std::size_t>(v)] == kUncolored,
               "instance vertex is already colored");
    prev = v;
  }
  for (int i = 0; i < k; ++i) {
    c[static_cast<std::size_t>(todo[static_cast<std::size_t>(i)])] =
        kInInstance - i;
  }

  constexpr char kShortList = 1;
  constexpr char kScheduleClash = 2;
  std::vector<char> fault(static_cast<std::size_t>(k), 0);
  pooled_for(pool, 0, k, [&](int i) {
    const int v = todo[static_cast<std::size_t>(i)];
    const int colors = palette(g, v);
    const Color s = schedule[static_cast<std::size_t>(v)];
    bool clash = s < 0 || s >= schedule_colors;
    int instance_degree = 0;
    int colored = 0;  // colored neighbors, an upper bound on blocked colors
    for (int u : g.neighbors(v)) {
      const Color x = c[static_cast<std::size_t>(u)];
      if (in_instance(x)) {
        ++instance_degree;
        clash = clash || schedule[static_cast<std::size_t>(u)] == s;
      } else if (0 <= x && x < colors) {
        ++colored;
      }
    }
    const bool short_list =
        colors - colored < instance_degree + 1 &&
        num_free_colors(g, c, v, colors) < instance_degree + 1;
    fault[static_cast<std::size_t>(i)] = static_cast<char>(
        (short_list ? kShortList : 0) | (clash ? kScheduleClash : 0));
  });
  char faults = 0;
  for (char f : fault) faults = static_cast<char>(faults | f);
  if (faults != 0) {
    for (int v : todo) c[static_cast<std::size_t>(v)] = kUncolored;
    DC_ENSURE((faults & kShortList) == 0,
              "list instance is not (deg+1): some vertex has no more free "
              "colors than uncolored instance neighbors");
    DC_REQUIRE((faults & kScheduleClash) == 0,
               "schedule must be a proper coloring of the instance");
  }
}

// The class sweep over marked, checked members `todo` (ascending): each
// schedule class in turn gives each of its members the smallest free
// color, written straight into c.
void sweep_classes(const Graph& g, const std::vector<int>& todo,
                   Palette palette, const Coloring& schedule,
                   int schedule_colors, Coloring& c, RoundLedger& ledger,
                   std::string_view phase, ThreadPool* pool) {
  // Bucket by schedule class (a counting sort: ids stay ascending inside
  // each class).
  const int k = static_cast<int>(todo.size());
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
    // two of them (checked on entry), so no member reads a slot another
    // member writes, and the sweep is a parallel-for. Empty classes still
    // cost a round: on a real network nobody knows they are empty.
    pooled_for(pool, class_start[static_cast<std::size_t>(s)],
               class_start[static_cast<std::size_t>(s) + 1], [&](int j) {
                 const int v = by_class[static_cast<std::size_t>(j)];
                 const auto x = first_free_color(g, c, v, palette(g, v));
                 DC_ENSURE(x.has_value(),
                           "list instance vertex ran out of colors (instance "
                           "violated the deg+1 precondition)");
                 c[static_cast<std::size_t>(v)] = *x;
               });
    ledger.charge(1, phase);
  }
}

}  // namespace

void det_list_coloring(const Graph& g, const std::vector<int>& todo,
                       Palette palette, const Coloring& schedule,
                       int num_schedule_colors, Coloring& c,
                       RoundLedger& ledger, std::string_view phase,
                       ThreadPool* pool) {
  mark_and_check(g, todo, palette, schedule, num_schedule_colors, c, pool);
  sweep_classes(g, todo, palette, schedule, num_schedule_colors, c, ledger,
                phase, pool);
}

void rand_list_coloring(const Graph& g, const std::vector<int>& todo,
                        Palette palette, const Coloring& schedule,
                        int num_schedule_colors, Rng& rng, Coloring& c,
                        RoundLedger& ledger, std::string_view phase,
                        ThreadPool* pool) {
  mark_and_check(g, todo, palette, schedule, num_schedule_colors, c, pool);
  const int k = static_cast<int>(todo.size());
  const int max_rounds =
      4 * ceil_log2(static_cast<std::uint64_t>(std::max(2, k))) + 16;
  std::vector<int> active = todo;
  // Per active position: the free-color count, then the drawn rank.
  std::vector<std::uint64_t> draw(active.size());
  std::vector<char> clash(active.size());
  // Per member, by instance index.
  std::vector<Color> proposal(static_cast<std::size_t>(k));
  for (int round = 0; round < max_rounds && !active.empty(); ++round) {
    const int num_active = static_cast<int>(active.size());
    // Free colors are a pure function of c: counted in parallel.
    pooled_for(pool, 0, num_active, [&](int j) {
      const int v = active[static_cast<std::size_t>(j)];
      const int free = num_free_colors(g, c, v, palette(g, v));
      DC_ENSURE(free > 0, "rand_list_coloring: no free color (instance "
                          "violated the deg+1 precondition)");
      draw[static_cast<std::size_t>(j)] = static_cast<std::uint64_t>(free);
    });
    // Draws stay serial, in active order: the shared Rng stream (and hence
    // the run) is identical for every thread count.
    for (int j = 0; j < num_active; ++j) {
      draw[static_cast<std::size_t>(j)] =
          rng.next_below(draw[static_cast<std::size_t>(j)]);
    }
    pooled_for(pool, 0, num_active, [&](int j) {
      const int v = active[static_cast<std::size_t>(j)];
      proposal[instance_index(c[static_cast<std::size_t>(v)])] =
          nth_free_color(g, c, v, palette(g, v),
                         draw[static_cast<std::size_t>(j)]);
    });
    // Resolve: keep the proposal iff no active neighbor chose it too.
    // Proposals are frozen, so the clash test is again a parallel-for.
    pooled_for(pool, 0, num_active, [&](int j) {
      const int v = active[static_cast<std::size_t>(j)];
      const Color mine =
          proposal[instance_index(c[static_cast<std::size_t>(v)])];
      bool hit = false;
      for (int u : g.neighbors(v)) {
        const Color x = c[static_cast<std::size_t>(u)];
        if (in_instance(x) && proposal[instance_index(x)] == mine) {
          hit = true;
          break;
        }
      }
      clash[static_cast<std::size_t>(j)] = hit ? 1 : 0;
    });
    int kept = 0;
    for (int j = 0; j < num_active; ++j) {
      const int v = active[static_cast<std::size_t>(j)];
      Color& x = c[static_cast<std::size_t>(v)];
      if (clash[static_cast<std::size_t>(j)]) {
        active[static_cast<std::size_t>(kept++)] = v;
      } else {
        x = proposal[instance_index(x)];
      }
    }
    active.resize(static_cast<std::size_t>(kept));
    ledger.charge(1, phase);
  }
  if (!active.empty()) {
    // The w.h.p. bound did not materialize at this size/seed; finish
    // deterministically so the caller always gets a complete coloring.
    sweep_classes(g, active, palette, schedule, num_schedule_colors, c,
                  ledger, phase, pool);
  }
}

}  // namespace deltacol
