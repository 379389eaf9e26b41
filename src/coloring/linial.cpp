#include "coloring/linial.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdint>
#include <vector>

#include "runtime/thread_pool.h"
#include "util/check.h"
#include "util/math_util.h"

namespace deltacol {

namespace {

// Choose (q, d) for reducing m colors: d digits over GF(q) must encode m
// colors (q^d >= m) and q > Delta*(d-1) must leave a free evaluation point.
// Returns the pair minimizing the new palette q^2.
struct Params {
  std::uint64_t q;
  int d;
};
Params choose_params(std::uint64_t m, int delta) {
  Params best{0, 0};
  std::uint64_t best_new_m = ~0ULL;
  for (int d = 2; d <= 40; ++d) {
    // Smallest q satisfying both constraints.
    const auto root = static_cast<std::uint64_t>(
        std::ceil(std::pow(static_cast<double>(m), 1.0 / d)));
    std::uint64_t q = next_prime(std::max<std::uint64_t>(
        root, static_cast<std::uint64_t>(delta) * (d - 1) + 1));
    while (ipow(q, static_cast<unsigned>(d)) < m) q = next_prime(q + 1);
    const std::uint64_t new_m = q * q;
    if (new_m < best_new_m) {
      best_new_m = new_m;
      best = {q, d};
    }
  }
  DC_ENSURE(best.q > 0, "no Linial parameters found");
  return best;
}

}  // namespace

LinialResult linial_coloring(const Graph& g, RoundLedger& ledger,
                             ThreadPool* pool) {
  const int n = g.num_vertices();
  const int delta = std::max(1, g.max_degree());
  LinialResult res;
  res.coloring.resize(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) res.coloring[static_cast<std::size_t>(v)] = v;
  std::uint64_t m = std::max<std::uint64_t>(2, static_cast<std::uint64_t>(n));

  Coloring next(static_cast<std::size_t>(n));
  // digits[v * d + i] is digit i of v's current color in base q.
  std::vector<std::uint16_t> digits;
  for (;;) {
    const Params p = choose_params(m, delta);
    const std::uint64_t new_m = p.q * p.q;
    if (new_m >= m) break;  // reached the O(Delta^2) fixpoint
    // q^2 < m <= INT_MAX gives q < 46341: digits fit in 16 bits, and every
    // Horner step acc * x + digit <= (q-1)^2 + (q-1) < m stays exact in 32.
    DC_ENSURE(new_m < m && m <= static_cast<std::uint64_t>(INT_MAX),
              "Linial round needs q * q < m <= INT_MAX");
    const auto q = static_cast<std::uint32_t>(p.q);
    const int d = p.d;
    digits.resize(static_cast<std::size_t>(n) * static_cast<std::size_t>(d));
    pooled_for(pool, 0, n, [&](int v) {
      auto color =
          static_cast<std::uint32_t>(res.coloring[static_cast<std::size_t>(v)]);
      std::uint16_t* dv = digits.data() + static_cast<std::size_t>(v) * d;
      for (int i = 0; i < d; ++i) {
        dv[i] = static_cast<std::uint16_t>(color % q);
        color /= q;
      }
    });
    // p_v(x) = sum_i digit_i(v) * x^i mod q, by Horner from the top digit.
    const auto eval = [&](int v, std::uint32_t x) {
      const std::uint16_t* dv = digits.data() + static_cast<std::size_t>(v) * d;
      std::uint32_t acc = dv[d - 1];
      for (int i = d - 2; i >= 0; --i) acc = (acc * x + dv[i]) % q;
      return acc;
    };
    // One synchronous round: nodes exchange current colors, then each picks
    // an evaluation point avoiding all neighbors' polynomials. Each node
    // reads the previous coloring and writes next[v]: a parallel-for.
    pooled_for(pool, 0, n, [&](int v) {
      const Color cv = res.coloring[static_cast<std::size_t>(v)];
      for (std::uint32_t x = 0; x < q; ++x) {
        const std::uint32_t pv = eval(v, x);
        bool ok = true;
        for (int u : g.neighbors(v)) {
          // Equal colors cannot happen in a proper coloring.
          if (res.coloring[static_cast<std::size_t>(u)] == cv) continue;
          if (eval(u, x) == pv) {
            ok = false;
            break;
          }
        }
        if (ok) {
          next[static_cast<std::size_t>(v)] = static_cast<Color>(x * q + pv);
          return;
        }
      }
      DC_ENSURE(false,
                "Linial step found no valid evaluation point (q too small?)");
    });
    res.coloring.swap(next);
    m = new_m;
    ++res.rounds;
    ledger.charge(1, "linial");
  }
  res.num_colors = static_cast<int>(m);
  DC_ENSURE(is_proper_with_palette(g, res.coloring, res.num_colors),
            "Linial produced an improper coloring");
  return res;
}

LinialResult reduce_to_delta_plus_one(const Graph& g, const Coloring& start,
                                      int start_colors, RoundLedger& ledger,
                                      ThreadPool* pool) {
  DC_REQUIRE(is_proper_with_palette(g, start, start_colors),
             "reduction input must be a proper coloring");
  const int target = g.max_degree() + 1;
  LinialResult res;
  res.coloring = start;
  res.num_colors = std::max(target, start_colors);
  // Bucket the to-be-recolored classes once: members leave their class for a
  // color < target and never re-enter, so the buckets stay valid across
  // rounds (and the sweep is O(n + m) total instead of O(n) per class).
  std::vector<std::vector<int>> members;
  if (start_colors > target) {
    members.resize(static_cast<std::size_t>(start_colors - target));
    for (int v = 0; v < g.num_vertices(); ++v) {
      const int c = res.coloring[static_cast<std::size_t>(v)];
      if (c >= target) {
        members[static_cast<std::size_t>(c - target)].push_back(v);
      }
    }
  }
  for (int c = start_colors - 1; c >= target; --c) {
    // Color class c is an independent set: all its members recolor
    // simultaneously to their smallest free color below c. No neighbor of a
    // class-c member is in class c, so the reads are stable under the
    // parallel-for.
    const auto& cls = members[static_cast<std::size_t>(c - target)];
    pooled_for(pool, 0, static_cast<int>(cls.size()), [&](int i) {
      const int v = cls[static_cast<std::size_t>(i)];
      const auto x = first_free_color(g, res.coloring, v, target);
      DC_ENSURE(x.has_value(), "no free color among Delta+1");
      res.coloring[static_cast<std::size_t>(v)] = *x;
    });
    ++res.rounds;
    ledger.charge(1, "color-reduction");
  }
  res.num_colors = target;
  DC_ENSURE(is_proper_with_palette(g, res.coloring, res.num_colors),
            "color reduction broke the coloring");
  return res;
}

LinialResult delta_plus_one_schedule(const Graph& g, RoundLedger& ledger,
                                     ThreadPool* pool) {
  const LinialResult lin = linial_coloring(g, ledger, pool);
  LinialResult red =
      reduce_to_delta_plus_one(g, lin.coloring, lin.num_colors, ledger, pool);
  red.rounds += lin.rounds;
  return red;
}

}  // namespace deltacol
