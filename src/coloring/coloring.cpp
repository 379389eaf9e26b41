#include "coloring/coloring.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>

#include "util/check.h"

namespace deltacol {

bool is_proper_partial(const Graph& g, const Coloring& c) {
  if (static_cast<int>(c.size()) != g.num_vertices()) return false;
  for (int v = 0; v < g.num_vertices(); ++v) {
    if (c[v] == kUncolored) continue;
    for (int u : g.neighbors(v)) {
      if (u > v && c[u] == c[v]) return false;
    }
  }
  return true;
}

bool is_proper_complete(const Graph& g, const Coloring& c) {
  if (!is_proper_partial(g, c)) return false;
  return count_uncolored(c) == 0;
}

bool is_proper_with_palette(const Graph& g, const Coloring& c, int num_colors) {
  if (!is_proper_complete(g, c)) return false;
  for (Color x : c) {
    if (x < 0 || x >= num_colors) return false;
  }
  return true;
}

bool respects_lists(const Coloring& c, const ListAssignment& lists) {
  if (c.size() != lists.size()) return false;
  for (std::size_t v = 0; v < c.size(); ++v) {
    if (c[v] == kUncolored) return false;
    if (!std::binary_search(lists[v].begin(), lists[v].end(), c[v])) return false;
  }
  return true;
}

int count_uncolored(const Coloring& c) {
  int k = 0;
  for (Color x : c) {
    if (x == kUncolored) ++k;
  }
  return k;
}

int num_colors_used(const Coloring& c) {
  Color mx = kUncolored;
  for (Color x : c) mx = std::max(mx, x);
  return mx + 1;
}

void validate_delta_coloring(const Graph& g, const Coloring& c, int delta) {
  DC_REQUIRE(static_cast<int>(c.size()) == g.num_vertices(),
             "coloring size mismatch");
  for (int v = 0; v < g.num_vertices(); ++v) {
    if (c[v] == kUncolored) {
      std::ostringstream os;
      os << "vertex " << v << " is uncolored";
      throw ContractViolation(os.str());
    }
    if (c[v] < 0 || c[v] >= delta) {
      std::ostringstream os;
      os << "vertex " << v << " has color " << c[v] << " outside palette of "
         << delta;
      throw ContractViolation(os.str());
    }
    for (int u : g.neighbors(v)) {
      if (u > v && c[u] == c[v]) {
        std::ostringstream os;
        os << "edge (" << v << ", " << u << ") is monochromatic with color "
           << c[v];
        throw ContractViolation(os.str());
      }
    }
  }
}

std::vector<Color> free_colors(const Graph& g, const Coloring& c, int v,
                               int palette_size) {
  DC_REQUIRE(palette_size >= 0, "palette size must be non-negative");
  // The result doubles as the used-flag array and is then compacted in
  // place: out[x] is read before any write can reach slot x (k <= x).
  std::vector<Color> out(static_cast<std::size_t>(palette_size), 0);
  for (int u : g.neighbors(v)) {
    const Color x = c[static_cast<std::size_t>(u)];
    if (0 <= x && x < palette_size) out[static_cast<std::size_t>(x)] = 1;
  }
  std::size_t k = 0;
  for (int x = 0; x < palette_size; ++x) {
    if (out[static_cast<std::size_t>(x)] == 0) out[k++] = x;
  }
  out.resize(k);
  return out;
}

std::optional<Color> first_free_color(const Graph& g, const Coloring& c, int v,
                                      int palette_size) {
  // deg(v) neighbors block at most deg(v) colors, so the smallest free color,
  // if any, is below limit. Scan candidates in 64-color windows, one
  // bitmask of the neighbors' colors per window.
  const auto nb = g.neighbors(v);
  const std::int64_t limit = std::min<std::int64_t>(
      palette_size, static_cast<std::int64_t>(nb.size()) + 1);
  for (std::int64_t base = 0; base < limit; base += 64) {
    std::uint64_t used = 0;
    for (int u : nb) {
      const std::int64_t x = c[static_cast<std::size_t>(u)] - base;
      if (0 <= x && x < 64) used |= std::uint64_t{1} << x;
    }
    if (used != ~std::uint64_t{0}) {
      const std::int64_t x = base + std::countr_one(used);
      if (x >= limit) break;
      return static_cast<Color>(x);
    }
  }
  return std::nullopt;
}

}  // namespace deltacol
