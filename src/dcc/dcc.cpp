#include "dcc/dcc.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <span>

#include "graph/components.h"
#include "graph/frontier_bfs.h"
#include "graph/structure.h"
#include "runtime/thread_pool.h"
#include "util/check.h"

namespace deltacol {

bool is_dcc(const Graph& g) {
  if (g.num_vertices() < 3) return false;
  if (is_clique(g) || is_odd_cycle(g)) return false;
  // 2-connected == one block covering all vertices and no articulation point.
  const auto bd = block_decomposition(g);
  if (bd.blocks.size() != 1) return false;
  return static_cast<int>(bd.blocks.front().size()) == g.num_vertices();
}

std::vector<std::vector<int>> dcc_blocks(const Graph& g) {
  BlockScratch blocks;
  enumerate_blocks(g, blocks);
  std::vector<char> mark(static_cast<std::size_t>(g.num_vertices()), 0);
  std::vector<std::vector<int>> out;
  for (int b = 0; b < blocks.num_blocks(); ++b) {
    const auto block = blocks.block(b);
    if (!is_gallai_block(g, block, mark)) {
      auto& sorted = out.emplace_back(block.begin(), block.end());
      std::sort(sorted.begin(), sorted.end());
    }
  }
  return out;
}

bool ball_contains_dcc(const Graph& g, int v, int r) {
  const auto sub = induced_subgraph(g, ball(g, v, r));
  return !is_gallai_tree(sub.graph);
}

namespace {

// A graph on local ids [0, k) in CSR form, rebuilt in place for every ball
// or DCC. It offers the parts of Graph that enumerate_blocks,
// is_gallai_block and induces_clique read.
struct LocalCsr {
  std::vector<int> offsets{0};
  std::vector<int> adj;

  int num_vertices() const { return static_cast<int>(offsets.size()) - 1; }
  std::span<const int> neighbors(int v) const {
    const auto i = static_cast<std::size_t>(v);
    const auto lo = static_cast<std::size_t>(offsets[i]);
    return {adj.data() + lo, static_cast<std::size_t>(offsets[i + 1]) - lo};
  }
  // Requires sorted rows (sort_rows).
  bool has_edge(int u, int v) const {
    const auto nb = neighbors(u);
    return std::binary_search(nb.begin(), nb.end(), v);
  }
  void clear() {
    offsets.assign(1, 0);
    adj.clear();
  }
  void end_row() { offsets.push_back(static_cast<int>(adj.size())); }
  // Ascending rows, as Graph::from_edges builds them.
  void sort_rows() {
    for (int v = 0; v < num_vertices(); ++v) {
      std::sort(adj.begin() + offsets[static_cast<std::size_t>(v)],
                adj.begin() + offsets[static_cast<std::size_t>(v) + 1]);
    }
  }
};

// Map from the ids of g to local ids. Membership is a bitset of n / 8
// bytes, small enough to stay in L1 at n ~ 1e5, where most lookups of a
// ball sweep are misses. It is cleared member by member, so forgetting a
// ball costs O(ball), not O(n).
class LocalIds {
 public:
  // Readies ids [0, n); the map must be empty.
  void reserve(int n) {
    if (static_cast<int>(local_.size()) < n) {
      local_.resize(static_cast<std::size_t>(n));
      bits_.resize((static_cast<std::size_t>(n) + 63) / 64, 0);
    }
  }
  void set(int v, int local) {
    bits_[word(v)] |= std::uint64_t{1} << (v & 63);
    local_[static_cast<std::size_t>(v)] = local;
  }
  // The local id of v, or -1 if v is not in the map.
  int get(int v) const {
    if (((bits_[word(v)] >> (v & 63)) & 1) == 0) return -1;
    return local_[static_cast<std::size_t>(v)];
  }
  // Empties the map; `members` lists every id set since it was last empty.
  void forget(std::span<const int> members) {
    for (int v : members) bits_[word(v)] = 0;
  }

 private:
  static std::size_t word(int v) { return static_cast<std::size_t>(v) >> 6; }
  std::vector<std::uint64_t> bits_;
  std::vector<int> local_;
};

// The per-chunk state of the r-ball analysis. Every buffer grows to the
// largest ball seen (the id map to n) and is reused, so in steady state no
// ball allocates.
class BallAnalyzer {
 public:
  // If v's r-ball contains a DCC, appends the vertex set (ids of g, sorted)
  // of the DCC v selects to `out` and returns true. Otherwise returns false
  // and leaves `out` alone.
  bool analyze(const Graph& g, int v, int r, std::vector<int>& out) {
    sweep(g, v, r);
    const int k = ball_.num_vertices();
    // A BFS ball is connected, so |E| = |V| - 1 makes it a tree. Every
    // block of a tree is a bridge (K2), so a tree ball holds no DCC.
    if (ball_.adj.size() == 2 * static_cast<std::size_t>(k - 1)) return false;
    enumerate_blocks(ball_, blocks_);
    if (static_cast<int>(mark_.size()) < k) {
      mark_.resize(static_cast<std::size_t>(k), 0);
      depth_.resize(static_cast<std::size_t>(k));
      parent_.resize(static_cast<std::size_t>(k));
    }

    // Pick the non-Gallai block nearest to v (distance 0 if v belongs to
    // one); ties go to the lexicographically smallest vertex set in g's ids.
    // A shortest path from v to a ball vertex stays inside the ball, so the
    // sweep's distances are the distances inside the ball.
    int best_dist = -1;
    int best_block = -1;
    bool best_key_ready = false;  // keys are only built to break a tie
    auto fill_key = [this](std::span<const int> block, std::vector<int>& key) {
      key.clear();
      for (int x : block) key.push_back(verts_[static_cast<std::size_t>(x)]);
      std::sort(key.begin(), key.end());
    };
    for (int b = 0; b < blocks_.num_blocks(); ++b) {
      const auto block = blocks_.block(b);
      if (is_gallai_block(ball_, block, mark_)) continue;
      int d = k;
      for (int x : block) d = std::min(d, dist_[static_cast<std::size_t>(x)]);
      if (best_block == -1 || d < best_dist) {
        best_dist = d;
        best_block = b;
        best_key_ready = false;
      } else if (d == best_dist) {
        if (!best_key_ready) fill_key(blocks_.block(best_block), best_key_);
        best_key_ready = true;
        fill_key(block, key_);
        if (key_ < best_key_) {
          best_block = b;
          key_.swap(best_key_);
        }
      }
    }
    if (best_block == -1) return false;

    // Shrink the winning block to a small DCC (see extract_small_dcc).
    extract_small_dcc(blocks_.block(best_block));
    const auto start = static_cast<std::ptrdiff_t>(out.size());
    for (int x : small_) out.push_back(verts_[static_cast<std::size_t>(x)]);
    std::sort(out.begin() + start, out.end());
    return true;
  }

 private:
  // Truncated BFS from v that numbers the ball in discovery order (v = 0)
  // and builds its CSR in the same pass: when u is scanned, every ball
  // neighbour of u already has its local id, because all vertices up to
  // u's level + 1 are claimed by then.
  void sweep(const Graph& g, int v, int r) {
    ids_.forget(verts_);  // the previous ball
    ids_.reserve(g.num_vertices());
    verts_.clear();
    dist_.clear();
    ball_.clear();
    ids_.set(v, 0);
    verts_.push_back(v);
    dist_.push_back(0);
    for (std::size_t i = 0; i < verts_.size(); ++i) {
      const int u = verts_[i];
      const int du = dist_[i];
      for (int w : g.neighbors(u)) {
        int j = ids_.get(w);
        if (j == -1) {
          if (du == r) continue;  // w lies outside the ball
          j = static_cast<int>(verts_.size());
          ids_.set(w, j);
          // Its row is read when it is scanned; start the load now.
          __builtin_prefetch(g.neighbors(w).data());
          verts_.push_back(w);
          dist_.push_back(du + 1);
        }
        ball_.adj.push_back(j);
      }
      ball_.end_row();
    }
  }

  // Extracts a small DCC from a non-Gallai block of the ball (local ids)
  // into small_: the vertex set of any even cycle induces a
  // 2-connected subgraph that is neither an odd cycle nor (unless it is
  // exactly K4) a clique, i.e. a DCC. We find an even cycle as a non-tree
  // BFS edge joining adjacent levels (tree paths to the LCA plus the edge
  // have even total length) and keep the first shortest one. Selecting whole
  // blocks would be correct but quadratically expensive: in sparse random
  // graphs the non-Gallai block of a ball typically spans much of the ball,
  // so every node would select a near-distinct giant component and the
  // virtual graph GDCC would blow up. Falls back to the full block when no
  // such edge exists (rare: all non-tree edges level-parallel) or every
  // such cycle induces a clique.
  void extract_small_dcc(std::span<const int> block) {
    small_.clear();
    if (block.size() > 6) {
      // The BFS below breaks ties by row order: sort the rows as
      // Graph::from_edges would (has_edge needs it too).
      ball_.sort_rows();
      for (int x : block) {
        mark_[static_cast<std::size_t>(x)] = 1;
        depth_[static_cast<std::size_t>(x)] = -1;
      }
      auto depth = [this](int x) -> int& {
        return depth_[static_cast<std::size_t>(x)];
      };
      auto parent = [this](int x) -> int& {
        return parent_[static_cast<std::size_t>(x)];
      };
      auto in_block = [this](int x) {
        return mark_[static_cast<std::size_t>(x)] != 0;
      };
      // The BFS root is the block's smallest local id.
      const int root = *std::min_element(block.begin(), block.end());
      order_.assign(1, root);
      depth(root) = 0;
      parent(root) = -1;
      for (std::size_t head = 0; head < order_.size(); ++head) {
        const int u = order_[head];
        for (int w : ball_.neighbors(u)) {
          if (in_block(w) && depth(w) == -1) {
            depth(w) = depth(u) + 1;
            parent(w) = u;
            order_.push_back(w);
          }
        }
      }
      for (int u : order_) {
        // No even cycle is shorter than 4, so a 4-cycle ends the search.
        if (small_.size() == 4) break;
        for (int w : ball_.neighbors(u)) {
          if (!in_block(w) || depth(w) != depth(u) + 1 || parent(w) == u) {
            continue;
          }
          // Walk u and parent(w) (same depth) up to their LCA: after s
          // steps the two tree paths plus edge (u, w) form an even cycle of
          // 2s + 2 vertices. Walks that cannot beat small_ are abandoned.
          const std::size_t to_beat =
              small_.empty() ? std::numeric_limits<std::size_t>::max()
                             : small_.size();
          cycle_.assign(1, u);
          path_.assign(1, w);
          int a = u;
          int b = parent(w);
          while (a != b && cycle_.size() + path_.size() + 2 < to_beat) {
            path_.push_back(b);
            a = parent(a);
            b = parent(b);
            cycle_.push_back(a);
          }
          if (a != b) continue;
          cycle_.insert(cycle_.end(), path_.begin(), path_.end());
          // An even cycle inducing a complete graph (K4, K6, ...) is a
          // clique, not a DCC.
          if (induces_clique(ball_, cycle_)) continue;
          small_.swap(cycle_);
        }
      }
      for (int x : block) mark_[static_cast<std::size_t>(x)] = 0;
    }
    if (small_.empty()) small_.assign(block.begin(), block.end());
  }

  LocalIds ids_;
  std::vector<int> verts_;  // local id -> id in g, BFS discovery order
  std::vector<int> dist_;   // local id -> distance from v
  LocalCsr ball_;
  BlockScratch blocks_;
  std::vector<char> mark_;  // zero between uses
  std::vector<int> key_, best_key_;
  std::vector<int> depth_, parent_, order_, cycle_, path_, small_;
};

// Radius of the subgraph of g induced by `vertices` (sorted ids of g),
// measured on a local CSR with per-chunk buffers that are reused.
class InducedRadius {
 public:
  int operator()(const Graph& g, std::span<const int> vertices) {
    const int k = static_cast<int>(vertices.size());
    ids_.reserve(g.num_vertices());
    for (int i = 0; i < k; ++i) {
      ids_.set(vertices[static_cast<std::size_t>(i)], i);
    }
    csr_.clear();
    for (int x : vertices) {
      for (int w : g.neighbors(x)) {
        const int j = ids_.get(w);
        if (j != -1) csr_.adj.push_back(j);
      }
      csr_.end_row();
    }
    ids_.forget(vertices);
    // Minimum eccentricity, one BFS per source.
    dist_.resize(static_cast<std::size_t>(k));
    queue_.resize(static_cast<std::size_t>(k));
    int radius = k;
    for (int s = 0; s < k; ++s) {
      std::fill(dist_.begin(), dist_.end(), -1);
      dist_[static_cast<std::size_t>(s)] = 0;
      queue_[0] = s;
      std::size_t tail = 1;
      for (std::size_t head = 0; head < tail; ++head) {
        const int u = queue_[head];
        for (int w : csr_.neighbors(u)) {
          if (dist_[static_cast<std::size_t>(w)] != -1) continue;
          dist_[static_cast<std::size_t>(w)] =
              dist_[static_cast<std::size_t>(u)] + 1;
          queue_[tail++] = w;
        }
      }
      // BFS order is by distance, so the last vertex reached is the farthest.
      const int farthest = queue_[tail - 1];
      radius = std::min(radius, dist_[static_cast<std::size_t>(farthest)]);
    }
    return radius;
  }

 private:
  LocalIds ids_;
  LocalCsr csr_;
  std::vector<int> dist_, queue_;
};

// The DCC nominations of one chunk of balls, in increasing nominator
// order: nominator i selected the set vertices[offsets[i], offsets[i + 1]).
struct Nominations {
  std::vector<int> nominator;
  std::vector<int> offsets{0};
  std::vector<int> vertices;

  std::span<const int> set(std::size_t i) const {
    const auto lo = static_cast<std::size_t>(offsets[i]);
    const auto hi = static_cast<std::size_t>(offsets[i + 1]);
    return {vertices.data() + lo, hi - lo};
  }
};

struct LexLess {
  bool operator()(std::span<const int> a, std::span<const int> b) const {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
  }
};

}  // namespace

DccDetection detect_dccs(const Graph& g, int r, RoundLedger& ledger,
                         std::string_view phase, ThreadPool* pool) {
  DC_REQUIRE(r >= 1, "DCC detection radius must be >= 1");
  const int n = g.num_vertices();
  DccDetection out;
  out.has_dcc.assign(static_cast<std::size_t>(n), false);
  out.selected.assign(static_cast<std::size_t>(n), -1);

  // One parallel gather of radius r: every node learns its ball (plus one
  // extra round to exchange the selections for deduplication).
  ledger.charge(r + 1, phase);

  // Global fast path: induced subgraphs of Gallai trees are Gallai trees
  // (their 2-connected subgraphs live inside clique / odd-cycle blocks), so
  // when the whole graph is Gallai no ball anywhere contains a DCC. This
  // matters for Phase (6), which probes small DCC-free components at radius
  // R ~ 2 log N — quadratic if done ball by ball.
  if (is_gallai_tree(g)) return out;

  // Every node inspects its own ball and nominates one DCC vertex set — a
  // pure function of the graph, so the balls are analyzed in parallel (the
  // hottest loop of the randomized pipeline). Each chunk appends to its own
  // Nominations; the cross-node deduplication happens serially below, in
  // id order, so DCC indices are identical for every thread count.
  // Chunk cap = one per executor: each chunk holds an O(n) id map, so more
  // chunks than executors would only multiply that cost (chunk boundaries
  // are not observable: results are unchanged).
  const int max_chunks = pool != nullptr ? pool->num_threads() : 1;
  const int num_chunks =
      pool != nullptr ? std::max(1, pool->num_range_chunks(n, max_chunks)) : 1;
  std::vector<Nominations> nominations(static_cast<std::size_t>(num_chunks));
  pooled_ranges(
      pool, 0, n,
      [&](int chunk, int lo, int hi) {
        auto& mine = nominations[static_cast<std::size_t>(chunk)];
        BallAnalyzer analyzer;
        for (int v = lo; v < hi; ++v) {
          if (analyzer.analyze(g, v, r, mine.vertices)) {
            mine.nominator.push_back(v);
            mine.offsets.push_back(static_cast<int>(mine.vertices.size()));
          }
        }
      },
      max_chunks);

  // Serial deduplication in id order (chunks cover increasing ranges):
  // first nominator wins the index.
  std::map<std::span<const int>, int, LexLess> dcc_index;
  for (const auto& chunk : nominations) {
    for (std::size_t i = 0; i < chunk.nominator.size(); ++i) {
      const int v = chunk.nominator[i];
      const auto set = chunk.set(i);
      const auto [it, inserted] =
          dcc_index.try_emplace(set, static_cast<int>(out.dccs.size()));
      if (inserted) out.dccs.emplace_back(set.begin(), set.end());
      out.has_dcc[static_cast<std::size_t>(v)] = true;
      out.selected[static_cast<std::size_t>(v)] = it->second;
    }
  }

  // Radii of the selected DCCs: independent sweeps on DCC-local CSRs,
  // max-combined (order free), so the scan parallelizes over DCC indices.
  const int num_dccs = static_cast<int>(out.dccs.size());
  std::vector<int> radius(static_cast<std::size_t>(num_dccs), 0);
  pooled_ranges(
      pool, 0, num_dccs,
      [&](int /*chunk*/, int lo, int hi) {
        InducedRadius induced_radius;
        for (int i = lo; i < hi; ++i) {
          radius[static_cast<std::size_t>(i)] =
              induced_radius(g, out.dccs[static_cast<std::size_t>(i)]);
        }
      },
      max_chunks);
  for (int i = 0; i < num_dccs; ++i) {
    out.max_dcc_radius = std::max(out.max_dcc_radius,
                                  radius[static_cast<std::size_t>(i)]);
  }
  return out;
}

Graph build_dcc_virtual_graph(const Graph& g,
                              const std::vector<std::vector<int>>& dccs) {
  const int k = static_cast<int>(dccs.size());
  // membership[v] = list of DCC indices containing v.
  std::vector<std::vector<int>> membership(
      static_cast<std::size_t>(g.num_vertices()));
  for (int i = 0; i < k; ++i) {
    for (int v : dccs[static_cast<std::size_t>(i)]) {
      membership[static_cast<std::size_t>(v)].push_back(i);
    }
  }
  std::vector<Edge> edges;
  // Shared vertices.
  for (int v = 0; v < g.num_vertices(); ++v) {
    const auto& m = membership[static_cast<std::size_t>(v)];
    for (std::size_t a = 0; a < m.size(); ++a) {
      for (std::size_t b = a + 1; b < m.size(); ++b) {
        edges.emplace_back(m[a], m[b]);
      }
    }
  }
  // Edges of g between different DCCs.
  for (int v = 0; v < g.num_vertices(); ++v) {
    for (int u : g.neighbors(v)) {
      if (u <= v) continue;
      for (int i : membership[static_cast<std::size_t>(v)]) {
        for (int j : membership[static_cast<std::size_t>(u)]) {
          if (i != j) edges.emplace_back(std::min(i, j), std::max(i, j));
        }
      }
    }
  }
  return Graph::from_edges(k, edges);
}

}  // namespace deltacol
