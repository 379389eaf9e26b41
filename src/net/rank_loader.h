/// \file
/// Per-rank graph loading for distributed runs: each process materializes
/// only its own contiguous CSR slice and learns about the boundary (halo)
/// by asking the owners over the wire.
///
/// Three pieces:
///
///   * `CsrSlice` — the owned rows [lo, hi) of the global CSR, with global
///     neighbor ids. `slice_of` cuts one from an in-memory Graph (the
///     reference path); `load_edge_list_slice` streams the standard edge-list
///     format (graph/io.h) and keeps only edges touching the owned range, so
///     a rank never holds the full graph.
///   * `halo_of` — the sorted global ids of non-owned endpoints reachable
///     from the slice, exactly the halo table `GraphView` builds centrally.
///   * `exchange_halo_adjacency` — two `Transport::all_gather_rows` rounds
///     (request halo ids from their owners, owners reply with the full
///     adjacency of each requested vertex), giving every rank the one-hop
///     neighborhoods of its halo without any rank loading remote rows from
///     disk. Payloads go through the WireCodec vector/pair combinators, so
///     this is also a live end-to-end exercise of the codec family.
///
/// tests/test_socket_transport.cpp checks slice + halo against the
/// centrally built `GraphView` on the generator zoo, and the mpi-like
/// launcher prints per-rank slice statistics from this path.
///
/// This loader is the data-side half of the owner-compute model
/// (DESIGN.md §6, "Owner-compute"): a rank that loads only its slice holds
/// O(n/S + halo) graph *and*, on the distributed engine, O(n/S + halo)
/// algorithm state — nothing per-vertex global ever materializes on a rank
/// until the end-of-run `gather_colors`.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/partition.h"
#include "runtime/mailbox.h"

namespace deltacol {

/// The owned rows [lo, hi) of the global CSR. `offsets` has hi-lo+1 entries
/// (local indexing: owned vertex v lives at row v-lo); `targets` holds
/// sorted **global** neighbor ids, so cross-shard edges are visible as
/// targets outside [lo, hi).
///
/// **Coordinates.** Slices live in the partition's *layout* space, where
/// ownership is contiguous by construction: for the contiguous partition
/// that is the original id space unchanged; for a renumbered locality
/// partition (graph/renumber.h) row p is original vertex
/// part.vertex_at(p) and targets are layout positions too. Callers
/// translate at the boundary with part.vertex_at / part.position_of —
/// exactly the id-translation discipline the rest of the runtime uses.
struct CsrSlice {
  int n_global = 0;
  int lo = 0;
  int hi = 0;
  std::vector<std::int64_t> offsets{0};
  std::vector<int> targets;

  int num_owned() const { return hi - lo; }
  bool owns(int v) const { return v >= lo && v < hi; }
  int degree(int v) const {
    return static_cast<int>(offsets[static_cast<std::size_t>(v - lo) + 1] -
                            offsets[static_cast<std::size_t>(v - lo)]);
  }
  /// Sorted global neighbor ids of owned vertex \p v.
  std::span<const int> neighbors(int v) const {
    return {targets.data() + offsets[static_cast<std::size_t>(v - lo)],
            static_cast<std::size_t>(degree(v))};
  }
};

/// Cuts shard \p shard's slice from an in-memory graph (reference path).
/// Works for contiguous and renumbered partitions alike (see the
/// coordinates note on CsrSlice).
CsrSlice slice_of(const Graph& g, const VertexPartition& part, int shard);

/// Streams the graph/io.h edge-list format and keeps only the rows owned by
/// \p shard under the contiguous partition of n into \p num_shards. Any
/// rank's slice of a file equals `slice_of` on the fully loaded graph.
CsrSlice load_edge_list_slice(std::istream& in, int num_shards, int shard);
CsrSlice load_edge_list_slice(const std::string& path, int num_shards,
                              int shard);

/// Streaming load under an explicit (possibly renumbered) partition, which
/// must span the file's vertex count. Edge endpoints are relabeled into
/// layout space on the fly through the partition's O(n) position table —
/// the rank holds its own rows plus that table, never the full O(m) graph.
/// Equals `slice_of(g, part, shard)` on the fully loaded graph.
CsrSlice load_edge_list_slice(std::istream& in, const VertexPartition& part,
                              int shard);
CsrSlice load_edge_list_slice(const std::string& path,
                              const VertexPartition& part, int shard);

/// Sorted global ids of non-owned endpoints reachable from the slice — the
/// same set as GraphView::halo() for this shard.
std::vector<int> halo_of(const CsrSlice& slice);

/// One halo vertex's owner-provided adjacency.
struct HaloNeighborhood {
  int vertex = 0;                // global id (a member of halo_of(slice))
  std::vector<int> neighbors;    // its full sorted global adjacency
};

/// Fetches the full adjacency of every halo vertex from its owning rank over
/// \p transport (two all_gather_rows trips; see file comment). Every rank in
/// the transport's world must call this collectively with its own slice.
/// Results come back sorted by vertex id, aligned with halo_of(slice).
std::vector<HaloNeighborhood> exchange_halo_adjacency(Transport& transport,
                                                      const CsrSlice& slice);

}  // namespace deltacol
