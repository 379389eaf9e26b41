// Graph serialization: whitespace edge lists (one "u v" pair per line, with
// an optional "n m" header) and Graphviz DOT output for visual debugging of
// small instances and their colorings.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "coloring/coloring.h"
#include "graph/graph.h"

namespace deltacol {

// Format:
//   n m
//   u1 v1
//   ...
// Lines starting with '#' are comments, and lines of only whitespace (a
// lone '\r' of a CRLF file included) are blank. Vertices are 0-based. A
// header or edge line is exactly two integers, separated and optionally
// surrounded by whitespace (a trailing '\r' included); anything else on the
// line — a weight column, say — is rejected with ContractViolation.
void write_edge_list(std::ostream& out, const Graph& g);
Graph read_edge_list(std::istream& in);

// The edge-list grammar, one line at a time: the one parser behind
// read_edge_list and the per-rank loader (net/rank_loader.h).
class EdgeListParser {
 public:
  enum class Line { kSkip, kHeader, kEdge };

  // Parses one line (without its '\n'): kSkip for a blank or '#' line,
  // kHeader for the first other line ("n m", both non-negative, n fits an
  // int), kEdge for every later one ("u v", 0 <= u, v < n, u != v). Throws
  // ContractViolation on a malformed line.
  Line parse(std::string_view line);

  // Throws unless a header was seen and exactly m edge lines followed it.
  void finish() const;

  int n() const { return n_; }  // valid after the header
  int u() const { return u_; }  // endpoints of the last edge line
  int v() const { return v_; }

 private:
  int n_ = -1;
  std::int64_t m_ = -1;
  std::int64_t edges_seen_ = 0;
  int u_ = -1;
  int v_ = -1;
};

// DOT output; when a coloring is given, vertices are filled from a small
// palette (colors beyond the palette get numbered labels only).
void write_dot(std::ostream& out, const Graph& g,
               const std::optional<Coloring>& coloring = std::nullopt);

// Convenience file wrappers (throw ContractViolation on I/O failure).
void save_edge_list(const std::string& path, const Graph& g);
Graph load_edge_list(const std::string& path);

}  // namespace deltacol
