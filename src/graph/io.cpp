#include "graph/io.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <fstream>
#include <limits>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "util/check.h"

namespace deltacol {

void write_edge_list(std::ostream& out, const Graph& g) {
  out << g.num_vertices() << ' ' << g.num_edges() << '\n';
  for (const auto& [u, v] : g.edge_list()) {
    out << u << ' ' << v << '\n';
  }
}

namespace {

// The two integers of a header or edge line, with nothing but whitespace
// around and between them.
std::pair<std::int64_t, std::int64_t> parse_two_integers(std::string_view line,
                                                         const char* what) {
  const char* p = line.data();
  const char* const end = p + line.size();
  auto skip_space = [&] {
    const char* start = p;
    while (p < end && std::isspace(static_cast<unsigned char>(*p))) ++p;
    return p > start;
  };
  std::int64_t value[2];
  for (int i = 0; i < 2; ++i) {
    const bool spaced = skip_space();
    DC_REQUIRE(i == 0 || spaced, what);
    const auto [next, ec] = std::from_chars(p, end, value[i]);
    DC_REQUIRE(ec == std::errc(), what);
    p = next;
  }
  skip_space();
  DC_REQUIRE(p == end, what);
  return {value[0], value[1]};
}

}  // namespace

EdgeListParser::Line EdgeListParser::parse(std::string_view line) {
  const bool blank = std::all_of(line.begin(), line.end(), [](char ch) {
    return std::isspace(static_cast<unsigned char>(ch)) != 0;
  });
  if (blank || line[0] == '#') return Line::kSkip;
  if (n_ < 0) {
    const auto [n, m] = parse_two_integers(line, "bad edge-list header");
    DC_REQUIRE(n >= 0 && m >= 0, "negative counts in header");
    DC_REQUIRE(n <= std::numeric_limits<int>::max(),
               "vertex count in header too large");
    n_ = static_cast<int>(n);
    m_ = m;
    return Line::kHeader;
  }
  const auto [u, v] = parse_two_integers(line, "bad edge-list line");
  DC_REQUIRE(u >= 0 && u < n_ && v >= 0 && v < n_,
             "edge endpoint out of range");
  DC_REQUIRE(u != v, "self-loop in edge list");
  u_ = static_cast<int>(u);
  v_ = static_cast<int>(v);
  ++edges_seen_;
  return Line::kEdge;
}

void EdgeListParser::finish() const {
  DC_REQUIRE(n_ >= 0, "edge list missing header");
  DC_REQUIRE(edges_seen_ == m_, "edge count does not match header");
}

Graph read_edge_list(std::istream& in) {
  EdgeListParser parser;
  std::vector<Edge> edges;
  std::string line;
  while (std::getline(in, line)) {
    if (parser.parse(line) == EdgeListParser::Line::kEdge) {
      edges.emplace_back(parser.u(), parser.v());
    }
  }
  parser.finish();
  return Graph::from_edges(parser.n(), edges);
}

void write_dot(std::ostream& out, const Graph& g,
               const std::optional<Coloring>& coloring) {
  static const char* kPalette[] = {"#e6194b", "#3cb44b", "#4363d8", "#ffe119",
                                   "#f58231", "#911eb4", "#46f0f0", "#f032e6"};
  constexpr int kPaletteSize = 8;
  out << "graph G {\n  node [style=filled];\n";
  for (int v = 0; v < g.num_vertices(); ++v) {
    out << "  " << v;
    if (coloring) {
      const Color c = (*coloring)[static_cast<std::size_t>(v)];
      out << " [label=\"" << v << ":" << c << "\"";
      if (c >= 0 && c < kPaletteSize) {
        out << ", fillcolor=\"" << kPalette[c] << "\"";
      }
      out << "]";
    }
    out << ";\n";
  }
  for (const auto& [u, v] : g.edge_list()) {
    out << "  " << u << " -- " << v << ";\n";
  }
  out << "}\n";
}

void save_edge_list(const std::string& path, const Graph& g) {
  std::ofstream out(path);
  DC_REQUIRE(out.good(), "cannot open file for writing: " + path);
  write_edge_list(out, g);
  DC_ENSURE(out.good(), "write failed: " + path);
}

Graph load_edge_list(const std::string& path) {
  std::ifstream in(path);
  DC_REQUIRE(in.good(), "cannot open file for reading: " + path);
  return read_edge_list(in);
}

}  // namespace deltacol
