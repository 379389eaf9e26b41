// deltacol_cli — color a graph from disk.
//
//   ./deltacol_cli <edge-list-file> [--alg small|large|det|ps|naive]
//                  [--seed S] [--threads T] [--congest-bits B]
//                  [--perturb-salt X] [--paper-constants] [--dot out.dot]
//
// Reads an edge list ("n m" header, one "u v" pair per line, 0-based),
// runs the chosen Delta-coloring algorithm, prints the coloring summary and
// the per-phase round ledger, and optionally writes a colored DOT file.
// Exit code 0 iff a valid Delta-coloring was produced, 1 on a contract
// violation (bad file, (Delta+1)-clique input), 2 on a usage error.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>

#include "core/api.h"
#include "graph/io.h"
#include "graph/metrics.h"
#include "launcher_flags.h"
#include "runtime/thread_pool.h"

using namespace deltacol;
using examples::flag_value;
using examples::parse_flag_int;
using examples::UsageError;

namespace {

void usage(std::ostream& out) {
  out << "usage: deltacol_cli <edge-list> [--alg small|large|det|ps|naive]"
         " [--seed S] [--threads T] [--congest-bits B]"
         " [--perturb-salt X] [--paper-constants] [--dot out.dot]\n"
         "  --threads T   worker threads for the parallel runtime, 0.."
      << ThreadPool::kMaxThreads
      << " (0 = all\n"
         "                hardware threads; results are identical for any T)\n"
         "  --congest-bits B\n"
         "                bits per edge per round for CONGEST(B) charging\n"
         "                (0 = LOCAL model). Only Luby's MIS steps honour B\n"
         "                (the randomized ruling steps and the naive\n"
         "                baseline's scheduling MIS); every other phase\n"
         "                charges its LOCAL rounds at any B, so det reports\n"
         "                the same total at every B. Accounting only: the\n"
         "                coloring is identical for any B\n"
         "  --perturb-salt X\n"
         "                schedule perturbation (0 = off): jitters chunk\n"
         "                counts and stalls threads; a determinism check,\n"
         "                the output is identical for any X\n";
}

Algorithm parse_algorithm(const std::string& v) {
  if (v == "small") return Algorithm::kRandomizedSmall;
  if (v == "large") return Algorithm::kRandomizedLarge;
  if (v == "det") return Algorithm::kDeterministic;
  if (v == "ps") return Algorithm::kBaselineND;
  if (v == "naive") return Algorithm::kBaselineGreedyBrooks;
  throw UsageError("--alg must be small, large, det, ps or naive, got '" +
                   v + "'");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(std::cerr);
    return 2;
  }
  const std::string path = argv[1];
  if (path == "--help" || path == "-h") {
    usage(std::cout);
    return 0;
  }
  Algorithm alg = Algorithm::kRandomizedSmall;
  DeltaColoringOptions opt;
  std::string dot_path;
  try {
    for (int i = 2; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--alg") {
        alg = parse_algorithm(flag_value(argc, argv, i, a));
      } else if (a == "--seed") {
        opt.seed =
            parse_flag_int<std::uint64_t>(a, flag_value(argc, argv, i, a));
      } else if (a == "--threads") {
        opt.num_threads = parse_flag_int<int>(a, flag_value(argc, argv, i, a),
                                              0, ThreadPool::kMaxThreads);
      } else if (a == "--congest-bits") {
        opt.congest_bits = parse_flag_int<std::int64_t>(
            a, flag_value(argc, argv, i, a), 0);
      } else if (a == "--perturb-salt") {
        opt.perturb_salt =
            parse_flag_int<std::uint64_t>(a, flag_value(argc, argv, i, a));
      } else if (a == "--paper-constants") {
        opt.use_paper_constants = true;
      } else if (a == "--dot") {
        dot_path = flag_value(argc, argv, i, a);
      } else {
        throw UsageError("unknown flag '" + a + "'");
      }
    }
  } catch (const UsageError& e) {
    std::cerr << "error: " << e.what() << "\n";
    usage(std::cerr);
    return 2;
  }

  try {
    const Graph g = load_edge_list(path);
    std::cout << "graph: n=" << g.num_vertices() << " m=" << g.num_edges()
              << " Delta=" << g.max_degree() << " degeneracy="
              << degeneracy(g).degeneracy << "\n";
    const DeltaColoringResult res = delta_color(g, alg, opt);
    validate_delta_coloring(g, res.coloring, res.delta);
    std::cout << "algorithm: " << algorithm_name(alg) << "\n"
              << "colors: " << num_colors_used(res.coloring) << " / "
              << res.delta << "\n"
              << res.ledger.report();
    if (!dot_path.empty()) {
      std::ofstream out(dot_path);
      write_dot(out, g, res.coloring);
      std::cout << "wrote " << dot_path << "\n";
    }
    return 0;
  } catch (const ContractViolation& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
