#include "local/neighborhood.h"

#include "util/check.h"

namespace deltacol {

void NeighborhoodOracle::begin_gather(int radius, std::string_view phase) {
  DC_REQUIRE(radius >= 0, "gather radius must be non-negative");
  ledger_.charge(radius, phase);
  gathered_radius_ = radius;
}

Subgraph NeighborhoodOracle::ball_subgraph(int v, int r) {
  DC_REQUIRE(r <= gathered_radius_,
             "ball radius exceeds the last gathered radius; call begin_gather");
  scratch_.run(graph_, v, r);
  return induced_subgraph(graph_, scratch_.order());
}

}  // namespace deltacol
