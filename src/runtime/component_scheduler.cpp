#include "runtime/component_scheduler.h"

#include <algorithm>
#include <exception>

namespace deltacol {

void ComponentScheduler::run(int count,
                             const std::function<void(int)>& job) const {
  if (count <= 0) return;
  if (pool_ != nullptr && pool_->num_threads() > 1) {
    pool_->parallel_chunks(count, job);
    return;
  }
  // Inline, with the pooled path's exception contract: every job runs and
  // the lowest index's exception wins.
  std::exception_ptr first_error;
  for (int i = 0; i < count; ++i) {
    try {
      job(i);
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

std::int64_t ComponentScheduler::run_max_total(
    int count, const std::function<void(int, RoundLedger&)>& job,
    std::int64_t congest_bits) const {
  if (count <= 0) return 0;
  std::vector<RoundLedger> children(static_cast<std::size_t>(count));
  for (auto& child : children) child.set_congest_bits(congest_bits);
  run(count,
      [&](int i) { job(i, children[static_cast<std::size_t>(i)]); });
  std::int64_t best = 0;
  for (const auto& child : children) best = std::max(best, child.total());
  return best;
}

void charge_max_component(RoundLedger& parent,
                          const std::vector<RoundLedger>& children) {
  // Strictly-greater scan from 0 in index order: a run whose components all
  // charged nothing merges nothing (matching the serial engine's fold).
  const RoundLedger* best = nullptr;
  std::int64_t best_total = 0;
  for (const auto& child : children) {
    if (child.total() > best_total) {
      best = &child;
      best_total = child.total();
    }
  }
  if (best != nullptr) parent.merge(*best);
}

}  // namespace deltacol
