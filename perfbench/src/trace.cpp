#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace perfbench::trace {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<int> g_ambient_root{-1};

std::mutex g_mu;
std::vector<Span> g_spans;  // guarded by g_mu
std::map<std::string, double> g_counts;  // guarded by g_mu
int g_next_id = 0;  // guarded by g_mu
int g_run = 0;      // guarded by g_mu

thread_local std::vector<int> t_open;  // ids of this thread's open spans

int current_parent() {
  return t_open.empty() ? g_ambient_root.load() : t_open.back();
}

}  // namespace

void set_enabled(bool on) { g_enabled.store(on); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void begin_run(int run) {
  const std::lock_guard<std::mutex> lock(g_mu);
  g_run = run;
}

void count(const std::string& name, double value) {
  if (!enabled()) return;
  const std::lock_guard<std::mutex> lock(g_mu);
  g_counts[name] += value;
}

void record_closed(const std::string& name, double start_s, double end_s) {
  if (!enabled()) return;
  const int parent = current_parent();
  const std::lock_guard<std::mutex> lock(g_mu);
  g_spans.push_back(Span{g_next_id++, parent, g_run, -1, name, start_s, end_s, 0.0});
}

Scope::Scope(std::string name, int rank, bool root) {
  if (!enabled()) return;
  const int parent = root ? -1 : current_parent();
  const double start = now_s();
  int id = 0;
  {
    const std::lock_guard<std::mutex> lock(g_mu);
    id = g_next_id++;
    slot_ = static_cast<int>(g_spans.size());
    g_spans.push_back(Span{id, parent, g_run, rank, std::move(name), start, start, 0.0});
  }
  if (root && rank < 0) g_ambient_root.store(id);
  t_open.push_back(id);
}

Scope::~Scope() {
  if (slot_ < 0) return;
  const double end = now_s();
  t_open.pop_back();
  const std::lock_guard<std::mutex> lock(g_mu);
  g_spans[static_cast<std::size_t>(slot_)].end_s = end;
}

Record take() {
  const std::lock_guard<std::mutex> lock(g_mu);
  Record out{std::exchange(g_spans, {}), std::exchange(g_counts, {})};
  g_ambient_root.store(-1);
  return out;
}

namespace {

double union_length(std::vector<std::pair<double, double>>& iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0;
  double cur_lo = 0.0, cur_hi = 0.0;
  bool open = false;
  for (const auto& [lo, hi] : iv) {
    if (hi <= lo) continue;
    if (!open || lo > cur_hi) {
      if (open) total += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    } else {
      cur_hi = std::max(cur_hi, hi);
    }
  }
  if (open) total += cur_hi - cur_lo;
  return total;
}

}  // namespace

void compute_self_times(std::vector<Span>& spans) {
  std::unordered_map<int, std::vector<std::pair<double, double>>> children;
  std::unordered_map<int, const Span*> by_id;
  for (const Span& s : spans) by_id[s.id] = &s;
  for (const Span& c : spans) {
    const auto it = by_id.find(c.parent);
    if (it == by_id.end()) continue;
    const Span& p = *it->second;
    children[p.id].emplace_back(std::max(c.start_s, p.start_s),
                                std::min(c.end_s, p.end_s));
  }
  for (Span& s : spans) {
    auto it = children.find(s.id);
    const double covered = it == children.end() ? 0.0 : union_length(it->second);
    s.self_s = (s.end_s - s.start_s) - covered;
  }
}

}  // namespace perfbench::trace
