// Per-layer spans recorded around the library's own calls between modules,
// without changing the library.
//
// The traced binary is linked with `--wrap=<symbol>` for every SYM_* below
// (CMakeLists.txt collects them from this file). The linker then sends every
// call to <symbol> made from another object file — e.g. det_delta.o calling
// ruling_set — to __wrap_<symbol>, defined here, and binds __real_<symbol>
// to the library's definition. Each wrapper opens a span, calls the real
// function, and records the counts it can read off the arguments and the
// result. Calls inside one object file are not redirected, so a span is
// always a call from one module into another.
//
// The __real_ references are weak: if a signature changes, its mangled name
// no longer matches, the probe stays inert, and unbound_probes() names it.
#include "probes.h"

#include <algorithm>
#include <cstdint>
#include <string_view>
#include <vector>

#include "brooks/distributed_brooks.h"
#include "coloring/linial.h"
#include "core/layering.h"
#include "dcc/dcc.h"
#include "mis/mis.h"
#include "mis/ruling_set.h"
#include "trace.h"

using deltacol::Coloring;
using deltacol::DccDetection;
using deltacol::ExecutionMode;
using deltacol::Graph;
using deltacol::Layering;
using deltacol::LinialResult;
using deltacol::ListEngine;
using deltacol::Rng;
using deltacol::RoundLedger;
using deltacol::RulingSetEngine;
using deltacol::ScheduledBrooksFixes;
using deltacol::ThreadPool;
using deltacol::VertexPartition;

// Mangled names (g++ / Itanium ABI) of the probed functions.
#define SYM_DETECT_DCCS "_ZN8deltacol11detect_dccsERKNS_5GraphEiRNS_11RoundLedgerESt17basic_string_viewIcSt11char_traitsIcEEPNS_10ThreadPoolE"
#define SYM_DCC_VIRTUAL_GRAPH "_ZN8deltacol23build_dcc_virtual_graphERKNS_5GraphERKSt6vectorIS3_IiSaIiEESaIS5_EE"
#define SYM_RULING_SET "_ZN8deltacol10ruling_setERKNS_5GraphERKSt6vectorIiSaIiEEiNS_15RulingSetEngineEPNS_3RngERNS_11RoundLedgerESt17basic_string_viewIcSt11char_traitsIcEEPNS_10ThreadPoolENS_13ExecutionModeE"
#define SYM_LUBY_MIS "_ZN8deltacol8luby_misERKNS_5GraphERNS_3RngERNS_11RoundLedgerESt17basic_string_viewIcSt11char_traitsIcEEiPNS_10ThreadPoolEiNS_13ExecutionModeE"
#define SYM_BUILD_LAYERS "_ZN8deltacol12build_layersERKNS_5GraphERKSt6vectorIiSaIiEEiPNS_10ThreadPoolENS_13ExecutionModeE"
#define SYM_BUILD_LAYERS_RESTRICTED "_ZN8deltacol23build_layers_restrictedERKNS_5GraphERKSt6vectorIiSaIiEEiRKS3_IbSaIbEEPNS_10ThreadPoolENS_13ExecutionModeE"
#define SYM_COLOR_LAYERS "_ZN8deltacol23color_layers_in_reverseERKNS_5GraphERKNS_8LayeringEiRKSt6vectorIiSaIiEEiNS_10ListEngineEPNS_3RngERS8_RNS_11RoundLedgerESt17basic_string_viewIcSt11char_traitsIcEEPNS_10ThreadPoolE"
#define SYM_COLOR_LIST_INSTANCE "_ZN8deltacol33color_vertex_set_as_list_instanceERKNS_5GraphERKSt6vectorIiSaIiEEiS7_iNS_10ListEngineEPNS_3RngERS5_RNS_11RoundLedgerESt17basic_string_viewIcSt11char_traitsIcEEPNS_10ThreadPoolE"
#define SYM_BROOKS_FIXES "_ZN8deltacol30schedule_disjoint_brooks_fixesERKNS_5GraphERSt6vectorIiSaIiEERKS5_iiPNS_10ThreadPoolEiPKNS_15VertexPartitionENS_13ExecutionModeE"
#define SYM_SCHEDULE "_ZN8deltacol23delta_plus_one_scheduleERKNS_5GraphERNS_11RoundLedgerEPNS_10ThreadPoolE"
#define SYM_LEDGER_CHARGE "_ZN8deltacol11RoundLedger6chargeElSt17basic_string_viewIcSt11char_traitsIcEE"

#define REAL(sym) __asm__("__real_" sym) __attribute__((weak))
#define WRAP(sym) __asm__("__wrap_" sym)

// ---- declarations: the library's definitions (__real_) and ours (__wrap_)
DccDetection real_detect_dccs(const Graph&, int, RoundLedger&, std::string_view,
                              ThreadPool*) REAL(SYM_DETECT_DCCS);
DccDetection wrap_detect_dccs(const Graph&, int, RoundLedger&, std::string_view,
                              ThreadPool*) WRAP(SYM_DETECT_DCCS);

Graph real_dcc_virtual_graph(const Graph&, const std::vector<std::vector<int>>&)
    REAL(SYM_DCC_VIRTUAL_GRAPH);
Graph wrap_dcc_virtual_graph(const Graph&, const std::vector<std::vector<int>>&)
    WRAP(SYM_DCC_VIRTUAL_GRAPH);

std::vector<int> real_ruling_set(const Graph&, const std::vector<int>&, int,
                                 RulingSetEngine, Rng*, RoundLedger&,
                                 std::string_view, ThreadPool*, ExecutionMode)
    REAL(SYM_RULING_SET);
std::vector<int> wrap_ruling_set(const Graph&, const std::vector<int>&, int,
                                 RulingSetEngine, Rng*, RoundLedger&,
                                 std::string_view, ThreadPool*, ExecutionMode)
    WRAP(SYM_RULING_SET);

std::vector<bool> real_luby_mis(const Graph&, Rng&, RoundLedger&,
                                std::string_view, int, ThreadPool*, int,
                                ExecutionMode) REAL(SYM_LUBY_MIS);
std::vector<bool> wrap_luby_mis(const Graph&, Rng&, RoundLedger&,
                                std::string_view, int, ThreadPool*, int,
                                ExecutionMode) WRAP(SYM_LUBY_MIS);

Layering real_build_layers(const Graph&, const std::vector<int>&, int,
                           ThreadPool*, ExecutionMode) REAL(SYM_BUILD_LAYERS);
Layering wrap_build_layers(const Graph&, const std::vector<int>&, int,
                           ThreadPool*, ExecutionMode) WRAP(SYM_BUILD_LAYERS);

Layering real_build_layers_restricted(const Graph&, const std::vector<int>&,
                                      int, const std::vector<bool>&,
                                      ThreadPool*, ExecutionMode)
    REAL(SYM_BUILD_LAYERS_RESTRICTED);
Layering wrap_build_layers_restricted(const Graph&, const std::vector<int>&,
                                      int, const std::vector<bool>&,
                                      ThreadPool*, ExecutionMode)
    WRAP(SYM_BUILD_LAYERS_RESTRICTED);

void real_color_layers(const Graph&, const Layering&, int, const Coloring&, int,
                       ListEngine, Rng*, Coloring&, RoundLedger&,
                       std::string_view, ThreadPool*) REAL(SYM_COLOR_LAYERS);
void wrap_color_layers(const Graph&, const Layering&, int, const Coloring&, int,
                       ListEngine, Rng*, Coloring&, RoundLedger&,
                       std::string_view, ThreadPool*) WRAP(SYM_COLOR_LAYERS);

void real_color_list_instance(const Graph&, const std::vector<int>&, int,
                              const Coloring&, int, ListEngine, Rng*, Coloring&,
                              RoundLedger&, std::string_view, ThreadPool*)
    REAL(SYM_COLOR_LIST_INSTANCE);
void wrap_color_list_instance(const Graph&, const std::vector<int>&, int,
                              const Coloring&, int, ListEngine, Rng*, Coloring&,
                              RoundLedger&, std::string_view, ThreadPool*)
    WRAP(SYM_COLOR_LIST_INSTANCE);

ScheduledBrooksFixes real_brooks_fixes(const Graph&, Coloring&,
                                       const std::vector<int>&, int, int,
                                       ThreadPool*, int, const VertexPartition*,
                                       ExecutionMode) REAL(SYM_BROOKS_FIXES);
ScheduledBrooksFixes wrap_brooks_fixes(const Graph&, Coloring&,
                                       const std::vector<int>&, int, int,
                                       ThreadPool*, int, const VertexPartition*,
                                       ExecutionMode) WRAP(SYM_BROOKS_FIXES);

LinialResult real_schedule(const Graph&, RoundLedger&, ThreadPool*)
    REAL(SYM_SCHEDULE);
LinialResult wrap_schedule(const Graph&, RoundLedger&, ThreadPool*)
    WRAP(SYM_SCHEDULE);

// RoundLedger::charge as a free function: `this` is the first argument.
void real_ledger_charge(RoundLedger*, std::int64_t, std::string_view)
    REAL(SYM_LEDGER_CHARGE);
void wrap_ledger_charge(RoundLedger*, std::int64_t, std::string_view)
    WRAP(SYM_LEDGER_CHARGE);

namespace {

namespace trace = perfbench::trace;

// Rounds a call charged to `ledger`.
class RoundsDelta {
 public:
  explicit RoundsDelta(const RoundLedger& ledger)
      : ledger_(ledger), before_(ledger.total()) {}
  double get() const { return static_cast<double>(ledger_.total() - before_); }

 private:
  const RoundLedger& ledger_;
  std::int64_t before_;
};

// The Linial / color-reduction split inside delta_plus_one_schedule: the
// two steps run in one object file, so their boundary is read off the
// ledger charges instead. Linial ends with its last "linial" charge.
struct ScheduleSplit {
  double last_linial_s = 0.0;
  std::int64_t linial_rounds = 0;
  std::int64_t reduce_rounds = 0;
};
thread_local ScheduleSplit* t_split = nullptr;

}  // namespace

DccDetection wrap_detect_dccs(const Graph& g, int r, RoundLedger& ledger,
                              std::string_view phase, ThreadPool* pool) {
  if (!trace::enabled()) return real_detect_dccs(g, r, ledger, phase, pool);
  DccDetection det;
  {
    const trace::Scope span("dcc.detect");
    det = real_detect_dccs(g, r, ledger, phase, pool);
  }
  trace::count("dcc.dccs", static_cast<double>(det.dccs.size()));
  trace::count("dcc.balls_with_dcc",
               static_cast<double>(
                   std::count(det.has_dcc.begin(), det.has_dcc.end(), true)));
  return det;
}

Graph wrap_dcc_virtual_graph(const Graph& g,
                             const std::vector<std::vector<int>>& dccs) {
  const trace::Scope span("dcc.virtual_graph");
  return real_dcc_virtual_graph(g, dccs);
}

std::vector<int> wrap_ruling_set(const Graph& g, const std::vector<int>& subset,
                                 int alpha, RulingSetEngine engine, Rng* rng,
                                 RoundLedger& ledger, std::string_view phase,
                                 ThreadPool* pool, ExecutionMode mode) {
  if (!trace::enabled()) {
    return real_ruling_set(g, subset, alpha, engine, rng, ledger, phase, pool,
                           mode);
  }
  const RoundsDelta rounds(ledger);
  std::vector<int> picks;
  {
    const trace::Scope span("mis.ruling_set");
    picks = real_ruling_set(g, subset, alpha, engine, rng, ledger, phase, pool,
                            mode);
  }
  trace::count("mis.ruling_set_picks", static_cast<double>(picks.size()));
  trace::count("mis.ruling_set_rounds", rounds.get());
  return picks;
}

// luby_mis is the randomized pipeline's ruling step on GDCC (an MIS is an
// alpha = 2 ruling set), so it feeds the same mis.ruling_set_* metrics.
std::vector<bool> wrap_luby_mis(const Graph& g, Rng& rng, RoundLedger& ledger,
                                std::string_view phase, int rounds_per_step,
                                ThreadPool* pool, int num_shards,
                                ExecutionMode mode) {
  if (!trace::enabled()) {
    return real_luby_mis(g, rng, ledger, phase, rounds_per_step, pool,
                         num_shards, mode);
  }
  const RoundsDelta rounds(ledger);
  std::vector<bool> in_set;
  {
    const trace::Scope span("mis.luby_mis");
    in_set = real_luby_mis(g, rng, ledger, phase, rounds_per_step, pool,
                           num_shards, mode);
  }
  trace::count("mis.ruling_set_picks",
               static_cast<double>(std::count(in_set.begin(), in_set.end(), true)));
  trace::count("mis.ruling_set_rounds", rounds.get());
  return in_set;
}

Layering wrap_build_layers(const Graph& g, const std::vector<int>& base,
                           int max_depth, ThreadPool* pool, ExecutionMode mode) {
  if (!trace::enabled()) return real_build_layers(g, base, max_depth, pool, mode);
  Layering layering;
  {
    const trace::Scope span("core.build_layers");
    layering = real_build_layers(g, base, max_depth, pool, mode);
  }
  trace::count("core.layers", layering.num_layers);
  return layering;
}

Layering wrap_build_layers_restricted(const Graph& g,
                                      const std::vector<int>& base,
                                      int max_depth,
                                      const std::vector<bool>& allowed,
                                      ThreadPool* pool, ExecutionMode mode) {
  if (!trace::enabled()) {
    return real_build_layers_restricted(g, base, max_depth, allowed, pool, mode);
  }
  Layering layering;
  {
    const trace::Scope span("core.build_layers");
    layering = real_build_layers_restricted(g, base, max_depth, allowed, pool, mode);
  }
  trace::count("core.layers", layering.num_layers);
  return layering;
}

void wrap_color_layers(const Graph& g, const Layering& layering, int delta,
                       const Coloring& schedule, int schedule_colors,
                       ListEngine engine, Rng* rng, Coloring& c,
                       RoundLedger& ledger, std::string_view phase,
                       ThreadPool* pool) {
  if (!trace::enabled()) {
    real_color_layers(g, layering, delta, schedule, schedule_colors, engine,
                      rng, c, ledger, phase, pool);
    return;
  }
  const RoundsDelta rounds(ledger);
  {
    const trace::Scope span("coloring.list");
    real_color_layers(g, layering, delta, schedule, schedule_colors, engine,
                      rng, c, ledger, phase, pool);
  }
  trace::count("coloring.list_rounds", rounds.get());
}

void wrap_color_list_instance(const Graph& g, const std::vector<int>& vertices,
                              int delta, const Coloring& schedule,
                              int schedule_colors, ListEngine engine, Rng* rng,
                              Coloring& c, RoundLedger& ledger,
                              std::string_view phase, ThreadPool* pool) {
  if (!trace::enabled()) {
    real_color_list_instance(g, vertices, delta, schedule, schedule_colors,
                             engine, rng, c, ledger, phase, pool);
    return;
  }
  const RoundsDelta rounds(ledger);
  {
    const trace::Scope span("coloring.list");
    real_color_list_instance(g, vertices, delta, schedule, schedule_colors,
                             engine, rng, c, ledger, phase, pool);
  }
  trace::count("coloring.list_rounds", rounds.get());
}

ScheduledBrooksFixes wrap_brooks_fixes(const Graph& g, Coloring& c,
                                       const std::vector<int>& bases, int delta,
                                       int max_radius, ThreadPool* pool,
                                       int num_shards,
                                       const VertexPartition* part,
                                       ExecutionMode mode) {
  if (!trace::enabled()) {
    return real_brooks_fixes(g, c, bases, delta, max_radius, pool, num_shards,
                             part, mode);
  }
  ScheduledBrooksFixes fixes;
  {
    const trace::Scope span("brooks.fixes");
    fixes = real_brooks_fixes(g, c, bases, delta, max_radius, pool, num_shards,
                              part, mode);
  }
  trace::count("brooks.fixes", fixes.num_executed);
  return fixes;
}

LinialResult wrap_schedule(const Graph& g, RoundLedger& ledger,
                           ThreadPool* pool) {
  if (!trace::enabled()) return real_schedule(g, ledger, pool);
  ScheduleSplit split;
  const double start = trace::now_s();
  split.last_linial_s = start;
  t_split = &split;
  LinialResult out;
  try {
    out = real_schedule(g, ledger, pool);
  } catch (...) {
    t_split = nullptr;
    throw;
  }
  t_split = nullptr;
  const double end = trace::now_s();
  trace::record_closed("coloring.linial", start, split.last_linial_s);
  trace::record_closed("coloring.reduce", split.last_linial_s, end);
  trace::count("coloring.linial_rounds", static_cast<double>(split.linial_rounds));
  trace::count("coloring.reduce_rounds", static_cast<double>(split.reduce_rounds));
  return out;
}

void wrap_ledger_charge(RoundLedger* self, std::int64_t rounds,
                        std::string_view phase) {
  real_ledger_charge(self, rounds, phase);
  if (t_split == nullptr) return;
  if (phase == "linial") {
    t_split->last_linial_s = trace::now_s();
    t_split->linial_rounds += rounds;
  } else {
    t_split->reduce_rounds += rounds;
  }
}

namespace perfbench {

std::vector<std::string> unbound_probes() {
  const std::pair<const char*, const void*> probes[] = {
      {"detect_dccs", reinterpret_cast<const void*>(&real_detect_dccs)},
      {"build_dcc_virtual_graph", reinterpret_cast<const void*>(&real_dcc_virtual_graph)},
      {"ruling_set", reinterpret_cast<const void*>(&real_ruling_set)},
      {"luby_mis", reinterpret_cast<const void*>(&real_luby_mis)},
      {"build_layers", reinterpret_cast<const void*>(&real_build_layers)},
      {"build_layers_restricted", reinterpret_cast<const void*>(&real_build_layers_restricted)},
      {"color_layers_in_reverse", reinterpret_cast<const void*>(&real_color_layers)},
      {"color_vertex_set_as_list_instance", reinterpret_cast<const void*>(&real_color_list_instance)},
      {"schedule_disjoint_brooks_fixes", reinterpret_cast<const void*>(&real_brooks_fixes)},
      {"delta_plus_one_schedule", reinterpret_cast<const void*>(&real_schedule)},
      {"RoundLedger::charge", reinterpret_cast<const void*>(&real_ledger_charge)},
  };
  std::vector<std::string> out;
  for (const auto& [name, addr] : probes) {
    if (addr == nullptr) out.emplace_back(name);
  }
  return out;
}

}  // namespace perfbench
