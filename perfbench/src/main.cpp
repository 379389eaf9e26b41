// deltacol benchmark program: one workload per invocation.
//
//   deltacol_perf        --workload W --seed N --seconds S --trace 0
//   deltacol_perf_traced --workload W --seed N --seconds S --trace 1
//                        [--trace-out FILE]
//
// Workloads (inputs are generated here from the seed; the library sees only
// a Graph):
//   large-reg8  delta_color(kRandomizedLarge), connected random 8-regular
//               graph, n = 100,000.
//   det-torus   delta_color(kDeterministic), 1000 x 1000 wrapped grid
//               (4-regular, n = 10^6; the same graph for every seed).
//   luby-owner  owner-routed luby_mis_message_passing on 3 SocketTransport
//               ranks (3 threads, full socketpair mesh), random 8-regular
//               graph, n = 100,000, contiguous partition.
//
// Every call's output is checked; a failed check or a throw counts in
// `failed` and is printed with its cause. The last line of stdout is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones, with --trace 1 the per-layer ones
// (spans recorded by probes.cpp and timing_transport.h).
#include <sched.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "coloring/coloring.h"
#include "core/api.h"
#include "graph/components.h"
#include "graph/generators.h"
#include "graph/partition.h"
#include "mis/luby_sync.h"
#include "mis/mis.h"
#include "net/socket_transport.h"
#include "runtime/mailbox.h"
#include "timing_transport.h"
#include "trace.h"
#ifdef DELTACOL_PERF_PROBES
#include "probes.h"
#endif

namespace perfbench {
namespace {

using deltacol::Algorithm;
using deltacol::DeltaColoringOptions;
using deltacol::DeltaColoringResult;
using deltacol::Graph;
using deltacol::Rng;
using deltacol::RoundLedger;

constexpr int kThreads = 4;     // num_threads of the parallel calls
constexpr int kRanks = 3;       // ranks of luby-owner
constexpr int kSetupReps = 5;   // set-ups per run; setup_s is their median
constexpr int kRegularN = 100000;
constexpr int kTorusSide = 1000;

// ---------------------------------------------------------------- metrics

struct MetricDef {
  const char* name;
  const char* unit;
};

const MetricDef kEndToEnd[] = {
    {"vertices_per_ref_s", "vertices/ref-s"},
    {"vertices_per_ref_s_1t", "vertices/ref-s"},
    {"rounds_total", "rounds"},
    {"peak_rss_mb", "MB"},
    {"setup_s", "s"},
    {"success_rate", "fraction"},
};

const MetricDef kPerLayer[] = {
    {"core.delta_color_s", "s"},
    {"dcc.detect_s", "s"},
    {"dcc.dccs", "count"},
    {"dcc.balls_with_dcc", "count"},
    {"dcc.virtual_graph_s", "s"},
    {"mis.ruling_set_s", "s"},
    {"mis.ruling_set_picks", "count"},
    {"mis.ruling_set_rounds", "rounds"},
    {"coloring.linial_s", "s"},
    {"coloring.linial_rounds", "rounds"},
    {"coloring.reduce_s", "s"},
    {"coloring.reduce_rounds", "rounds"},
    {"coloring.list_s", "s"},
    {"coloring.list_rounds", "rounds"},
    {"core.build_layers_s", "s"},
    {"core.layers", "count"},
    {"brooks.fixes_s", "s"},
    {"brooks.fixes", "count"},
    {"stats.num_dccs_selected", "count"},
    {"stats.base_layer_size", "count"},
    {"stats.num_b_layers", "count"},
    {"stats.num_selected", "count"},
    {"stats.num_tnodes", "count"},
    {"stats.num_marked", "count"},
    {"stats.num_c_layers", "count"},
    {"stats.h_vertices", "count"},
    {"stats.happy_vertices", "count"},
    {"stats.leftover_vertices", "count"},
    {"stats.leftover_components", "count"},
    {"stats.max_leftover_component", "count"},
    {"stats.anchors_empty_fallbacks", "count"},
    {"stats.brooks_fixes", "count"},
    {"stats.repairs", "count"},
    {"stats.retries_used", "count"},
    {"mis.luby_s", "s"},
    {"runtime.run_shards_s", "s"},
    {"runtime.self_s", "s"},
    {"net.exchange_owned_s.max", "s"},
    {"net.exchange_owned_s.mean", "s"},
    {"net.exchange_wait_max_over_mean", "ratio"},
    {"net.exchange_calls", "count"},
    {"net.allreduce_s", "s"},
    {"net.gather_s", "s"},
    {"net.wire_bytes_sent", "bytes"},
    {"net.frames_sent", "count"},
    {"net.cross_payload_bytes", "bytes"},
    {"runtime.messages", "count"},
    {"runtime.cross_messages", "count"},
    {"runtime.cross_bits", "bits"},
    {"runtime.rounds_recorded", "rounds"},
    {"trace.coverage", "fraction"},
    {"trace.overhead", "ratio"},
    {"trace.unbound_probes", "count"},
    // RoundLedger phases of the two pipelines and of Luby, '/' -> '.'.
    {"rounds.linial", "rounds"},
    {"rounds.color-reduction", "rounds"},
    {"rounds.trivial-component", "rounds"},
    {"rounds.det.ruling-set", "rounds"},
    {"rounds.det.layering", "rounds"},
    {"rounds.det.layer-coloring", "rounds"},
    {"rounds.det.base-layer", "rounds"},
    {"rounds.rand.1-dcc-detect", "rounds"},
    {"rounds.rand.2-gdcc-ruling", "rounds"},
    {"rounds.rand.3-b-layers", "rounds"},
    {"rounds.rand.4-marking", "rounds"},
    {"rounds.rand.5-c-layers", "rounds"},
    {"rounds.rand.6-small-components", "rounds"},
    {"rounds.rand.7-c-coloring", "rounds"},
    {"rounds.rand.8-b-coloring", "rounds"},
    {"rounds.rand.9-b0-coloring", "rounds"},
    {"rounds.repair", "rounds"},
    {"rounds.mis", "rounds"},
};

std::string phase_metric(const std::string& phase) {
  std::string out = "rounds." + phase;
  std::replace(out.begin(), out.end(), '/', '.');
  return out;
}

using Metrics = std::map<std::string, double>;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

void print_calls(const char* label, const std::vector<double>& times) {
  std::cout << label << ": " << times.size() << ", median " << median(times)
            << ", each:";
  for (double t : times) std::cout << " " << t;
  std::cout << "\n";
}

// CPU seconds used so far by all threads of the process, user and system.
// A vCPU that the host has descheduled ("steal") accrues none.
double cpu_now_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// Steal of all CPUs in seconds (the 8th field of the "cpu" line of
// /proc/stat): time the host ran something else while a vCPU wanted to run.
double steal_s() {
  std::ifstream f("/proc/stat");
  std::string label;
  long long field[8] = {};
  f >> label;
  for (long long& x : field) f >> x;
  return static_cast<double>(field[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

// The time metrics are CPU seconds converted to reference seconds, not
// wall-clock seconds, because the benchmark runs on shared virtual machines:
//  - the host deschedules vCPUs ("steal"), and a parallel call waits for its
//    slowest thread: the wall-clock median of the same 4-thread call moved by
//    more than 50% between runs. CPU time does not count steal.
//  - the host's speed drifts as other tenants come and go: within 3.5
//    minutes, the CPU time of the serial Luby call on one input went from
//    0.51 s to 1.16 s.
// A reference pass is a fixed kernel owned by the benchmark, run just
// before each timed call, on the workload's own graph and on as many threads
// as the call. It does what message passing on a graph does (see run()).
// It calls no library code, so no change to the library moves it, but it
// slows down with the host much as the library does. CPU seconds on T
// threads become reference seconds by the factor
// kRefPassSeconds / (median CPU seconds of the run's passes on T threads).
constexpr double kRefPassSeconds = 0.15;  // one reference pass, by definition

class Reference {
 public:
  // Copies the graph and maps every buffer up front, then runs one untimed
  // pass, so that all of the reference's memory is resident from then on.
  // A pass then takes no page faults: when each pass mapped fresh memory,
  // the median pass moved by 15% from one run to the next. And the calls'
  // peak memory is corrected by the constant resident_mb().
  explicit Reference(const Graph& g)
      : n_(static_cast<std::size_t>(g.num_vertices())),
        m_(2 * static_cast<std::size_t>(g.num_edges())),
        offsets_(n_ + 1),
        adj_(m_),
        reverse_(m_),
        inbox_(m_),
        value_(n_) {
    std::size_t e = 0;
    for (std::size_t v = 0; v < n_; ++v) {
      offsets_[v] = static_cast<std::int32_t>(e);
      for (int u : g.neighbors(static_cast<int>(v))) adj_[e++] = u;
    }
    offsets_[n_] = static_cast<std::int32_t>(e);
    // reverse_[e] is the slot of edge e = (v, u) in u's inbox.
    for (std::size_t v = 0; v < n_; ++v) {
      for (auto i = offsets_[v]; i < offsets_[v + 1]; ++i) {
        const auto u = static_cast<std::size_t>(adj_[static_cast<std::size_t>(i)]);
        auto slot = offsets_[u];
        while (static_cast<std::size_t>(adj_[static_cast<std::size_t>(slot)]) != v) ++slot;
        reverse_[static_cast<std::size_t>(i)] = slot;
      }
    }
    sweeps_ = std::max<std::int64_t>(
        1, kEdgeVisits / static_cast<std::int64_t>(std::max<std::size_t>(1, m_)));
    run(1);
  }

  // Runs one pass on `threads` threads and records its CPU seconds under
  // that thread count.
  void pass(int threads) { passes_[threads].push_back(run(threads)); }

  // Factor from CPU seconds on `threads` threads to reference seconds:
  // kRefPassSeconds per median pass on as many threads. A serial call and a
  // parallel one slow down by different amounts when the host drifts, and
  // so do serial and parallel passes.
  double scale(int threads) const {
    const auto it = passes_.find(threads);
    return it == passes_.end() ? 0.0 : kRefPassSeconds / median(it->second);
  }

  // Memory the reference keeps resident, in MB.
  double resident_mb() const {
    const std::size_t bytes = offsets_.bytes() + adj_.bytes() + reverse_.bytes() +
                              inbox_.bytes() + value_.bytes();
    return static_cast<double>(bytes) / (1024.0 * 1024.0);
  }

  void print() const {
    for (const auto& [threads, p] : passes_) {
      print_calls(("reference passes on " + std::to_string(threads) +
                   " threads, CPU s").c_str(),
                  p);
    }
  }

 private:
  static constexpr std::int64_t kEdgeVisits = 20'000'000;  // per pass

  struct Envelope {
    std::uint32_t from, round;
    std::uint64_t payload, aux, edge;
  };

  // An array in its own anonymous mapping, whole pages, returned to the
  // kernel on destruction.
  template <typename T>
  class Mapped {
   public:
    explicit Mapped(std::size_t count)
        : bytes_((std::max<std::size_t>(1, count) * sizeof(T) + kPage - 1) / kPage * kPage) {
      void* p = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (p == MAP_FAILED) throw std::runtime_error("mmap of the reference failed");
      data_ = static_cast<T*>(p);
    }
    ~Mapped() { munmap(data_, bytes_); }
    Mapped(const Mapped&) = delete;
    Mapped& operator=(const Mapped&) = delete;
    T& operator[](std::size_t i) { return data_[i]; }
    const T& operator[](std::size_t i) const { return data_[i]; }
    std::size_t bytes() const { return bytes_; }

   private:
    static constexpr std::size_t kPage = 4096;
    std::size_t bytes_;
    T* data_;
  };

  // One pass: every vertex starts from its id; then, kEdgeVisits times over
  // the edges, every vertex writes an envelope into each neighbour's inbox,
  // and every vertex folds its inbox into its value. Each of `threads`
  // threads works on its own contiguous range of vertices. Returns the CPU
  // seconds.
  double run(int threads) {
    const double c0 = cpu_now_s();
    on_ranges(threads, [&](std::size_t begin, std::size_t end) {
      for (std::size_t v = begin; v < end; ++v) value_[v] = v + 1;
    });
    for (std::int64_t sweep = 0; sweep < sweeps_; ++sweep) {
      on_ranges(threads, [&](std::size_t begin, std::size_t end) {
        for (std::size_t v = begin; v < end; ++v) {
          for (auto e = offsets_[v]; e < offsets_[v + 1]; ++e) {
            const auto i = static_cast<std::size_t>(e);
            inbox_[static_cast<std::size_t>(reverse_[i])] =
                Envelope{static_cast<std::uint32_t>(v), static_cast<std::uint32_t>(sweep),
                         value_[v], value_[v] >> 7, i};
          }
        }
      });
      on_ranges(threads, [&](std::size_t begin, std::size_t end) {
        for (std::size_t v = begin; v < end; ++v) {
          std::uint64_t h = value_[v];
          for (auto e = offsets_[v]; e < offsets_[v + 1]; ++e) {
            const Envelope& m = inbox_[static_cast<std::size_t>(e)];
            h = (h ^ m.payload ^ m.aux ^ m.from) * 0x9e3779b97f4a7c15ULL;
          }
          value_[v] = h ^ (h >> 29);
        }
      });
    }
    const std::uint64_t keep = value_[0];
    asm volatile("" : : "r"(keep) : "memory");
    return cpu_now_s() - c0;
  }

  // Calls f(begin, end) on `threads` threads over contiguous ranges of [0, n).
  template <typename F>
  void on_ranges(int threads, const F& f) const {
    if (threads <= 1) {
      f(std::size_t{0}, n_);
      return;
    }
    const auto t = static_cast<std::size_t>(threads);
    std::vector<std::thread> pool;
    for (std::size_t i = 0; i < t; ++i) pool.emplace_back(f, n_ * i / t, n_ * (i + 1) / t);
    for (auto& th : pool) th.join();
  }

  std::size_t n_, m_;
  Mapped<std::int32_t> offsets_, adj_, reverse_;
  Mapped<Envelope> inbox_;
  Mapped<std::uint64_t> value_;
  std::int64_t sweeps_ = 1;
  std::map<int, std::vector<double>> passes_;
};

// Wall-clock and CPU seconds of a series of timed calls.
class CallTimes {
 public:
  void add(double wall_s, double cpu_s) {
    wall_.push_back(wall_s);
    cpu_.push_back(cpu_s);
  }
  const std::vector<double>& wall() const { return wall_; }

  // n / the median call's CPU seconds times `scale` (see Reference).
  double vertices_per_ref_s(double n, double scale) const {
    return cpu_.empty() || scale <= 0.0 ? 0.0 : n / (median(cpu_) * scale);
  }

  void print(const std::string& label) const {
    print_calls((label + ", wall s").c_str(), wall_);
    print_calls((label + ", CPU s").c_str(), cpu_);
  }

 private:
  std::vector<double> wall_, cpu_;
};

// Host steal over an interval, as a share of the CPU time the machine had.
class StealMeter {
 public:
  StealMeter() : wall0_(trace::now_s()), steal0_(steal_s()) {}
  void print() const {
    const double wall = trace::now_s() - wall0_;
    const double cpus = static_cast<double>(std::thread::hardware_concurrency());
    std::cout << "host steal during the timed calls: "
              << 100.0 * (steal_s() - steal0_) / std::max(1e-9, wall * cpus)
              << "% of " << cpus << " CPUs\n";
  }

 private:
  double wall0_, steal0_;
};

// Peak resident set of the process since the last reset_peak_rss(), in MB:
// the kernel's high-water mark (VmHWM, the figure getrusage reports as
// ru_maxrss). Resetting it before each call gives one peak per call, and a
// run reports their mean. The peak of a parallel call depends on which
// thread's malloc arena served which buffer, so it falls into modes about
// 10% apart: a median jumps between the modes, a mean moves with their
// proportion, and a process-lifetime maximum is one sample of the worst case.
void reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  for (std::string line; std::getline(f, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---------------------------------------------------------------- inputs

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  return seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL + 1;
}

// Connected random 8-regular graph (the configuration model is connected
// with high probability; a disconnected draw is redrawn from the same
// stream, so the seed still fixes the graph).
Graph make_regular8(std::uint64_t seed) {
  Rng rng(mix(seed, 1));
  for (;;) {
    Graph g = deltacol::random_regular(kRegularN, 8, rng);
    if (deltacol::is_connected(g)) return g;
  }
}

// The 1000 x 1000 wrapped grid. kDeterministic uses no randomness, so this
// workload's input and output are the same for every seed: what moves from
// run to run is only the machine.
Graph make_torus(std::uint64_t /*seed*/) {
  return deltacol::grid_graph(kTorusSide, kTorusSide, /*wrap=*/true);
}

// ---------------------------------------------------------------- checks

struct Tally {
  int attempted = 0;
  int failed = 0;

  void fail(const std::string& what) {
    ++failed;
    std::cout << "FAILED: " << what << "\n";
  }
};

std::uint64_t fingerprint(const std::vector<int>& values) {
  std::uint64_t h = 1469598103934665603ULL;
  for (int x : values) {
    h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(x));
    h *= 1099511628211ULL;
  }
  return h;
}

// ---------------------------------------------------------------- spans

struct TracedCall {
  double seconds = 0.0;
  Metrics metrics;
  std::vector<trace::Span> spans;
};

// Sum of durations of the `names` spans not nested in a span of the same
// names (so a layer calling itself is not counted twice).
double layer_seconds(const std::vector<trace::Span>& spans,
                     const std::vector<std::string>& names,
                     std::optional<int> rank = std::nullopt) {
  std::map<int, const trace::Span*> by_id;
  for (const auto& s : spans) by_id[s.id] = &s;
  const auto named = [&names](const std::string& n) {
    return std::find(names.begin(), names.end(), n) != names.end();
  };
  double total = 0.0;
  for (const auto& s : spans) {
    if (!named(s.name) || (rank && s.rank != *rank)) continue;
    const auto p = by_id.find(s.parent);
    if (p != by_id.end() && named(p->second->name)) continue;
    total += s.end_s - s.start_s;
  }
  return total;
}

int count_spans(const std::vector<trace::Span>& spans, const std::string& name,
                int rank) {
  int n = 0;
  for (const auto& s : spans) n += (s.name == name && s.rank == rank) ? 1 : 0;
  return n;
}

// Root duration minus its self time, over its duration, summed over roots.
double coverage(const std::vector<trace::Span>& spans) {
  double covered = 0.0, total = 0.0;
  for (const auto& s : spans) {
    if (s.parent != -1) continue;
    const double dur = s.end_s - s.start_s;
    covered += dur - s.self_s;
    total += dur;
  }
  return total > 0.0 ? covered / total : 0.0;
}

// The span file: one JSON object with every span of one traced call, times
// relative to its first span. Printed to stdout as well, so the spans stay
// next to the metrics they explain.
std::string span_file(const std::string& workload, std::uint64_t seed,
                      const std::vector<trace::Span>& spans) {
  double t0 = spans.empty() ? 0.0 : spans.front().start_s;
  for (const auto& s : spans) t0 = std::min(t0, s.start_s);
  std::ostringstream out;
  out.precision(9);
  out << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
      << ", \"spans\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    out << "  {\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"run\": " << s.run << ", \"rank\": " << s.rank
        << ", \"name\": \"" << s.name << "\", \"start_s\": " << s.start_s - t0
        << ", \"end_s\": " << s.end_s - t0
        << ", \"dur_s\": " << s.end_s - s.start_s << ", \"self_s\": " << s.self_s
        << "}" << (i + 1 < spans.size() ? "," : "") << "\n";
  }
  out << "]}\n";
  return out.str();
}

// Per span name: calls, total and self seconds, for the printed table.
void print_self_times(const std::vector<trace::Span>& spans) {
  struct Row {
    int calls = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::string, Row> rows;
  double root_total = 0.0;
  for (const auto& s : spans) {
    Row& r = rows[s.name];
    ++r.calls;
    r.total += s.end_s - s.start_s;
    r.self += s.self_s;
    if (s.parent == -1) root_total += s.end_s - s.start_s;
  }
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.self > b.second.self;
  });
  char line[160];
  std::snprintf(line, sizeof line, "%-26s %6s %11s %11s %8s", "span", "calls",
                "total_s", "self_s", "self_%");
  std::cout << line << "\n";
  for (const auto& [name, r] : sorted) {
    std::snprintf(line, sizeof line, "%-26s %6d %11.6f %11.6f %7.1f%%",
                  name.c_str(), r.calls, r.total, r.self,
                  root_total > 0.0 ? 100.0 * r.self / root_total : 0.0);
    std::cout << line << "\n";
  }
}

// ---------------------------------------------------------------- options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  std::string trace_out;
};

// Moves the calling thread over the CPUs it may run on, one per serial call.
// A single-threaded run otherwise stays on whichever CPU the scheduler
// picked first, and on a shared host one CPU can be slower than another for
// minutes, which moves the whole run's 1-thread median. Threads created
// while pinned inherit the pin, so the parallel calls run after release().
class CpuRotation {
 public:
  CpuRotation() { sched_getaffinity(0, sizeof allowed_, &allowed_); }

  void pin_next() {
    const int count = CPU_COUNT(&allowed_);
    if (count <= 1) return;
    int k = next_++ % count;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &allowed_) || k-- > 0) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      sched_setaffinity(0, sizeof one, &one);
      return;
    }
  }

  void release() { sched_setaffinity(0, sizeof allowed_, &allowed_); }

 private:
  cpu_set_t allowed_{};
  int next_ = 0;
};

// Runs `call` until `budget_s` has passed and at least `min_calls` ran.
template <typename Call>
void repeat_for(double budget_s, int min_calls, const Call& call) {
  const double start = trace::now_s();
  for (int i = 0; i < min_calls || trace::now_s() - start < budget_s; ++i) {
    if (!call()) return;
  }
}

// ================================================================ output

int emit_result(const Tally& tally, Metrics out, std::span<const MetricDef> defs,
                bool traced) {
  if (!traced) {
    out["success_rate"] =
        tally.attempted > 0
            ? 1.0 - static_cast<double>(tally.failed) / tally.attempted
            : 0.0;
    std::cout << "fail_rate: " << tally.failed << "/" << tally.attempted << "\n";
  }
  // Metrics outside the declared list (a new ledger phase, say) are
  // reported here rather than silently dropped.
  for (const auto& [name, v] : out) {
    const bool declared =
        std::any_of(defs.begin(), defs.end(),
                    [&name](const MetricDef& d) { return name == d.name; });
    if (!declared) {
      std::cout << "note: " << name << " = " << v
                << " is not a declared metric\n";
    }
  }
  std::ostringstream js;
  js.precision(17);
  js << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << tally.attempted << ", \"failed\": " << tally.failed
     << ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : defs) {
    const auto it = out.find(d.name);
    const double v = it == out.end() ? 0.0 : it->second;
    js << (first ? "" : ", ") << "\"" << d.name << "\": {\"value\": " << v
       << ", \"unit\": \"" << d.unit << "\"}";
    first = false;
  }
  js << "}}";
  std::cout << js.str() << std::endl;
  return 0;
}

// Medians per metric over the traced calls, the overhead ratio, and the span
// file of the traced call with the median duration.
int finish_traced(const Tally& tally, const std::vector<TracedCall>& traced,
                  const std::vector<double>& untraced, const Options& opt) {
  Metrics m;
  std::map<std::string, std::vector<double>> samples;
  std::vector<double> times;
  for (const auto& tc : traced) {
    for (const auto& [k, v] : tc.metrics) samples[k].push_back(v);
    times.push_back(tc.seconds);
  }
  for (const auto& [k, v] : samples) m[k] = median(v);
  const double untraced_s = median(untraced);
  m["trace.overhead"] = untraced_s > 0.0 ? median(times) / untraced_s : 0.0;
  std::vector<std::string> unbound;
#ifdef DELTACOL_PERF_PROBES
  unbound = unbound_probes();
#endif
  for (const auto& u : unbound) {
    std::cout << "WARNING: probe unbound (renamed or new signature): " << u
              << " — its calls are not traced\n";
  }
  m["trace.unbound_probes"] = static_cast<double>(unbound.size());
  std::cout << "untraced call: median " << untraced_s << " s over "
            << untraced.size() << " calls; traced call: median "
            << median(times) << " s over " << times.size() << " calls\n";
  if (!traced.empty()) {
    std::vector<std::size_t> order(traced.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return traced[a].seconds < traced[b].seconds;
    });
    const TracedCall& rep = traced[order[order.size() / 2]];
    std::cout << "self times of the median traced call (" << rep.seconds
              << " s):\n";
    print_self_times(rep.spans);
    const std::string file = span_file(opt.workload, opt.seed, rep.spans);
    std::cout << "spans of the median traced call:\n" << file;
    if (!opt.trace_out.empty()) {
      std::ofstream out(opt.trace_out);
      out << file;
      std::cout << (out ? "span file: " : "warning: cannot write span file ")
                << opt.trace_out << "\n";
    }
  }
  return emit_result(tally, m, kPerLayer, true);
}

// ================================================================ pipelines

struct PipelineCall {
  bool ok = false;
  double seconds = 0.0;
  double cpu_seconds = 0.0;
  double peak_mb = 0.0;
  std::optional<DeltaColoringResult> result;
};

class PipelineBench {
 public:
  PipelineBench(Algorithm alg, std::function<Graph(std::uint64_t)> make,
                const Options& opt)
      : alg_(alg), make_(std::move(make)), opt_(opt) {}

  int run() {
    std::vector<double> setups;
    for (int i = 0; i < (opt_.traced ? 1 : kSetupReps); ++i) {
      const double c0 = cpu_now_s();
      graph_ = make_(opt_.seed);
      setups.push_back(cpu_now_s() - c0);
    }
    const double setup_cpu_s = median(setups);
    std::cout << "graph: n=" << graph_.num_vertices()
              << " m=" << graph_.num_edges()
              << " Delta=" << graph_.max_degree()
              << " setup CPU s=" << setup_cpu_s << "\n";
    call(kThreads);  // first call untimed: allocator and page-cache warm-up
    return opt_.traced ? run_traced() : run_untraced(setup_cpu_s);
  }

 private:
  PipelineCall call(int threads) {
    PipelineCall out;
    ++tally_.attempted;
    DeltaColoringOptions o;
    o.seed = opt_.seed;
    o.num_threads = threads;
    try {
      reset_peak_rss();
      const double t0 = trace::now_s();
      const double c0 = cpu_now_s();
      {
        const trace::Scope root("core.delta_color", -1, /*root=*/true);
        out.result = deltacol::delta_color(graph_, alg_, o);
      }
      out.seconds = trace::now_s() - t0;
      out.cpu_seconds = cpu_now_s() - c0;
      out.peak_mb = peak_rss_mb() - reference_mb_;
    } catch (const std::exception& e) {
      tally_.fail(std::string("delta_color threw: ") + e.what());
      return out;
    }
    out.ok = check(*out.result, threads);
    return out;
  }

  bool check(const DeltaColoringResult& res, int threads) {
    try {
      deltacol::validate_delta_coloring(graph_, res.coloring, graph_.max_degree());
    } catch (const std::exception& e) {
      tally_.fail(std::string("invalid coloring: ") + e.what());
      return false;
    }
    if (res.delta != graph_.max_degree()) {
      tally_.fail("palette " + std::to_string(res.delta) + " != Delta " +
                  std::to_string(graph_.max_degree()));
      return false;
    }
    const std::int64_t rounds = res.ledger.total();
    const std::uint64_t fp = fingerprint(res.coloring);
    if (!ref_rounds_) {
      ref_rounds_ = rounds;
      ref_fingerprint_ = fp;
      return true;
    }
    if (rounds != *ref_rounds_) {
      tally_.fail("rounds_total " + std::to_string(rounds) + " at T=" +
                  std::to_string(threads) + " != first call's " +
                  std::to_string(*ref_rounds_));
      return false;
    }
    if (fp != ref_fingerprint_) {
      tally_.fail("coloring at T=" + std::to_string(threads) +
                  " differs from the first call's");
      return false;
    }
    return true;
  }

  int run_untraced(double setup_cpu_s) {
    CallTimes t4, t1;
    std::vector<double> rss, rss1;
    Reference ref(graph_);
    reference_mb_ = ref.resident_mb();
    const StealMeter steal;
    // T=4 and T=1 calls alternate, so both see the same machine load and
    // the 1-thread baseline tells a parallel speed-up from a serial one.
    repeat_for(opt_.seconds, 3, [&] {
      ref.pass(kThreads);
      const PipelineCall c = call(kThreads);
      if (c.ok) {
        t4.add(c.seconds, c.cpu_seconds);
        rss.push_back(c.peak_mb);
      }
      cpus_.pin_next();
      ref.pass(1);
      const PipelineCall c1 = call(1);
      cpus_.release();
      if (c1.ok) {
        t1.add(c1.seconds, c1.cpu_seconds);
        rss1.push_back(c1.peak_mb);
      }
      return true;
    });
    const double n = graph_.num_vertices();
    Metrics m;
    m["vertices_per_ref_s"] = t4.vertices_per_ref_s(n, ref.scale(kThreads));
    m["vertices_per_ref_s_1t"] = t1.vertices_per_ref_s(n, ref.scale(1));
    m["rounds_total"] = static_cast<double>(ref_rounds_.value_or(0));
    m["peak_rss_mb"] = mean(rss);
    m["setup_s"] = setup_cpu_s * ref.scale(1);
    t4.print("calls at T=4");
    t1.print("calls at T=1");
    ref.print();
    steal.print();
    print_calls("peak MB of the T=4 calls", rss);
    print_calls("peak MB of the T=1 calls", rss1);
    return emit_result(tally_, m, kEndToEnd, false);
  }

  int run_traced() {
    std::vector<double> untraced;
    std::vector<TracedCall> traced;
    int run_id = 0;
    repeat_for(opt_.seconds, 3, [&] {
      const PipelineCall plain = call(kThreads);
      if (plain.ok) untraced.push_back(plain.seconds);
      trace::begin_run(++run_id);
      trace::set_enabled(true);
      const PipelineCall c = call(kThreads);
      trace::set_enabled(false);
      trace::Record rec = trace::take();
      if (!c.ok) return true;
      trace::compute_self_times(rec.spans);
      TracedCall tc;
      tc.seconds = c.seconds;
      tc.spans = std::move(rec.spans);
      tc.metrics = layer_metrics(tc.spans, rec.counts, *c.result);
      traced.push_back(std::move(tc));
      return true;
    });
    return finish_traced(tally_, traced, untraced, opt_);
  }

  Metrics layer_metrics(const std::vector<trace::Span>& spans,
                        const std::map<std::string, double>& counts,
                        const DeltaColoringResult& res) const {
    Metrics m;
    for (const auto& s : spans) {
      if (s.parent == -1) m["core.delta_color_s"] = s.end_s - s.start_s;
    }
    m["dcc.detect_s"] = layer_seconds(spans, {"dcc.detect"});
    m["dcc.virtual_graph_s"] = layer_seconds(spans, {"dcc.virtual_graph"});
    m["mis.ruling_set_s"] = layer_seconds(spans, {"mis.ruling_set", "mis.luby_mis"});
    m["coloring.linial_s"] = layer_seconds(spans, {"coloring.linial"});
    m["coloring.reduce_s"] = layer_seconds(spans, {"coloring.reduce"});
    m["coloring.list_s"] = layer_seconds(spans, {"coloring.list"});
    m["core.build_layers_s"] = layer_seconds(spans, {"core.build_layers"});
    m["brooks.fixes_s"] = layer_seconds(spans, {"brooks.fixes"});
    for (const auto& [name, v] : counts) m[name] += v;
    for (const auto& p : res.ledger.breakdown()) {
      m[phase_metric(p.phase)] += static_cast<double>(p.rounds);
    }
    const auto& st = res.stats;
    m["stats.num_dccs_selected"] = st.num_dccs_selected;
    m["stats.base_layer_size"] = st.base_layer_size;
    m["stats.num_b_layers"] = st.num_b_layers;
    m["stats.num_selected"] = st.num_selected;
    m["stats.num_tnodes"] = st.num_tnodes;
    m["stats.num_marked"] = st.num_marked;
    m["stats.num_c_layers"] = st.num_c_layers;
    m["stats.h_vertices"] = st.h_vertices;
    m["stats.happy_vertices"] = st.happy_vertices;
    m["stats.leftover_vertices"] = st.leftover_vertices;
    m["stats.leftover_components"] = st.leftover_components;
    m["stats.max_leftover_component"] = st.max_leftover_component;
    m["stats.anchors_empty_fallbacks"] = st.anchors_empty_fallbacks;
    m["stats.brooks_fixes"] = st.brooks_fixes;
    m["stats.repairs"] = st.repairs;
    m["stats.retries_used"] = st.retries_used;
    m["trace.coverage"] = coverage(spans);
    return m;
  }

  Algorithm alg_;
  std::function<Graph(std::uint64_t)> make_;
  const Options& opt_;
  Graph graph_;
  Tally tally_;
  std::optional<std::int64_t> ref_rounds_;
  double reference_mb_ = 0.0;  // resident memory of the Reference, not the call's
  std::uint64_t ref_fingerprint_ = 0;
  CpuRotation cpus_;
};

// ================================================================ luby-owner

// kRanks ranks, one thread each, over a full socketpair mesh; owner-routed
// exchange, contiguous partition. Built once per set-up and reused by every
// call (the transports' sequence counters advance in step on all ranks).
struct Cluster {
  std::vector<std::unique_ptr<deltacol::ShardRuntime>> runtimes;
  std::vector<deltacol::SocketTransport*> sockets;  // owned by runtimes
};

Cluster build_cluster(const Graph& g, bool timed_transport) {
  const auto part = deltacol::VertexPartition::contiguous(g.num_vertices(), kRanks);
  std::vector<std::vector<int>> fds(kRanks, std::vector<int>(kRanks, -1));
  for (int a = 0; a < kRanks; ++a) {
    for (int b = a + 1; b < kRanks; ++b) {
      int sv[2];
      if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
        const std::string err = std::strerror(errno);
        for (const auto& row : fds) {
          for (int fd : row) {
            if (fd >= 0) ::close(fd);
          }
        }
        throw std::runtime_error("socketpair: " + err);
      }
      fds[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] = sv[0];
      fds[static_cast<std::size_t>(b)][static_cast<std::size_t>(a)] = sv[1];
    }
  }
  Cluster c;
  for (int r = 0; r < kRanks; ++r) {
    auto sock = std::make_unique<deltacol::SocketTransport>(
        r, kRanks, std::move(fds[static_cast<std::size_t>(r)]));
    c.sockets.push_back(sock.get());
    std::unique_ptr<deltacol::Transport> t;
    if (timed_transport) {
      t = std::make_unique<TimingTransport>(std::move(sock));
    } else {
      t = std::move(sock);
    }
    c.runtimes.push_back(std::make_unique<deltacol::ShardRuntime>(
        g, part, nullptr, std::move(t)));
    c.runtimes.back()->set_exchange_policy(deltacol::ExchangePolicy::kOwnerRouted);
  }
  return c;
}

class LubyOwnerBench {
 public:
  explicit LubyOwnerBench(const Options& opt) : opt_(opt) {}

  int run() {
    std::vector<double> setups;
    for (int i = 0; i < (opt_.traced ? 1 : kSetupReps); ++i) {
      cluster_ = Cluster{};  // close the previous set-up's mesh first
      const double c0 = cpu_now_s();
      graph_ = make_regular8(opt_.seed);
      cluster_ = build_cluster(graph_, opt_.traced);
      setups.push_back(cpu_now_s() - c0);
    }
    const double setup_cpu_s = median(setups);
    std::cout << "graph: n=" << graph_.num_vertices() << " m=" << graph_.num_edges()
              << " ranks=" << kRanks << " setup CPU s=" << setup_cpu_s << "\n";
    // The serial unsharded run is the oracle and the 1-thread baseline. The
    // first serial and the first distributed call are untimed warm-ups.
    if (!serial_call(nullptr)) return finish_failed();
    if (!distributed_call(nullptr)) return finish_failed();
    return opt_.traced ? run_traced() : run_untraced(setup_cpu_s);
  }

 private:
  bool serial_call(CallTimes* times) {
    ++tally_.attempted;
    Rng rng(mix(opt_.seed, 3));
    RoundLedger ledger;
    std::vector<bool> mis;
    const double t0 = trace::now_s();
    const double c0 = cpu_now_s();
    try {
      mis = deltacol::luby_mis_message_passing(graph_, rng, ledger, "mis");
    } catch (const std::exception& e) {
      tally_.fail(std::string("serial luby threw: ") + e.what());
      return false;
    }
    const double dt = trace::now_s() - t0;
    const double cpu = cpu_now_s() - c0;
    if (!deltacol::is_mis(graph_, mis)) {
      tally_.fail("serial luby result is not a maximal independent set");
      return false;
    }
    if (oracle_.empty()) {
      oracle_ = mis;
      oracle_rounds_ = ledger.total();
    } else if (mis != oracle_ || ledger.total() != oracle_rounds_) {
      tally_.fail("serial luby is not deterministic across calls");
      return false;
    }
    if (times != nullptr) times->add(dt, cpu);
    return true;
  }

  // SocketTransport counters are cumulative; a call's share is a difference.
  struct WireCounters {
    std::int64_t bytes = 0;
    std::int64_t frames = 0;
    std::int64_t payload = 0;
  };
  WireCounters wire_counters() const {
    WireCounters w;
    for (const auto* s : cluster_.sockets) {
      w.bytes += s->wire_bytes_sent();
      w.frames += s->frames_sent();
      w.payload += s->cross_payload_bytes();
    }
    return w;
  }

  struct RankOut {
    std::vector<bool> mis;
    std::int64_t rounds = 0;
    double seconds = 0.0;
    std::string error;
  };

  // One owner-routed call on every rank; returns false if the mesh may be
  // unusable afterwards. `times` receives the slowest rank's seconds and the
  // CPU seconds of the whole process, socket writer threads included.
  bool distributed_call(CallTimes* times, bool record_spans = false) {
    ++tally_.attempted;
    const WireCounters before = wire_counters();
    for (auto& rt : cluster_.runtimes) rt->reset_counters();
    std::vector<RankOut> outs(kRanks);
    reset_peak_rss();
    const double c0 = cpu_now_s();
    {
      std::vector<std::thread> threads;
      for (int r = 0; r < kRanks; ++r) {
        threads.emplace_back([&, r] {
          RankOut& o = outs[static_cast<std::size_t>(r)];
          try {
            std::optional<trace::Scope> root;
            if (record_spans) root.emplace("mis.luby", r, /*root=*/true);
            Rng rng(mix(opt_.seed, 3));
            RoundLedger ledger;
            const double t0 = trace::now_s();
            o.mis = deltacol::luby_mis_message_passing(
                graph_, rng, ledger, "mis", nullptr,
                cluster_.runtimes[static_cast<std::size_t>(r)].get());
            o.seconds = trace::now_s() - t0;
            o.rounds = ledger.total();
          } catch (const std::exception& e) {
            o.error = e.what();
          }
        });
      }
      for (auto& t : threads) t.join();
    }
    const double cpu = cpu_now_s() - c0;
    const double peak_mb = peak_rss_mb() - reference_mb_;
    double slowest = 0.0;
    for (int r = 0; r < kRanks; ++r) {
      const RankOut& o = outs[static_cast<std::size_t>(r)];
      if (!o.error.empty()) {
        tally_.fail("rank " + std::to_string(r) + " threw: " + o.error);
        return false;
      }
      if (o.mis != oracle_) {
        tally_.fail("rank " + std::to_string(r) + " MIS differs from the serial oracle");
        return true;
      }
      if (o.rounds != oracle_rounds_) {
        tally_.fail("rank " + std::to_string(r) + " charged " +
                    std::to_string(o.rounds) + " rounds, serial oracle " +
                    std::to_string(oracle_rounds_));
        return true;
      }
      slowest = std::max(slowest, o.seconds);
    }
    const WireCounters after = wire_counters();
    last_wire_ = {after.bytes - before.bytes, after.frames - before.frames,
                  after.payload - before.payload};
    const std::int64_t wire = last_wire_.bytes;
    if (ref_wire_ < 0) {
      ref_wire_ = wire;
    } else if (wire != ref_wire_) {
      tally_.fail("wire_bytes " + std::to_string(wire) + " != first call's " +
                  std::to_string(ref_wire_));
      return true;
    }
    last_seconds_ = slowest;
    if (times != nullptr) {
      times->add(slowest, cpu);
      peaks_mb_.push_back(peak_mb);
    }
    return true;
  }

  int run_untraced(double setup_cpu_s) {
    CallTimes dist, t1;
    Reference ref(graph_);
    reference_mb_ = ref.resident_mb();
    const StealMeter steal;
    // Distributed and serial calls alternate (see PipelineBench).
    repeat_for(opt_.seconds, 3, [&] {
      ref.pass(kRanks);
      if (!distributed_call(&dist)) return false;
      cpus_.pin_next();
      ref.pass(1);
      const bool ok = serial_call(&t1);
      cpus_.release();
      return ok;
    });
    const double n = graph_.num_vertices();
    Metrics m;
    m["vertices_per_ref_s"] = dist.vertices_per_ref_s(n, ref.scale(kRanks));
    m["vertices_per_ref_s_1t"] = t1.vertices_per_ref_s(n, ref.scale(1));
    m["rounds_total"] = static_cast<double>(oracle_rounds_);
    m["peak_rss_mb"] = mean(peaks_mb_);
    m["setup_s"] = setup_cpu_s * ref.scale(1);
    dist.print("calls on 3 ranks");
    t1.print("serial calls");
    ref.print();
    steal.print();
    std::cout << "wire_bytes per call: " << ref_wire_ << "\n";
    return emit_result(tally_, m, kEndToEnd, false);
  }

  int run_traced() {
    CallTimes untraced;
    std::vector<TracedCall> traced;
    int run_id = 0;
    repeat_for(opt_.seconds, 3, [&] {
      if (!distributed_call(&untraced)) return false;
      const int failed_before = tally_.failed;
      trace::begin_run(++run_id);
      trace::set_enabled(true);
      const bool usable = distributed_call(nullptr, /*record_spans=*/true);
      trace::set_enabled(false);
      trace::Record rec = trace::take();
      if (!usable || tally_.failed != failed_before) return usable;
      trace::compute_self_times(rec.spans);
      TracedCall tc;
      tc.seconds = last_seconds_;
      tc.spans = std::move(rec.spans);
      tc.metrics = layer_metrics(tc.spans);
      traced.push_back(std::move(tc));
      return true;
    });
    return finish_traced(tally_, traced, untraced.wall(), opt_);
  }

  Metrics layer_metrics(const std::vector<trace::Span>& spans) const {
    Metrics m;
    std::vector<double> root, self, run_shards, exch, allreduce, gather;
    for (int r = 0; r < kRanks; ++r) {
      double rs = 0.0, ss = 0.0;
      for (const auto& s : spans) {
        if (s.parent == -1 && s.rank == r) {
          rs += s.end_s - s.start_s;
          ss += s.self_s;
        }
      }
      root.push_back(rs);
      self.push_back(ss);
      run_shards.push_back(layer_seconds(spans, {"runtime.run_shards"}, r));
      exch.push_back(layer_seconds(spans, {"net.exchange_owned"}, r));
      allreduce.push_back(
          layer_seconds(spans, {"net.allreduce_sum", "net.allreduce_max"}, r));
      gather.push_back(layer_seconds(spans, {"net.gather_colors"}, r));
    }
    m["mis.luby_s"] = *std::max_element(root.begin(), root.end());
    m["runtime.self_s"] = mean(self);
    m["runtime.run_shards_s"] = mean(run_shards);
    m["net.exchange_owned_s.max"] = *std::max_element(exch.begin(), exch.end());
    m["net.exchange_owned_s.mean"] = mean(exch);
    m["net.exchange_wait_max_over_mean"] =
        mean(exch) > 0.0 ? m["net.exchange_owned_s.max"] / mean(exch) : 0.0;
    m["net.exchange_calls"] = count_spans(spans, "net.exchange_owned", 0);
    m["net.allreduce_s"] = mean(allreduce);
    m["net.gather_s"] = mean(gather);
    m["net.wire_bytes_sent"] = static_cast<double>(last_wire_.bytes);
    m["net.frames_sent"] = static_cast<double>(last_wire_.frames);
    m["net.cross_payload_bytes"] = static_cast<double>(last_wire_.payload);
    // Every rank reassembles the full shard-by-shard tallies; rank 0's.
    const auto& rt = *cluster_.runtimes.front();
    m["runtime.messages"] = static_cast<double>(rt.total_messages());
    m["runtime.cross_messages"] = static_cast<double>(rt.cross_shard_messages());
    m["runtime.cross_bits"] = static_cast<double>(rt.cross_shard_bits());
    m["runtime.rounds_recorded"] = static_cast<double>(rt.rounds_recorded());
    m["rounds.mis"] = static_cast<double>(oracle_rounds_);
    m["trace.coverage"] = coverage(spans);
    return m;
  }

  int finish_failed() {
    return emit_result(tally_, Metrics{},
                       opt_.traced ? std::span<const MetricDef>(kPerLayer)
                                   : std::span<const MetricDef>(kEndToEnd),
                       opt_.traced);
  }

  const Options& opt_;
  Graph graph_;
  Cluster cluster_;
  Tally tally_;
  std::vector<bool> oracle_;
  std::int64_t oracle_rounds_ = 0;
  std::int64_t ref_wire_ = -1;
  double reference_mb_ = 0.0;  // resident memory of the Reference, not the call's
  double last_seconds_ = 0.0;
  std::vector<double> peaks_mb_;  // per timed distributed call
  WireCounters last_wire_;  // of the last call, summed over ranks
  CpuRotation cpus_;
};

// ================================================================ main

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload large-reg8|det-torus|luby-owner --seed N"
               " --seconds S --trace 0|1 [--trace-out FILE]\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  int trace_flag = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::stoull(val);
    } else if (key == "--seconds") {
      opt.seconds = std::stod(val);
    } else if (key == "--trace") {
      trace_flag = std::stoi(val);
    } else if (key == "--trace-out") {
      opt.trace_out = val;
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || opt.workload.empty() || (trace_flag != 0 && trace_flag != 1)) {
    return usage(argv[0]);
  }
  opt.traced = trace_flag == 1;
#ifndef DELTACOL_PERF_PROBES
  if (opt.traced) {
    std::cerr << "this binary has no probes; run deltacol_perf_traced for --trace 1\n";
    return 2;
  }
#endif
  // A rank whose peer died must fail within the run, not block forever.
  setenv("DELTACOL_NET_TIMEOUT_MS", "30000", 1);
  std::cout.precision(6);
  try {
    if (opt.workload == "large-reg8") {
      return PipelineBench(deltacol::Algorithm::kRandomizedLarge, make_regular8, opt).run();
    }
    if (opt.workload == "det-torus") {
      return PipelineBench(deltacol::Algorithm::kDeterministic, make_torus, opt).run();
    }
    if (opt.workload == "luby-owner") {
      return LubyOwnerBench(opt).run();
    }
  } catch (const std::exception& e) {
    std::cerr << "benchmark set-up failed: " << e.what() << "\n";
    return 1;
  }
  return usage(argv[0]);
}
