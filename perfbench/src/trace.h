// In-memory span recorder for the traced benchmark run.
//
// A span is one call into a layer: name, start, end, the span that caused
// it, and the call ("run") it belongs to. Spans are kept in memory and
// handed out with take() when a call ends; nothing is written while a call
// is being timed. Counts recorded at the same boundaries (count()) are
// summed per name and handed out with the spans.
//
// Parents: each thread keeps a stack of its open spans. A span opened on a
// thread with no open span (a worker of the library's ThreadPool) gets the
// run's root span as parent.
//
// Recording is off until set_enabled(true), so the same code paths serve
// the untraced calls the overhead ratio is measured against.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace perfbench::trace {

struct Span {
  int id = 0;
  int parent = -1;  // -1: a root
  int run = 0;
  int rank = -1;    // rank thread of a distributed workload, -1 otherwise
  std::string name;
  double start_s = 0.0;  // seconds on the process's steady clock
  double end_s = 0.0;
  double self_s = 0.0;   // filled by compute_self_times()
};

struct Record {
  std::vector<Span> spans;
  std::map<std::string, double> counts;
};

void set_enabled(bool on);
bool enabled();

// Seconds since an arbitrary fixed point of std::chrono::steady_clock.
double now_s();

// Starts a new run id; later spans and counts belong to it.
void begin_run(int run);

// Adds `value` to the run's count `name` (no-op while disabled).
void count(const std::string& name, double value);

// Records an already-closed span as a child of the calling thread's
// innermost open span (no-op while disabled).
void record_closed(const std::string& name, double start_s, double end_s);

// Opens a span on construction and closes it on destruction.
class Scope {
 public:
  explicit Scope(std::string name, int rank = -1, bool root = false);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int slot_ = -1;  // index into the pending spans; -1 when disabled
};

// Moves out every span and count recorded so far.
Record take();

// self = duration minus the union of the children's intervals (clipped to
// the span).
void compute_self_times(std::vector<Span>& spans);

}  // namespace perfbench::trace
