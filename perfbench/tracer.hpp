// Span recorder for the benchmark: times the calls the benchmark makes into
// each ntcsim layer, from the benchmark's side of the call. Nothing inside
// the simulator is instrumented.
//
// A Scope given an accumulator always adds the calling thread's CPU time
// over its interval to it (those are the untraced run's phase timers: a
// handful of clock reads per cell). CPU time, not elapsed time, so that a
// cell's phases do not absorb the time its thread waits for a CPU on a
// shared host. A Scope records a span, in elapsed time, only when the
// tracer is on. Spans stay in memory until write_json() at exit.
#pragma once

#include <time.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root.
  int cell = -1;             ///< Index of the cell the span belongs to.
  const char* name = "";     ///< "<layer>.<call>", a string literal.
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool on() const { return on_; }
  std::int64_t ns_since_origin(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }
  std::uint32_t next_id() { return ++last_id_; }
  void record(const Span& s) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(s);
  }
  /// JSON array of every recorded span, in completion order.
  void write_json(std::ostream& os) const;

 private:
  bool on_;
  Clock::time_point origin_;
  std::atomic<std::uint32_t> last_id_{0};
  std::mutex mu_;  ///< Guards spans_.
  std::vector<Span> spans_;
};

/// CPU time consumed so far by the calling thread, in seconds.
inline double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Cell the calling thread is working on; worker threads run one cell at a
/// time, so spans inherit it from here.
inline thread_local int t_cell = -1;
/// Innermost open span on the calling thread (0 = none).
inline thread_local std::uint32_t t_open_span = 0;

class Scope {
 public:
  /// `acc`, when given, receives the interval's thread CPU seconds.
  Scope(Tracer& tr, const char* name, double* acc = nullptr)
      : tr_(tr), acc_(acc) {
    if (acc_ != nullptr) cpu_start_ = thread_cpu_s();
    if (!tr_.on()) return;
    span_.name = name;
    span_.id = tr_.next_id();
    span_.parent = t_open_span;
    span_.cell = t_cell;
    t_open_span = span_.id;
    start_ = Clock::now();
  }
  ~Scope() {
    if (tr_.on()) {
      span_.start_ns = tr_.ns_since_origin(start_);
      span_.end_ns = tr_.ns_since_origin(Clock::now());
      t_open_span = span_.parent;
      tr_.record(span_);
    }
    if (acc_ != nullptr) *acc_ += thread_cpu_s() - cpu_start_;
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tr_;
  double* acc_;
  Span span_;
  Clock::time_point start_;
  double cpu_start_ = 0.0;
};

inline void Tracer::write_json(std::ostream& os) const {
  os << '[';
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "\n") << "{\"id\":" << s.id << ",\"parent\":" << s.parent
       << ",\"cell\":" << s.cell << ",\"name\":\"" << s.name
       << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
       << '}';
  }
  os << "\n]";
}

}  // namespace perfbench
