// Named statistics registry. Every hardware model owns a StatSet and
// registers counters/accumulators in its constructor; the experiment
// harness reads them by name after a run.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace ntcsim {

/// Monotonic event counter.
class Counter {
 public:
  void inc(std::uint64_t by = 1) { value_ += by; }
  std::uint64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Sum + count accumulator for latency-style measurements.
class Accumulator {
 public:
  void add(double v) {
    sum_ += v;
    ++count_;
    if (v > max_) max_ = v;
  }
  double sum() const { return sum_; }
  std::uint64_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_); }
  double max() const { return max_; }
  void reset() { *this = Accumulator{}; }

 private:
  double sum_ = 0.0;
  double max_ = 0.0;
  std::uint64_t count_ = 0;
};

/// Fixed-bucket histogram (power-of-two buckets) for distributions such as
/// queue occupancy or load latency.
class Histogram {
 public:
  static constexpr int kBuckets = 32;

  void add(std::uint64_t v);
  /// Accumulate another histogram's buckets into this one.
  void merge(const Histogram& other);
  /// Bucket-wise `this - earlier`, for windowed views over a cumulative
  /// histogram (`earlier` must be a previous snapshot of this one).
  Histogram diff_since(const Histogram& earlier) const;
  std::uint64_t bucket(int i) const { return buckets_[i]; }
  std::uint64_t total() const { return total_; }
  /// Smallest value v such that at least `pct` percent of samples are <= the
  /// upper edge of v's bucket. Returns the bucket upper edge.
  std::uint64_t percentile_edge(double pct) const;
  void reset();

 private:
  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t total_ = 0;
};

/// A flat, hierarchical-by-name statistics registry.
///
/// Components register stats under dotted names ("llc.miss", "ntc0.stall").
/// Registration returns a stable reference; lookup by name serves the
/// harness. Stats are owned by the registry (deque-backed, pointers stable).
class StatSet {
 public:
  Counter& counter(const std::string& name);
  Accumulator& accumulator(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Lookup; returns 0 / empty stats for unknown names rather than
  /// inventing entries, so read-only consumers cannot pollute the set.
  std::uint64_t counter_value(const std::string& name) const;
  double accumulator_mean(const std::string& name) const;
  double accumulator_sum(const std::string& name) const;
  std::uint64_t accumulator_count(const std::string& name) const;
  bool has_counter(const std::string& name) const;

  /// Sum of all counters whose name matches `prefix` + anything.
  std::uint64_t counter_prefix_sum(const std::string& prefix) const;

  void reset();
  /// One "name = value" line per statistic, each name after `prefix`.
  void dump(std::ostream& os, const std::string& prefix = "") const;
  std::vector<std::string> counter_names() const;

  /// Total by-name resolutions (registration + report reads) since
  /// construction. Hot paths resolve once via stat_handle.hpp, so this
  /// must stay O(components + report reads), never O(accesses) — the
  /// regression suite guards it.
  std::uint64_t name_lookups() const { return name_lookups_; }

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Accumulator> accumulators_;
  std::map<std::string, Histogram> histograms_;
  mutable std::uint64_t name_lookups_ = 0;
};

}  // namespace ntcsim
