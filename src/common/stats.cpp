#include "common/stats.hpp"

#include <bit>

namespace ntcsim {

void Histogram::add(std::uint64_t v) {
  const int b = (v == 0) ? 0 : std::min(kBuckets - 1, 64 - std::countl_zero(v));
  ++buckets_[b];
  ++total_;
}

std::uint64_t Histogram::percentile_edge(double pct) const {
  if (total_ == 0) return 0;
  const double target = pct / 100.0 * static_cast<double>(total_);
  std::uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += buckets_[b];
    if (static_cast<double>(seen) >= target) {
      return b == 0 ? 0 : (1ULL << b) - 1;
    }
  }
  return ~0ULL;
}

void Histogram::merge(const Histogram& other) {
  for (int b = 0; b < kBuckets; ++b) buckets_[b] += other.buckets_[b];
  total_ += other.total_;
}

Histogram Histogram::diff_since(const Histogram& earlier) const {
  Histogram d;
  for (int b = 0; b < kBuckets; ++b) {
    d.buckets_[b] = buckets_[b] - earlier.buckets_[b];
  }
  d.total_ = total_ - earlier.total_;
  return d;
}

void Histogram::reset() { *this = Histogram{}; }

Counter& StatSet::counter(const std::string& name) {
  ++name_lookups_;
  return counters_[name];
}

Accumulator& StatSet::accumulator(const std::string& name) {
  ++name_lookups_;
  return accumulators_[name];
}

Histogram& StatSet::histogram(const std::string& name) {
  ++name_lookups_;
  return histograms_[name];
}

std::uint64_t StatSet::counter_value(const std::string& name) const {
  ++name_lookups_;
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.value();
}

bool StatSet::has_counter(const std::string& name) const {
  ++name_lookups_;
  return counters_.count(name) != 0;
}

double StatSet::accumulator_mean(const std::string& name) const {
  ++name_lookups_;
  auto it = accumulators_.find(name);
  return it == accumulators_.end() ? 0.0 : it->second.mean();
}

double StatSet::accumulator_sum(const std::string& name) const {
  ++name_lookups_;
  auto it = accumulators_.find(name);
  return it == accumulators_.end() ? 0.0 : it->second.sum();
}

std::uint64_t StatSet::accumulator_count(const std::string& name) const {
  ++name_lookups_;
  auto it = accumulators_.find(name);
  return it == accumulators_.end() ? 0 : it->second.count();
}

std::uint64_t StatSet::counter_prefix_sum(const std::string& prefix) const {
  ++name_lookups_;
  std::uint64_t sum = 0;
  for (auto it = counters_.lower_bound(prefix);
       it != counters_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    sum += it->second.value();
  }
  return sum;
}

void StatSet::reset() {
  for (auto& [_, c] : counters_) c.reset();
  for (auto& [_, a] : accumulators_) a.reset();
  for (auto& [_, h] : histograms_) h.reset();
}

void StatSet::dump(std::ostream& os, const std::string& prefix) const {
  for (const auto& [name, c] : counters_) {
    os << prefix << name << " = " << c.value() << '\n';
  }
  for (const auto& [name, a] : accumulators_) {
    os << prefix << name << " = mean " << a.mean() << " (n=" << a.count()
       << ")\n";
  }
}

std::vector<std::string> StatSet::counter_names() const {
  std::vector<std::string> out;
  out.reserve(counters_.size());
  for (const auto& [name, _] : counters_) out.push_back(name);
  return out;
}

}  // namespace ntcsim
