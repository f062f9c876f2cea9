#include "sim/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/config_io.hpp"
#include "sim/profiler.hpp"

namespace ntcsim::sim {

unsigned default_jobs() {
  unsigned n = 0;
  const char* env = std::getenv("NTCSIM_JOBS");
  if (env != nullptr && parse_scalar(env, n, 1u, 1024u).empty()) return n;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

namespace {

std::atomic<unsigned> g_budget{0};  ///< 0 = default_jobs().

unsigned thread_budget() {
  const unsigned set = g_budget.load(std::memory_order_relaxed);
  if (set != 0) return set;
  static const unsigned fallback = default_jobs();
  return fallback;
}

/// Threads the item the calling thread runs may use, its own included;
/// 0 outside any batch item (the whole budget).
thread_local unsigned t_share = 0;

/// One parallel_for call's shared state. It lives on the caller's stack;
/// every field is guarded by the pool's mutex. The batch is dealt in
/// `slots` slots of consecutive items; whichever thread claims a slot runs
/// its items in order.
struct Batch {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t count = 0;
  std::size_t slots = 0;
  std::size_t next = 0;      ///< Lowest unclaimed slot.
  unsigned helpers = 0;      ///< Pool workers inside one of its slots now.
  unsigned max_helpers = 0;  ///< The batch's width less its caller.
  unsigned item_share = 1;   ///< t_share while one of its items runs.
  std::size_t error_index = 0;
  std::exception_ptr error;  ///< From the lowest failed index so far.

  bool claimable() const { return next < slots && error == nullptr; }
  void record(std::size_t i, std::exception_ptr e) {
    if (error == nullptr || i < error_index) {
      error_index = i;
      error = std::move(e);
    }
  }
};

std::exception_ptr run_item(const Batch& b, std::size_t i) {
  try {
    (*b.fn)(i);
  } catch (...) {
    return std::current_exception();
  }
  return nullptr;
}

/// Run slot k's items, `lock` held between them; stops at the batch's
/// first failure. Returns the number of items started.
std::uint64_t run_slot(Batch& b, std::size_t k,
                       std::unique_lock<std::mutex>& lock) {
  const unsigned outer_share = t_share;
  t_share = b.item_share;
  std::uint64_t started = 0;
  const std::size_t last = (k + 1) * b.count / b.slots;
  for (std::size_t i = k * b.count / b.slots; i < last && b.error == nullptr;
       ++i) {
    ++started;
    lock.unlock();
    std::exception_ptr e = run_item(b, i);
    lock.lock();
    if (e != nullptr) b.record(i, std::move(e));
  }
  t_share = outer_share;
  return started;
}

class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  Pool() = default;
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;
  /// Joins the workers at static destruction; none may be inside an item
  /// then (std::exit() is not called from inside a batch).
  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    wake_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  void run(Batch& b, unsigned budget) {
    std::unique_lock<std::mutex> lock(mu_);
    while (threads_.size() + 1 < budget) {
      threads_.emplace_back([this] { work_(); });
    }
    open_.push_back(&b);
    wake_.notify_all();
    while (b.claimable()) run_slot(b, b.next++, lock);
    std::erase(open_, &b);
    done_.wait(lock, [&] { return b.helpers == 0; });
    if (b.error != nullptr) std::rethrow_exception(b.error);
  }

  PoolStats stats() {
    std::lock_guard<std::mutex> lock(mu_);
    return {threads_.size(), helper_items_};
  }

 private:
  void work_() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      Batch* b = nullptr;
      wake_.wait(lock, [&] { return stop_ || (b = pick_()) != nullptr; });
      if (b == nullptr) return;
      const std::size_t k = b->next++;
      ++b->helpers;
      ++busy_;
      helper_items_ += run_slot(*b, k, lock);
      --busy_;
      if (--b->helpers == 0) done_.notify_all();
    }
  }

  /// A batch an idle worker may join now, newest first: a nested batch's
  /// caller is itself an item some outer batch waits on. None while the
  /// budget's worker share is busy (the budget may have shrunk since the
  /// pool grew).
  Batch* pick_() const {
    if (busy_ + 1 >= thread_budget()) return nullptr;
    const auto it =
        std::find_if(open_.rbegin(), open_.rend(), [](const Batch* b) {
          return b->claimable() && b->helpers < b->max_helpers;
        });
    return it == open_.rend() ? nullptr : *it;
  }

  std::mutex mu_;  ///< Guards every member below.
  std::condition_variable wake_;  ///< Idle workers: a batch opened.
  std::condition_variable done_;  ///< Callers: a batch lost its helpers.
  std::vector<Batch*> open_;      ///< Batches whose caller still claims.
  unsigned busy_ = 0;             ///< Workers inside an item.
  std::uint64_t helper_items_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;  ///< Last: workers use the above.
};

}  // namespace

void set_thread_budget(unsigned jobs) {
  g_budget.store(jobs, std::memory_order_relaxed);
}

PoolStats pool_stats() { return Pool::instance().stats(); }

void parallel_for(std::size_t count, unsigned jobs,
                  const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  const unsigned budget = thread_budget();
  const unsigned share = t_share == 0 ? budget : std::min(t_share, budget);
  const std::size_t width =
      std::min<std::size_t>(count, jobs == 0 ? share : std::min(jobs, share));
  if (width <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  Batch b;
  b.fn = &fn;
  b.count = count;
  // A top-level batch deals its items one at a time, so uneven cells
  // load-balance. A nested batch splits one item's work: one slot per
  // thread of its share fixes which thread runs which part, so the item's
  // own thread does the same share of the work on every run.
  b.slots = t_share == 0 ? count : width;
  b.max_helpers = static_cast<unsigned>(width - 1);
  b.item_share = std::max<unsigned>(1, share / static_cast<unsigned>(width));
  Pool::instance().run(b, budget);
}

std::vector<Metrics> run_sweep(const std::vector<JobSpec>& specs,
                               unsigned jobs) {
  for (const JobSpec& s : specs) {
    if (const std::string e = s.cfg.validate(); !e.empty()) {
      std::fprintf(stderr, "invalid configuration: %s\n", e.c_str());
      std::exit(1);
    }
  }
  // Honor --profile from the specs (run_matrix copies one options struct
  // into every spec). A session already opened by an outer caller — e.g.
  // the ntcsim driver — wins; this inner one is then inert.
  std::unique_ptr<ProfileSession> session;
  for (const JobSpec& s : specs) {
    if (s.opts.profile) {
      session = std::make_unique<ProfileSession>(s.opts.profile_out);
      break;
    }
  }
  return run_jobs(specs.size(), jobs, [&](std::size_t i) {
    const JobSpec& s = specs[i];
    return run_cell(s.mech, s.wl, s.cfg, s.opts);
  });
}

}  // namespace ntcsim::sim
