// Microbenchmark M2 — host-side throughput of the substrate models:
// simulation cycles per second for the end-to-end system, workload trace
// generation rates, the functional-image hot paths, and the per-cycle
// scheduler paths (event heap, saturated memory controller).
#include <benchmark/benchmark.h>

#include "common/event_queue.hpp"
#include "common/rng.hpp"
#include "mem/memory_controller.hpp"
#include "recovery/images.hpp"
#include "sim/system.hpp"
#include "workload/workloads.hpp"

namespace {

using namespace ntcsim;

void BM_TraceGeneration(benchmark::State& state) {
  const auto kind = static_cast<WorkloadKind>(state.range(0));
  workload::WorkloadParams p = workload::default_params(kind);
  p.setup_elems = 2000;
  p.ops = 500;
  std::size_t ops = 0;
  for (auto _ : state) {
    workload::SimHeap heap(AddressSpace{}, 1);
    const core::Trace t = workload::generate(p, 0, heap, nullptr);
    ops += t.size();
    benchmark::DoNotOptimize(t.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}
BENCHMARK(BM_TraceGeneration)
    ->Arg(static_cast<int>(WorkloadKind::kSps))
    ->Arg(static_cast<int>(WorkloadKind::kRbtree))
    ->Arg(static_cast<int>(WorkloadKind::kBtree))
    ->Arg(static_cast<int>(WorkloadKind::kHashtable))
    ->Arg(static_cast<int>(WorkloadKind::kGraph));

void BM_SimulatedCyclesPerSecond(benchmark::State& state) {
  const auto mech = static_cast<Mechanism>(state.range(0));
  SystemConfig cfg = SystemConfig::experiment();
  cfg.cores = 1;
  cfg.mechanism = mech;
  workload::WorkloadParams p = workload::default_params(WorkloadKind::kSps);
  p.setup_elems = 4000;
  p.ops = 800;
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    workload::SimHeap heap(cfg.address_space, 1);
    sim::System sys(cfg);
    sys.load_trace(0, workload::generate(p, 0, heap, nullptr));
    sys.run();
    cycles += sys.now();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(cycles));
  state.SetLabel("items = simulated cycles");
}
BENCHMARK(BM_SimulatedCyclesPerSecond)
    ->Arg(static_cast<int>(Mechanism::kOptimal))
    ->Arg(static_cast<int>(Mechanism::kTc))
    ->Arg(static_cast<int>(Mechanism::kSp))
    ->Arg(static_cast<int>(Mechanism::kKiln))
    ->Unit(benchmark::kMillisecond);

void BM_WordImageStore(benchmark::State& state) {
  recovery::WordImage img;
  Addr a = 0;
  for (auto _ : state) {
    a += 8;
    img.store(a & 0xFFFFF8, a);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WordImageStore);

void BM_WordImageWordsInLine(benchmark::State& state) {
  recovery::WordImage img;
  for (Addr a = 0; a < 1 << 16; a += 8) img.store(a, a);
  Addr line = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(img.words_in_line((line += 64) & 0xFFC0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WordImageWordsInLine);

void BM_EventQueueChurn(benchmark::State& state) {
  // Steady state of a busy cell: a few hundred latency callbacks pending,
  // every cycle fires some and schedules more (fills, acks, transfers).
  EventQueue q;
  Rng rng(1);
  std::uint64_t fired = 0;
  std::uint64_t* counter = &fired;
  Cycle now = 0;
  for (int i = 0; i < 512; ++i) {
    q.schedule_at(1 + rng.below(256), [counter, i] { *counter += i & 1; });
  }
  for (auto _ : state) {
    for (int k = 0; k < 2; ++k) {
      q.schedule_at(now + 1 + rng.below(256),
                    [counter, now] { *counter += now & 1; });
    }
    q.drain_until(now++);
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(static_cast<std::int64_t>(q.total_pushes()));
  state.SetLabel("items = scheduled events");
}
BENCHMARK(BM_EventQueueChurn);

void BM_MemoryControllerSaturatedWrites(benchmark::State& state) {
  // Write-bound setup phase: the NVM controller's 64-entry write queue is
  // kept full (with same-line repeats) and most cycles issue nothing
  // because every bank is busy with a slow STT-RAM array write.
  const MemCtrlConfig cfg = SystemConfig::experiment().nvm;
  EventQueue events;
  StatSet stats;
  mem::MemoryController mc("nvm", cfg, events, stats);
  Rng rng(2);
  std::uint64_t acked = 0;
  Addr line = 0;
  Cycle now = 0;
  for (auto _ : state) {
    events.drain_until(now);
    for (;;) {
      mem::MemRequest w;
      w.op = mem::MemOp::kWrite;
      w.persistent = true;
      if (!rng.chance(1, 8)) line = rng.below(1 << 14) * kLineBytes;
      w.line_addr = line;
      w.on_complete = [&acked](const mem::MemRequest&) { ++acked; };
      if (!mc.enqueue(std::move(w), now)) break;
    }
    mc.tick(now++);
  }
  benchmark::DoNotOptimize(acked);
  state.SetItemsProcessed(static_cast<std::int64_t>(now));
  state.counters["writes_per_kcycle"] =
      now > 0 ? 1000.0 * static_cast<double>(acked) / static_cast<double>(now)
              : 0.0;
  state.SetLabel("items = controller cycles");
}
BENCHMARK(BM_MemoryControllerSaturatedWrites);

}  // namespace
