// Online persistence-order checker (src/check/): rule unit tests over
// synthetic event streams, violation-record structure, and end-to-end
// mutation tests. The mutation domains are deliberately broken mechanism
// variants registered ONLY in this binary (matrix_rank = -1, so --matrix
// and the sweep CSVs never see them); each one must be silent with the
// checker off and detected — attributed to exactly its rule id — with the
// checker collecting.
#include "check/persist_order_checker.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "mutation_domains.hpp"
#include "persist/domain.hpp"
#include "sim/system.hpp"
#include "workload/workloads.hpp"

namespace ntcsim {
namespace {

using check::CheckerRules;
using check::CheckEvent;
using check::EventKind;
using check::PersistOrderChecker;
using check::Rule;

AddressSpace space() { return SystemConfig::tiny().address_space; }

// Heap lines striding one cache line apart: enough distinct lines thrash
// every set of the tiny 4 KB LLC.
Addr heap_line(unsigned i) {
  return space().heap_base() + static_cast<Addr>(i) * kLineBytes;
}

CheckEvent make_event(EventKind kind, Addr addr, TxId tx = kNoTx,
                      mem::Source source = mem::Source::kDemand,
                      Word value = 0, std::uint64_t seq = 0) {
  CheckEvent ev;
  ev.kind = kind;
  ev.addr = addr;
  ev.tx = tx;
  ev.source = source;
  ev.value = value;
  ev.seq = seq;
  ev.persistent = true;
  return ev;
}

// ---------------------------------------------------------------------------
// Rule unit tests on synthetic event streams (collect mode, no System).

TEST(CheckerRulesTable, RuleIdsAreStable) {
  EXPECT_STREQ(check::rule_id(Rule::kSingleWriter), "tc.single-writer");
  EXPECT_STREQ(check::rule_id(Rule::kFifoDrain), "tc.fifo-drain");
  EXPECT_STREQ(check::rule_id(Rule::kNoStaleRead), "tc.no-stale-read");
  EXPECT_STREQ(check::rule_id(Rule::kUncommittedDrain), "tc.uncommitted-drain");
  EXPECT_STREQ(check::rule_id(Rule::kLogBeforeData), "sp.log-before-data");
  EXPECT_STREQ(check::rule_id(Rule::kKilnFlushComplete),
               "kiln.flush-incomplete");
}

TEST(SingleWriter, FlagsHeapWritesFromOutsideTheSanctionedPath) {
  CheckerRules rules;
  rules.single_writer = true;
  rules.allowed_heap_sources = check::source_bit(mem::Source::kTxCache);
  PersistOrderChecker chk(rules, space(), 1, /*fatal=*/false);

  chk.on_event(make_event(EventKind::kNvmWrite, heap_line(0), 1,
                          mem::Source::kTxCache));
  EXPECT_EQ(chk.violation_count(), 0u);  // sanctioned source
  chk.on_event(make_event(EventKind::kNvmWrite, /*dram*/ 0x1000, 1,
                          mem::Source::kDemand));
  EXPECT_EQ(chk.violation_count(), 0u);  // DRAM is out of scope
  chk.on_event(make_event(EventKind::kNvmWrite, heap_line(0), 1,
                          mem::Source::kDemand));
  ASSERT_EQ(chk.violation_count(), 1u);
  EXPECT_EQ(chk.violations()[0].rule, Rule::kSingleWriter);
}

TEST(FifoDrain, FlagsSequenceInversionPerCore) {
  CheckerRules rules;
  rules.fifo_drain = true;
  PersistOrderChecker chk(rules, space(), 2, /*fatal=*/false);

  CheckEvent a = make_event(EventKind::kNtcDrainIssue, heap_line(0), 1,
                            mem::Source::kTxCache, 0, /*seq=*/1);
  chk.on_event(a);
  a.seq = 3;
  chk.on_event(a);
  EXPECT_EQ(chk.violation_count(), 0u);  // increasing is fine, gaps allowed
  a.seq = 2;  // goes backwards past 3
  chk.on_event(a);
  ASSERT_EQ(chk.violation_count(), 1u);
  EXPECT_EQ(chk.violations()[0].rule, Rule::kFifoDrain);
  // Cores are independent FIFOs: seq 2 on core 1 is fresh.
  a.core = 1;
  chk.on_event(a);
  EXPECT_EQ(chk.violation_count(), 1u);
}

TEST(NoStaleRead, RequiresAProbeWhileTheNtcHoldsTheLine) {
  CheckerRules rules;
  rules.no_stale_read = true;
  PersistOrderChecker chk(rules, space(), 1, /*fatal=*/false);
  const Addr line = heap_line(4);

  chk.on_event(make_event(EventKind::kNtcInsert, line, 1,
                          mem::Source::kTxCache, 0, 1));
  chk.on_event(make_event(EventKind::kNvmRead, line));
  ASSERT_EQ(chk.violation_count(), 1u);  // held, never probed
  EXPECT_EQ(chk.violations()[0].rule, Rule::kNoStaleRead);

  chk.on_event(make_event(EventKind::kNtcProbe, line));
  chk.on_event(make_event(EventKind::kNvmRead, line));
  EXPECT_EQ(chk.violation_count(), 1u);  // probe credit covers this read
  chk.on_event(make_event(EventKind::kNvmRead, line));
  EXPECT_EQ(chk.violation_count(), 2u);  // credit was consumed

  chk.on_event(make_event(EventKind::kNtcRelease, line));
  chk.on_event(make_event(EventKind::kNvmRead, line));
  EXPECT_EQ(chk.violation_count(), 2u);  // released lines read freely
}

TEST(UncommittedDrain, FlagsNtcDrainsOfUncommittedTransactions) {
  CheckerRules rules;
  rules.no_uncommitted = true;
  PersistOrderChecker chk(rules, space(), 1, /*fatal=*/false);

  chk.on_event(make_event(EventKind::kNvmWrite, heap_line(1), 7,
                          mem::Source::kTxCache));
  ASSERT_EQ(chk.violation_count(), 1u);
  EXPECT_EQ(chk.violations()[0].rule, Rule::kUncommittedDrain);
  EXPECT_EQ(chk.violations()[0].tx, 7u);

  chk.on_event(make_event(EventKind::kTxCommitted, 0, 7));
  chk.on_event(make_event(EventKind::kNvmWrite, heap_line(1), 7,
                          mem::Source::kTxCache));
  EXPECT_EQ(chk.violation_count(), 1u);  // committed now
}

TEST(LogBeforeData, DataWordMustHaveADurableLogRecordFirst) {
  CheckerRules rules;
  rules.log_before_data = true;
  const Addr word = heap_line(2) + 8;
  const Addr rec = space().log_base(0);

  {
    PersistOrderChecker chk(rules, space(), 1, /*fatal=*/false);
    chk.on_event(make_event(EventKind::kStoreDrained, word, 5,
                            mem::Source::kDemand, /*value=*/42));
    chk.on_event(make_event(EventKind::kNvmDurable, word, 5,
                            mem::Source::kDemand, 42));
    ASSERT_EQ(chk.violation_count(), 1u);  // durable data, no record
    EXPECT_EQ(chk.violations()[0].rule, Rule::kLogBeforeData);
    EXPECT_EQ(chk.violations()[0].tx, 5u);
  }
  {
    // WAL order respected: record [target | value] durable before the data.
    PersistOrderChecker chk(rules, space(), 1, /*fatal=*/false);
    chk.on_event(make_event(EventKind::kNvmDurable, rec, 5, mem::Source::kLog,
                            static_cast<Word>(word)));
    chk.on_event(make_event(EventKind::kNvmDurable, rec + 8, 5,
                            mem::Source::kLog, 42));
    chk.on_event(make_event(EventKind::kStoreDrained, word, 5,
                            mem::Source::kDemand, 42));
    chk.on_event(make_event(EventKind::kNvmDurable, word, 5,
                            mem::Source::kDemand, 42));
    EXPECT_EQ(chk.violation_count(), 0u);
  }
  {
    // Non-transactional stores carry no WAL obligation.
    PersistOrderChecker chk(rules, space(), 1, /*fatal=*/false);
    chk.on_event(make_event(EventKind::kStoreDrained, word, kNoTx,
                            mem::Source::kDemand, 42));
    chk.on_event(make_event(EventKind::kNvmDurable, word, kNoTx,
                            mem::Source::kDemand, 42));
    EXPECT_EQ(chk.violation_count(), 0u);
  }
}

TEST(KilnFlushComplete, CommitWindowMustFlushEveryDirtiedLine) {
  CheckerRules rules;
  rules.kiln_flush_complete = true;
  const Addr word = heap_line(3);

  {
    PersistOrderChecker chk(rules, space(), 1, /*fatal=*/false);
    chk.on_event(make_event(EventKind::kStoreDrained, word, 3));
    chk.on_event(make_event(EventKind::kKilnCommitStart, 0, 3));
    chk.on_event(make_event(EventKind::kKilnCommitDone, 0, 3));
    ASSERT_EQ(chk.violation_count(), 1u);  // line never flushed
    EXPECT_EQ(chk.violations()[0].rule, Rule::kKilnFlushComplete);
    EXPECT_EQ(chk.violations()[0].line, line_of(word));
  }
  {
    PersistOrderChecker chk(rules, space(), 1, /*fatal=*/false);
    chk.on_event(make_event(EventKind::kStoreDrained, word, 3));
    chk.on_event(make_event(EventKind::kKilnCommitStart, 0, 3));
    chk.on_event(make_event(EventKind::kKilnFlushLine, line_of(word), 3));
    chk.on_event(make_event(EventKind::kKilnCommitDone, 0, 3));
    EXPECT_EQ(chk.violation_count(), 0u);
  }
}

TEST(ViolationRecord, CarriesCycleLineHistoryAndExactCountPastTheCap) {
  CheckerRules rules;
  rules.single_writer = true;
  rules.allowed_heap_sources = check::source_bit(mem::Source::kTxCache);
  PersistOrderChecker chk(rules, space(), 1, /*fatal=*/false);
  Cycle now = 0;
  chk.set_clock(&now);

  now = 41;
  chk.on_event(make_event(EventKind::kLlcWritebackDropped, heap_line(9)));
  now = 42;
  chk.on_event(make_event(EventKind::kNvmWrite, heap_line(9), 2,
                          mem::Source::kDemand));
  ASSERT_EQ(chk.violation_count(), 1u);
  const check::Violation& v = chk.violations()[0];
  EXPECT_EQ(v.cycle, 42u);
  EXPECT_EQ(v.line, heap_line(9));
  EXPECT_FALSE(v.message.empty());
  // History holds the prior same-line events (the dropped write-back and
  // the violating write itself), oldest first.
  ASSERT_GE(v.history.size(), 2u);
  EXPECT_EQ(v.history.front().first, 41u);
  EXPECT_EQ(v.history.front().second.kind, EventKind::kLlcWritebackDropped);

  // The stored list caps; the count stays exact.
  for (unsigned i = 0; i < 100; ++i) {
    chk.on_event(make_event(EventKind::kNvmWrite, heap_line(9), 2,
                            mem::Source::kDemand));
  }
  EXPECT_EQ(chk.violation_count(), 101u);
  EXPECT_EQ(chk.violations().size(), PersistOrderChecker::kMaxStoredViolations);
}

// ---------------------------------------------------------------------------
// Mutation domains: deliberately broken mechanism variants, shared with the
// fault-injection campaign tests via tests/mutation_domains.hpp.

using muttest::mutants;

// ---------------------------------------------------------------------------
// End-to-end harness: run a hand-built trace under a mechanism and report
// what the checker saw.

struct CheckResult {
  bool checker_present = false;
  std::uint64_t violations = 0;
  std::set<std::string> rule_ids;
};

CheckResult run_trace(Mechanism mech, CheckMode mode,
                      const core::Trace& trace) {
  SystemConfig cfg = SystemConfig::tiny();
  cfg.mechanism = mech;
  cfg.check = mode;
  sim::System sys(cfg);
  sys.load_trace(0, trace);
  sys.run();
  EXPECT_TRUE(sys.finished());
  CheckResult r;
  if (sys.node(0).checker() != nullptr) {
    r.checker_present = true;
    r.violations = sys.node(0).checker()->violation_count();
    for (const check::Violation& v : sys.node(0).checker()->violations()) {
      r.rule_ids.insert(check::rule_id(v.rule));
    }
  }
  return r;
}

/// The mutation contract: invisible with the checker off; detected and
/// attributed to exactly `rule` with the checker collecting.
void expect_mutation_detected(Mechanism mutant, const core::Trace& trace,
                              const char* rule) {
  const CheckResult off = run_trace(mutant, CheckMode::kOff, trace);
  EXPECT_FALSE(off.checker_present) << "checker off must mean no checker";

  const CheckResult on = run_trace(mutant, CheckMode::kCollect, trace);
  ASSERT_TRUE(on.checker_present);
  EXPECT_GE(on.violations, 1u) << rule << " mutation was not detected";
  EXPECT_EQ(on.rule_ids, std::set<std::string>{rule})
      << "violations must attribute to exactly the seeded rule";
}

core::Trace two_store_tx() {
  core::Trace t;
  t.push(core::MicroOp::tx_begin(1));
  t.push(core::MicroOp::store(heap_line(0), 1, true));
  t.push(core::MicroOp::store(heap_line(1), 2, true));
  t.push(core::MicroOp::tx_end());
  return t;
}

/// One committed persistent store, then enough persistent loads to thrash
/// the line out of the tiny LLC (4 KB / 64 B = 64 lines).
core::Trace store_then_thrash() {
  core::Trace t;
  t.push(core::MicroOp::tx_begin(1));
  t.push(core::MicroOp::store(heap_line(0), 1, true));
  t.push(core::MicroOp::tx_end());
  for (unsigned i = 1; i <= 512; ++i) {
    t.push(core::MicroOp::load(heap_line(i), true));
  }
  return t;
}

TEST(Mutation, TcLeakyWritebackTripsSingleWriter) {
  expect_mutation_detected(mutants().tc_leaky, store_then_thrash(),
                           "tc.single-writer");
}

TEST(Mutation, TcLifoDrainTripsFifoDrain) {
  expect_mutation_detected(mutants().tc_lifo, two_store_tx(),
                           "tc.fifo-drain");
}

TEST(Mutation, TcNoProbeTripsNoStaleRead) {
  // The store's line stays in the NTC (ACTIVE) for the whole transaction;
  // thrash it out of the caches inside the transaction, then re-load it —
  // the LLC miss reads NVM while the NTC still holds newer data.
  core::Trace t;
  t.push(core::MicroOp::tx_begin(1));
  t.push(core::MicroOp::store(heap_line(0), 1, true));
  for (unsigned i = 1; i <= 512; ++i) {
    t.push(core::MicroOp::load(heap_line(i), true));
  }
  t.push(core::MicroOp::load(heap_line(0), true));
  t.push(core::MicroOp::tx_end());
  expect_mutation_detected(mutants().tc_noprobe, t, "tc.no-stale-read");
}

TEST(Mutation, TcEagerCommitTripsUncommittedDrain) {
  core::Trace t;
  t.push(core::MicroOp::tx_begin(1));
  for (unsigned i = 0; i < 6; ++i) {
    t.push(core::MicroOp::store(heap_line(i), i + 1, true));
  }
  t.push(core::MicroOp::tx_end());
  expect_mutation_detected(mutants().tc_eager, t, "tc.uncommitted-drain");
}

TEST(Mutation, SpDataFirstTripsLogBeforeData) {
  core::Trace t;
  t.push(core::MicroOp::tx_begin(1));
  t.push(core::MicroOp::store(heap_line(0), 42, true));
  t.push(core::MicroOp::tx_end());
  expect_mutation_detected(mutants().sp_data_first, t, "sp.log-before-data");
}

TEST(Mutation, KilnLossyFlushTripsFlushIncomplete) {
  expect_mutation_detected(mutants().kiln_lossy, two_store_tx(),
                           "kiln.flush-incomplete");
}

// ---------------------------------------------------------------------------
// Healthy mechanisms stay clean on the same traces and on a real workload.

TEST(HealthyDomains, SameTracesProduceZeroViolations) {
  for (const Mechanism m : {Mechanism::kTc, Mechanism::kSp, Mechanism::kKiln,
                            Mechanism::kSpAdr}) {
    for (const core::Trace& t : {two_store_tx(), store_then_thrash()}) {
      const CheckResult r = run_trace(m, CheckMode::kCollect, t);
      EXPECT_EQ(r.violations, 0u)
          << persist::DomainRegistry::instance().info(m).name;
    }
  }
}

TEST(HealthyDomains, SmallWorkloadRunsCleanUnderEveryMatrixMechanism) {
  for (const Mechanism mech :
       persist::DomainRegistry::instance().matrix_mechanisms()) {
    SystemConfig cfg = SystemConfig::tiny();
    cfg.mechanism = mech;
    cfg.check = CheckMode::kCollect;
    workload::WorkloadParams p =
        workload::default_params(WorkloadKind::kHashtable);
    p.setup_elems = 200;
    p.ops = 100;
    workload::SimHeap heap(cfg.address_space, cfg.cores);
    sim::System sys(cfg);
    sys.load_trace(0, workload::generate(p, 0, heap, nullptr));
    sys.run();
    EXPECT_EQ(sys.metrics().check_violations, 0u)
        << persist::DomainRegistry::instance().info(mech).name;
  }
}

}  // namespace
}  // namespace ntcsim
