"""Turns an ntcbench report (and its spans) into the benchmark's metrics.

End-to-end metrics come from the untraced batches only; per-layer metrics
come from the traced batches, normalised per batch. The names, units and
directions are declared in BENCHMARK.json at the repository root; LAYERS
below records which end-to-end metric each per-layer metric should move,
and on which workload.
"""

import json
import math
import statistics

# Per-layer metric -> the end-to-end metric it should move, and where.
LAYERS = {
    "workload.generate_s": "setup_s on matrix (5 mechanisms regenerate identical traces); small on crash-campaign",
    "workload.uops": "setup_s on matrix",
    "topo.route_s": "setup_s on serve-cluster; absent elsewhere",
    "topo.cross_shard_frac": "setup_s on serve-cluster; absent elsewhere",
    "sim.construct_s": "setup_s and peak_rss_mb on all three workloads",
    "sim.load_s": "setup_s on the matrix SP cells (includes the SP transform)",
    "sim.warm_s": "setup_s on matrix; near zero on serve-cluster",
    "sim.warm_ticks": "setup_s on matrix",
    "sim.warm_cycles": "setup_s on matrix",
    "sim.measured_ticks": "sim_mcycles_per_s on serve-cluster",
    "sim.cycles_skipped": "sim_mcycles_per_s on serve-cluster",
    "sim.skip_ratio": "sim_mcycles_per_s on serve-cluster",
    "sim.ns_per_tick.warm": "sim_mips on matrix",
    "sim.ns_per_tick.measured": "sim_mips on matrix and serve-cluster",
    "sim.cell_p50_s": "wall_s on matrix",
    "sim.cell_max_s": "wall_s on matrix (the longest cell bounds the pool)",
    "sim.cells": "sample count of the cell spans",
    "events.pushes": "sim_mips on matrix",
    "events.pushes_per_ktick": "sim_mips on matrix",
    "core.retired_uops": "sim_mips on matrix and serve-cluster",
    "core.txs": "sim_mips on matrix and serve-cluster",
    "core.stall_frac": "paper_gap on matrix",
    "cache.l1_miss_rate": "paper_gap on matrix",
    "cache.llc_miss_rate": "paper_gap on matrix",
    "cache.llc_wb_dropped": "paper_gap on matrix",
    "ntc.writes": "paper_gap on matrix; TC work count on serve-cluster",
    "ntc.merges": "paper_gap on matrix",
    "ntc.spills": "paper_gap on matrix",
    "ntc.full_rejects": "paper_gap on matrix",
    "kiln.commits": "paper_gap on matrix",
    "kiln.flushed_lines": "paper_gap on matrix",
    "mem.nvm_reads": "measured_s and paper_gap on matrix; SP vs TC on serve-cluster",
    "mem.nvm_writes": "measured_s and paper_gap on matrix; SP vs TC on serve-cluster",
    "mem.nvm_row_hit_rate": "measured_s on matrix",
    "mem.drain_mode_entries": "measured_s on matrix; SP vs TC on serve-cluster",
    "recovery.crash_recover_s.p50": "checks_per_s on crash-campaign; near zero elsewhere",
    "recovery.crash_recover_s.tail": "checks_per_s on crash-campaign",
    "recovery.crash_recover_s.n": "sample count of crash_recover calls, all traced batches",
    "recovery.atomicity_s.p50": "checks_per_s on crash-campaign; near zero elsewhere",
    "recovery.atomicity_s.tail": "checks_per_s on crash-campaign",
    "recovery.atomicity_s.n": "sample count of check_atomicity calls, all traced batches",
    "recovery.checks_per_s": "the crash-campaign throughput itself (untraced batches)",
    "faultsim.plan_s": "measured_s and checks_per_s on crash-campaign",
    "faultsim.replay_run_s": "measured_s and checks_per_s on crash-campaign",
    "faultsim.hazards": "checks_per_s on crash-campaign",
    "faultsim.points": "checks_per_s on crash-campaign",
    "self.bench_s": "benchmark bookkeeping inside cells; should stay small",
    "self.workload_s": "setup_s",
    "self.topo_s": "setup_s on serve-cluster",
    "self.sim_s": "measured_s and setup_s",
    "self.faultsim_s": "measured_s on crash-campaign",
    "self.recovery_s": "checks_per_s on crash-campaign",
    "trace.overhead_frac": "none: traced wall over untraced wall, minus 1",
}

# Paper values (share of Optimal) behind paper_gap, for the printout.
PAPER = "SP 0.477 IPC / 0.306 throughput, TC 0.985, Kiln 0.878"

PERCENTILES = (0.5, 0.9, 0.99, 0.999, 0.9999)


def tail_percentile(n):
    """Highest percentile in PERCENTILES with at least 10 of n samples
    beyond it, or None when even the median has fewer."""
    best = None
    for p in PERCENTILES:
        if n * (1.0 - p) >= 10.0 - 1e-9:
            best = p
    return best


def percentile(values, p):
    """Nearest-rank percentile of a non-empty list."""
    xs = sorted(values)
    rank = max(1, math.ceil(p * len(xs)))
    return xs[rank - 1]


def median(values):
    return statistics.median(values) if values else 0.0


def self_times(spans):
    """Span id -> its duration minus the part its child spans cover (s)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start_ns"], s["end_ns"]))
    out = {}
    for s in spans:
        covered, cursor = 0, s["start_ns"]
        for start, end in sorted(children.get(s["id"], [])):
            start, end = max(start, cursor), min(end, s["end_ns"])
            if end > start:
                covered += end - start
                cursor = end
        out[s["id"]] = (s["end_ns"] - s["start_ns"] - covered) / 1e9
    return out


def layer_self_times(spans):
    """Layer (the span name up to its first dot) -> summed self time (s)."""
    own = self_times(spans)
    out = {}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + own[s["id"]]
    return out


def count_failures(report):
    """(attempted, failed): every cell of every batch plus every output check."""
    attempted = failed = 0
    for b in report["batches"]:
        for c in b["cells"]:
            attempted += 1
            failed += bool(c["failed"])
    for chk in report["checks"]:
        attempted += 1
        failed += not chk["ok"]
    return attempted, failed


def _batches(report, traced):
    return [b for b in report["batches"] if b["traced"] == traced]


def _ratio(num, den):
    return num / den if den else 0.0


def end_to_end(report):
    """Untraced batches -> {metric: value}, medians over batches."""
    batches = _batches(report, False)

    def per_batch(fn):
        return median([fn(b["cells"], b["wall_s"]) for b in batches])

    def total(cells, key):
        return sum(c[key] for c in cells)

    return {
        "wall_s": per_batch(lambda cells, wall: wall),
        "setup_s": per_batch(lambda cells, wall: total(cells, "setup_s")),
        "measured_s": per_batch(lambda cells, wall: total(cells, "measured_s")),
        "sim_mips": per_batch(lambda cells, wall: _ratio(
            total(cells, "uops"), total(cells, "measured_s")) / 1e6),
        "sim_mcycles_per_s": per_batch(lambda cells, wall: _ratio(
            total(cells, "cycles"), total(cells, "measured_s")) / 1e6),
        "peak_rss_mb": report["peak_rss_mb"],
    }


def extra_end_to_end(report):
    """End-to-end figures that are not defined on every workload, or that
    repeat exactly (printed beside the metrics, not gated)."""
    attempted, failed = count_failures(report)
    out = {"failed_frac": failed / attempted}
    batches = _batches(report, False)
    checks = [sum(c["checks"] for c in b["cells"]) / b["wall_s"] for b in batches]
    if any(checks):
        out["checks_per_s"] = median(checks)
    if "paper_gap" in report:
        out["paper_gap"] = report["paper_gap"]
    return out


def per_layer(report, spans):
    """Traced batches + spans -> {metric: value}, per traced batch."""
    traced = _batches(report, True)
    nb = max(1, len(traced))
    counters = {}
    for b in traced:
        for c in b["cells"]:
            for k, v in c["counters"].items():
                counters[k] = counters.get(k, 0.0) + v

    def cnt(*keys):
        return sum(counters.get(k, 0.0) for k in keys) / nb

    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    names = {s["id"]: s["name"] for s in spans}

    def dur(s):
        return (s["end_ns"] - s["start_ns"]) / 1e9

    def total(name):
        return sum(dur(s) for s in by_name.get(name, [])) / nb

    def dist(prefix, name):
        xs = [dur(s) for s in by_name.get(name, [])]
        p = tail_percentile(len(xs)) or 0.5
        return {
            prefix + ".p50": percentile(xs, 0.5) if xs else 0.0,
            prefix + ".tail": percentile(xs, p) if xs else 0.0,
            prefix + ".n": len(xs),
        }

    cells = [dur(s) for s in by_name.get("bench.cell", [])]
    stalls = sum(v for k, v in counters.items() if k.startswith("core.stall.")) / nb
    skipped, ticks = cnt("sim.measured_skipped"), cnt("sim.measured_ticks")
    layers = layer_self_times(spans)
    untraced_wall = median([b["wall_s"] for b in _batches(report, False)])
    traced_wall = median([b["wall_s"] for b in traced])
    out = {
        "workload.generate_s": total("workload.generate"),
        "workload.uops": cnt("workload.uops"),
        "topo.route_s": total("topo.route"),
        "topo.cross_shard_frac": _ratio(cnt("topo.xshard"), cnt("topo.requests")),
        "sim.construct_s": total("sim.construct"),
        "sim.load_s": total("sim.load"),
        "sim.warm_s": total("sim.warm"),
        "sim.warm_ticks": cnt("sim.warm_ticks"),
        "sim.warm_cycles": cnt("sim.warm_cycles"),
        "sim.measured_ticks": ticks,
        "sim.cycles_skipped": skipped,
        "sim.skip_ratio": _ratio(skipped, skipped + ticks),
        "sim.ns_per_tick.warm": _ratio(total("sim.warm"), cnt("sim.warm_ticks")) * 1e9,
        "sim.ns_per_tick.measured": _ratio(total("sim.run"), ticks) * 1e9,
        "sim.cell_p50_s": percentile(cells, 0.5) if cells else 0.0,
        "sim.cell_max_s": max(cells) if cells else 0.0,
        "sim.cells": len(cells) / nb,
        "events.pushes": cnt("events.pushes"),
        "events.pushes_per_ktick": _ratio(cnt("events.pushes"), cnt("events.ticks")) * 1e3,
        "core.retired_uops": cnt("core.retired"),
        "core.txs": cnt("core.txs"),
        "core.stall_frac": _ratio(stalls, cnt("core.core_cycles")),
        "cache.l1_miss_rate": _ratio(cnt("l1.misses"), cnt("l1.hits", "l1.misses")),
        "cache.llc_miss_rate": _ratio(cnt("llc.misses"), cnt("llc.hits", "llc.misses")),
        "cache.llc_wb_dropped": cnt("llc.wb_dropped"),
        "ntc.writes": cnt("ntc.writes"),
        "ntc.merges": cnt("ntc.merges"),
        "ntc.spills": cnt("ntc.spills"),
        "ntc.full_rejects": cnt("ntc.full_rejects"),
        "kiln.commits": cnt("kiln.commits"),
        "kiln.flushed_lines": cnt("kiln.flushed_lines"),
        "mem.nvm_reads": cnt("nvm.reads"),
        "mem.nvm_writes": cnt("nvm.writes"),
        "mem.nvm_row_hit_rate": _ratio(cnt("nvm.row_hits"), cnt("nvm.row_hits", "nvm.row_misses")),
        "mem.drain_mode_entries": cnt("nvm.drain_mode_entries", "dram.drain_mode_entries"),
        "recovery.checks_per_s": extra_end_to_end(report).get("checks_per_s", 0.0),
        "faultsim.plan_s": total("faultsim.plan"),
        "faultsim.replay_run_s": sum(
            dur(s) for s in by_name.get("sim.run", [])
            if names.get(s["parent"]) == "faultsim.replay") / nb,
        "faultsim.hazards": cnt("faultsim.hazards"),
        "faultsim.points": cnt("faultsim.points"),
        "trace.overhead_frac": _ratio(traced_wall, untraced_wall) - 1.0,
    }
    out.update(dist("recovery.crash_recover_s", "recovery.crash_recover"))
    out.update(dist("recovery.atomicity_s", "recovery.atomicity"))
    for layer in ("bench", "workload", "topo", "sim", "faultsim", "recovery"):
        out["self.%s_s" % layer] = layers.get(layer, 0.0) / nb
    return out


def result_line(correct, attempted, failed, values, units):
    """The benchmark's last output line: one JSON object."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    })


def parse_result(line):
    """Inverse of result_line; raises ValueError on a malformed line."""
    obj = json.loads(line)
    if set(obj) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("unexpected keys: %s" % sorted(obj))
    if not isinstance(obj["correct"], bool):
        raise ValueError("correct is not a bool")
    for key in ("attempted", "failed"):
        if not isinstance(obj[key], int) or isinstance(obj[key], bool):
            raise ValueError("%s is not a whole number" % key)
    if obj["attempted"] < 1:
        raise ValueError("attempted < 1")
    for name, m in obj["metrics"].items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
            raise ValueError("malformed metric %s" % name)
    return obj
