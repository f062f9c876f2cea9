#!/usr/bin/env python3
"""ntcsim benchmark: builds ntcbench from this checkout, runs one workload
and prints its metrics, the last line as one JSON object.

    python3 perfbench/run.py --workload matrix|serve-cluster|crash-campaign \
        --seed N --seconds S --trace 0|1

Run it from the repository root. The build goes to .bench_build/ (Release);
reports and spans land in .bench_build/reports/. --trace 0 prints the
end-to-end metrics of BENCHMARK.json; --trace 1 prints the per-layer ones.
The exit code is 1 when an output check fails, 2 on a usage or build error.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import metrics

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("matrix", "serve-cluster", "crash-campaign")
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then (re)build ntcbench; build output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die("ntcsim sources (src/) not found next to perfbench/")
    if not (BUILD / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"] + gen,
            check=True, stdout=sys.stderr, timeout=300)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs, "--target", "ntcbench"],
                   check=True, stdout=sys.stderr, timeout=600)


def fmt(v):
    return "%.6g" % v


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        die("--seed must be >= 0 and --seconds > 0")

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        die("BENCHMARK.json not found")
    spec = json.loads(spec_path.read_text())
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["per_layer"]} if args.trace else e2e_units

    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        die("build failed: %s" % e)

    reports = BUILD / "reports"
    reports.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    report_path, spans_path = reports / (stem + ".json"), reports / (stem + ".spans.json")
    cmd = [str(BUILD / "ntcbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--out", str(report_path)]
    if args.trace:
        cmd += ["--spans", str(spans_path)]
    started = time.monotonic()
    try:
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        die("ntcbench failed: %s" % e)
    report = json.loads(report_path.read_text())

    attempted, failed = metrics.count_failures(report)
    values = metrics.end_to_end(report)
    extra = metrics.extra_end_to_end(report)
    untraced = [b for b in report["batches"] if not b["traced"]]
    print("%s seed %d: %d untraced batch(es) of %d cells on %d threads, %.1f s" % (
        args.workload, args.seed, len(untraced), len(untraced[0]["cells"]),
        report["threads"], time.monotonic() - started))
    for name, v in values.items():
        print("  %-20s %-12s %s (median of %d batches)" % (
            name, fmt(v), e2e_units[name], len(untraced)))
    for name, v in extra.items():
        print("  %-20s %-12s (not gated)" % (name, fmt(v)))
    if "paper_gap" in extra:
        print("  paper_gap is max |gmean - paper| over Fig. 6/7 vs " + metrics.PAPER)
    print("  digest of simulated outputs: %s" % report["digest"])
    for chk in report["checks"]:
        if not chk["ok"]:
            print("  CHECK FAILED: %s %s" % (chk["name"], chk["detail"]))
    for b in report["batches"]:
        for c in b["cells"]:
            if c["failed"]:
                print("  CELL FAILED: %s: %s" % (c["label"], c["why"]))

    if args.trace:
        spans = json.loads(spans_path.read_text())
        values = metrics.per_layer(report, spans)
        print("per-layer metrics (traced batches; spans in %s):" % spans_path.relative_to(ROOT))
        for name in units:
            print("  %-30s %-12s %-8s moves %s" % (
                name, fmt(values[name]), units[name], metrics.LAYERS[name]))
        for name in ("recovery.crash_recover_s", "recovery.atomicity_s"):
            n = int(values[name + ".n"])
            p = metrics.tail_percentile(n)
            if n:
                print("  %s.tail is the %s of %d calls" % (
                    name, "p%g" % (100 * p) if p else "median (fewer than 20 calls)", n))

    missing = sorted(set(units) - set(values))
    if missing:
        die("metrics not computed: %s" % ", ".join(missing))
    print(metrics.result_line(failed == 0, attempted, failed, values, units))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
