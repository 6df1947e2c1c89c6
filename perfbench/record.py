"""Run the benchmark over several seeds, report the spread of every metric and
optionally record the results as the baseline.

    python3 perfbench/record.py --seeds 1-10 [--write set1]

Each run is a fresh ``perfbench/run.py`` process, one after another, for
every workload in BENCHMARK.json; then one traced run per workload with seed
``TRACED_SEED``.  For every end-to-end metric the spread is
(q3 - q1) / median over the seeds, with quartiles from
``statistics.quantiles(values, n=4)``, printed beside the metric's bound from
BENCHMARK.json.  ``--write NAME`` stores the results as a named set in
perfbench/baseline.json, with the machine, the commit and a digest of the
benchmark and library sources, and compares the medians of every two sets
recorded from the same sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASELINE = Path(__file__).resolve().parent / "baseline.json"
TRACED_SEED = 0

CAVEATS = [
    "fractions.Fraction is not wrapped, so the cost of Q coefficients shows up as "
    "self time of the hecke and linalg boundaries that call it.",
    "verify_certificate runs twice per reduction op: once inside reduce_to_minimal "
    "and once as the workload's replay; reduction.verify counts both.",
    "The first g op of a classpoly pass computes the characters of the dual "
    "representatives; later g ops reuse that cache, so one g op per pass is far "
    "slower than the rest.",
    "Self time excludes time in enclosed spans of other boundaries; code outside "
    "every boundary (benchmark glue, unwrapped helpers) is in no layer.",
    "Timings are wall-clock. On the shared 2-core machine recorded here the speed "
    "of the same pass drifted by up to 2x over tens of seconds; compare medians of "
    "many runs, never single runs.",
]


def parse_seeds(text):
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def run_once(bench, workload, seed, trace):
    cmd = [sys.executable, *bench["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
           "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    summary = json.loads(lines[-1])
    summary["wall_s"] = wall
    summary["report"] = lines[:-1]
    return summary


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def machine():
    model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "commit": commit}


def source_digest():
    """sha256 over BENCHMARK.json and every Python file of the benchmark and
    the library: two sets agree only if they ran the same code."""
    h = hashlib.sha256()
    files = [ROOT / "BENCHMARK.json", *sorted((ROOT / "perfbench").glob("*.py")),
             *sorted((ROOT / "src").rglob("*.py"))]
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def agreement(sets, bounds):
    """For each pair of sets from the same sources, each workload and metric:
    the later set's median over the earlier set's, within the bound either way."""
    out = {}
    names = list(sets)
    for i, first in enumerate(names):
        for later in names[i + 1:]:
            if sets[first]["sources"] != sets[later]["sources"]:
                continue
            pair = out.setdefault(f"{later}/{first}", {})
            for name, entry in sets[later]["workloads"].items():
                base = sets[first]["workloads"][name]
                for metric, bound in bounds.items():
                    ratio = entry["untraced"][metric]["median"] / \
                        base["untraced"][metric]["median"]
                    pair.setdefault(name, {})[metric] = {
                        "ratio": ratio, "bound": bound,
                        "within": abs(ratio - 1) <= bound}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--write", metavar="SET", default=None,
                        help="store the results as this named set in baseline.json")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    record = {"run_seconds": bench["run_seconds"], "seeds": seeds,
              "sources": source_digest(), "traced_seed": TRACED_SEED, "workloads": {}}
    for name in (w["name"] for w in bench["workloads"]):
        runs = [run_once(bench, name, seed, 0) for seed in seeds]
        entry = {"untraced": {}, "wall_s": [r["wall_s"] for r in runs]}
        print(f"{name}: wall {sum(entry['wall_s']):.1f} s over {len(runs)} runs")
        for metric in bounds:
            stats = summarise([r["metrics"][metric]["value"] for r in runs])
            entry["untraced"][metric] = stats
            flag = "ok" if stats["spread"] < bounds[metric] / 3 else \
                "WIDE" if stats["spread"] > bounds[metric] else "above bound/3"
            print(f"  {metric:12s} median {stats['median']:.6g}  spread "
                  f"{stats['spread']:.4f}  bound {bounds[metric]}  {flag}  "
                  f"[{' '.join(f'{v:.4g}' for v in stats['values'])}]")
        traced = run_once(bench, name, TRACED_SEED, 1)
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["traced"] = layers
        entry["traced_total_over_untraced_median"] = \
            layers["trace.total_s"] / entry["untraced"]["total_s"]["median"]
        entry["self_share"] = {
            k[:-len(".self_s")]: v / layers["trace.total_s"]
            for k, v in layers.items() if k.endswith(".self_s") and v > 0}
        entry["bypassed"] = [k[:-len(".calls")] for k, v in layers.items()
                             if k.endswith(".calls") and v == 0]
        print(f"  trace.overhead {layers['trace.overhead']:.4f}; self shares "
              + ", ".join(f"{k} {v:.3f}" for k, v in sorted(
                  entry["self_share"].items(), key=lambda kv: -kv[1])[:6]))
        record["workloads"][name] = entry
    if args.write:
        baseline = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
        baseline["machine"] = machine()
        baseline["caveats"] = CAVEATS
        baseline["why"] = {w["name"]: w["why"] for w in bench["workloads"]}
        baseline.setdefault("sets", {})[args.write] = record
        baseline["agreement"] = agreement(baseline["sets"], bounds)
        for pair, workloads in baseline["agreement"].items():
            for name, metrics in workloads.items():
                print(f"{pair} {name} medians: " + ", ".join(
                    f"{m} {v['ratio']:.3f}{'' if v['within'] else ' OUT'}"
                    for m, v in metrics.items()))
        BASELINE.write_text(json.dumps(baseline, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
