"""Closed-loop runner: passes of set-up plus every operation, timed and checked.

A pass builds fresh library objects (so no cache outlives it), then issues
the workload's operations one at a time, each only after the previous one
returned.  An untraced run makes one pass, then starts another only while
the median pass so far still fits into ``seconds``.  ``setup_s`` and
``total_s`` are medians over the passes of each pass's value; ``op_p50_ms``
and ``op_tail_ms`` are quantiles of the latencies of every op of every pass,
the tail at the same percentile whatever the number of passes, so the
figures do not depend on how many passes fitted.  A traced run makes one
untraced pass and one traced pass, and reports the ratio of their totals as
the tracing overhead.

Every pass hashes its formatted results and compares the hash with the
workload's entry in ``reference.json``.  The seed changes only the order in
which operations are issued, and the hash is taken over sorted keys, so one
entry holds for every seed.  After a deliberate change of results, record the
digest a run prints.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

from perfbench.trace import LAYER_METRICS, Tracer

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# end-to-end metric name -> unit, in the order they are printed
E2E_METRICS = {
    "setup_s": "s",
    "total_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

clock = time.perf_counter


@dataclass
class PassResult:
    setup_s: float
    total_s: float
    latencies_s: list
    attempted: int
    failed: int
    digest: str
    errors: list


def digest(texts):
    """sha256 of the formatted results, over sorted keys."""
    return hashlib.sha256(json.dumps(texts, sort_keys=True).encode()).hexdigest()


def run_pass(workload, ops, tracer=None):
    """One set-up plus every op; the tracer, if given, is active throughout."""
    results, latencies, errors = {}, [], []
    start = clock()
    with tracer if tracer is not None else contextlib.nullcontext():
        state = workload.setup()
        setup_end = clock()
        for op in ops:
            t0 = clock()
            try:
                results[op.key] = (op, op.run(state))
            except Exception as exc:   # a failed op is counted, the run goes on
                errors.append(f"{op.key}: {type(exc).__name__}: {exc}")
            latencies.append(clock() - t0)
        end = clock()
    texts = {key: op.fmt(value) for key, (op, value) in results.items()}
    return PassResult(setup_end - start, end - start, latencies, len(ops),
                      len(ops) - len(results), digest(texts), errors)


def tail(latencies, per_pass):
    """(value, percentile, samples beyond it) over the latencies of whole
    passes of ``per_pass`` ops each: the percentile is that of the largest
    sample of one pass with at least ten samples beyond it (the maximum when
    a pass has too few), taken over all passes at once."""
    ordered = sorted(latencies)
    passes = len(ordered) // per_pass
    at = per_pass - 11 if per_pass > 10 else per_pass - 1
    index = passes * (at + 1) - 1
    return ordered[index], 100.0 * (at + 1) / per_pass, len(ordered) - 1 - index


def reference_digest(name):
    """The digest recorded for this workload, or None."""
    return json.loads(REFERENCE.read_text()).get(name)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class RunResult:
    workload: str
    seed: int
    passes: list
    metrics: dict
    units: dict
    reference: str | None
    notes: list

    @property
    def attempted(self):
        return sum(p.attempted for p in self.passes)

    @property
    def failed(self):
        return sum(p.attempted if self._mismatch(p) else p.failed for p in self.passes)

    def _mismatch(self, p):
        return self.reference is not None and p.digest != self.reference

    @property
    def correct(self):
        return self.failed == 0


def run_workload(workload, seed, seconds, trace, reference=None):
    """Run one workload and return its RunResult.

    ``reference`` is the expected digest of a pass, or None to skip that check.
    """
    ops = workload.inputs(seed)
    passes, notes = [], []
    if trace:
        plain = run_pass(workload, ops)
        tracer = Tracer()
        traced = run_pass(workload, ops, tracer)
        passes = [plain, traced]
        metrics = tracer.metrics()
        metrics["trace.total_s"] = traced.total_s
        metrics["trace.overhead"] = traced.total_s / plain.total_s
        units = LAYER_METRICS
        notes.append(f"trace.overhead is the traced pass over an untraced pass of "
                     f"{plain.total_s:.4f} s")
    else:
        start = clock()
        passes.append(run_pass(workload, ops))
        while clock() - start + statistics.median(p.total_s for p in passes) <= seconds:
            passes.append(run_pass(workload, ops))
        latencies = [t for p in passes for t in p.latencies_s]
        tail_s, tail_pct, beyond = tail(latencies, len(ops))
        metrics = {
            "setup_s": statistics.median(p.setup_s for p in passes),
            "total_s": statistics.median(p.total_s for p in passes),
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "op_tail_ms": 1e3 * tail_s,
            "peak_rss_mb": peak_rss_mb(),
        }
        units = E2E_METRICS
        notes.append(f"setup_s and total_s are medians over {len(passes)} pass(es) "
                     f"of {len(ops)} ops each")
        notes.append(f"op_p50_ms and op_tail_ms are over all {len(latencies)} ops; "
                     f"op_tail_ms is p{tail_pct:.1f}, {beyond} ops beyond it")
    return RunResult(workload.name, seed, passes, metrics, units, reference, notes)


def report_lines(result):
    """Human-readable lines, then the one-line JSON summary last."""
    lines = [f"workload {result.workload} seed {result.seed}: "
             f"{len(result.passes)} pass(es), {result.attempted} ops"]
    for name, unit in result.units.items():
        lines.append(f"{name:32s} {result.metrics[name]:.6g} {unit}")
    frac = result.failed / result.attempted
    lines.append(f"{'failed_frac':32s} {frac:.6g} ratio ({result.failed}/{result.attempted})")
    for p in result.passes:
        if result.reference is None:
            state = "not checked: no reference recorded"
        else:
            state = "match" if p.digest == result.reference else \
                f"MISMATCH (reference {result.reference})"
        lines.append(f"digest {p.digest}: {state}")
        lines.extend(f"error {e}" for e in p.errors[:5])
    lines.extend(f"note {n}" for n in result.notes)
    summary = {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": result.metrics[name], "unit": unit}
                    for name, unit in result.units.items()},
    }
    lines.append(json.dumps(summary))
    return lines
