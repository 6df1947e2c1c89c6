"""The benchmark's own tests, on tiny inputs:

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import run  # noqa: E402
from perfbench.harness import run_workload, tail  # noqa: E402
from perfbench.trace import BOUNDARIES, Tracer, wrapped_targets  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    CheckFailed,
    ClassPolySpec,
    ClassPolySymbolic,
    Op,
    ReduceCenter,
)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(workload):
    # a name without a recorded reference digest
    workload.name = f"tiny-{workload.name}"
    return workload


TINY = [
    lambda: tiny(ClassPolySpec(r=2, n=2)),
    lambda: tiny(ClassPolySymbolic(cases=(((1, 2), "fg"),))),
    lambda: tiny(ReduceCenter(groups=((2, 2),), points=((2, 2, 2, (1, 100)),))),
]


def run_main(workload, capsys, *extra):
    code = run.main(["--workload", workload.name, "--seed", "3", "--seconds", "0",
                     *extra], workloads={workload.name: workload})
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("make", TINY)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_prints_every_named_metric_with_its_unit(make, trace, capsys):
    code, lines, summary = run_main(make(), capsys, "--trace", trace)
    wanted = BENCHMARK["end_to_end" if trace == "0" else "per_layer"]
    assert code == 0
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] > 0
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert {m["name"]: m["unit"] for m in wanted} == \
        {name: v["unit"] for name, v in summary["metrics"].items()}
    for m in wanted:
        assert any(line.split()[:1] == [m["name"]] and line.split()[2] == m["unit"]
                   for line in lines[:-1]), m["name"]
    assert any(line.startswith("failed_frac") for line in lines)


def test_failed_op_counts_in_failed_frac(capsys):
    workload = TINY[0]()
    good = workload.inputs

    def inputs(seed):
        ops = good(seed)

        def broken(state):
            raise CheckFailed("made to fail")
        return [Op(ops[0].key, broken, ops[0].fmt)] + ops[1:]

    workload.inputs = inputs
    code, lines, summary = run_main(workload, capsys)
    assert code == 1
    assert summary["correct"] is False
    assert summary["failed"] == 1
    frac_line = next(line for line in lines if line.startswith("failed_frac"))
    assert float(frac_line.split()[1]) == 1 / summary["attempted"]


def test_tail_percentile_does_not_depend_on_the_number_of_passes():
    one_pass = [float(i) for i in range(20)]
    assert tail(one_pass, 20) == (9.0, 50.0, 10)
    assert tail(one_pass * 3, 20) == (9.0, 50.0, 30)


def test_digest_mismatch_fails_every_op_of_the_pass():
    result = run_workload(TINY[2](), seed=0, seconds=0, trace=False, reference="0" * 64)
    assert result.failed == result.attempted and not result.correct


def test_digest_is_independent_of_issue_order():
    a = run_workload(TINY[2](), seed=0, seconds=0, trace=False)
    b = run_workload(TINY[2](), seed=5, seconds=0, trace=False)
    assert a.passes[0].digest == b.passes[0].digest


def test_traced_run_restores_every_wrapped_attribute(capsys):
    before = wrapped_targets()
    assert {b for *_, b in before} == set(BOUNDARIES)
    for make in TINY:
        code, _, summary = run_main(make(), capsys, "--trace", "1")
        assert code == 0
    for owner, name, original, _ in before:
        assert vars(owner)[name] is original, (owner, name)
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("leave the block early")
    for owner, name, original, _ in before:
        assert vars(owner)[name] is original, (owner, name)


def test_trace_counts_reflected_operators_bound_as_aliases():
    from cyclohecke.rings import Laurent
    x = Laurent.var_xi(1)
    with Tracer() as tracer:
        assert 1 + x == x + 1          # int on the left: Laurent.__radd__
        assert 2 * x == x + x          # Laurent.__rmul__, then __add__
    assert tracer.calls["rings.laurent"] == 4


def test_trace_counts_calls_on_the_layers_a_workload_uses():
    result = run_workload(TINY[2](), seed=0, seconds=0, trace=True)
    m = result.metrics
    assert m["reduction.reduce.calls"] == 8
    assert m["reduction.verify.calls"] == 16        # inside reduce, then replayed
    assert m["reduction.reduce.steps"] > 0
    assert m["center.subspace.calls"] >= 2
    assert m["seminormal.character.calls"] == 0
    assert m["trace.overhead"] > 0


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reduce-center", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
