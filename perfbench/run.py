"""Run one benchmark workload against the library in ``src/`` of this checkout.

    python3 perfbench/run.py --workload classpoly-spec --seed 0 --seconds 10 --trace 0

Workloads: classpoly-spec, classpoly-symbolic, reduce-center.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics and the tracing overhead.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every operation was certified and
the results match the recorded digest; it is 2 when the library sources are
missing and nothing was run.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, workloads=None):
    args = parse_args(argv)
    if not (SRC / "cyclohecke" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench.harness import reference_digest, report_lines, run_workload
    if workloads is None:
        from perfbench.workloads import WORKLOADS
        workloads = {name: cls() for name, cls in WORKLOADS.items()}
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads)}", file=sys.stderr)
        return 2
    result = run_workload(workloads[args.workload], args.seed, args.seconds,
                          bool(args.trace), reference_digest(args.workload))
    print("\n".join(report_lines(result)), flush=True)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
