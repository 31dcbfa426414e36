"""Run one workload of the timed benchmark and print its result.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-hotspot --seed 1 --seconds 30 --trace 0

Workloads: ``serve-hotspot``, ``sim-la``, ``snnn-road``
(see ``perfbench/METRICS.md``).  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the workload with the layer entry points
wrapped in spans and prints the per-layer metrics, writing the spans to
``perfbench/out/``.  The last stdout line is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it lists every measured metric with its unit.

Exit codes: 0 correct, 1 a wrong answer or failed operation, 2 the
program sources are missing, 3 the run is invalid (the load generator
fell behind its schedule).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:
    from perfbench.common import WorkloadResult

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("serve-hotspot", "sim-la", "snnn-road")


def _run(workload: str, seed: int, seconds: float, trace: bool) -> "WorkloadResult":
    if workload == "serve-hotspot":
        from perfbench import serve

        return serve.run(serve.HOTSPOT, seed, seconds, trace)
    if workload == "sim-la":
        from perfbench import simla

        return simla.run(seed, seconds, trace)
    from perfbench import snnnroad

    return snnnroad.run(seed, seconds, trace)


def main(argv: Optional[List[str]] = None) -> int:
    """Parse arguments, run the workload, print the result line."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.catalog import END_TO_END, complete_layers

    trace = bool(args.trace)
    result = _run(args.workload, args.seed, args.seconds, trace)
    if trace:
        result.metrics = complete_layers(result.metrics)
    elif set(result.metrics) != set(END_TO_END):
        raise RuntimeError(f"end-to-end metrics differ from the catalogue: {sorted(result.metrics)}")
    print(result.report_line(args.workload))
    for note in result.notes:
        print(f"perfbench: {note}", file=sys.stderr)
    if any(note.startswith("rejected") for note in result.notes):
        return 3
    print(result.result_line())
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
