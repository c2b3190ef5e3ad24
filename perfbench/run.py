"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload clean_part --seed 11 --seconds 30 --trace 0

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  The program is imported from the
checkout's ``src/``.  A traced run writes its spans to
``.perfbench_out/spans-<workload>-seed<seed>.json`` when it ends.  A
failed output check prints the result with ``correct`` false and exits
with status 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("clean_part", "clean_dblp", "serve_part", "churn_part")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    out = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    if out.spans:
        target = ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.json"
        target.parent.mkdir(exist_ok=True)
        target.write_text(json.dumps(out.spans))
    for line in out.info:
        print(line)
    print(f"{args.workload}: failed_ratio={out.failed}/{out.attempted}")
    for problem in out.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": out.metrics,
    }))
    return 0 if out.correct else 1


if __name__ == "__main__":
    sys.exit(main())
