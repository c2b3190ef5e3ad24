"""Check that the benchmark is steady: run a workload on several seeds and
report each end-to-end metric's quartile spread against its bound.

Usage (from the root of a checkout)::

    python3 perfbench/spread.py --workload serve_part --seeds 1-10

For each metric it prints the median, the distance between the first and
third quartile as a share of the median, and a third of the metric's
``bound`` from ``BENCHMARK.json`` — the spread a steady benchmark stays
under.  Per-run results are appended as JSON lines to ``--log`` when
given.  Exits 1 when a run fails or is incorrect.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import measure

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", type=seed_list)
    parser.add_argument("--log")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {m["name"]: [] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if proc.returncode != 0 or not result.get("correct"):
            ok = False
            print(f"seed {seed}: FAILED (exit {proc.returncode})\n{proc.stderr}")
            continue
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
        ), flush=True)
        if args.log:
            with open(args.log, "a") as log:
                log.write(json.dumps({"workload": args.workload, "seed": seed,
                                      **result}) + "\n")
    if len(next(iter(values.values()))) >= 2:
        for name, vals in values.items():
            share = measure.spread(vals)
            flag = "" if share < bounds[name] / 3 or name == "setup_s" else "  <-- over"
            print(f"{name:18s} median={statistics.median(vals):.5g} "
                  f"spread={share:.4f} bound/3={bounds[name] / 3:.4f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
