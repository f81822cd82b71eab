#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics over seeds.

    python3 bench/spread.py --seeds 1-10 [--workload opp_search ...]

Runs ``bench/run.py`` once per workload and seed, one run at a time,
with the run length from ``BENCHMARK.json``; a seed may repeat
(``--seeds 1,1``) to compare runs of the same inputs.  For each metric it prints
the median, the quartiles (``statistics.quantiles(values, n=4)``) and
their distance as a share of the median, next to the metric's bound.
Each run's result line is appended to ``bench/out/spread.jsonl``.
Exits with code 1 if a run fails or reports ``correct: false``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    log = BENCH_DIR / "out" / "spread.jsonl"
    log.parent.mkdir(parents=True, exist_ok=True)
    ok = True
    for workload in args.workload or names:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        shares = set()
        for seed in args.seeds:
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed",
                   str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            with open(log, "a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            ok &= result["correct"]
            shares.add(result["failed"] / result["attempted"])
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload}: {len(args.seeds)} runs, failed shares {sorted(shares)}")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print(f"  {name:40s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {(q3 - q1) / med:7.4f}  bound {bounds[name]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
