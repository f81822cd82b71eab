#!/usr/bin/env python3
"""Solver benchmark: one workload, one seed, one closed-loop caller.

    python3 bench/run.py --workload opp_search --seed 1 --seconds 15 --trace 0

Run it from the repository root; it imports the package from ``src/``
and reads the metric names and units from ``BENCHMARK.json``.  One
caller makes the workload's calls back to back for at least
``--seconds`` seconds, in whole rounds, then checks every output.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced rounds and reports the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Result
and trace files go to ``bench/out/``.
"""

import os
import sys

# Cap BLAS and OpenMP pools at the cores this process may run on; this
# has to happen before numpy is imported.
_CORES = str(len(os.sched_getaffinity(0)))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = _CORES

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("opp_search", "mechanisms", "user_sweep")
FRESH_SETUPS = 2
SETUP_PROBES = 3
# op_s and setup_s are scaled to the machine speed at which speed_probe()
# takes PROBE_REF_S seconds (about its time on a quiet 2-core virtual machine)
PROBE_REF_S = 0.05
PROBE_LOOP = 400_000
PROBE_ARRAY = 400_000


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=int, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def metric_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {group: {m["name"]: m["unit"] for m in spec[group]} for group in ("end_to_end", "per_layer")}


def set_up(args, out_dir: Path):
    """Import the package, generate the seeded inputs and warm up.

    Returns the workload, the call table and the seconds all of it took,
    as measured and at reference speed.
    """
    start = time.perf_counter()
    if not (SRC / "prompt_pricing" / "__init__.py").is_file():
        raise SystemExit(f"package sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    workload.generate()
    api = workloads.Api()
    workload.warm_up(api)
    seconds = time.perf_counter() - start
    probes = [speed_probe() for _ in range(SETUP_PROBES)]
    return workload, api, (seconds, at_reference_speed(seconds, probes))


def fresh_setup_seconds(args, k: int) -> tuple[float, float]:
    """Set-up time of the same workload and seed in a new interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only", str(k)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    return tuple(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def speed_probe() -> float:
    """Seconds taken by a fixed mix of interpreter and numpy work.

    The machine's speed drifts by a third or more over minutes when other
    tenants load it; the probe, run between timed calls, tracks that.
    """
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOP):
        total += i * i
    values = np.linspace(0.01, 0.99, PROBE_ARRAY)
    for _ in range(8):
        values = np.sqrt(np.log1p(values) + 0.25)
    return time.perf_counter() - start


def at_reference_speed(seconds: float, probes: list[float]) -> float:
    """Scale a measured time to the speed at which the probe takes PROBE_REF_S."""
    return seconds * PROBE_REF_S / statistics.fmean(probes)


def drop_outputs(workload, first, calls, label: str) -> list[str]:
    """Check a later round against the first one, then free its outputs.

    Every round must return exactly what the first one returned.
    """
    bad = []
    for i, c in enumerate(calls):
        if (c.error is None and first[i].error is None
                and workload.output_key(c) != workload.output_key(first[i])):
            bad.append(f"{label}: call {i} ({c.kind}) returned a different output")
        c.output = None
    return bad


def checked_calls(calls):
    """The calls of every operation that had no failed call."""
    failed_ops = {c.op for c in calls if c.error is not None}
    return [c for c in calls if c.op not in failed_ops]


def op_times(rec) -> list[tuple[float, float]]:
    """(seconds, seconds at reference speed) of each operation of a round.

    An operation's time is the sum of its calls' times; the probes taken
    just before and just after it give the speed it ran at.
    """
    per_op: dict[int, float] = {}
    for c in rec.calls:
        per_op[c.op] = per_op.get(c.op, 0.0) + c.seconds
    return [(t, at_reference_speed(t, rec.probes[k:k + 2])) for k, t in enumerate(per_op.values())]


def run_untraced(args, workload, api, setup_local):
    """Whole rounds for ``--seconds``; the end-to-end metrics.

    ``op_s`` is the mean over a round's operations of each operation's
    median time across rounds, so a change to any one input moves it.
    """
    first, calls, ops, probes, problems = None, [], [], [], []
    start = time.perf_counter()
    while True:
        rec, _ = workload.timed_round(api, probe=speed_probe)
        ops.append(op_times(rec))
        probes.append(rec.probes)
        if first is None:
            first = rec.calls
        else:
            problems += drop_outputs(workload, first, rec.calls, f"round {len(calls) // len(first)}")
        calls += rec.calls
        if time.perf_counter() - start >= args.seconds:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # after the loop, so that these child processes do not slow the first
    # speed probe and skew the first operation's scaled time
    setups = [setup_local] + [fresh_setup_seconds(args, k) for k in range(1, FRESH_SETUPS + 1)]
    metrics = {
        "setup_s": statistics.median(norm for _, norm in setups),
        "peak_rss_mb": peak_mb,
        "op_s": statistics.fmean(statistics.median(norm for _, norm in same) for same in zip(*ops)),
    }
    detail = {"setup_s": setups, "op_s": ops, "probes": probes, "rounds": len(calls) // len(first)}
    return first, calls, metrics, detail, problems


def run_traced(args, workload, api, units):
    """Alternate untraced and traced rounds; per-layer figures and overhead."""
    import prompt_pricing
    from tracing import LAYERS, Tracer

    tracer = Tracer()
    traced_api = tracer.wrap_api(api)
    first, calls, plain_recs, plain_s, traced_s, layer_rounds, problems = None, [], [], [], [], [], []
    start = time.perf_counter()
    while True:
        rec, seconds = workload.timed_round(api)
        plain_s.append(seconds)
        plain_recs.append(rec)
        if first is None:
            first = rec.calls
        else:
            problems += drop_outputs(workload, first, rec.calls, f"untraced round {len(plain_s) - 1}")
        base = 1000 * len(traced_s)

        def on_call(op, base=base):
            tracer.current_op = base + op

        tracer.install(prompt_pricing)
        first_span = tracer.spans()
        try:
            traced, seconds = workload.timed_round(traced_api, on_call)
        finally:
            tracer.uninstall()
        traced_s.append(seconds)
        layer_rounds.append(tracer.layer_totals(first_span))
        if first_span:  # keep the first traced round's spans only, to bound memory
            tracer.truncate(first_span)
        problems += drop_outputs(workload, first, traced.calls, f"traced round {len(traced_s) - 1}")
        calls += rec.calls + traced.calls
        if time.perf_counter() - start >= args.seconds:
            break
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tracer.save(OUT_DIR / f"{args.workload}-s{args.seed}-trace.npz")

    counts = [{layer: totals[0] for layer, totals in t.items()} for t in layer_rounds]
    if any(c != counts[0] for c in counts[1:]):
        problems.append(f"per-layer call counts differ between traced rounds: {counts}")
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = counts[0].get(layer, 0)
        metrics[f"{layer}.self_s"] = statistics.median(t.get(layer, (0, 0.0))[1] for t in layer_rounds)
    metrics["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(plain_s)
    metrics.update(workload.derived([r.calls for r in plain_recs]))
    for name in units:  # figures of solvers this workload does not call
        metrics.setdefault(name, 0.0)
    detail = {"untraced_round_s": plain_s, "traced_round_s": traced_s,
              "spans_per_round": sum(n for n, _ in layer_rounds[0].values()), "layers": layer_rounds}
    return first, calls, metrics, detail, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    units = metric_units()
    if args.setup_only is not None:
        _, _, seconds = set_up(args, OUT_DIR / f"{args.workload}-s{args.seed}-setup{args.setup_only}")
        print(json.dumps({"setup_s": seconds}))
        return 0
    workload, api, setup_local = set_up(args, OUT_DIR / f"{args.workload}-s{args.seed}")
    if args.trace:
        first, calls, metrics, detail, problems = run_traced(args, workload, api, units["per_layer"])
        group = "per_layer"
    else:
        first, calls, metrics, detail, problems = run_untraced(args, workload, api, setup_local)
        group = "end_to_end"
    failed = [c for c in calls if c.error is not None]
    for c in failed[:5]:
        print(f"failed {c.kind}: {c.error}", file=sys.stderr)
    check_start = time.perf_counter()
    problems += workload.check(checked_calls(first), api)
    detail["check_s"] = time.perf_counter() - check_start
    for line in problems:
        print(f"check: {line}", file=sys.stderr)

    missing = set(units[group]) - set(metrics)
    if missing:
        raise SystemExit(f"metrics not measured: {sorted(missing)}")
    result = {
        "correct": not problems,
        "attempted": len(calls),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units[group].items()},
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({"result": result, "detail": detail, "problems": problems}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
