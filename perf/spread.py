#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

    python3 perf/spread.py --workload offline --runs 10 [--first-seed 1]
        [--seconds S] [--trace 0|1] [--save runs.json]
    python3 perf/spread.py --compare first.json second.json

The first form runs perf/run.py once per seed (first-seed, first-seed+1, ...)
and prints, for every metric, the median and quartiles over the runs
(statistics.quantiles(values, n=4)) and the quartile spread as a share of
the median, next to the metric's bound from BENCHMARK.json. The second form
reads two saved sets of runs of the same workload and prints how far the
second median moved from the first, as a share of the first, against the
bound (positive = worse in the metric's better-direction).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perf" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().split("\n")
    if out.returncode != 0:
        sys.stderr.write(out.stdout + out.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {out.returncode}")
    result = json.loads(lines[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def print_spread(workload, runs, spec):
    print(f"{workload}: {len(runs)} runs")
    print(f"  {'metric':<28} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}")
    for name in runs[0]:
        values = [r[name] for r in runs]
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / med if med else float("nan")
        bound = spec.get(name, {}).get("bound")
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  > bound/3"
        print(f"  {name:<28} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
              f"{spread:>8.2%} {bound if bound is not None else '':>6}{flag}")


def compare(first_path, second_path, spec):
    first = json.loads(Path(first_path).read_text())
    second = json.loads(Path(second_path).read_text())
    print(f"{first['workload']}: {len(first['runs'])} vs "
          f"{len(second['runs'])} runs")
    worst_ok = True
    for name in first["runs"][0]:
        m1 = statistics.median(r[name] for r in first["runs"])
        m2 = statistics.median(r[name] for r in second["runs"])
        entry = spec.get(name, {})
        sign = -1.0 if entry.get("better") == "higher" else 1.0
        worse = sign * (m2 - m1) / m1 if m1 else 0.0
        bound = entry.get("bound")
        ok = bound is None or worse <= bound
        worst_ok = worst_ok and ok
        print(f"  {name:<28} {m1:>14.6g} {m2:>14.6g} {worse:>+8.2%} "
              f"{bound if bound is not None else '':>6}"
              f"{'' if ok else '  WORSE THAN BOUND'}")
    return 0 if worst_ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--save")
    parser.add_argument("--compare", nargs=2, metavar="RUNS_JSON")
    args = parser.parse_args()
    spec = load_spec()
    if args.compare:
        sys.exit(compare(*args.compare, spec))
    if not args.workload:
        parser.error("--workload is required unless --compare is given")
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())[
            "run_seconds"]
    runs = []
    for i in range(args.runs):
        seed = args.first_seed + i
        runs.append(run_once(args.workload, seed, seconds, args.trace))
        print(f"  seed {seed}: " + ", ".join(
            f"{k}={v:.6g}" for k, v in runs[-1].items()), flush=True)
    print_spread(args.workload, runs, spec)
    if args.save:
        Path(args.save).write_text(json.dumps(
            {"workload": args.workload, "seconds": seconds, "runs": runs},
            indent=1))


if __name__ == "__main__":
    main()
