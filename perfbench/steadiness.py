"""Run-to-run steadiness check of the benchmark itself.

Runs one workload once per seed, ``--rounds`` times over the same
seeds, and reports for each end-to-end metric the interquartile range
of its values across seeds as a share of their median, next to the
metric's bound (the spread should stay under a third of it; ``setup_s``
is exempt).  With two rounds it also checks that the second round's
median is not worse than the first's by more than the bound, and that
each seed's digest and work counters repeat exactly::

    python3 perfbench/steadiness.py --workload steady --seeds 1-10 --rounds 2

Exits non-zero when any check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def one_run(workload: str, seed: int, seconds: float) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.strip().startswith("digest"):
            result["digest"] = line.split()[-1]
        elif line.strip().startswith("counters"):
            result["counters"] = json.loads(line.split(None, 1)[1])
        elif line.strip().startswith("raw wall"):
            result["raw"] = json.loads(line.split(None, 2)[2])
    result["wall_s"] = time.perf_counter() - start
    return result


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(spec.WORKLOADS_BY_NAME))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)

    rounds = []
    ok = True
    for round_index in range(args.rounds):
        runs = []
        for seed in seeds:
            run = one_run(args.workload, seed, args.seconds)
            if not run["correct"] or run["failed"]:
                print(f"seed {seed}: INCORRECT ({run['failed']} failed)")
                ok = False
            values = " ".join(
                f"{name}={entry['value']:.6g}"
                for name, entry in run["metrics"].items()
            )
            print(f"seed {seed}: {run['wall_s']:.1f} s {values}", flush=True)
            runs.append(run)
        rounds.append(runs)
        walls = [run["wall_s"] for run in runs]
        print(f"round {round_index + 1}: {len(runs)} runs, wall per run "
              f"median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s")

    print(f"{'metric':20s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for metric in spec.END_TO_END:
        medians = []
        for runs in rounds:
            values = [run["metrics"][metric.name]["value"] for run in runs]
            medians.append(statistics.median(values))
            width = spread(values)
            limit = metric.bound / 3
            flag = ""
            if metric.name != "setup_s" and width > limit:
                flag = "  SPREAD > bound/3"
                ok = ok and width <= metric.bound
            print(f"{metric.name:20s} {medians[-1]:12.6g} {width:8.4f} "
                  f"{metric.bound:6.3f}{flag}")
        raw = [run["raw"][metric.name] for runs in rounds for run in runs
               if metric.name in run.get("raw", {})]
        if len(raw) >= 4:
            print(f"{'  raw wall':20s} {statistics.median(raw):12.6g} "
                  f"{spread(raw):8.4f}")
        for first, later in zip(medians, medians[1:]):
            worse = (first - later) / first if metric.better == "higher" \
                else (later - first) / first
            if worse > metric.bound:
                print(f"{metric.name}: later round worse by {worse:.3f}")
                ok = False

    for seed_index, seed in enumerate(seeds):
        seen = {(runs[seed_index].get("digest"),
                 json.dumps(runs[seed_index].get("counters"), sort_keys=True))
                for runs in rounds}
        if len(seen) > 1:
            print(f"seed {seed}: digest or counters differ between rounds")
            ok = False
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
