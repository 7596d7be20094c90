"""Serving-stack benchmark of the Tacker reproduction.

Replays LC query traces through a scheduler policy over the simulated
GPU, from outside the program, and reports host speed, cold set-up
cost, memory and the simulated QoS outcome of each workload::

    python3 perfbench/run.py --workload steady --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload
    python3 perfbench/run.py --workload steady --seed 1 --trace 1   # per layer
    python3 perfbench/run.py --write-manifest   # regenerate BENCHMARK.json

Each run happens in a child process whose environment holds none of
the program's global switches and whose oracle store is a private,
initially empty directory under ``.perfbench_work/`` (removed
afterwards), so the repository's ``.repro_cache`` is never touched.
The last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; lines before it print each
metric with its unit, the digest of the simulated outputs and the
run's deterministic work counters.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

ROOT = HERE.parent

#: Program switches that must never leak into a workload from outside.
STRIPPED_ENV = (
    "REPRO_AUDIT", "AUDIT", "REPRO_TELEMETRY", "REPRO_QUICK",
    "REPRO_WORKERS", "REPRO_FASTPATH", "REPRO_ORACLE_CACHE",
    "REPRO_SCENARIOS", "REPRO_IN_WORKER", "REPRO_CACHE_DIR", "PYTHONPATH",
)

#: Wall-clock limit of one child run, in seconds.
CHILD_TIMEOUT_S = 170


def child_env(store: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_CACHE_DIR"] = str(store)
    return env


def run_child(workload: str, seed: int, seconds: float, trace: int,
              tiny: bool, setup_only: bool = False) -> dict:
    """Run the harness in an isolated child; returns its JSON report."""
    if not (ROOT / "src" / "repro").is_dir():
        raise RuntimeError(f"no program sources under {ROOT / 'src'}")
    work = ROOT / ".perfbench_work" / f"{workload}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out = ROOT / ".perfbench_out"
    command = [
        sys.executable, str(HERE / "harness.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--work", str(work),
        "--trace-out", str(out / f"trace-{workload}-seed{seed}.json"),
    ] + (["--tiny"] if tiny else []) + (
        ["--setup-only"] if setup_only else []
    )
    if trace:
        out.mkdir(exist_ok=True)
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=child_env(work / "store"),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(
            f"workload {workload} exited with code {proc.returncode}"
        )
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 tiny: bool) -> dict:
    """One run; an untraced run's ``setup_s`` is a median of fresh
    processes (the program memoizes simulations per process)."""
    extra = 0 if trace or tiny else spec.SETUP_REPEATS - 1
    setups = [
        run_child(workload, seed, seconds, trace, tiny, setup_only=True)
        for _ in range(extra)
    ]
    report = run_child(workload, seed, seconds, trace, tiny)
    if not trace:
        details = report["report"]
        ref = [s["setup_s"] for s in setups] + [report["metrics"]["setup_s"]]
        raw = [s["raw_setup_s"] for s in setups] + [details["raw"]["setup_s"]]
        report["metrics"]["setup_s"] = statistics.median(ref)
        details["raw"]["setup_s"] = statistics.median(raw)
        details["setup_ref_s"] = ref
    return report


def result_line(report: dict, trace: int) -> dict:
    """The contract's final JSON object, after checking completeness."""
    wanted = spec.PER_LAYER if trace else spec.END_TO_END
    metrics = {}
    for metric in wanted:
        value = report["metrics"].get(metric.name)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise RuntimeError(f"metric {metric.name} missing or not finite")
        metrics[metric.name] = {"value": value, "unit": metric.unit}
    return {
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }


def print_report(workload: str, seed: int, report: dict, line: dict) -> None:
    print(f"== {workload} (seed {seed})")
    for name, entry in line["metrics"].items():
        print(f"  {name:34s} {entry['value']:>16.6g} {entry['unit']}")
    details = report["report"]
    print(f"  digest   {details['digest']}")
    print(f"  counters {json.dumps(details['counters'], sort_keys=True)}")
    if "raw" in details:
        print(f"  raw wall {json.dumps(details['raw'], sort_keys=True)}")
    walls = {k: [round(w, 4) for w in v] for k, v in details.items()
             if k.endswith("_s") and isinstance(v, list)}
    print(f"  walls    {json.dumps(walls, sort_keys=True)}")
    verdict = "correct" if line["correct"] else "INCORRECT"
    print(f"  verdict  {verdict}: {line['failed']} of {line['attempted']} "
          "queries failed")
    for error in report.get("errors", []):
        print(f"  error    {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=sorted(spec.WORKLOADS_BY_NAME) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload (smoke tests)")
    parser.add_argument("--write-manifest", action="store_true",
                        help="regenerate BENCHMARK.json and exit")
    args = parser.parse_args(argv)

    if args.write_manifest:
        path = ROOT / "BENCHMARK.json"
        path.write_text(json.dumps(spec.manifest(), indent=2) + "\n")
        print(f"wrote {path}")
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    names = (
        [w.name for w in spec.WORKLOADS] if args.workload == "all"
        else [args.workload]
    )
    lines = []
    try:
        for name in names:
            report = run_workload(name, args.seed, args.seconds,
                                  args.trace, args.tiny)
            line = result_line(report, args.trace)
            print_report(name, args.seed, report, line)
            lines.append(line)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError,
            KeyError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    if len(lines) == 1:
        print(json.dumps(lines[0]))
    else:
        print(json.dumps({
            "correct": all(line["correct"] for line in lines),
            "attempted": sum(line["attempted"] for line in lines),
            "failed": sum(line["failed"] for line in lines),
            "metrics": {
                f"{name}/{metric}": entry
                for name, line in zip(names, lines)
                for metric, entry in line["metrics"].items()
            },
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
