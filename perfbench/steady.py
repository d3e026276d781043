#!/usr/bin/env python3
"""Steadiness check: run each workload repeatedly, one seed per run, and
print each end-to-end metric's median, quartiles and spread per workload.

    python3 perfbench/steady.py --runs 10 --first-seed 1 --save a.json
    python3 perfbench/steady.py --runs 10 --first-seed 11 --against a.json

Every workload declared in BENCHMARK.json runs at its ``run_seconds``.
Spread is (q3 - q1) / median with quartiles from
``statistics.quantiles(values, n=4)``. A metric is marked ``wide`` when its
spread exceeds a third of its bound in BENCHMARK.json. With ``--against``
each median is compared with the one saved earlier and marked ``worse``
when it moved the wrong way by more than the bound. Runs are sequential; each is one ``run.py`` process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed operations")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarise(values: list[float]) -> tuple[float, float, float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save", type=Path, help="write the raw values here as JSON")
    parser.add_argument("--against", type=Path, help="compare medians with a saved set")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    earlier = json.loads(args.against.read_text()) if args.against else {}
    values: dict[str, dict[str, list[float]]] = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            runs.append(run_once(workload, seed, spec["run_seconds"]))
            print(f"{workload} seed {seed}: {runs[-1]}", file=sys.stderr, flush=True)
        values[workload] = {name: [run[name] for run in runs] for name in metrics}

    steady = True
    print(f"{'workload':14} {'metric':16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}  note")
    for workload, by_metric in values.items():
        for name, series in by_metric.items():
            median, q1, q3, spread = summarise(series)
            bound = metrics[name]["bound"]
            notes = []
            if spread > bound / 3:
                notes.append("wide")
            if workload in earlier:
                before = statistics.median(earlier[workload][name])
                change = (median - before) / before
                if metrics[name]["better"] == "higher":
                    change = -change
                notes.append(f"{change:+.1%} vs saved")
                if change > bound:
                    notes.append("worse")
            steady &= not any(note in ("wide", "worse") for note in notes)
            print(f"{workload:14} {name:16} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.1%} {bound:6.0%}  {' '.join(notes)}")
    if args.save:
        args.save.write_text(json.dumps(values, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
