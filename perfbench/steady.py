"""Run each workload repeatedly and report how steady its metrics are.

    python3 perfbench/steady.py --runs 10 --first-seed 1

Each run is ``run.py`` in a child process, with seeds first-seed,
first-seed + 1, ...; the run length is ``run_seconds`` from
BENCHMARK.json.  For every end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``), the spread
(q3 - q1) / median and the metric's bound.  A spread up to a third of
the bound is marked ``steady``.  ``--runs 1`` runs every workload once
from one seed.
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
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0 or not done.stdout.strip():
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    metrics = spec["end_to_end"]

    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run_once(workload, seed, spec["run_seconds"])
            results.append(result)
            values = " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.6g}"
                              for m in metrics)
            print(f"{workload} seed={seed} correct={result['correct']}"
                  f" attempted={result['attempted']} failed={result['failed']} {values}",
                  flush=True)
            ok &= result["correct"]
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{workload}: failed share per run {shares}")
        for metric in metrics:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            median = statistics.median(values)
            if len(values) < 2:
                print(f"  {metric['name']:<14} {median:.6g} {metric['unit']}")
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            bound = metric["bound"]
            mark = "steady" if spread <= bound / 3 else "within bound" if spread <= bound else "TOO WIDE"
            print(f"  {metric['name']:<14} median {median:.6g} {metric['unit']}"
                  f"  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}"
                  f"  bound {bound}  {mark}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
