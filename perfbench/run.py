"""Benchmark for deltaplus: one workload per invocation.

    python3 perfbench/run.py --workload tau-large --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``
there.  Set-up is repeated SETUP_REPEATS times (a fresh import of the
package each time) and reported as a median.  Then whole rounds of the
workload's operations run, one after another in this one process, until
``--seconds`` have passed (at least two rounds, so that every output is
replayed).  Outputs are checked after the timed rounds.

With ``--trace 1`` one more round runs with the layer wrappers of
``layertrace.py`` installed, and the per-layer metrics of that round are
reported instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = HERE / "work"
SETUP_REPEATS = 25
MIN_ROUNDS = 2

sys.path[:0] = [str(HERE), str(SRC)]

from workloads import WORKLOADS  # noqa: E402


def fresh_import():
    """Import ``deltaplus`` from this checkout's ``src``, discarding any
    copy imported before, so that every set-up pays the import."""
    for name in [n for n in sys.modules if n.split(".")[0] == "deltaplus"]:
        del sys.modules[name]
    dp = importlib.import_module("deltaplus")
    importlib.import_module("deltaplus.cli")
    if not Path(dp.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"deltaplus imported from {dp.__file__}, not from {SRC}")
    return dp


def run_round(ops, outcomes, latencies):
    """Run every op once; return the round's time and its units of work
    per second of operation time."""
    units, busy = 0, 0.0
    start = perf_counter()
    for i, op in enumerate(ops):
        t0 = perf_counter()
        try:
            text, work, payload = op.run()
        except Exception as exc:  # an op that raises counts as failed
            text, work, payload = f"raised {exc!r}", 0, exc
        spent = perf_counter() - t0
        latencies[i].append(spent)
        # Later rounds are compared by text, so only the first payload is kept.
        outcomes[i].append((text, None if outcomes[i] else payload))
        units += work
        busy += spent
    return perf_counter() - start, units / busy


def failures(ops, outcomes):
    """Failed op instances per op: an exception, a failed check of the
    first round's output, or a re-run whose output differs from it.  Also
    whether each op is right: it failed nowhere, or every round of it
    showed exactly its known fault."""
    failed, right = [], []
    for op, runs in zip(ops, outcomes):
        first_text, first_payload = runs[0]
        raised = isinstance(first_payload, Exception)
        if raised:
            problems = [first_text]
        else:
            try:
                problems = op.check(first_payload)
            except Exception as exc:  # a check that cannot run is a failed check
                problems = [f"check raised {exc!r}"]
        differ = sum(text != first_text for text, _ in runs[1:])
        count = len(runs) if problems else differ
        known = bool(problems) and not raised and not differ and op.shows_fault(first_payload)
        if count and not known:
            detail = "; ".join(problems) or "re-run output differs from the first run"
            print(f"FAILED {op.label}: {detail}", file=sys.stderr)
        failed.append(count)
        right.append(known or count == 0)
    return failed, right


def per_layer_metrics(names, tracer, overhead_s):
    metrics = {}
    for name in names:
        layer, _, measure = name.rpartition(".")
        if name == "trace.overhead_s":
            value, unit = overhead_s, "s"
        elif name == "trace.spans":
            value, unit = len(tracer.spans), "count"
        elif measure == "self_s":
            value, unit = tracer.self_s.get(layer, 0.0), "s"
        elif measure in ("calls", "new"):
            value, unit = tracer.calls.get(layer, 0), "count"
        else:
            value, unit = tracer.work.get(name, 0), "count"
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "deltaplus" / "__init__.py").is_file():
        print(f"run.py: no package source at {SRC}", file=sys.stderr)
        return 2
    # Operand files of this run only, so that runs side by side in one
    # checkout do not overwrite each other's inputs.
    run_dir = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        dp = fresh_import()
        ops = WORKLOADS[args.workload](dp, args.seed, run_dir)
        setup_times.append(perf_counter() - start)

    outcomes = [[] for _ in ops]
    latencies = [[] for _ in ops]
    round_times, rates = [], []
    loop_start = perf_counter()
    while len(round_times) < MIN_ROUNDS or perf_counter() - loop_start < args.seconds:
        gc.collect()  # every round starts from a collected heap
        elapsed, rate = run_round(ops, outcomes, latencies)
        round_times.append(elapsed)
        rates.append(rate)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    headline = [t for op, times in zip(ops, latencies) if op.headline for t in times]

    if args.trace:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install(dp)
        gc.collect()
        try:
            traced_time, _ = run_round(ops, outcomes, [[] for _ in ops])
        finally:
            tracer.uninstall()
        tracer.write_spans(WORK_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
        layer_names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
        metrics = per_layer_metrics(
            layer_names, tracer, traced_time - statistics.median(round_times)
        )
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": statistics.median(round_times), "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
            "work_per_s": {"value": statistics.median(rates), "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(headline), "unit": "s"},
        }

    failed_per_op, right = failures(ops, outcomes)
    shutil.rmtree(run_dir)
    attempted = sum(len(runs) for runs in outcomes)
    failed = sum(failed_per_op)
    correct = all(right)
    for op, n, ok in zip(ops, failed_per_op, right):
        if n and ok:
            print(f"known fault, counted as failed: {op.label}: {op.known_fault}")

    print(f"workload {args.workload} seed {args.seed} rounds {len(outcomes[0])}"
          f" attempted {attempted} failed {failed} correct {str(correct).lower()}")
    print("round times", " ".join(f"{t:.3f}" for t in round_times))
    for name, metric in metrics.items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
