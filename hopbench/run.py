#!/usr/bin/env python3
"""hoptrace's benchmark: one workload per invocation, end to end or traced.

    python3 hopbench/run.py --workload label-train --seed 1 --seconds 12 --trace 0

Run from the root of a checkout; hoptrace is imported from ``src/``.  The
run repeats whole rounds of the same operations for ``--seconds`` seconds,
each of which sets up the workload's inputs again, and reports medians over
the rounds.  Then it checks the program's outputs against the references in
``checks.py``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` installs span
wrappers around hoptrace's public functions for every other round, reports the per-layer metrics, and reports as tracing overhead how
much slower the traced rounds were than the untraced ones.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the same result, with the
environment and every check's outcome, is appended to the results file.
The exit code is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "train_ex_per_s": "ex/s",
    "eval_ex_per_s": "ex/s",
    "answer_cold_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units(names) -> dict:
    return {
        name: "s" if name.endswith("_s") else "%" if name.endswith("_pct") else
        {"dev_hits1": "fraction", "dev_loss": "distance"}.get(name, "count")
        for name in names
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="how long the rounds are measured")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", type=Path, default=BENCH_DIR / "out" / "results.jsonl",
                    help="JSON-lines file each run appends its result to")
    return ap.parse_args(argv)


def environment(np) -> dict:
    import importlib.util

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except OSError:
        sha = None
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_sha": sha,
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hoptrace" / "__init__.py").is_file():
        print(f"hopbench: no hoptrace sources under {SRC}", file=sys.stderr)
        return 2
    # single-threaded BLAS for steadier timings; set before numpy is imported
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    # one CPU for the run and the `answer` subprocesses it starts, so the
    # calibration probe times the CPU the work ran on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import numpy as np

    from calibrate import Clock, Probe
    from spans import Tracer
    from verify import run_checks
    from workloads import WORKLOADS, run_round

    if args.workload not in WORKLOADS:
        print(f"hopbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    work = BENCH_DIR / "out" / f"work-{w.name}-{os.getpid()}"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]).rstrip(os.pathsep))
    tracer = Tracer() if args.trace else None

    def traced(unit):
        if tracer is None:
            return nullcontext()
        tracer.unit = unit
        return tracer.installed()

    probe = Probe()
    try:
        rounds, traced_walls, plain_walls = [], [], []
        attempted = failed = 0
        ops = w.train_batches + w.eval_examples + 1
        min_rounds = 2 if tracer else 1
        deadline = time.perf_counter() + args.seconds
        while len(rounds) < min_rounds or time.perf_counter() < deadline:
            trace_round = tracer is not None and len(rounds) % 2 == 1
            spans_file = work / f"answer_spans_{len(rounds)}.json"
            cmd = [sys.executable, "-m", "hoptrace"]
            if trace_round:
                cmd = [sys.executable, str(BENCH_DIR / "answer_traced.py"), str(spans_file)]
            attempted += ops
            # every round starts from the same collected heap; the cyclic
            # collector stays on, as it is when hoptrace runs
            gc.collect()
            with traced(f"round-{len(rounds)}") if trace_round else nullcontext():
                r, p, params = run_round(w, args.seed, work, Clock(probe), cmd, env, ROOT)
                if trace_round:
                    tracer.merge(json.loads(spans_file.read_text(encoding="utf-8")))
            failed += r.answer_returncode != 0
            (traced_walls if trace_round else plain_walls).append(r.clock.scaled(*r.clock.raw))
            rounds.append(r)

        # the rounds' peak, before the checks allocate their references
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        check_results = run_checks(w, p, params, rounds)
        correct = all(v == "ok" for v in check_results.values())

        def median(*phases):
            """Median over rounds, at the probe's reference speed."""
            return statistics.median(r.clock.scaled(*phases) for r in rounds)

        if tracer is None:
            values = {
                "setup_s": statistics.median(r.setup_s(w) for r in rounds),
                "train_ex_per_s": w.train_batches * w.batch_size / median("train"),
                "eval_ex_per_s": w.eval_examples / median("eval"),
                "answer_cold_s": median("answer"),
                "peak_rss_mb": peak_rss_mb,
            }
            units = END_TO_END
        else:
            values = tracer.summary(
                {f"round-{i}": r.clock.scaled(*r.clock.raw) / sum(r.clock.raw.values()) for i, r in enumerate(rounds)}
            )
            values["tracing_overhead_pct"] = 100.0 * (
                statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
            )
            values["dev_hits1"] = statistics.median(r.dev_hits1 for r in rounds)
            values["dev_loss"] = statistics.median(r.dev_loss for r in rounds)
            units = per_layer_units(values)
        metrics = {k: {"value": float(values[k]), "unit": units[k]} for k in units}
        result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}

        record = {
            "workload": w.name,
            "seed": args.seed,
            "trace": args.trace,
            "seconds": args.seconds,
            "rounds": len(rounds),
            "checks": check_results,
            "raw_median_s": {k: statistics.median(r.clock.raw[k] for r in rounds) for k in rounds[0].clock.raw},
            "probe_median_s": statistics.median(x for r in rounds for x in r.clock.probes),
            "environment": environment(np),
            **result,
        }
        args.results.parent.mkdir(parents=True, exist_ok=True)
        with open(args.results, "a", encoding="utf-8") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")

        for name, outcome in check_results.items():
            print(f"check {name:<14} {outcome}")
        for name, m in metrics.items():
            print(f"{name:<34} {m['value']:>14.6g} {m['unit']}")
        print(json.dumps(result))
        return 0 if correct else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
