#!/usr/bin/env python3
"""Compare two results files of hopbench/run.py, metric by metric.

    python3 hopbench/compare.py BEFORE.jsonl AFTER.jsonl

For every workload and metric: the median, the quartiles and the run count
of each file, and the change of the medians as a share of BEFORE's.  For an
end-to-end metric it adds a verdict against its bound in BENCHMARK.json:
WORSE when AFTER's median is worse by more than the bound, UNRESOLVED when
BEFORE's own quartile distance is wider than the bound (the runs cannot tell
a change of that size from noise), else ok.  dev_hits1 and dev_loss repeat
exactly for a fixed seed, so runs are also paired by seed and any seed whose
value changed is listed.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

EXACT = ("dev_hits1", "dev_loss")


def load(path):
    """(workload, metric) -> {seed: [values]}."""
    out = defaultdict(lambda: defaultdict(list))
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                for name, m in r["metrics"].items():
                    out[(r["workload"], name)][r["seed"]].append(m["value"])
    return out


def summary(by_seed):
    values = [v for vs in by_seed.values() for v in vs]
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, len(values)


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    before, after = load(argv[0]), load(argv[1])
    for key in sorted(set(before) & set(after)):
        workload, name = key
        b_med, b_q1, b_q3, b_n = summary(before[key])
        a_med, a_q1, a_q3, a_n = summary(after[key])
        change = (a_med - b_med) / b_med if b_med else float("nan")
        verdict = ""
        if name in e2e:
            bound = e2e[name]["bound"]
            worse = -change if e2e[name]["better"] == "higher" else change
            spread = (b_q3 - b_q1) / b_med if b_med else float("inf")
            verdict = "WORSE" if worse > bound else "UNRESOLVED" if spread > bound else "ok"
        print(
            f"{workload:<18} {name:<32} {b_med:12.6g} [{b_q1:.6g}, {b_q3:.6g}] n={b_n:<3}"
            f" -> {a_med:12.6g} [{a_q1:.6g}, {a_q3:.6g}] n={a_n:<3} {change:+8.2%} {verdict}"
        )
        if name in EXACT:
            for seed in sorted(set(before[key]) & set(after[key])):
                if set(before[key][seed]) != set(after[key][seed]):
                    print(f"    seed {seed}: {before[key][seed]} -> {after[key][seed]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
