#!/usr/bin/env python3
"""Compare two benchmark result sets, e.g. a parent commit and a change.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds runs appended by ``run.py --record``.  For every
(workload, metric) pair the report gives both sides' medians and
quartiles, the share of run pairs the change won, and a verdict:

* ``improved`` -- the change wins at least nine tenths of the pairs
  (ties count for neither) and the medians differ by more than the
  parent's own spread (the distance between its quartiles);
* ``worse`` -- the change's median is worse than the parent's by more
  than the metric's bound, or, for a metric without a bound (the
  per-layer ones), the parent wins nine tenths of the pairs by more
  than its spread;
* ``unresolved`` -- neither, but the parent's spread is wider than the
  bound, so "no change" cannot be told from noise -- unless every pair
  tied, or every run of the change reads better than every run of the
  parent;
* ``unchanged`` -- otherwise.

Runs pair up by seed when both sides ran the same seeds, else in the
order they were recorded (run the two sides alternately).  Bounds come
from ``BENCHMARK.json`` for the contract metrics and from
:data:`metrics.METRICS` for the named workload metrics.  Exits 1 when
any metric is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent
WIN_SHARE = 0.9


def load(path) -> dict:
    """(workload, metric) -> [(seed, value)] in recorded order."""
    out = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        run = json.loads(line)
        metrics = dict(run["result"]["metrics"])
        if not run["trace"]:
            metrics.update(run.get("workload_metrics", {}))
        for name, m in metrics.items():
            key = (run["workload"], name if not run["trace"]
                   else f"layer:{name}")
            out[key].append((run["seed"], m["value"]))
    return out


def bounds() -> dict:
    """metric -> (better, bound or None)."""
    spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(PERFBENCH))
    from metrics import METRICS

    out = {name: (better, bound) for name, (_, better, bound)
           in METRICS.items()}
    for m in spec["end_to_end"]:
        out[m["name"]] = (m["better"], m["bound"])
    for m in spec["per_layer"]:
        out[f"layer:{m['name']}"] = (m["better"], None)
    return out


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(a, b) -> list[tuple[float, float]]:
    seeds_a = [s for s, _ in a]
    seeds_b = [s for s, _ in b]
    if sorted(seeds_a) == sorted(seeds_b) and len(set(seeds_a)) == len(a):
        by_seed = dict(b)
        return [(v, by_seed[s]) for s, v in a]
    return [(x[1], y[1]) for x, y in zip(a, b)]


def verdict(a, b, better: str, bound) -> dict:
    va = [v for _, v in a]
    vb = [v for _, v in b]
    qa, qb = quartiles(va), quartiles(vb)
    sign = 1.0 if better == "higher" else -1.0  # > 0 means b is better
    paired = pairs(a, b)
    won = sum(sign * (y - x) > 0 for x, y in paired)
    lost = sum(sign * (y - x) < 0 for x, y in paired)
    n = max(1, len(paired))
    spread = qa[2] - qa[0]
    gain = sign * (qb[1] - qa[1])
    scale = abs(qa[1]) or 1.0
    all_better = all(sign * (y - x) > 0 for x in va for y in vb)
    if not won and not lost:
        v = "unchanged"  # every pair tied
    elif won / n >= WIN_SHARE and gain > spread:
        v = "improved"
    elif bound is not None and -gain > bound * scale:
        v = "worse"
    elif bound is None and lost / n >= WIN_SHARE and -gain > spread:
        v = "worse"
    elif bound is not None and spread > bound * scale and not all_better:
        v = "unresolved"
    else:
        v = "unchanged"
    return {"parent": qa, "change": qb, "won": won / n, "pairs": n,
            "verdict": v}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = load(argv[0]), load(argv[1])
    known = bounds()
    worse = 0
    print(f"{'workload':<16} {'metric':<34} {'parent q1/med/q3':>32} "
          f"{'change q1/med/q3':>32} {'won':>6}  verdict")
    for key in sorted(set(parent) & set(change)):
        workload, name = key
        better, bound = known.get(name, ("lower", None))
        r = verdict(parent[key], change[key], better, bound)
        worse += r["verdict"] == "worse"
        fmt = "/".join(f"{x:.4g}" for x in r["parent"])
        fmt2 = "/".join(f"{x:.4g}" for x in r["change"])
        print(f"{workload:<16} {name:<34} {fmt:>32} {fmt2:>32} "
              f"{r['won']:>6.0%}  {r['verdict']}"
              + (f" (bound {bound:.0%})" if bound is not None else ""))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
