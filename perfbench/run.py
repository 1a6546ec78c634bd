#!/usr/bin/env python3
"""The repository benchmark: one seeded workload per run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload study_btio --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10
    python3 perfbench/run.py --workload all --seed 1 --trace 1

``--trace 0`` measures with tracing off and prints every end-to-end
metric; ``--trace 1`` is the separate traced run: it times one round
untraced, then the timed rounds with spans around each layer's public
functions, and prints the per-layer self-time report.  The last line of
standard output is always one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--record FILE`` appends
the run (result, workload metrics, layer report) to a JSON-lines result
set for ``perfbench/compare.py``.  ``--workload all`` runs every
workload in its own process and prints one table.
"""

from __future__ import annotations

from refclock import RefClock

CLOCK = RefClock()  # started at once: set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
WORK = ROOT / ".perfbench-work"
WORKLOAD_NAMES = ("study_btio", "characterize_1m", "select_space",
                  "service_mixed")
#: Set-ups per run; ``setup_s`` reports their median.
SETUPS = 3


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measured time per run (default: run_seconds "
                        "from BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", type=Path,
                   help="append this run to a JSON-lines result set")
    return p.parse_args(argv)


def run_one(args) -> int:
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # One CPU for the run and the processes it starts, so the clock's
    # probe samples the CPU doing the work (the service daemon too).
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work = WORK / f"{args.workload}-{os.getpid()}"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(work / "tmp")
    try:
        return measure(args, spec, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, spec: dict, seconds: float, work: Path) -> int:
    import workloads

    workloads.fresh_state()
    w = workloads.WORKLOADS[args.workload](work, args.seed, CLOCK)
    import_s = CLOCK.now()
    setups = []
    tracer = None
    try:
        for _ in range(SETUPS):
            w.close()
            t0 = CLOCK.now()
            w.setup()
            setups.append(CLOCK.now() - t0)
        if args.trace:
            import layers

            untraced = w.round()
            tracer = layers.LayerTracer()
            tracer.install()
            if args.workload == "service_mixed":
                w.restart_traced(work / "daemon-spans.json")
        rounds = []
        t_loop = time.perf_counter()
        while len(rounds) != w.max_rounds and (
                len(rounds) < w.min_rounds
                or time.perf_counter() - t_loop < seconds):
            if tracer is not None:
                tracer.begin_round()
            rounds.append(w.round())
            if tracer is not None:
                tracer.end_round(rounds[-1].get("round_s"))
        if tracer is not None:
            tracer.uninstall()
        w.finish()
    finally:
        w.close()
        CLOCK.stop()
    rounds = [r for r in rounds if r]
    for problem in w.problems:
        print(f"CHECK FAILED: {problem}")
    if not rounds:
        print("no round completed", file=sys.stderr)
        return 1

    named = {"setup_s": (import_s + statistics.median(setups), "s"),
             "peak_rss_mb": (w.peak_rss_mb(), "MB"),
             "failed_frac": (w.failed / w.attempted, "ratio")}
    named.update(w.metrics(rounds))
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": seconds,
              "machine_speed": CLOCK.speed, "probes": CLOCK.probes,
              "rounds": [r["round_s"] for r in rounds],
              "problems": w.problems,
              "workload_metrics": {k: {"value": v, "unit": u}
                                   for k, (v, u) in named.items()}}
    if args.trace:
        report = tracer.report(w, work / "daemon-spans.json", untraced)
        spans = report.pop("spans")
        print(layers.format_report(args.workload, report))
        record["layers"] = report
        span_file = WORK / "spans" / f"{args.workload}-seed{args.seed}.json"
        span_file.parent.mkdir(parents=True, exist_ok=True)
        span_file.write_text(json.dumps(spans))
        values = report["metrics"]
        declared = spec["per_layer"]
    else:
        for name, (value, unit) in named.items():
            print(f"{args.workload:<16} {name:<26} {value:>16.6g} {unit}")
        print(f"{args.workload:<16} machine speed {CLOCK.speed:.3f} x "
              "reference (times above are reference seconds)")
        values = {"setup_s": named["setup_s"][0],
                  "peak_rss_mb": named["peak_rss_mb"][0],
                  "round_s": statistics.fmean(r["round_s"] for r in rounds)}
        declared = spec["end_to_end"]
    result = {"correct": w.correct, "attempted": w.attempted,
              "failed": w.failed,
              "metrics": {m["name"]: {"value": values.get(m["name"], 0.0),
                                      "unit": m["unit"]} for m in declared}}
    record["result"] = result
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process; one summary table."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--trace", str(args.trace)]
        if args.seconds:
            cmd += ["--seconds", str(args.seconds)]
        if args.record:
            cmd += ["--record", str(args.record)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(proc.stderr, end="", file=sys.stderr)
            status = proc.returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    CLOCK.start()
    try:
        return run_one(args)
    finally:
        CLOCK.stop()


if __name__ == "__main__":
    sys.exit(main())
