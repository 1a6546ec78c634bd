"""The four benchmark workloads.

Each workload has a ``setup`` (run several times, the last one kept), a
``round`` of user operations that the benchmark repeats for the
measured time, and ``metrics`` that turn the rounds into the named
workload metrics.  Every round checks its outputs; a failed check or a
failed operation is counted, never hidden.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import inputs
from repro import store
from repro.core import cache

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())
#: The paper's eq. 6 error bound (Tables XIII-XIV).
ERROR_BOUND_PCT = 10.0


def digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()


def rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it."""
    for pct in (99, 98, 95, 90, 80, 75, 50):
        if n * (100 - pct) / 100 >= 10:
            return pct
    return 50


def percentile(values, pct: int) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * pct / 100))]


class Workload:
    """Shared bookkeeping: operations attempted, failed and why."""

    name = ""
    #: Rounds a run makes even when the measured time runs out first,
    #: and the most it makes (None: no limit).
    min_rounds = 1
    max_rounds = None

    def __init__(self, work: Path, seed: int, clock):
        self.work = work
        self.seed = seed
        self.clock = clock  # times every measured interval (refclock)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        """Record one output check; a failure is kept for the report."""
        if not ok and len(self.problems) < 20:
            self.problems.append(what)
        return ok

    def op_failed(self, what: str) -> None:
        self.failed += 1
        self.check(False, what)

    @property
    def correct(self) -> bool:
        return not self.problems

    def setup(self) -> None:
        """One complete set-up; after :meth:`close` it may run again."""

    def close(self) -> None:
        """Stop anything set-up started; safe to call twice."""

    def finish(self) -> None:
        """Checks that need the whole run (after the timed rounds)."""

    def peak_rss_mb(self) -> float:
        """Peak RSS of the process doing the workload's work."""
        return rss_mb()


# -- study_btio ------------------------------------------------------------------

class StudyBTIO(Workload):
    name = "study_btio"

    def setup(self) -> None:
        from repro.apps.btio import BTIOParams, btio_program
        from repro.clusters import configuration_c, finisterrae

        self.program = btio_program
        self.params = BTIOParams(cls="D", comm_events_per_step=24)
        self.factories = {"configuration-C": configuration_c,
                          "finisterrae": finisterrae}

    def round(self) -> dict:
        from repro.core.pipeline import full_study

        cache.clear_all()
        self.attempted += 1
        t0 = self.clock.now()
        try:
            study = full_study(
                self.program, 16, self.params,
                cluster_factories=self.factories,
                measure_configs=tuple(self.factories), app_name="btio-D")
        except Exception as exc:
            self.op_failed(f"full_study raised {exc!r}")
            return {}
        wall = self.clock.now() - t0
        errors = {name: [abs(row.error_rel_pct) for row in ev.rows]
                  for name, ev in study["evaluations"].items()}
        worst = max(max(errs) for errs in errors.values())
        ok = self.check(study["selection"]["best"] == "finisterrae",
                        f"picked {study['selection']['best']}, Table XII "
                        "picks finisterrae")
        for name, errs in errors.items():
            ok &= self.check(max(errs) < ERROR_BOUND_PCT,
                             f"{name}: eq. 6 error {max(errs):.2f}% >= "
                             f"{ERROR_BOUND_PCT}%")
        got = digest(summarize_study(study))
        ok &= self.check(got == REFERENCE[self.name],
                         f"study output digest {got} differs from "
                         "reference.json")
        if not ok:
            self.failed += 1
        return {"round_s": wall, "error_pct": worst}

    def metrics(self, rounds: list[dict]) -> dict:
        return {
            "study_s": (statistics.median(r["round_s"] for r in rounds), "s"),
            "estimate_error_max_pct": (max(r["error_pct"] for r in rounds),
                                       "%"),
        }


def summarize_study(study: dict) -> dict:
    """The study's canonical output: selection, estimates, evaluations."""
    out = {"best": study["selection"]["best"],
           "totals": {k: repr(v) for k, v
                      in sorted(study["selection"]["totals"].items())}}
    for name, report in sorted(study["estimates"].items()):
        out[f"bw_ch[{name}]"] = [repr(p.bw_ch_mb_s) for p in report.phases]
    for name, ev in sorted(study["evaluations"].items()):
        out[f"rows[{name}]"] = [
            (row.phase_id, repr(row.bw_md_mb_s), repr(row.error_rel_pct),
             repr(row.usage_pct)) for row in ev.rows]
    return out


# -- characterize_1m -----------------------------------------------------------

class Characterize1M(Workload):
    name = "characterize_1m"

    def setup(self) -> None:
        self.trace_dir = self.work / "trace"
        self.trace_bytes = inputs.write_trace_dir(self.trace_dir, self.seed)
        self.shape = inputs.trace_shape(self.seed)
        self.stream_rss = None

    def _pass(self, label: str, fn):
        cache.clear_all()
        self.attempted += 1
        t0 = self.clock.now()
        try:
            model = fn()
        except Exception as exc:
            self.op_failed(f"{label} pass raised {exc!r}")
            return None, 0.0
        return model, self.clock.now() - t0

    def round(self) -> dict:
        from repro.core.pipeline import build_model, characterize_stream
        from repro.tracer.hooks import TraceBundle

        d = self.trace_dir

        def batch():
            return build_model(TraceBundle.load(d, jobs=1), app_name="synth")

        def python():
            os.environ["REPRO_NO_NUMPY"] = "1"
            try:
                return batch()
            finally:
                del os.environ["REPRO_NO_NUMPY"]

        stream, stream_s = self._pass(
            "stream", lambda: characterize_stream(d, app_name="synth", jobs=1))
        if self.stream_rss is None:
            self.stream_rss = rss_mb()
        numpy_model, batch_s = self._pass("numpy batch", batch)
        python_model, python_s = self._pass("pure-Python batch", python)
        models = [m for m in (stream, numpy_model, python_model)
                  if m is not None]
        if len(models) < 3:
            return {}
        texts = [json.dumps(m.to_dict(), sort_keys=True) for m in models]
        if not self.check(texts[0] == texts[1] == texts[2],
                          "stream, numpy and pure-Python models differ"):
            self.failed += 1
        problem = shape_mismatch(stream, self.shape)
        if not self.check(problem is None, f"model vs generated shape: "
                                           f"{problem}"):
            self.failed += 1
        return {"round_s": stream_s + batch_s + python_s,
                "stream_s": stream_s, "batch_s": batch_s,
                "python_s": python_s}

    def metrics(self, rounds: list[dict]) -> dict:
        def rate(key):
            return inputs.EVENTS / statistics.median(r[key] for r in rounds)

        return {
            "stream_events_per_s": (rate("stream_s"), "events/s"),
            "stream_rss_mb": (self.stream_rss, "MB"),
            "batch_events_per_s": (rate("batch_s"), "events/s"),
            "python_events_per_s": (rate("python_s"), "events/s"),
        }


def shape_mismatch(model, shape) -> str | None:
    """Check a model against the phases the trace generator wrote.

    This is the workload's reference output: phase k of the model must
    be phase k of the generated shape, on all ranks, with its unit's
    ops, request size and rep count.  Returns ``None`` when it matches.
    """
    if model.nphases != len(shape):
        return f"{model.nphases} phases, generated {len(shape)}"
    for phase, (unit, rep, fid, rs) in zip(model.phases, shape):
        want_ops = list(inputs.UNIT_OPS[:unit])
        got = ([op.op for op in phase.ops], phase.rep, phase.np,
               {op.request_size for op in phase.ops})
        if got != (want_ops, rep, inputs.RANKS, {rs}):
            return (f"phase {phase.phase_id}: {got} != "
                    f"{(want_ops, rep, inputs.RANKS, {rs})}")
    return None


# -- select_space ---------------------------------------------------------------

#: Replay mode covers this many points of the 4096-point ConfigSpace,
#: at a stride coprime with every lattice axis so all axes vary.
REPLAY_POINTS = 32
REPLAY_STRIDE = 127


class SelectSpace(Workload):
    name = "select_space"
    min_rounds = 3

    def setup(self) -> None:
        from repro.apps.btio import BTIOParams, btio_program
        from repro.apps.madbench2 import MADbench2Params, madbench2_program
        from repro.core.pipeline import characterize_app

        cache.clear_all()
        btio, _ = characterize_app(
            btio_program, 16, BTIOParams(cls="D", comm_events_per_step=24),
            app_name="btio-D")
        mad, _ = characterize_app(madbench2_program, 16, MADbench2Params(),
                                  app_name="madbench2")
        self.models = {"btio-D": btio, "madbench2": mad}

    def round(self) -> dict:
        from repro.clusters import ALL_CONFIGURATIONS
        from repro.core.estimate import select_configuration
        from repro.core.lattice import ConfigSpace

        out = {"lattice_s": 0.0, "replay_s": 0.0}
        outputs = {}
        for app, model in self.models.items():
            for mode in ("lattice", "replay"):
                factories = ConfigSpace().factories()
                if mode == "replay":
                    names = list(factories)
                    factories = {n: factories[n] for n in
                                 names[::REPLAY_STRIDE][:REPLAY_POINTS]}
                    factories.update(ALL_CONFIGURATIONS)
                cache.clear_all()
                self.attempted += 1
                t0 = self.clock.now()
                try:
                    choice = select_configuration(
                        model.phases, factories, lattice=mode == "lattice")
                except Exception as exc:
                    self.op_failed(f"{app} {mode} selection raised {exc!r}")
                    continue
                out[f"{mode}_s"] += self.clock.now() - t0
                totals = choice.total_times
                outputs[f"{app}/{mode}"] = [
                    choice.best, {k: repr(v) for k, v in totals.items()}]
                if app == "btio-D" and mode == "replay":
                    named = min(ALL_CONFIGURATIONS, key=totals.get)
                    if not self.check(named == "finisterrae",
                                      f"BT-IO replay over the named configs "
                                      f"picked {named}"):
                        self.failed += 1
        got = digest(outputs)
        if len(outputs) == 4 and not self.check(
                got == REFERENCE[self.name],
                f"selection output digest {got} differs from "
                "reference.json"):
            self.failed += 1
        out["round_s"] = out["lattice_s"] + out["replay_s"]
        return out

    def metrics(self, rounds: list[dict]) -> dict:
        return {
            "lattice_select_s": (
                statistics.median(r["lattice_s"] for r in rounds), "s"),
            "replay_select_s": (
                statistics.median(r["replay_s"] for r in rounds), "s"),
        }


# -- service_mixed -------------------------------------------------------------

#: Requests re-run in-process after the loop to cross-check digests.
IN_PROCESS_SAMPLE = 2
#: The one failure the mix expects (see inputs.APPS).
KNOWN_DEFECT = "does not divide over 9 processes"


class ServiceMixed(Workload):
    name = "service_mixed"

    #: One round is one block of the mix.  A run always makes one block
    #: per configuration subset -- after that every spec would repeat --
    #: so its mean covers the block that fills the daemon's caches and
    #: store and the same number of blocks that read them.
    min_rounds = max_rounds = len(inputs.SUBSETS)
    #: How the daemon is started: ``repro-io`` itself, or the
    #: benchmark's traced entry point (see :meth:`restart_traced`).
    server = ["-m", "repro.cli"]

    def __init__(self, work: Path, seed: int, clock):
        super().__init__(work, seed, clock)
        self.proc = None
        self.client = None
        self.generation = 0
        self.requests = inputs.request_blocks(seed)
        self.latencies: list[tuple[str, float]] = []  # (spec digest, s)
        self.digests: dict[str, str] = {}  # spec digest -> output digest
        self.specs: dict[str, dict] = {}
        self.daemon_rss = 0.0

    def setup(self) -> None:
        from repro.service.protocol import ServiceClient

        self.generation += 1
        base = self.work / f"daemon{self.generation}"
        shutil.rmtree(base, ignore_errors=True)
        base.mkdir(parents=True)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.stderr = open(base / "stderr.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, *self.server, "serve",
             "--listen", "127.0.0.1:0", "--journal", str(base / "journal"),
             "--cache-dir", str(base / "store"), "--workers", "1",
             "--jobs", "1"],
            cwd=base, env=env, stdout=subprocess.PIPE,
            stderr=self.stderr, text=True)
        line = self.proc.stdout.readline().split()
        if len(line) != 3 or line[0] != "LISTENING":
            raise RuntimeError(f"daemon did not start: {line}")
        self.client = ServiceClient(line[1], int(line[2]), timeout_s=120.0)
        self.client.wait_ready(timeout_s=60.0)

    def close(self) -> None:
        if self.proc is None:
            return
        try:
            self.client.drain()
            self.proc.wait(timeout=60)
        except Exception:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()
        self.proc = None
        self.daemon_rss = max(self.daemon_rss, rss_mb(resource.RUSAGE_CHILDREN))

    def restart_traced(self, spans_path: Path) -> None:
        """Restart the daemon under spans; replay the mix from its start."""
        self.server = [str(PERFBENCH / "serve_traced.py"),
                       "--spans", str(spans_path)]
        self.close()
        self.setup()
        self.requests = inputs.request_blocks(self.seed)
        self.latencies = []

    def request(self, spec: dict) -> None:
        """One closed-loop request: submit, wait, fetch the result."""
        self.attempted += 1
        t0 = self.clock.now()
        sub = self.client.submit_batch([spec])
        if not sub.get("ok"):
            self.latencies.append(("", self.clock.now() - t0))
            self.op_failed(f"refused: {sub}")
            return
        row = sub["requests"][0]
        if row["state"] not in ("done", "failed"):
            self.client.wait(sub["batch"], timeout_s=120.0)
        row = self.client.results(sub["batch"])["requests"][0]
        self.latencies.append((row["id"], self.clock.now() - t0))
        if row["state"] != "done":
            error = row.get("error", row["state"])
            self.failed += 1
            # The known defect is an expected failure, not a wrong output.
            if not (spec["app"] == "madbench2" and spec["np"] == 9
                    and KNOWN_DEFECT in error):
                self.check(False, f"{spec} failed: {error}")
            return
        out = row["result"]["output_digest"]
        seen = self.digests.setdefault(row["id"], out)
        self.specs.setdefault(row["id"], spec)
        if not self.check(seen == out, f"repeat of {spec} changed its "
                                       "output digest"):
            self.failed += 1

    def round(self) -> dict:
        t0 = self.clock.now()
        for _ in range(inputs.BLOCK):
            self.request(next(self.requests))
        return {"round_s": self.clock.now() - t0}

    def finish(self) -> None:
        """Re-run a seeded sample of answered specs in-process."""
        from repro.service.runner import run_request
        from repro.service.spec import normalize

        rng = random.Random(self.seed)
        ids = sorted(self.specs)
        for sid in rng.sample(ids, min(IN_PROCESS_SAMPLE, len(ids))):
            cache.clear_all()
            result = run_request(normalize(self.specs[sid]))
            self.check(result["output_digest"] == self.digests[sid],
                       f"in-process digest of {self.specs[sid]} differs")
        cache.clear_all()

    def peak_rss_mb(self) -> float:
        return self.daemon_rss

    def metrics(self, rounds: list[dict]) -> dict:
        lat_ms = [s * 1000.0 for _, s in self.latencies]
        pct = tail_percentile(len(lat_ms))
        wall = sum(r["round_s"] for r in rounds)
        return {
            "svc_requests_per_s": (len(lat_ms) / wall, "req/s"),
            "svc_latency_p50_ms": (statistics.median(lat_ms), "ms"),
            "svc_latency_tail_ms": (percentile(lat_ms, pct), "ms"),
            "svc_latency_tail_pct": (pct, "percentile"),
            "svc_latency_samples": (len(lat_ms), "count"),
        }


WORKLOADS = {w.name: w for w in (StudyBTIO, Characterize1M, SelectSpace,
                                 ServiceMixed)}


def fresh_state() -> None:
    """No store, empty caches, no backend or fan-out overrides."""
    for var in ("REPRO_CACHE_DIR", "REPRO_NO_NUMPY", "REPRO_NO_BULK",
                "REPRO_INGEST_JOBS", "REPRO_EXECUTOR",
                "REPRO_SERVICE_KILL_AFTER", "REPRO_SERVICE_SLOW_S"):
        os.environ.pop(var, None)
    store.detach()
    cache.clear_all()
