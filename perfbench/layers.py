"""Spans around each layer's public functions, from outside the program.

:class:`LayerTracer` wraps the boundary functions of every layer listed
in :data:`BOUNDARIES` (patching each module that bound the function by
name), and records for every call a span -- name, start, end, parent
span and the request it served -- plus the layer's self time (span time
minus the time its child spans cover) and counts taken from return
values.  Spans stay in memory and are written out when the run ends;
self times and counts are exact however many spans are kept.

Nothing here runs unless a traced run installs it: the untraced runs
execute the program unmodified.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import sys
import threading
import time
from collections import defaultdict

#: Spans kept per process for the span file; aggregates cover all calls.
SPAN_CAP = 50_000
SPAN_FIELDS = ("id", "parent", "name", "start", "end", "request")
MB = 1024 * 1024


def _path_mb(path) -> float:
    try:
        return os.path.getsize(path) / MB
    except (OSError, TypeError):
        return 0.0


# -- counts taken at each boundary -----------------------------------------------
# Each takes (counts, result, args, kwargs) and adds to the counts dict.

def _ticks(c, result, a, kw):
    c["simmpi.ticks"] += sum(result.ticks.values())


def _calls(name):
    def count(c, result, a, kw):
        c[name] += 1
    return count


def _events(c, result, a, kw):
    c["tracer.events"] += result.nevents


def _ingest_columns(c, result, a, kw):
    c["ingest.rows"] += len(result)
    c["ingest.mb"] += _path_mb(a[0])


def _lap_push(c, result, a, kw):
    c["lap.rows"] += len(a[1])


def _lap_entries(c, result, a, kw):
    c["lap.entries"] += len(result)


def _lap_columns(c, result, a, kw):
    c["lap.rows"] += len(a[0])
    c["lap.entries"] += len(result)


def _phases(c, result, a, kw):
    c["phases.count"] += len(result)


def _plan(c, result, a, kw):
    c["planner.requests"] += result.requests
    c["planner.unique"] += result.unique


def _lattice_configs(c, result, a, kw):
    c["lattice.configs"] += len(result)


def _lattice_eval(c, result, a, kw):
    phases, params = a[0], a[1]
    c["lattice.config_phases"] += len(params) * len(phases)


def _lookup(c, result, a, kw):
    from repro.core.cache import _MISS

    c["cache.lookups"] += 1
    c["cache.hits"] += result is not _MISS


def _store_get(c, result, a, kw):
    c["store.gets"] += 1
    c["store.hits"] += bool(result[0])


#: (layer, module, owner, attribute, count, timer).  ``owner`` is a class
#: name inside the module or None for a module-level function; ``timer``
#: names an inclusive-time metric kept next to the layer's self time.
BOUNDARIES = (
    ("simmpi", "repro.simmpi.engine", "Engine", "run", _ticks, None),
    ("iosim", "repro.iosim.cluster", "Cluster", "service_io",
     _calls("iosim.calls"), None),
    ("iosim", "repro.iosim.cluster", "Cluster", "service_collective_io",
     _calls("iosim.calls"), None),
    ("iosim", "repro.iosim.cluster", "Cluster", "comm_time",
     _calls("iosim.calls"), None),
    ("tracer", "repro.tracer.hooks", "Tracer", "finish", _events, None),
    ("ingest", "repro.tracer.ingest", None, "ingest_columns",
     _ingest_columns, None),
    ("ingest", "repro.tracer.ingest", None, "iter_ingest_chunks", None, None),
    ("ingest", "repro.tracer.hooks", "TraceBundle", "load", None, None),
    ("lap", "repro.core.lap", "LAPFolder", "push", _lap_push, None),
    ("lap", "repro.core.lap", "LAPFolder", "finish", _lap_entries, None),
    ("lap", "repro.core.lap", None, "extract_laps_columns", _lap_columns,
     None),
    ("phases", "repro.core.phases", None, "identify_phases", _phases, None),
    ("model", "repro.core.model", "IOModel", "from_stream", None, None),
    ("model", "repro.core.model", "IOModel", "from_columns", None, None),
    ("model", "repro.core.model", "IOModel", "from_trace", None, None),
    ("planner", "repro.core.planner", None, "build_replay_plan", _plan, None),
    ("planner", "repro.core.planner", "ReplayPlan", "execute", None, None),
    # The selection path replays each unique phase through
    # estimate_phase (an IOR replication); replay_phase is the
    # faithful replayer the fault studies use.
    ("replay", "repro.core.estimate", None, "estimate_phase",
     _calls("replay.calls"), None),
    ("replay", "repro.core.replayer", None, "replay_phase",
     _calls("replay.calls"), None),
    ("iozone", "repro.core.estimate", None, "peak_bandwidth",
     _calls("iozone.calls"), None),
    ("lattice", "repro.core.lattice", "LatticeParams", "from_factories",
     _lattice_configs, "lattice.extract_s"),
    ("lattice", "repro.core.lattice", None, "evaluate_lattice",
     _lattice_eval, "lattice.eval_s"),
    ("cache", "repro.core.cache", "SimCache", "lookup", _lookup, None),
    ("store", "repro.store.disk", "ResultStore", "get", _store_get,
     "store.get_s"),
    ("store", "repro.store.disk", "ResultStore", "put",
     _calls("store.puts"), "store.put_s"),
    ("service", "repro.service.runner", None, "run_request",
     _calls("service.executed"), "service.run_s"),
    ("service", "repro.service.journal", "Journal", "append",
     _calls("service.journal_appends"), "service.journal_s"),
)
LAYERS = tuple(dict.fromkeys(b[0] for b in BOUNDARIES))
#: Modules imported before patching, so every by-name binding exists.
MODULES = ("repro.core.pipeline", "repro.core.estimate", "repro.core.model",
           "repro.core.lattice", "repro.tracer.hooks", "repro.tracer.ingest",
           "repro.tracer.columns", "repro.service.daemon",
           "repro.service.runner")


class _ThreadState(threading.local):
    def __init__(self):
        self.stack: list[list] = []  # [span id, child seconds]
        self.tag = None
        self.acc = None


class LayerTracer:
    """Install spans on every boundary; aggregate per layer."""

    def __init__(self):
        self._ids = itertools.count(1)
        self._local = _ThreadState()
        self._lock = threading.Lock()
        self._accs: list[dict] = []
        self._patches: list[tuple] = []
        self.spans: list[tuple] = []
        self.request_run_s: dict[str, float] = {}
        self.rounds: list[dict] = []

    # -- per-thread accumulators -------------------------------------------------
    def _acc(self) -> dict:
        acc = self._local.acc
        if acc is None:
            acc = self._local.acc = {"self": defaultdict(float),
                                     "counts": defaultdict(float),
                                     "root_s": 0.0}
            with self._lock:
                self._accs.append(acc)
        return acc

    def totals(self) -> dict:
        """Self seconds and counts summed over every thread so far."""
        out = defaultdict(float)
        with self._lock:
            accs = list(self._accs)
        for acc in accs:
            for layer, s in list(acc["self"].items()):
                out[f"{layer}.self_s"] += s
            for name, v in list(acc["counts"].items()):
                out[name] += v
            out["root_s"] += acc["root_s"]
        return out

    # -- wrapping ------------------------------------------------------------------
    def _enter(self):
        st = self._local.stack
        parent = st[-1][0] if st else 0
        frame = [next(self._ids), 0.0]
        st.append(frame)
        return parent, frame, time.perf_counter()

    def _leave(self, layer, name, timer, parent, frame, t0):
        t1 = time.perf_counter()
        st = self._local.stack
        st.pop()
        dur = t1 - t0
        acc = self._acc()
        acc["self"][layer] += dur - frame[1]
        if timer is not None:
            acc["counts"][timer] += dur
        if st:
            st[-1][1] += dur
        else:
            acc["root_s"] += dur
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame[0], parent, name, t0, t1,
                               self._local.tag))
        return dur

    def _wrap(self, layer, name, fn, count, timer):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*a, **kw):
            parent, frame, t0 = tracer._enter()
            try:
                result = fn(*a, **kw)
            finally:
                tracer._leave(layer, name, timer, parent, frame, t0)
            if count is not None:
                count(tracer._acc()["counts"], result, a, kw)
            return result

        return wrapper

    def _wrap_chunks(self, layer, name, fn):
        """A generator boundary: one span per chunk pulled from it."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*a, **kw):
            tracer._acc()["counts"]["ingest.mb"] += _path_mb(a[0])
            it = fn(*a, **kw)
            while True:
                parent, frame, t0 = tracer._enter()
                try:
                    chunk = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._leave(layer, name, None, parent, frame, t0)
                tracer._acc()["counts"]["ingest.rows"] += len(chunk)
                yield chunk

        return wrapper

    def _wrap_request(self, fn):
        """run_request: every span below it carries the request's digest."""
        from repro.service.spec import spec_digest

        tracer = self

        @functools.wraps(fn)
        def wrapper(spec, *a, **kw):
            prev = tracer._local.tag
            tag = tracer._local.tag = spec_digest(spec)
            t0 = time.perf_counter()
            try:
                return fn(spec, *a, **kw)
            finally:
                tracer.request_run_s[tag] = time.perf_counter() - t0
                tracer._local.tag = prev

        return wrapper

    def _wrap_journal(self, fn):
        """Journal.append: tag the span with the record's request."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(journal, record, *a, **kw):
            prev = tracer._local.tag
            ids = record.get("digests") or [record.get("id")]
            tracer._local.tag = ids[0]
            try:
                return fn(journal, record, *a, **kw)
            finally:
                tracer._local.tag = prev

        return wrapper

    def install(self) -> None:
        import importlib

        for mod in MODULES:
            importlib.import_module(mod)
        for layer, modname, owner, attr, count, timer in BOUNDARIES:
            module = importlib.import_module(modname)
            name = f"{owner}.{attr}" if owner else attr
            if owner is None:
                orig = getattr(module, attr)
                if attr == "iter_ingest_chunks":
                    new = self._wrap_chunks(layer, name, orig)
                else:
                    new = self._wrap(layer, name, orig, count, timer)
                    if attr == "run_request":
                        new = self._wrap_request(new)
                self._rebind(orig, new)
                continue
            cls = getattr(module, owner)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(layer, name, raw.__func__,
                                             count, timer))
            else:
                new = self._wrap(layer, name, raw, count, timer)
                if owner == "Journal":
                    new = self._wrap_journal(new)
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, new)

    def _rebind(self, orig, new) -> None:
        """Point every ``repro`` module's binding of ``orig`` at ``new``."""
        for modname, module in list(sys.modules.items()):
            if not modname.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    self._patches.append((module, attr, orig))
                    setattr(module, attr, new)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- rounds ----------------------------------------------------------------------
    def begin_round(self) -> None:
        self._round_start = (time.perf_counter(), self.totals())

    def end_round(self, round_s: float | None) -> None:
        t0, before = self._round_start
        wall = time.perf_counter() - t0
        after = self.totals()
        self.rounds.append({"wall_s": wall, "round_s": round_s,
                            "delta": {k: after[k] - before.get(k, 0.0)
                                      for k in after}})

    def dump(self, path) -> None:
        """Write aggregates, per-request run times and the kept spans."""
        with open(path, "w") as f:
            json.dump({"totals": self.totals(),
                       "request_run_s": self.request_run_s,
                       "spans": self.spans}, f)

    # -- the report ------------------------------------------------------------------
    def report(self, workload, daemon_spans, untraced: dict) -> dict:
        """Per-round layer metrics of the traced rounds."""
        n = max(1, len(self.rounds))
        wall = sum(r["wall_s"] for r in self.rounds)
        totals = defaultdict(float)
        for r in self.rounds:
            for k, v in r["delta"].items():
                totals[k] += v
        request_run_s = {}
        spans = {"fields": SPAN_FIELDS, "benchmark": self.spans}
        if workload.name == "service_mixed" and daemon_spans.exists():
            daemon = json.loads(daemon_spans.read_text())
            for k, v in daemon["totals"].items():
                totals[k] += v
            request_run_s = daemon["request_run_s"]
            spans["daemon"] = daemon["spans"]
        m = {k: v / n for k, v in totals.items() if k != "root_s"}
        per_round_wall = wall / n
        covered = sum(m.get(f"{layer}.self_s", 0.0) for layer in LAYERS)
        m["other.self_s"] = max(0.0, per_round_wall - covered)

        def ratio(num, den):
            return num / den if den else 0.0

        m["simmpi.ticks_per_s"] = ratio(m.get("simmpi.ticks", 0.0),
                                        m.get("simmpi.self_s", 0.0))
        m["ingest.mb_per_s"] = ratio(m.get("ingest.mb", 0.0),
                                     m.get("ingest.self_s", 0.0))
        m["lap.rows_per_s"] = ratio(m.get("lap.rows", 0.0),
                                    m.get("lap.self_s", 0.0))
        requests = m.get("planner.requests", 0.0)
        m["planner.dedup_ratio"] = ratio(
            requests - m.get("planner.unique", 0.0), requests)
        eval_s = m.get("lattice.eval_s", 0.0)
        m["lattice.config_phases_per_s"] = ratio(
            m.get("lattice.config_phases", 0.0), eval_s)
        m["cache.hit_ratio"] = ratio(m.get("cache.hits", 0.0),
                                     m.get("cache.lookups", 0.0))
        m["store.hit_ratio"] = ratio(m.get("store.hits", 0.0),
                                     m.get("store.gets", 0.0))
        if workload.name == "service_mixed":
            requests = len(workload.latencies)
            m["service.requests"] = requests / n
            m["service.dedup_ratio"] = ratio(
                requests - totals.get("service.executed", 0.0), requests)
            overheads = [lat - request_run_s.get(tag, 0.0)
                         for tag, lat in workload.latencies]
            m["service.overhead_ms"] = (statistics.median(overheads) * 1000.0
                                        if overheads else 0.0)
        traced = self.rounds[0]["round_s"] if self.rounds else None
        base = untraced.get("round_s")
        overhead = (traced - base) if traced is not None and base else 0.0
        kept = sum(len(v) for k, v in spans.items() if k != "fields")
        return {"rounds": n, "wall_s_per_round": per_round_wall,
                "overhead_s": overhead,
                "overhead_pct": 100.0 * ratio(overhead, base or 0.0),
                "spans_kept": kept, "metrics": m, "spans": spans}


#: The bases printed next to each ratio: (ratio, numerator, denominator).
RATIO_BASES = (
    ("simmpi.ticks_per_s", "simmpi.ticks", "simmpi.self_s"),
    ("ingest.mb_per_s", "ingest.mb", "ingest.self_s"),
    ("lap.rows_per_s", "lap.rows", "lap.self_s"),
    ("planner.dedup_ratio", "planner.unique", "planner.requests"),
    ("lattice.config_phases_per_s", "lattice.config_phases",
     "lattice.eval_s"),
    ("cache.hit_ratio", "cache.hits", "cache.lookups"),
    ("store.hit_ratio", "store.hits", "store.gets"),
    ("service.dedup_ratio", "service.executed", "service.requests"),
)


def format_report(workload: str, report: dict) -> str:
    """The traced-run table: layer self time by share, counts, ratios."""
    m = report["metrics"]
    wall = report["wall_s_per_round"]
    lines = [f"== {workload}: {report['rounds']} traced rounds, "
             f"{wall:.4f} s wall per round =="]
    rows = [(layer, m.get(f"{layer}.self_s", 0.0)) for layer in LAYERS]
    rows.append(("other", m["other.self_s"]))
    lines.append(f"  {'layer':<10} {'self_s/round':>14} {'share':>8}")
    for layer, s in sorted(rows, key=lambda r: -r[1]):
        share = 100.0 * s / wall if wall else 0.0
        lines.append(f"  {layer:<10} {s:>14.6f} {share:>7.2f}%")
    lines.append("  counts per round:")
    ratio_names = {r[0] for r in RATIO_BASES}
    for name in sorted(m):
        if name.endswith(".self_s") or name in ratio_names:
            continue
        lines.append(f"    {name:<30} {m[name]:>16.6g}")
    lines.append("  ratios (numerator / denominator, per round):")
    for name, num, den in RATIO_BASES:
        if name in m:
            lines.append(f"    {name:<30} {m[name]:>16.6g}   "
                         f"({num} {m.get(num, 0.0):.6g} / "
                         f"{den} {m.get(den, 0.0):.6g})")
    lines.append(f"  other.self_s {m['other.self_s']:.6f} s/round "
                 "(wall time no layer span covers)")
    lines.append(f"  tracing overhead: {report['overhead_s']:+.4f} s on the "
                 f"first round ({report['overhead_pct']:+.1f}% of the "
                 f"untraced round); {report['spans_kept']} spans kept")
    return "\n".join(lines)
