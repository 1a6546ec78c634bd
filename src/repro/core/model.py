"""The I/O abstract model of a parallel application (paper section III-A.1).

The model has the paper's three components:

* **metadata** -- pointer kinds, collective use, access mode/type, etype
  (from the tracer);
* **spatial global pattern** -- per phase: f(initOffset), displacement,
  request size;
* **temporal global pattern** -- the phase sequence ordered by tick.

It is *independent of the I/O subsystem*: build it once from a trace
(usually on the neutral :class:`~repro.simmpi.engine.IdealPlatform`) and
evaluate it against any cluster.  Serializable to JSON so the off-line
characterization can be shipped to target systems, as the methodology
prescribes.
"""

from __future__ import annotations

import json
import time as _time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from repro import obs
from repro.tracer.hooks import TraceBundle
from repro.tracer.metadata import AppMetadata

from .lap import LAPEntry, extract_laps_columns
from .offsetfn import OffsetFunction
from .phases import (
    DEFAULT_TICK_TOL,
    Phase,
    PhaseOp,
    file_groups_from_metadata,
    identify_phases,
)


@dataclass
class IOModel:
    """I/O abstract model: metadata + ordered I/O phases."""

    app_name: str
    np: int
    metadata: AppMetadata
    phases: list[Phase] = field(default_factory=list)
    tick_tol: int = DEFAULT_TICK_TOL

    # -- construction ---------------------------------------------------------
    @classmethod
    def from_trace(cls, bundle: TraceBundle, app_name: str = "app",
                   tick_tol: int = DEFAULT_TICK_TOL, gap: int = 1) -> "IOModel":
        """Characterization: trace -> LAPs -> phases -> model.

        Runs :meth:`from_columns` over ``bundle.columns``.  The
        per-record reference chain -- :func:`~repro.core.lap.extract_laps`
        over ``bundle.records`` into :meth:`from_entries` -- builds the
        identical model, asserted per seed app by
        ``tests/core/test_columnar_equivalence.py``.
        """
        return cls.from_columns(bundle.columns, bundle.metadata,
                                bundle.nprocs, app_name=app_name,
                                tick_tol=tick_tol, gap=gap)

    @classmethod
    def from_columns(cls, columns, metadata: AppMetadata, nprocs: int,
                     app_name: str = "app", tick_tol: int = DEFAULT_TICK_TOL,
                     gap: int = 1) -> "IOModel":
        """Characterization over a ``TraceColumns`` (no record objects):
        a one-chunk :class:`~repro.core.lap.LAPFolder` fold.

        When a persistent store is attached (:mod:`repro.store`) the
        extracted model is memoized in the ``"characterize"`` cache
        under the trace's content digest, so re-characterizing the same
        trace -- across processes -- warm-starts from disk without
        folding it again.
        """
        def fold():
            return extract_laps_columns(columns, gap=gap), len(columns), None

        return cls._characterize("columnar", fold, columns.content_digest,
                                 metadata, nprocs, app_name, tick_tol, gap)

    @classmethod
    def from_stream(cls, chunks, metadata: AppMetadata, nprocs: int,
                    app_name: str = "app", tick_tol: int = DEFAULT_TICK_TOL,
                    gap: int = 1) -> "IOModel":
        """Characterization over *streamed* trace chunks.

        ``chunks`` is an iterable of ``TraceColumns`` pieces (e.g. from
        :func:`repro.tracer.columns.iter_trace_column_chunks` or
        :func:`repro.tracer.hooks.stream_bundle`) whose concatenation is
        the full trace.  LAPs fold incrementally
        (:class:`~repro.core.lap.LAPFolder`), so memory stays
        O(phases + open bursts) instead of O(events): million-event
        traces characterize without ever materializing full columns.
        The result is bit-identical to :meth:`from_columns` /
        :meth:`from_trace` on the materialized trace.

        The ``"characterize"`` store cache is shared with
        :meth:`from_columns` -- the folder's running digest equals the
        materialized trace's content digest, so either path warm-starts
        the other.  (The lookup necessarily happens *after* the stream
        is consumed; a hit still skips phase identification.)
        """
        from repro import store as _store

        from .lap import LAPFolder

        # the digest is only ever consulted for the store cache key;
        # with no store attached, skip hashing the stream entirely
        folder = LAPFolder(gap=gap, digest=_store.active() is not None)

        def fold():
            for chunk in chunks:
                folder.push(chunk)
            digest = folder.content_digest if folder.digest is not None \
                else None
            return folder.finish(), folder.nrows, digest

        model = cls._characterize("stream", fold, None, metadata, nprocs,
                                  app_name, tick_tol, gap)
        if obs.ACTIVE:
            obs.inc("characterize_stream_peak_open_rows",
                    folder.peak_open_rows)
        return model

    @classmethod
    def _characterize(cls, method: str, fold, digest, metadata: AppMetadata,
                      nprocs: int, app_name: str, tick_tol: int,
                      gap: int) -> "IOModel":
        """The body :meth:`from_columns` and :meth:`from_stream` share.

        ``fold()`` runs the LAP fold and returns ``(entries, nrows,
        digest)``.  The trace's content digest (a zero-argument
        callable) keys the ``"characterize"`` store cache: pass it as
        ``digest`` when it is known before the fold, so a hit skips the
        fold, or return it from ``fold()`` when only the fold learns it.
        """
        from repro import store as _store

        from . import cache as simcache

        def lookup(content_digest):
            # metadata enters as canonical JSON (dicts are unhashable)
            meta = json.dumps(metadata.to_dict(), sort_keys=True) \
                if metadata is not None else None
            key = ("from_columns", content_digest(), meta, nprocs, app_name,
                   tick_tol, gap)
            return key, simcache.cache("characterize").lookup(key)

        key = None
        if digest is not None and _store.active() is not None:
            key, hit = lookup(digest)
            if hit is not simcache._MISS:
                return hit
        with obs.span("characterize.model", cat="pipeline", method=method):
            t0 = _time.perf_counter()
            with obs.span("characterize.laps", cat="pipeline"):
                entries, nrows, digest = fold()
            if digest is not None and _store.active() is not None:
                key, hit = lookup(digest)
                if hit is not simcache._MISS:
                    return hit
            model = cls.from_entries(entries, metadata, nprocs, app_name,
                                     tick_tol)
        if obs.ACTIVE:
            _observe_characterization(method, nrows, len(entries),
                                      _time.perf_counter() - t0)
        if key is not None:
            simcache.cache("characterize").store(key, model)
        return model

    @classmethod
    def from_entries(cls, entries: list[LAPEntry], metadata: AppMetadata,
                     nprocs: int, app_name: str,
                     tick_tol: int) -> "IOModel":
        """LAP entries -> phases -> model: the step every constructor
        ends with, and the reference chain's step after
        :func:`~repro.core.lap.extract_laps`."""
        if metadata is None:
            # Quarantine-salvaged bundle whose metadata.json was lost:
            # model without file grouping rather than no model at all.
            metadata = AppMetadata()
        groups = file_groups_from_metadata(metadata)
        with obs.span("characterize.phases", cat="pipeline"):
            phases = identify_phases(entries, file_groups=groups,
                                     tick_tol=tick_tol)
        return cls(app_name=app_name, np=nprocs, metadata=metadata,
                   phases=phases, tick_tol=tick_tol)

    # -- aggregate views ---------------------------------------------------------
    @property
    def nphases(self) -> int:
        return len(self.phases)

    @property
    def total_weight(self) -> int:
        """Total bytes the model moves (sum of phase weights)."""
        return sum(ph.weight for ph in self.phases)

    def weight_by_kind(self) -> dict[str, int]:
        out = {"write": 0, "read": 0}
        for ph in self.phases:
            for op in ph.ops:
                out[op.kind] += ph.np * ph.rep * op.request_size
        return out

    def phases_for(self, file_group: str) -> list[Phase]:
        return [ph for ph in self.phases if ph.file_group == file_group]

    @property
    def file_groups(self) -> list[str]:
        seen: list[str] = []
        for ph in self.phases:
            if ph.file_group not in seen:
                seen.append(ph.file_group)
        return seen

    # -- serialization --------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "app_name": self.app_name,
            "np": self.np,
            "tick_tol": self.tick_tol,
            "metadata": self.metadata.to_dict(),
            "phases": [_phase_to_dict(ph) for ph in self.phases],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "IOModel":
        return cls(
            app_name=data["app_name"],
            np=data["np"],
            tick_tol=data.get("tick_tol", DEFAULT_TICK_TOL),
            metadata=AppMetadata.from_dict(data["metadata"]),
            phases=[_phase_from_dict(d) for d in data["phases"]],
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "IOModel":
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> None:
        from repro.ioutil import atomic_write_text
        atomic_write_text(Path(path), self.to_json())

    @classmethod
    def load(cls, path: str | Path) -> "IOModel":
        return cls.from_json(Path(path).read_text())

    # -- reporting ---------------------------------------------------------------------
    def describe(self) -> str:
        """Multi-line digest: metadata statements plus the phase table."""
        lines = [f"I/O model of {self.app_name} (np={self.np}, "
                 f"{self.nphases} phases, {self.total_weight / 2**20:.0f} MB)"]
        for f in self.metadata.files:
            lines.append(f"  file {f.filename}:")
            for s in f.statements():
                lines.append(f"    - {s}")
        for ph in self.phases:
            rs = ph.request_size
            fn = ph.ops[0].abs_offset_fn.expression(rs=rs)
            lines.append(
                f"  phase {ph.phase_id}: {ph.np} {ph.op_label} rep={ph.rep} "
                f"rs={rs} weight={ph.weight / 2**20:.0f}MB initOffset={fn}"
            )
        return "\n".join(lines)


def _observe_characterization(method: str, nrows: int, nentries: int,
                              elapsed: float) -> None:
    obs.inc("characterize_rows_total", nrows, method=method)
    obs.inc("characterize_lap_entries_total", nentries, method=method)
    obs.set_gauge("characterize_rows_per_s",
                  nrows / elapsed if elapsed > 0 else 0.0, method=method)


def models_equivalent(a: "IOModel", b: "IOModel") -> bool:
    """True when two models describe the same application I/O behaviour.

    This is the paper's system-independence check (Figs. 9-10: "we had
    obtained the same I/O model in the four configurations"): phase
    structure, weights, repetition counts, operations, request sizes and
    offset functions must agree; measured durations and tick values (the
    only platform-dependent parts) are ignored.
    """
    if a.np != b.np or a.nphases != b.nphases:
        return False
    for pa, pb in zip(a.phases, b.phases):
        if (pa.file_group != pb.file_group or pa.rep != pb.rep
                or pa.ranks != pb.ranks or pa.unique_file != pb.unique_file
                or len(pa.ops) != len(pb.ops)):
            return False
        for oa, ob in zip(pa.ops, pb.ops):
            if (oa.op != ob.op or oa.request_size != ob.request_size
                    or oa.disp != ob.disp):
                return False
            probe_ranks = list(pa.ranks)[:3] + [max(pa.ranks)]
            for r in probe_ranks:
                if oa.abs_offset_fn(r) != ob.abs_offset_fn(r):
                    return False
    return True


def _offsetfn_to_dict(fn: OffsetFunction) -> dict:
    return {
        "slope": [fn.slope.numerator, fn.slope.denominator] if fn.slope is not None else None,
        "intercept": [fn.intercept.numerator, fn.intercept.denominator]
        if fn.intercept is not None else None,
        "table": list(map(list, fn.table)),
    }


def _offsetfn_from_dict(d: dict) -> OffsetFunction:
    slope = Fraction(*d["slope"]) if d["slope"] is not None else None
    intercept = Fraction(*d["intercept"]) if d["intercept"] is not None else None
    return OffsetFunction(slope=slope, intercept=intercept,
                          table=tuple(tuple(p) for p in d["table"]))


def _phase_to_dict(ph: Phase) -> dict:
    return {
        "phase_id": ph.phase_id,
        "file_group": ph.file_group,
        "rep": ph.rep,
        "ranks": list(ph.ranks),
        "tick": ph.tick,
        "first_time": ph.first_time,
        "duration": ph.duration,
        "unique_file": ph.unique_file,
        "file_ids": list(ph.file_ids),
        "ops": [
            {
                "op": o.op,
                "kind": o.kind,
                "request_size": o.request_size,
                "disp": o.disp,
                "offset_fn": _offsetfn_to_dict(o.offset_fn),
                "abs_offset_fn": _offsetfn_to_dict(o.abs_offset_fn),
            }
            for o in ph.ops
        ],
    }


def _phase_from_dict(d: dict) -> Phase:
    ops = tuple(
        PhaseOp(
            op=o["op"],
            kind=o["kind"],
            request_size=o["request_size"],
            disp=o["disp"],
            offset_fn=_offsetfn_from_dict(o["offset_fn"]),
            abs_offset_fn=_offsetfn_from_dict(o["abs_offset_fn"]),
        )
        for o in d["ops"]
    )
    return Phase(
        phase_id=d["phase_id"],
        file_group=d["file_group"],
        rep=d["rep"],
        ops=ops,
        ranks=tuple(d["ranks"]),
        tick=d["tick"],
        first_time=d["first_time"],
        duration=d["duration"],
        unique_file=d["unique_file"],
        file_ids=tuple(d["file_ids"]),
    )
