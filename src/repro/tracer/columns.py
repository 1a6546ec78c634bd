"""Columnar trace representation -- the characterization fast path.

A :class:`TraceColumns` holds one trace as parallel arrays (one per
Fig. 2 column) instead of one :class:`~repro.tracer.tracefile.TraceRecord`
dataclass per row.  This is the same storage idea that gives tracing
tools like Recorder and Darshan their scalability: at millions of I/O
events, per-event Python objects dominate both memory and CPU, while
columns parse in bulk, sort with one ``lexsort`` and feed the
vectorized LAP/phase kernels of :mod:`repro.core.lap`.

Two interchangeable backends:

* ``"numpy"`` -- int64/float64 ``ndarray`` columns (the default when
  numpy is importable and ``REPRO_NO_NUMPY`` is not set);
* ``"python"`` -- plain lists of ints/floats, so numpy stays an
  *optional* dependency.  Every operation, including the packed binary
  format, works identically on both.

On-disk formats:

* the Fig. 2 **text** format (via :func:`read_trace_columns`, sharing
  the strict header/error handling of ``read_trace_file``);
* a **packed-struct binary** format (``.trc``: magic + JSON header +
  little-endian int64/float64 column blobs), readable and writable by
  both backends;
* a **compressed npz** format (``.npz``, numpy only) for the smallest
  on-disk footprint.

Round-trip parity between the three is asserted by
``tests/tracer/test_columns.py``.
"""

from __future__ import annotations

import json
import os
import sys
from array import array
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .tracefile import ABS_OFFSET_UNKNOWN, TraceRecord

try:  # numpy is optional: every code path below has a pure-Python twin
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    np = None

#: Column names in serialization order (ints first, then floats).
INT_COLUMNS = ("rank", "file_id", "op_code", "offset", "tick",
               "request_size", "abs_offset")
FLOAT_COLUMNS = ("time", "duration")
ALL_COLUMNS = INT_COLUMNS + FLOAT_COLUMNS

#: Packed binary format magic (version 1).
MAGIC = b"REPROTRC1\n"

_TRUTHY = ("1", "true", "yes", "on")


def numpy_enabled() -> bool:
    """numpy importable and not disabled via ``REPRO_NO_NUMPY``."""
    return np is not None and \
        os.environ.get("REPRO_NO_NUMPY", "").lower() not in _TRUTHY


def default_backend() -> str:
    """The column backend new TraceColumns use: "numpy" or "python"."""
    return "numpy" if numpy_enabled() else "python"


def _as_int_column(values, backend: str):
    if backend == "numpy":
        return np.asarray(values, dtype=np.int64)
    return list(values)


def _as_float_column(values, backend: str):
    if backend == "numpy":
        return np.asarray(values, dtype=np.float64)
    return list(values)


class TraceColumns:
    """One trace as parallel columns plus an interned op-name table."""

    __slots__ = ALL_COLUMNS + ("op_table", "backend")

    def __init__(self, *, rank, file_id, op_code, offset, tick,
                 request_size, time, duration, abs_offset,
                 op_table: Sequence[str], backend: str | None = None):
        backend = backend or default_backend()
        if backend not in ("numpy", "python"):
            raise ValueError(f"unknown backend {backend!r}")
        if backend == "numpy" and np is None:
            raise RuntimeError("numpy backend requested but numpy is not "
                               "importable")
        self.backend = backend
        self.op_table = list(op_table)
        self.rank = _as_int_column(rank, backend)
        self.file_id = _as_int_column(file_id, backend)
        self.op_code = _as_int_column(op_code, backend)
        self.offset = _as_int_column(offset, backend)
        self.tick = _as_int_column(tick, backend)
        self.request_size = _as_int_column(request_size, backend)
        self.abs_offset = _as_int_column(abs_offset, backend)
        self.time = _as_float_column(time, backend)
        self.duration = _as_float_column(duration, backend)

    # -- construction ---------------------------------------------------------
    @classmethod
    def _empty_lists(cls) -> dict[str, list]:
        return {name: [] for name in ALL_COLUMNS}

    @classmethod
    def from_records(cls, records: Iterable[TraceRecord],
                     backend: str | None = None) -> "TraceColumns":
        """Build columns from TraceRecord rows (order preserved)."""
        cols = cls._empty_lists()
        op_table: list[str] = []
        op_index: dict[str, int] = {}
        append = [cols[name].append for name in
                  ("rank", "file_id", "op_code", "offset", "tick",
                   "request_size", "time", "duration", "abs_offset")]
        a_rank, a_fid, a_op, a_off, a_tick, a_rs, a_t, a_d, a_abs = append
        for r in records:
            code = op_index.get(r.op)
            if code is None:
                code = op_index[r.op] = len(op_table)
                op_table.append(r.op)
            a_rank(r.rank); a_fid(r.file_id); a_op(code)
            a_off(r.offset); a_tick(r.tick); a_rs(r.request_size)
            a_t(r.time); a_d(r.duration); a_abs(r.abs_offset)
        return cls(op_table=op_table, backend=backend, **cols)

    @classmethod
    def from_events(cls, events: Iterable,
                    backend: str | None = None) -> "TraceColumns":
        """Build columns straight from engine ``IOEvent`` objects."""
        cols = cls._empty_lists()
        op_table: list[str] = []
        op_index: dict[str, int] = {}
        for e in events:
            code = op_index.get(e.op)
            if code is None:
                code = op_index[e.op] = len(op_table)
                op_table.append(e.op)
            cols["rank"].append(e.rank)
            cols["file_id"].append(e.file_id)
            cols["op_code"].append(code)
            cols["offset"].append(e.offset)
            cols["tick"].append(e.tick)
            cols["request_size"].append(e.request_size)
            cols["time"].append(e.time)
            cols["duration"].append(e.duration)
            cols["abs_offset"].append(e.abs_offset)
        return cls(op_table=op_table, backend=backend, **cols)

    # -- basic views ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.rank)

    def column_lists(self) -> dict[str, list]:
        """Every column as a plain Python list, in a fresh dict.

        Read-only: on the python backend the lists are the stored
        columns themselves (no copy), so callers may rebind the dict's
        keys but must not mutate the lists.
        """
        if self.backend == "numpy":
            return {name: getattr(self, name).tolist()
                    for name in ALL_COLUMNS}
        return {name: getattr(self, name) for name in ALL_COLUMNS}

    def op_at(self, i: int) -> str:
        return self.op_table[int(self.op_code[i])]

    def record(self, i: int) -> TraceRecord:
        """Materialize one row as a TraceRecord (on demand only)."""
        return TraceRecord(
            rank=int(self.rank[i]), file_id=int(self.file_id[i]),
            op=self.op_at(i), offset=int(self.offset[i]),
            tick=int(self.tick[i]), request_size=int(self.request_size[i]),
            time=float(self.time[i]), duration=float(self.duration[i]),
            abs_offset=int(self.abs_offset[i]))

    def iter_records(self) -> Iterator[TraceRecord]:
        cols = self.column_lists()
        table = self.op_table
        for rank, fid, code, off, tick, rs, t, d, aoff in zip(
                cols["rank"], cols["file_id"], cols["op_code"],
                cols["offset"], cols["tick"], cols["request_size"],
                cols["time"], cols["duration"], cols["abs_offset"]):
            yield TraceRecord(rank=rank, file_id=fid, op=table[code],
                              offset=off, tick=tick, request_size=rs,
                              time=t, duration=d, abs_offset=aoff)

    def to_records(self) -> list[TraceRecord]:
        return list(self.iter_records())

    @property
    def total_bytes(self) -> int:
        if self.backend == "numpy":
            return int(self.request_size.sum())
        return sum(self.request_size)

    @property
    def nfiles(self) -> int:
        if self.backend == "numpy":
            return len(np.unique(self.file_id)) if len(self) else 0
        return len(set(self.file_id))

    # -- reordering -----------------------------------------------------------
    def take(self, indices) -> "TraceColumns":
        """New TraceColumns holding rows ``indices`` in that order."""
        kwargs = {}
        if self.backend == "numpy":
            if isinstance(indices, range) and indices.step == 1:
                # contiguous row window: O(1) views instead of an O(n)
                # index materialization + fancy-index copy -- this is
                # the binary-bundle streaming re-slice hot path
                for name in ALL_COLUMNS:
                    kwargs[name] = getattr(self, name)[indices.start:
                                                       indices.stop]
                return TraceColumns(op_table=self.op_table,
                                    backend=self.backend, **kwargs)
            idx = np.asarray(indices)
            for name in ALL_COLUMNS:
                kwargs[name] = getattr(self, name)[idx]
        else:
            indices = list(indices)
            for name in ALL_COLUMNS:
                col = getattr(self, name)
                kwargs[name] = [col[i] for i in indices]
        return TraceColumns(op_table=self.op_table, backend=self.backend,
                            **kwargs)

    def sorted_canonical(self) -> "TraceColumns":
        """Stable sort by (rank, time, tick) -- the Tracer bundle order."""
        n = len(self)
        if n <= 1:
            return self
        if self.backend == "numpy":
            order = np.lexsort((self.tick, self.time, self.rank))
            return self.take(order)
        order = sorted(range(n), key=lambda i: (self.rank[i], self.time[i],
                                                self.tick[i]))
        return self.take(order)

    @classmethod
    def concat(cls, parts: Sequence["TraceColumns"],
               backend: str | None = None) -> "TraceColumns":
        """Concatenate traces (per-rank files -> one bundle), remapping
        each part's op codes onto a merged op table."""
        backend = backend or (parts[0].backend if parts else default_backend())
        op_table: list[str] = []
        op_index: dict[str, int] = {}
        if backend == "numpy" and np is not None \
                and all(p.backend == "numpy" for p in parts):
            # array fast path: remap op codes through a lookup vector
            # and concatenate columns wholesale -- no per-row Python
            # loop.  Interning order (first appearance across parts)
            # matches the list path, so content_digest is unchanged.
            arrs: dict[str, list] = {name: [] for name in ALL_COLUMNS}
            for part in parts:
                remap = []
                for op in part.op_table:
                    code = op_index.get(op)
                    if code is None:
                        code = op_index[op] = len(op_table)
                        op_table.append(op)
                    remap.append(code)
                codes = part.op_code
                if remap != list(range(len(remap))) and len(codes):
                    codes = np.asarray(remap, dtype=np.int64)[codes]
                for name in ALL_COLUMNS:
                    col = codes if name == "op_code" else getattr(part, name)
                    arrs[name].append(col)
            kwargs = {}
            for name in ALL_COLUMNS:
                if arrs[name]:
                    kwargs[name] = np.concatenate(arrs[name])
                else:
                    dtype = np.float64 if name in FLOAT_COLUMNS else np.int64
                    kwargs[name] = np.zeros(0, dtype=dtype)
            return cls(op_table=op_table, backend=backend, **kwargs)
        cols = cls._empty_lists()
        for part in parts:
            remap = []
            for op in part.op_table:
                code = op_index.get(op)
                if code is None:
                    code = op_index[op] = len(op_table)
                    op_table.append(op)
                remap.append(code)
            lists = part.column_lists()
            if remap != list(range(len(remap))):
                lists["op_code"] = [remap[c] for c in lists["op_code"]]
            for name in ALL_COLUMNS:
                cols[name].extend(lists[name])
        return cls(op_table=op_table, backend=backend, **cols)

    def content_digest(self) -> str:
        """sha256 hex digest of the trace content (backend-independent).

        Hashes per-column sub-digests of the canonical little-endian
        column blobs (the packed ``.trc`` encoding) plus the op table,
        so the numpy and python backends -- and a round-trip through
        any of the on-disk formats -- produce the same digest.  Used as
        the content address of characterization results in the
        persistent store.

        The column sub-digest structure makes the digest *streamable*:
        a :class:`StreamDigest` fed the same rows chunk by chunk
        finalizes to the identical hex string without ever holding the
        full columns (per-chunk blobs concatenate to per-column blobs).
        """
        sd = StreamDigest()
        sd.update({name: getattr(self, name) for name in ALL_COLUMNS},
                  backend=self.backend)
        return sd.finalize(self.op_table)

    # -- persistence ----------------------------------------------------------
    def dump_trc(self, f) -> None:
        """Write the packed ``.trc`` encoding to a binary file object.

        This is the canonical compact bundle: magic + JSON header +
        little-endian int64/float64 column blobs.  It doubles as the
        wire encoding of a trace (``to_bytes``) for the cluster
        executor -- columns never cross a socket as pickles.
        """
        f.write(MAGIC)
        header = {"version": 1, "n": len(self),
                  "op_table": self.op_table,
                  "columns": list(ALL_COLUMNS)}
        f.write(json.dumps(header).encode("utf-8") + b"\n")
        for name in INT_COLUMNS:
            f.write(_int_blob(getattr(self, name), self.backend))
        for name in FLOAT_COLUMNS:
            f.write(_float_blob(getattr(self, name), self.backend))

    @classmethod
    def load_trc(cls, f, backend: str | None = None,
                 what: str = "<stream>") -> "TraceColumns":
        """Read one packed ``.trc`` encoding from a binary file object."""
        backend = backend or default_backend()
        magic = f.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"{what}: not a packed trace file "
                             f"(bad magic {magic!r})")
        header = json.loads(f.readline().decode("utf-8"))
        n = header["n"]
        kwargs = {}
        for name in INT_COLUMNS:
            kwargs[name] = _read_int_blob(f, n, backend)
        for name in FLOAT_COLUMNS:
            kwargs[name] = _read_float_blob(f, n, backend)
        return cls(op_table=header["op_table"], backend=backend, **kwargs)

    def to_bytes(self) -> bytes:
        """The packed ``.trc`` encoding as one bytes object."""
        import io

        buf = io.BytesIO()
        self.dump_trc(buf)
        return buf.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes,
                   backend: str | None = None) -> "TraceColumns":
        """Decode a :meth:`to_bytes` blob (the ``.trc`` wire format)."""
        import io

        return cls.load_trc(io.BytesIO(data), backend=backend,
                            what="<bytes>")

    def save(self, path: str | Path) -> Path:
        """Write the binary trace: ``.npz`` (numpy) or packed ``.trc``.

        Both formats write atomically (temp file in the same directory,
        then rename): a killed run never leaves a truncated bundle that
        a later :meth:`load` would reject.
        """
        from repro.ioutil import atomic_path

        path = Path(path)
        if path.suffix == ".npz":
            if np is None:
                raise RuntimeError(".npz requires numpy; use the packed "
                                   "'.trc' format instead")
            with atomic_path(path) as tmp:
                np.savez_compressed(
                    tmp, op_table=np.array(self.op_table, dtype=str),
                    **{name: np.asarray(getattr(self, name))
                       for name in ALL_COLUMNS})
            return path
        with atomic_path(path) as tmp:
            with tmp.open("wb") as f:
                self.dump_trc(f)
        return path

    @classmethod
    def load(cls, path: str | Path,
             backend: str | None = None) -> "TraceColumns":
        """Read a binary trace written by :meth:`save` (either format)."""
        path = Path(path)
        backend = backend or default_backend()
        if path.suffix == ".npz":
            if np is None:
                raise RuntimeError(f"{path} is an .npz trace but numpy is "
                                   "not importable")
            with np.load(path) as data:
                op_table = [str(x) for x in data["op_table"]]
                kwargs = {name: data[name] for name in ALL_COLUMNS}
            if backend == "python":
                kwargs = {k: v.tolist() for k, v in kwargs.items()}
            return cls(op_table=op_table, backend=backend, **kwargs)
        with path.open("rb") as f:
            return cls.load_trc(f, backend=backend, what=str(path))


class StreamDigest:
    """Running :meth:`TraceColumns.content_digest` over column chunks.

    Keeps one sha256 per column (O(1) memory however long the trace);
    :meth:`update` hashes a chunk's column blobs, :meth:`finalize`
    combines the sub-digests with the header exactly as
    ``content_digest`` does.  Op codes must already be *global* (interned
    against the final op table in first-appearance order) -- the
    :class:`~repro.core.lap.LAPFolder` does that remapping as it folds.
    """

    __slots__ = ("_cols", "nrows")

    def __init__(self):
        import hashlib

        self._cols = {name: hashlib.sha256() for name in ALL_COLUMNS}
        self.nrows = 0

    def update(self, lists: Mapping[str, Sequence],
               backend: str = "python") -> None:
        """Fold one chunk (a column-name -> sequence mapping)."""
        for name in INT_COLUMNS:
            self._cols[name].update(_int_blob(lists[name], backend))
        for name in FLOAT_COLUMNS:
            self._cols[name].update(_float_blob(lists[name], backend))
        self.nrows += len(lists["rank"])

    def finalize(self, op_table: Sequence[str]) -> str:
        """The digest of the concatenated chunks (repeatable)."""
        import hashlib

        h = hashlib.sha256()
        h.update(MAGIC)
        h.update(json.dumps({"n": self.nrows, "op_table": list(op_table)},
                            sort_keys=True).encode("utf-8"))
        for name in ALL_COLUMNS:
            h.update(self._cols[name].digest())
        return h.hexdigest()


def _int_blob(col, backend: str) -> bytes:
    if backend == "numpy":
        return np.asarray(col, dtype=np.int64).astype("<i8", copy=False).tobytes()
    a = array("q", col)
    if sys.byteorder == "big":  # pragma: no cover
        a.byteswap()
    return a.tobytes()


def _float_blob(col, backend: str) -> bytes:
    if backend == "numpy":
        return np.asarray(col, dtype=np.float64).astype("<f8", copy=False).tobytes()
    a = array("d", col)
    if sys.byteorder == "big":  # pragma: no cover
        a.byteswap()
    return a.tobytes()


def _read_blob(f, n: int, typecode: str, dtype: str, backend: str):
    blob = f.read(8 * n)
    if len(blob) != 8 * n:
        raise ValueError("truncated packed trace file")
    if backend == "numpy":
        return np.frombuffer(blob, dtype=dtype).copy()
    a = array(typecode)
    a.frombytes(blob)
    if sys.byteorder == "big":  # pragma: no cover
        a.byteswap()
    return list(a)


def _read_int_blob(f, n: int, backend: str):
    return _read_blob(f, n, "q", "<i8", backend)


def _read_float_blob(f, n: int, backend: str):
    return _read_blob(f, n, "d", "<f8", backend)


# -- text-format parsing ------------------------------------------------------

def read_trace_columns(path: str | Path, *,
                       etype_size: int | Mapping[int, int] | None = None,
                       backend: str | None = None,
                       quarantine=None,
                       jobs: int | None = None,
                       cache: bool | None = None) -> TraceColumns:
    """Parse a Fig. 2 text trace into columns through the ingest engine.

    Delegates to :func:`repro.tracer.ingest.ingest_columns`, whose one
    block driver parses each newline-aligned block with the bulk numpy
    tokenizer when it proves the block clean and with
    :func:`_parse_chunk` otherwise; ``jobs`` > 1 shards the file and an
    attached store caches the parse.  The output equals
    ``TraceColumns.from_records(read_trace_file(...))`` -- the
    independent record parser is the reference oracle.  Parsing and
    error handling match
    :func:`repro.tracer.tracefile.read_trace_file`: the header is
    skipped only when line 1 equals ``HEADER`` exactly, malformed rows
    raise ``ValueError`` with ``path:lineno``, and legacy 8-field rows
    resolve ``AbsOffset`` through ``etype_size`` (scalar or
    ``{file_id: etype}`` map) or the ``ABS_OFFSET_UNKNOWN`` sentinel.

    With ``quarantine`` (a
    :class:`~repro.tracer.quarantine.QuarantineReport`) malformed rows
    are recorded and skipped instead of raising; every well-formed row
    around them is salvaged, and column alignment is preserved (a row is
    appended only after *all* its fields parsed).

    ``jobs`` / ``cache`` tune the engine (``None`` = resolve from the
    ``REPRO_INGEST_JOBS`` env var / store attachment); see
    :mod:`repro.tracer.ingest`.
    """
    from .ingest import ingest_columns

    return ingest_columns(path, etype_size=etype_size, backend=backend,
                          quarantine=quarantine, jobs=jobs, cache=cache)


#: Every ASCII whitespace character but the single-space field
#: separator and the newline line break (tab, \v, \f, \r, \x1c-\x1f):
#: its presence disqualifies a batch from the flat fast path.  Non-ASCII
#: batches never take it, so unicode spaces need no scan of their own.
_ODD_WS = "\t\x0b\x0c\r\x1c\x1d\x1e\x1f"


def _parse_chunk(raw_lines, base_lineno, path, cols, op_table, op_index,
                 etype_size, quarantine=None) -> None:
    """Append one batch of text lines (line 1 is ``base_lineno``) to ``cols``.

    The ingest block driver's non-bulk path: the stride-9 flat
    tokenizer takes the batch when it proves every line a clean 9-field
    row, otherwise the exact row parser does.  Lines may carry their
    terminator or not.  Op codes intern into the shared
    ``op_table``/``op_index`` in first-appearance order.
    """
    if _parse_chunk_flat(raw_lines, cols, op_table, op_index):
        return
    # exact row-by-row re-parse: precise error locations, 8-field
    # legacy rows, blank-line skips, quarantine salvage
    pending = []
    for i, raw in enumerate(raw_lines):
        line = raw.strip()
        if line:
            pending.append((base_lineno + i, line))
    rows = [line.split() for _, line in pending]
    _parse_chunk_rows(pending, rows, path, cols, op_table, op_index,
                      etype_size, quarantine)


def _parse_chunk_flat(raw_lines, cols, op_table, op_index) -> bool:
    """Single-pass tokenizer for the dominant case: clean 9-field rows.

    The whole chunk is tokenized with one ``str.split`` and each column
    converted with one C-level ``map`` over a stride-9 slice -- no
    per-line list, no per-field Python-loop conversion.  Committing is
    gated on an exact alignment proof: the batch must be ASCII and free
    of any whitespace except single-space separators and newlines (no
    tabs, no runs, no space at a line edge) and every line must carry
    exactly eight separators -- so each line provably contributes
    exactly nine whitespace-free tokens and the stride slices cannot
    silently mix columns across malformed lines.  Anything else --
    legacy 8-field rows, runs of whitespace, non-ASCII text, malformed
    values -- returns False untouched and falls back to the exact
    row-wise parser.
    """
    n = len(raw_lines)
    if not n:
        return True
    # a line's own terminator only doubles a newline, which no check
    # below and no str.split() token sees
    joined = "\n".join(raw_lines)
    # One C-level scan each: any non-ASCII text, any whitespace other
    # than the single-space separators and the newline line breaks
    # (tabs, \r), any empty field (adjacent spaces, space at a line
    # edge) -- all disqualify the whole batch.
    if (not joined.isascii() or any(c in joined for c in _ODD_WS)
            or "  " in joined or " \n" in joined or "\n " in joined
            or joined.startswith(" ") or joined.endswith(" ")):
        return False
    for raw in raw_lines:
        if raw.count(" ") != 8:
            return False
    flat = joined.split()
    if len(flat) != 9 * n:  # unreachable given the guard; kept as a belt
        return False
    try:
        rank = list(map(int, flat[0::9]))
        fid = list(map(int, flat[1::9]))
        off = list(map(int, flat[3::9]))
        tick = list(map(int, flat[4::9]))
        rs = list(map(int, flat[5::9]))
        time = list(map(float, flat[6::9]))
        dur = list(map(float, flat[7::9]))
        abs_off = list(map(int, flat[8::9]))
    except ValueError:
        return False  # malformed value: let the exact parser locate it
    codes = []
    append_code = codes.append
    get = op_index.get
    for op in flat[2::9]:
        code = get(op)
        if code is None:
            code = op_index[op] = len(op_table)
            op_table.append(op)
        append_code(code)
    cols["rank"].extend(rank)
    cols["file_id"].extend(fid)
    cols["op_code"].extend(codes)
    cols["offset"].extend(off)
    cols["tick"].extend(tick)
    cols["request_size"].extend(rs)
    cols["time"].extend(time)
    cols["duration"].extend(dur)
    cols["abs_offset"].extend(abs_off)
    return True


def _parse_chunk_rows(pending, rows, path, cols, op_table, op_index,
                      etype_size, quarantine=None) -> None:
    is_map = isinstance(etype_size, Mapping)
    salvaging = quarantine is not None and not quarantine.strict
    if salvaging:
        from .quarantine import guess_rank
    for (lineno, line), parts in zip(pending, rows):
        if len(parts) not in (8, 9):
            if salvaging:
                quarantine.note(path, guess_rank(line), lineno,
                                f"malformed trace line ({len(parts)} fields)",
                                line)
                continue
            raise ValueError(f"{path}:{lineno}: malformed trace line "
                             f"({len(parts)} fields): {line!r}")
        try:
            # Parse every field before appending anything, so a bad row
            # can be skipped without skewing column alignment.
            rank = int(parts[0])
            fid = int(parts[1])
            off = int(parts[3])
            tick = int(parts[4])
            rs = int(parts[5])
            t = float(parts[6])
            d = float(parts[7])
            if len(parts) == 9:
                abs_off = int(parts[8])
            else:
                es = etype_size.get(fid) if is_map else etype_size
                abs_off = off * es if es else ABS_OFFSET_UNKNOWN
        except ValueError:
            if salvaging:
                quarantine.note(path, guess_rank(line), lineno,
                                "malformed trace line", line)
                continue
            raise ValueError(f"{path}:{lineno}: malformed trace line: "
                             f"{line!r}") from None
        cols["rank"].append(rank)
        cols["file_id"].append(fid)
        op = parts[2]
        code = op_index.get(op)
        if code is None:
            code = op_index[op] = len(op_table)
            op_table.append(op)
        cols["op_code"].append(code)
        cols["offset"].append(off)
        cols["tick"].append(tick)
        cols["request_size"].append(rs)
        cols["time"].append(t)
        cols["duration"].append(d)
        cols["abs_offset"].append(abs_off)
