"""Local Access Pattern (LAP) extraction -- paper section III-A.1, Fig. 3.

A LAP compresses one process's trace into repetitive units.  Extraction
runs in three steps per (rank, file):

1. **Burst splitting.**  Consecutive I/O records whose tick delta is
   <= ``gap`` (default 1: strictly adjacent MPI events) belong to one
   *burst*.  A tick gap means other MPI events (communication) happened
   in between -- that is the paper's cue that a new phase begins (the
   Fig. 5 example: writes separated by ~121 communication ticks are
   distinct phases; the 40 back-to-back reads are one).

2. **Tandem-repeat compression.**  Within a burst, find maximal runs of
   a repeating *unit* of 1..3 operations.  A unit member matches across
   repetitions when op name and request size agree and its offset
   advances by a constant displacement ``disp``.  This is what
   decomposes MADbench2's W function (R R W R W R ... W W) into the
   paper's Table VIII rows: reads(rep 2), write-read(rep 6), writes(rep 2).

3. Each compressed group becomes a :class:`LAPEntry` (the Fig. 3 rows):
   idP, idF, op(s), rep, request size, disp, initial offset.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import and_, attrgetter, eq, sub
from typing import Callable, Sequence

from repro.tracer.tracefile import TraceRecord

#: Maximum repeating-unit length the tandem detector searches for.
MAX_UNIT = 3


@dataclass(frozen=True)
class LAPOp:
    """One operation of a (possibly multi-op) repeating unit."""

    op: str  # MPI routine name
    kind: str  # "write" | "read"
    request_size: int  # bytes (rs)
    disp: int  # offset displacement between repetitions (etype units)
    init_offset: int  # view-relative initial offset (etype units)
    init_abs_offset: int  # absolute initial byte offset


@dataclass(frozen=True)
class LAPEntry:
    """One row group of the LAP file (Fig. 3) for a single process."""

    rank: int
    file_id: int
    rep: int
    ops: tuple[LAPOp, ...]
    first_tick: int
    last_tick: int
    first_time: float
    total_duration: float

    @property
    def signature(self) -> tuple:
        """What must match across processes for LAPs to be 'similar'
        (everything except the initial offsets -- Table I's simLAP)."""
        return (
            self.file_id,
            self.rep,
            tuple((o.op, o.request_size, o.disp) for o in self.ops),
        )

    @property
    def nbytes(self) -> int:
        """Bytes this process moves in the entry: rep * sum of unit sizes."""
        return self.rep * sum(o.request_size for o in self.ops)

    def to_lines(self) -> list[str]:
        """Fig. 3-style text rows: IdP IdF Op Rep RequestSize Disp OffsetInit."""
        return [
            f"{self.rank} {self.file_id} {o.op} {self.rep} "
            f"{o.request_size} {o.disp} {o.init_offset}"
            for o in self.ops
        ]


def split_bursts(records: Sequence[TraceRecord], gap: int = 1) -> list[list[TraceRecord]]:
    """Split one rank's (single-file) records into tick-adjacent bursts."""
    bursts: list[list[TraceRecord]] = []
    for rec in records:
        if bursts and rec.tick - bursts[-1][-1].tick <= gap:
            bursts[-1].append(rec)
        else:
            bursts.append([rec])
    return bursts


def _unit_matches(records: Sequence[TraceRecord], start: int, unit: int) -> int:
    """Number of consecutive repetitions of the unit beginning at ``start``.

    Repetition k matches when, for every unit member j, the record at
    ``start + k*unit + j`` has the same op and request size as the
    member's first occurrence and its offset advances linearly
    (constant per-member displacement established by the first two
    repetitions).
    """
    n = len(records)
    if start + unit > n:
        return 0
    base = records[start:start + unit]
    reps = 1
    disp: list[int | None] = [None] * unit
    while True:
        lo = start + reps * unit
        if lo + unit > n:
            break
        ok = True
        for j in range(unit):
            a, b = base[j], records[lo + j]
            if a.op != b.op or a.request_size != b.request_size:
                ok = False
                break
            prev = records[lo + j - unit]
            step = b.offset - prev.offset
            if disp[j] is None:
                disp[j] = step
            elif disp[j] != step:
                ok = False
                break
        if not ok:
            break
        reps += 1
    return reps


def compress_burst(records: Sequence[TraceRecord]) -> list[LAPEntry]:
    """Tandem-repeat compression of one burst into LAP entries.

    Greedy scan: at each position try unit lengths 1..MAX_UNIT, pick the
    one covering the most records, emit an entry, continue after it.
    Multi-operation units must repeat at least three times -- any two
    pairs of records form a trivially "consistent" 2-unit pattern, so two
    repetitions carry no evidence of periodicity.
    """
    entries: list[LAPEntry] = []
    i = 0
    n = len(records)
    while i < n:
        best_unit, best_reps = 1, _unit_matches(records, i, 1)
        for unit in range(2, MAX_UNIT + 1):
            reps = _unit_matches(records, i, unit)
            if reps >= 3 and reps * unit > best_reps * best_unit:
                best_unit, best_reps = unit, reps
        chunk = records[i:i + best_unit * best_reps]
        entries.append(_make_entry(chunk, best_unit, best_reps))
        i += best_unit * best_reps
    return entries


def _make_entry(chunk: Sequence[TraceRecord], unit: int, reps: int) -> LAPEntry:
    ops = []
    for j in range(unit):
        first = chunk[j]
        if reps > 1:
            disp = chunk[unit + j].offset - chunk[j].offset
        else:
            disp = 0
        ops.append(LAPOp(
            op=first.op,
            kind=first.kind,
            request_size=first.request_size,
            disp=disp,
            init_offset=first.offset,
            init_abs_offset=first.abs_offset,
        ))
    return LAPEntry(
        rank=chunk[0].rank,
        file_id=chunk[0].file_id,
        rep=reps,
        ops=tuple(ops),
        first_tick=chunk[0].tick,
        last_tick=chunk[-1].tick,
        first_time=chunk[0].time,
        total_duration=sum(r.duration for r in chunk),
    )


def extract_laps(records: Sequence[TraceRecord], gap: int = 1) -> list[LAPEntry]:
    """Full LAP extraction for an entire trace (all ranks, all files).

    Records are grouped by (rank, file) preserving order, burst-split by
    tick adjacency, and tandem-compressed.  Entries come back ordered by
    (rank, file, first_tick).
    """
    by_rank_file: dict[tuple[int, int], list[TraceRecord]] = {}
    for rec in records:
        by_rank_file.setdefault((rec.rank, rec.file_id), []).append(rec)
    entries: list[LAPEntry] = []
    for key in sorted(by_rank_file):
        for burst in split_bursts(by_rank_file[key], gap=gap):
            entries.extend(compress_burst(burst))
    entries.sort(key=lambda e: (e.rank, e.file_id, e.first_tick))
    return entries


# -- columnar extraction ------------------------------------------------------
#
# The same three steps over ``repro.tracer.columns.TraceColumns`` chunks
# instead of per-record objects: :class:`LAPFolder` splits rows into
# (rank, file) runs and tick-adjacent bursts, and ``LAPFolder._scan``
# runs the ``compress_burst`` greedy over primitive column lists.  The
# equivalence with the record path is asserted property-test-style in
# tests/core/test_columnar_equivalence.py and tests/core/test_stream.py.

def extract_laps_columns(cols, gap: int = 1) -> list[LAPEntry]:
    """:func:`extract_laps` over a ``TraceColumns`` -- identical output.

    A one-chunk :class:`LAPFolder` fold.  It drives the folder's inner
    steps rather than :meth:`LAPFolder.push` / :meth:`LAPFolder.finish`,
    so instrumentation wrapped around those methods and this function
    counts each row and entry once.
    """
    folder = LAPFolder(gap=gap, digest=False)
    folder._fold(cols)
    return folder._close()


def _make_reps_fn(op: list, rs: list, off: list) -> Callable[[int, int, int], int]:
    """The greedy-scan repetition query over column lists."""

    def reps_fn(i: int, u: int, e: int, op=op, rs=rs, off=off) -> int:
        if u == 1:  # the hot query: tight single-op scan
            o0, r0 = op[i], rs[i]
            p = i + 1
            if p >= e or op[p] != o0 or rs[p] != r0:
                return 1
            d = off[p] - off[i]
            p += 1
            while (p < e and op[p] == o0 and rs[p] == r0
                   and off[p] - off[p - 1] == d):
                p += 1
            return p - i
        # direct port of _unit_matches onto the column lists
        if i + u > e:
            return 0
        reps = 1
        disp: list[int | None] = [None] * u
        while True:
            lo = i + reps * u
            if lo + u > e:
                break
            ok = True
            for j in range(u):
                p = lo + j
                b = i + j
                if op[b] != op[p] or rs[b] != rs[p]:
                    ok = False
                    break
                step = off[p] - off[p - u]
                dj = disp[j]
                if dj is None:
                    disp[j] = step
                elif dj != step:
                    ok = False
                    break
            if not ok:
                break
            reps += 1
        return reps

    return reps_fn


def _full_run(op, off, rs, s: int, e: int, u: int) -> int:
    """``(e - s) // u`` if the burst ``[s, e)`` is *exactly* a tandem
    repetition of the unit of length ``u`` (with the >= 3 repetition
    floor for multi-op units), else 0.  Runs on C-level slice
    comparisons -- no per-event Python loop."""
    r, rem = divmod(e - s, u)
    if rem or (u > 1 and r < 3):
        return 0
    if r > 1:
        unit_op, unit_rs = op[s:s + u], rs[s:s + u]
        if op[s:e] != unit_op * r or rs[s:e] != unit_rs * r:
            return 0
        for j in range(u):
            col = off[s + j:e:u]
            d = col[1] - col[0]
            if col[1:] != list(map(d.__add__, col[:-1])):
                return 0
    return r


class LAPFolder:
    """Incremental LAP extraction over a *streamed* trace.

    Feed trace chunks (``TraceColumns`` slices, e.g. from
    :func:`repro.tracer.ingest.iter_ingest_chunks`) through
    :meth:`push`; :meth:`finish` returns the LAP entries.  Memory is
    O(open bursts + emitted entries + op table): within each chunk the
    bursts that close are tandem-compressed straight from the chunk's
    column lists, and only a (rank, file)'s burst still open at the end
    of its run is buffered until a tick gap (or end of stream) closes
    it.

    The output is **bit-identical** to :func:`extract_laps` over the
    full trace, provided the chunks preserve each (rank, file)'s record
    order -- any interleaving *across* keys is fine (burst buffers are
    per-key and the final entry list is sorted like the record path).
    A :class:`~repro.tracer.columns.StreamDigest` runs alongside, so
    after :meth:`finish` the folder knows the stream's content digest
    without ever having materialized the columns.
    """

    #: Column lists a burst needs, in ``_scan``'s unpacking order.
    _COLS = ("op_code", "offset", "tick", "request_size", "time",
             "duration", "abs_offset")

    def __init__(self, gap: int = 1, digest: bool = True):
        from repro.tracer.columns import StreamDigest

        self.gap = gap
        self.op_table: list[str] = []
        self._kinds: list[str] = []  # op code -> "write" | "read"
        self._op_index: dict[str, int] = {}
        #: (rank, file_id) -> the open burst's lists, in _COLS order
        self._open: dict[tuple[int, int], list[list]] = {}
        self._entries: list[LAPEntry] = []
        # digest=False skips the per-chunk sha256 work entirely -- for
        # callers that will never ask for content_digest() (e.g. a
        # streaming characterization with no store attached)
        self.digest = StreamDigest() if digest else None
        self.nrows = 0
        self.peak_open_rows = 0  # high-water mark of buffered rows
        self._finished = False

    # -- ingestion ------------------------------------------------------------
    def push(self, chunk) -> None:
        """Fold one ``TraceColumns`` chunk (any backend, any op table)."""
        if self._finished:
            raise RuntimeError("LAPFolder already finished")
        self._fold(chunk)

    def _fold(self, chunk) -> None:
        lists = chunk.column_lists()
        remap = []
        for op in chunk.op_table:
            code = self._op_index.get(op)
            if code is None:
                code = self._op_index[op] = len(self.op_table)
                self.op_table.append(op)
                self._kinds.append("write" if "write" in op else "read")
            remap.append(code)
        if remap != list(range(len(remap))):
            lists["op_code"] = [remap[c] for c in lists["op_code"]]
        if self.digest is not None:
            self.digest.update(lists)
        rank, fid = lists["rank"], lists["file_id"]
        n = len(rank)
        self.nrows += n
        if n == 0:
            return
        cols = [lists[name] for name in self._COLS]
        # (rank, file) runs via C-speed pair-equality masks plus
        # ``list.index`` scans from one run boundary to the next
        same = list(map(and_, map(eq, rank[1:], rank),
                        map(eq, fid[1:], fid)))
        a = 0
        while a < n:
            try:
                b = same.index(False, a) + 1
            except ValueError:
                b = n
            self._push_run((rank[a], fid[a]), cols, a, b)
            a = b
        open_rows = sum(len(buf[0]) for buf in self._open.values())
        if open_rows > self.peak_open_rows:
            self.peak_open_rows = open_rows

    def _push_run(self, key: tuple[int, int], cols: list[list],
                  a: int, b: int) -> None:
        """Fold one constant-(rank, file) run ``[a, b)`` of a chunk.

        Every burst that closes inside the run goes to one ``_scan``
        call; only the burst still open at the run's end is buffered.
        """
        gap = self.gap
        tick = cols[2]
        # burst bounds: the run's ends plus every tick step > gap
        gapped = map(gap.__lt__, map(sub, tick[a + 1:b], tick[a:b - 1]))
        bounds = [a, *compress(range(a + 1, b), gapped), b]
        buf = self._open.get(key)
        if buf is not None:
            if tick[a] - buf[2][-1] <= gap:
                # the run's first burst extends the open one
                e = bounds[1]
                for col, src in zip(buf, cols):
                    col += src[a:e]
                if e == b:
                    return
                del bounds[0]
            self._scan(key, buf, [(0, len(buf[0]))])
        if len(bounds) > 2:
            self._scan(key, cols, list(zip(bounds, bounds[1:-1])))
        last = bounds[-2]
        self._open[key] = [src[last:b] for src in cols]

    # -- compression ----------------------------------------------------------
    def _scan(self, key: tuple[int, int], cols: list[list],
              bursts: list[tuple[int, int]]) -> None:
        """The greedy compress_burst scan over one (rank, file)'s
        column lists, one ``[s, e)`` range per burst."""
        op, off, tick, rs, time, dur, aoff = cols
        rank, fid = key
        op_table, kinds = self.op_table, self._kinds
        reps_fn = _make_reps_fn(op, rs, off)
        entries = self._entries
        # LAPOp/LAPEntry are constructed tens of thousands of times per
        # trace; frozen-dataclass __init__ pays one object.__setattr__ per
        # field.  __new__ + a bulk __dict__.update builds the identical
        # object (plain non-slots dataclasses: eq/hash/repr all read the
        # same __dict__) at a fraction of the cost.
        new_op, new_entry = LAPOp.__new__, LAPEntry.__new__

        def emit(i: int, best_u: int, best_r: int) -> int:
            end = i + best_u * best_r
            ops = []
            for j in range(best_u):
                p = i + j
                code = op[p]
                o = new_op(LAPOp)
                o.__dict__.update(
                    op=op_table[code],
                    kind=kinds[code],
                    request_size=rs[p],
                    disp=off[p + best_u] - off[p] if best_r > 1 else 0,
                    init_offset=off[p],
                    init_abs_offset=aoff[p],
                )
                ops.append(o)
            en = new_entry(LAPEntry)
            en.__dict__.update(
                rank=rank,
                file_id=fid,
                rep=best_r,
                ops=tuple(ops),
                first_tick=tick[i],
                last_tick=tick[end - 1],
                first_time=time[i],
                # sum() over the list slice accumulates left-to-right in
                # the same order as the record path: bit-identical floats
                total_duration=sum(dur[i:end]),
            )
            entries.append(en)
            return end

        for s, e in bursts:
            if e - s == 1:  # a lone event (BT-IO's per-step writes)
                emit(s, 1, 1)
                continue
            # Whole-burst fast path.  In the paper's apps a burst is almost
            # always one exact tandem run, and the greedy scan provably
            # agrees with the short-circuit:
            #   u=1 full: no longer unit can strictly beat full coverage.
            #   u=2 full: unit 1 fell short (r1 < e-s), so 2*r2 = e-s wins;
            #     unit 3 cannot strictly beat it.
            #   u=3 full: both shorter units fell short of e-s (a failed
            #     full-run test bounds their coverage strictly below e-s),
            #     so 3*r3 = e-s wins.
            # The tests run in the greedy's own preference order.
            for u in range(1, MAX_UNIT + 1):
                r = _full_run(op, off, rs, s, e, u)
                if r:
                    emit(s, u, r)
                    break
            else:
                i = s
                while i < e:
                    best_u, best_r = 1, reps_fn(i, 1, e)
                    if i + best_r < e:
                        # a unit-u run covers at most e - i events, so once
                        # the unit-1 run reaches the burst end no longer
                        # unit can strictly beat its coverage
                        for u in range(2, MAX_UNIT + 1):
                            r = reps_fn(i, u, e)
                            if r >= 3 and r * u > best_r * best_u:
                                best_u, best_r = u, r
                    i = emit(i, best_u, best_r)

    def finish(self) -> list[LAPEntry]:
        """Close the remaining bursts; entries in the record-path order."""
        if not self._finished:
            self._close()
        return self._entries

    def _close(self) -> list[LAPEntry]:
        for key in sorted(self._open):
            buf = self._open[key]
            self._scan(key, buf, [(0, len(buf[0]))])
        self._open.clear()
        # a stable sort: entries sharing a key keep their (per-key
        # chronological) emission order, as in extract_laps
        self._entries.sort(key=attrgetter("rank", "file_id", "first_tick"))
        self._finished = True
        return self._entries

    def content_digest(self) -> str:
        """The streamed trace's content digest (valid any time)."""
        if self.digest is None:
            raise RuntimeError("LAPFolder was built with digest=False")
        return self.digest.finalize(self.op_table)


def expand_entry(entry: LAPEntry) -> list[tuple[str, int, int]]:
    """Inverse of compression: the (op, offset, request_size) sequence
    the entry stands for.  Used by the round-trip property tests."""
    out = []
    for k in range(entry.rep):
        for o in entry.ops:
            out.append((o.op, o.init_offset + k * o.disp, o.request_size))
    return out
