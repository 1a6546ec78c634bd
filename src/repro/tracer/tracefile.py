"""The paper's trace-file format (Fig. 2): writer and parser.

One trace file per MPI process, one row per I/O operation::

    IdP IdF MPI-Operation Offset tick RequestSize time duration AbsOffset

Offsets are view-relative etype offsets, request sizes are bytes, time
and duration are seconds -- exactly the columns of Fig. 2.  One column
is added to the paper's format: ``AbsOffset``, the absolute file offset
of the first accessed byte (the paper derives it from the view metadata
when building the global logical view; carrying it in the trace makes
the f(initOffset) fit explicit).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping

HEADER = "IdP IdF MPI-Operation Offset tick RequestSize time duration AbsOffset"

#: Sentinel for legacy 8-field (paper-format) rows whose absolute byte
#: offset cannot be derived: the view offset is in *etype units*, so it
#: must never be reused as a byte offset (that was a silent-corruption
#: bug for any file with etype_size != 1).
ABS_OFFSET_UNKNOWN = -1


@dataclass(frozen=True)
class TraceRecord:
    """One row of a trace file."""

    rank: int
    file_id: int
    op: str
    offset: int
    tick: int
    request_size: int
    time: float
    duration: float
    abs_offset: int

    def to_line(self) -> str:
        return (f"{self.rank} {self.file_id} {self.op} {self.offset} "
                f"{self.tick} {self.request_size} {self.time:.6f} "
                f"{self.duration:.6f} {self.abs_offset}")

    @classmethod
    def from_line(cls, line: str,
                  etype_size: int | Mapping[int, int] | None = None,
                  ) -> "TraceRecord":
        """Parse one trace row.

        Legacy 8-field rows (the paper's exact Fig. 2 format) carry no
        ``AbsOffset`` column.  The view offset is in *etype units*, so
        the absolute byte offset is ``offset * etype_size`` when the
        etype size is known (pass an int, or a ``{file_id: etype_size}``
        mapping from the app metadata) and :data:`ABS_OFFSET_UNKNOWN`
        otherwise -- never the raw view offset.
        """
        parts = line.split()
        if len(parts) not in (8, 9):
            raise ValueError(f"malformed trace line ({len(parts)} fields): {line!r}")
        try:
            file_id = int(parts[1])
            offset = int(parts[3])
            if len(parts) == 9:
                abs_offset = int(parts[8])
            else:
                es = etype_size.get(file_id) \
                    if isinstance(etype_size, Mapping) else etype_size
                abs_offset = offset * es if es else ABS_OFFSET_UNKNOWN
            return cls(
                rank=int(parts[0]),
                file_id=file_id,
                op=parts[2],
                offset=offset,
                tick=int(parts[4]),
                request_size=int(parts[5]),
                time=float(parts[6]),
                duration=float(parts[7]),
                abs_offset=abs_offset,
            )
        except ValueError:
            raise ValueError(f"malformed trace line: {line!r}") from None

    @property
    def kind(self) -> str:
        """"write" or "read", derived from the MPI routine name."""
        return "write" if "write" in self.op else "read"

    @property
    def has_abs_offset(self) -> bool:
        """False for legacy rows whose byte offset could not be derived."""
        return self.abs_offset != ABS_OFFSET_UNKNOWN


def write_trace_file(path: str | Path, records: Iterable[TraceRecord]) -> None:
    """Write one process's trace file (``traceFile_(p)`` in Table I).

    The write is atomic (temp file + rename): a run killed mid-save
    leaves the previous trace (or nothing), never a truncated file.
    """
    from repro.ioutil import atomic_open

    with atomic_open(Path(path), "w") as f:
        f.write(HEADER + "\n")
        for rec in records:
            f.write(rec.to_line() + "\n")


def read_trace_file(path: str | Path,
                    etype_size: int | Mapping[int, int] | None = None,
                    quarantine=None) -> list[TraceRecord]:
    """Parse a trace file written by :func:`write_trace_file`.

    The header is skipped only when line 1 matches :data:`HEADER`
    exactly; malformed rows raise ``ValueError`` tagged with
    ``path:lineno``.  ``etype_size`` resolves the absolute offset of
    legacy 8-field rows (see :meth:`TraceRecord.from_line`).

    With ``quarantine`` (a
    :class:`~repro.tracer.quarantine.QuarantineReport`) malformed rows
    are recorded there instead of raising, and every well-formed row --
    before, between and after the garbage -- is salvaged.
    """
    from .quarantine import guess_rank

    path = Path(path)
    records = []
    with path.open() as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or (lineno == 1 and line == HEADER):
                continue
            try:
                records.append(TraceRecord.from_line(line, etype_size))
            except ValueError as exc:
                if quarantine is not None and not quarantine.strict:
                    quarantine.note(path, guess_rank(line), lineno,
                                    "malformed trace line", line)
                    continue
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return records


def iter_by_rank(records: Iterable[TraceRecord]) -> Iterator[tuple[int, list[TraceRecord]]]:
    """Group records by rank (idP), preserving per-rank order."""
    by_rank: dict[int, list[TraceRecord]] = {}
    for rec in records:
        by_rank.setdefault(rec.rank, []).append(rec)
    for rank in sorted(by_rank):
        yield rank, by_rank[rank]
