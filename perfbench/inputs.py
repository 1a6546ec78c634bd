"""Seeded benchmark inputs.

Everything a workload feeds the program is made here from the workload
seed, so the same seed gives byte-identical inputs and the program only
ever sees the generated files and request specs.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

from repro.tracer.metadata import AppMetadata, FileMetadataSummary
from repro.tracer.tracefile import HEADER

# -- the synthetic trace directory ---------------------------------------------
#
# 64 ranks run the same phase sequence (tandem repetitions, tick gaps
# between phases, rank-linear initial offsets over two files), so the
# LAP fold, cross-rank phase grouping and the f(initOffset) fits all
# engage.  The seed picks phase order, unit lengths and request sizes;
# the event count is fixed so every seed does the same amount of work.

RANKS = 64
PHASES = 90
EVENTS = 1_000_000
_RANK_EVENTS = EVENTS // RANKS
_REQUEST_SIZES = (16384, 32768, 65536, 131072)
_UNITS = (1, 1, 1, 2, 2, 3)
#: Op of each position in a phase's repeating unit.
UNIT_OPS = ("MPI_File_write_at_all", "MPI_File_read_at", "MPI_File_write_at")


def trace_shape(seed: int) -> list[tuple[int, int, int, int]]:
    """The seeded phase list: ``(unit, rep, file_id, request_size)``.

    The reps are scaled so every rank writes exactly ``EVENTS / RANKS``
    rows; the last phase has unit 1 and takes up the remainder.
    """
    rng = random.Random(seed)
    units = [rng.choice(_UNITS) for _ in range(PHASES - 1)] + [1]
    weights = [rng.uniform(0.5, 1.5) for _ in range(PHASES)]
    scale = _RANK_EVENTS / sum(weights)
    reps = [max(1, int(w * scale / u)) for w, u in zip(weights, units)]
    reps[-1] = _RANK_EVENTS - sum(u * r for u, r in zip(units[:-1], reps[:-1]))
    if reps[-1] < 1:
        raise ValueError(f"seed {seed}: phase reps overflow the event budget")
    return [(u, r, rng.randrange(2), rng.choice(_REQUEST_SIZES))
            for u, r in zip(units, reps)]


def _rank_text(rank: int, shape) -> str:
    rows = [HEADER]
    tick = 0
    t = rank * 0.001
    base = 0
    for unit, rep, fid, rs in shape:
        disp = rs * unit
        start = base + rank * rep * disp
        base += RANKS * rep * disp
        tick += 50  # communication gap: new burst, new phase
        for k in range(rep):
            for j in range(unit):
                off = start + k * disp + j * rs
                tick += 1
                t += 1e-4
                rows.append(f"{rank} {fid} {UNIT_OPS[j]} {off} {tick} {rs} "
                            f"{t:.6f} 0.000100 {off}")
    rows.append("")
    return "\n".join(rows)


def trace_metadata() -> AppMetadata:
    return AppMetadata(files=[
        FileMetadataSummary(
            filename=name, file_id=fid, pointer_kinds=("explicit",),
            collective=True, noncollective=True, access_mode="sequential",
            access_type="shared", etype_size=1, size_bytes=0,
            openers=RANKS)
        for fid, name in ((0, "data.dat"), (1, "checkpoint.dat"))
    ])


def write_trace_dir(directory: Path, seed: int) -> int:
    """Write the seeded Fig. 2 text trace bundle; returns its byte size."""
    directory.mkdir(parents=True, exist_ok=True)
    shape = trace_shape(seed)
    nbytes = 0
    for rank in range(RANKS):
        data = _rank_text(rank, shape).encode()
        (directory / f"trace.{rank}").write_bytes(data)
        nbytes += len(data)
    (directory / "metadata.json").write_text(json.dumps(
        {"nprocs": RANKS, "metadata": trace_metadata().to_dict()}))
    return nbytes


# -- the service request mix ---------------------------------------------------
#
# The mix comes in blocks with a fixed make-up: each request kind for
# every (app, np) pair admission accepts, once, plus a fifth of repeats
# of earlier specs.  Each configured kind walks a seeded order of all
# configuration subsets, one step per (app, np) pair, so a block holds
# the same mix of subset sizes whatever the seed, and a spec stays new
# until a pair has seen every subset.  In the first block the replaying
# select and the study of each pair together cover all four
# configurations.  Seeds change the subsets each pair gets, the order
# and which specs repeat, but not which traces and replays a block
# needs: the first block fills the daemon's caches and store, and every
# later block reads them in the same proportions.

CONFIGS = ("configuration-A", "configuration-B", "configuration-C",
           "finisterrae")
SUBSETS = tuple(
    tuple(c for i, c in enumerate(CONFIGS) if mask >> i & 1)
    for mask in range(1 << len(CONFIGS)) if bin(mask).count("1") >= 2)

#: (app, process counts admission accepts).  MADbench2 and BT-IO need a
#: square np.  np=9 passes admission for MADbench2 but its 512 MiB
#: matrix does not divide over 9 processes, so those requests fail at
#: run time: a known defect the mix keeps visible on purpose.
APPS = (
    ("synthetic", (2, 4, 8)),
    ("madbench2", (4, 9, 16)),
    ("ior", (4, 8)),
    ("roms", (4, 8)),
    ("btio-A", (4, 9)),
)
PAIRS = tuple((app, np) for app, nps in APPS for np in nps)
BLOCK_NEW = 4 * len(PAIRS)
BLOCK_REPEATS = BLOCK_NEW // 4  # a fifth of each block repeats a spec
BLOCK = BLOCK_NEW + BLOCK_REPEATS


def request_blocks(seed: int):
    """Endless seeded request specs, ``BLOCK`` at a time."""
    rng = random.Random(seed)
    orders = {}
    for kind in ("select", "lattice", "full_study"):
        orders[kind] = list(SUBSETS)
        rng.shuffle(orders[kind])
    sent: list[dict] = []
    for n in itertools.count():
        block = []
        for i, (app, np) in enumerate(PAIRS):
            step = n * len(PAIRS) + i
            pick = {k: v[step % len(v)] for k, v in orders.items()}
            study = set(pick["full_study"])
            if n == 0:
                study |= set(CONFIGS) - set(pick["select"])
            block += [
                {"kind": "characterize", "app": app, "np": np},
                {"kind": "select", "app": app, "np": np,
                 "configs": list(pick["select"]), "lattice": False},
                {"kind": "select", "app": app, "np": np,
                 "configs": list(pick["lattice"]), "lattice": True},
                {"kind": "full_study", "app": app, "np": np,
                 "configs": [c for c in CONFIGS if c in study]},
            ]
        block += [dict(rng.choice(sent or block))
                  for _ in range(BLOCK_REPEATS)]
        rng.shuffle(block)
        sent.extend(block)
        yield from block
