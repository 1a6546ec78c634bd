"""Columnar vs. per-record characterization: identical results.

The columnar paths (``extract_laps_columns``, the one-chunk
``LAPFolder`` fold, ``fit_offsets_arrays``, ``IOModel.from_columns``)
are optimizations, not approximations: on any trace they must produce
the same ``LAPEntry`` lists, the same phase weights and the same offset
functions as the record-by-record reference chain (``extract_laps``
into ``IOModel.from_entries``) -- under both the numpy and the
pure-Python backends.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.btio import BTIOParams, btio_program
from repro.apps.madbench2 import MADbench2Params, madbench2_program
from repro.apps.roms import ROMSParams, roms_program
from repro.apps.synthetic import SyntheticParams, synthetic_program
from repro.core.lap import extract_laps, extract_laps_columns
from repro.core.model import IOModel, models_equivalent
from repro.core.offsetfn import fit_offsets, fit_offsets_arrays
from repro.core.phases import DEFAULT_TICK_TOL
from repro.tracer.columns import TraceColumns
from repro.tracer.hooks import trace_run
from repro.tracer.tracefile import TraceRecord

try:
    import numpy  # noqa: F401
    HAVE_NUMPY = True
except ImportError:  # pragma: no cover
    HAVE_NUMPY = False

BACKENDS = pytest.mark.parametrize(
    "backend",
    [pytest.param("numpy", marks=pytest.mark.skipif(
        not HAVE_NUMPY, reason="numpy not installed")),
     "python"])

OPS = ["MPI_File_write_at_all", "MPI_File_read_at_all", "MPI_File_write_at"]


def assert_extraction_matches(records, backend):
    cols = TraceColumns.from_records(records, backend=backend)
    assert extract_laps_columns(cols) == extract_laps(records)


# -- randomized traces --------------------------------------------------------

row = st.tuples(
    st.integers(0, 3),            # rank
    st.integers(0, 2),            # file_id
    st.integers(0, len(OPS) - 1),  # op
    st.integers(0, 63),           # offset
    st.integers(1, 3),            # tick delta
    st.sampled_from([4096, 65536]),
)


@BACKENDS
@given(st.lists(row, max_size=60))
@settings(max_examples=60, deadline=None)
def test_random_traces(backend, rows):
    records, tick = [], {}
    for i, (rank, fid, op, off, dt, rs) in enumerate(rows):
        tick[rank] = tick.get(rank, 0) + dt
        records.append(TraceRecord(rank, fid, OPS[op], off * 8, tick[rank],
                                   rs, 0.01 * i, 0.001, off * 64))
    assert_extraction_matches(records, backend)


@BACKENDS
@given(st.integers(2, 40), st.integers(1, 3), st.integers(0, 8))
@settings(max_examples=40, deadline=None)
def test_tandem_runs(backend, nrep, unit, noise):
    """Long repetition runs with every unit length, plus trailing noise."""
    records, tick, off = [], 0, 0
    for k in range(nrep):
        for j in range(unit):
            tick += 1
            records.append(TraceRecord(0, 0, OPS[j], off + j * 1000, tick,
                                       4096 * (j + 1), 0.01 * tick, 1e-4,
                                       (off + j * 1000) * 4))
        off += 16
    for j in range(noise):
        tick += 1
        records.append(TraceRecord(0, 0, OPS[j % 3], j * 7919, tick, 512,
                                   0.01 * tick, 1e-4, j * 7919 * 4))
    assert_extraction_matches(records, backend)


@BACKENDS
@given(st.lists(st.tuples(st.integers(0, 3),    # file_id
                          st.integers(1, 3),    # burst length
                          st.integers(2, 40),   # tick gap before it
                          st.integers(0, 3)),   # 1 + its odd row, or 0
                min_size=1, max_size=40),
       st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_many_tiny_bursts_interleaved_files(backend, bursts, nranks, period):
    """The ROMS shape: each (rank, file) run holds many 1-3-row bursts,
    and a rank's files interleave, so every run both closes the burst
    buffered by the run before it and leaves one open for the next.
    Ops, sizes and offsets follow one period per file across the burst
    cuts, so only a cut stops a tandem run from spanning two bursts; an
    odd row sends its burst through the greedy scan."""
    records = []
    for rank in range(nranks):
        tick, count = 0, {}
        for fid, length, dt, odd in bursts:
            tick += dt
            for j in range(length):
                c = count.get(fid, 0)
                count[fid] = c + 1
                op = c % period + (j == odd - 1)
                records.append(TraceRecord(
                    rank, fid, OPS[op % 3], 8 * c, tick + j,
                    4096 * (1 + c % period), 0.01 * (tick + j), 1e-4,
                    64 * c + rank))
            tick += length - 1
    assert_extraction_matches(records, backend)


@BACKENDS
def test_zero_events(backend):
    assert_extraction_matches([], backend)


@BACKENDS
def test_single_rank_many_bursts(backend):
    records = []
    for burst in range(50):
        base_tick = burst * 100
        for j in range(4):
            records.append(TraceRecord(0, 0, "MPI_File_write_at",
                                       j * 64, base_tick + j, 4096,
                                       0.1 * burst + 0.001 * j, 1e-4,
                                       j * 512))
    assert_extraction_matches(records, backend)


@BACKENDS
def test_non_stationary_offsets(backend):
    """Displacement changes midway: the run must split exactly alike."""
    offs = [0, 16, 32, 48, 64, 100, 200, 400, 800]
    records = [TraceRecord(0, 0, "MPI_File_write_at", o, i + 1, 4096,
                           0.01 * i, 1e-4, o * 8)
               for i, o in enumerate(offs)]
    assert_extraction_matches(records, backend)


# -- offset-function fits -----------------------------------------------------

pair_lists = st.lists(
    st.tuples(st.integers(0, 500), st.integers(-10**12, 10**12)),
    min_size=1, max_size=40,
    unique_by=lambda p: p[0])


@given(pair_lists)
@settings(max_examples=80, deadline=None)
def test_fit_offsets_arrays_matches_fit_offsets(pairs):
    ranks = [r for r, _ in pairs]
    offs = [o for _, o in pairs]
    assert fit_offsets_arrays(ranks, offs) == fit_offsets(pairs)


@given(st.integers(0, 2**40), st.integers(-2**40, 2**40), st.integers(2, 64))
@settings(max_examples=50, deadline=None)
def test_fit_offsets_arrays_recovers_exact_line(intercept, slope, nranks):
    ranks = list(range(nranks))
    offs = [slope * r + intercept for r in ranks]
    fn = fit_offsets_arrays(ranks, offs)
    assert fn.is_linear
    assert [fn(r) for r in ranks] == offs


def test_fit_offsets_arrays_huge_values_fall_back_exactly():
    # products beyond int64: the guard must route to exact Python ints
    ranks = [0, 1, 2, 3]
    offs = [0, 2**70, 2**71, 3 * 2**70]
    fn = fit_offsets_arrays(ranks, offs)
    assert fn == fit_offsets(list(zip(ranks, offs)))
    assert fn(3) == 3 * 2**70


# -- seed applications: identical abstract models -----------------------------

SEED_APPS = [
    ("madbench2", madbench2_program, 4,
     (MADbench2Params(kpix=1, nbin=4, busy_seconds=0.01),)),
    ("btio", btio_program, 4, (BTIOParams(cls="A"),)),
    ("synthetic", synthetic_program, 8, (SyntheticParams(),)),
    ("roms", roms_program, 4, (ROMSParams(nsteps=8, history_every=4),)),
]


@pytest.mark.parametrize("name,program,np_,args",
                         SEED_APPS, ids=[a[0] for a in SEED_APPS])
@BACKENDS
def test_seed_app_models_identical(name, program, np_, args, backend,
                                   monkeypatch):
    if backend == "python":
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
    bundle = trace_run(program, np_, None, *args)
    ref = IOModel.from_entries(extract_laps(bundle.records), bundle.metadata,
                               bundle.nprocs, name, DEFAULT_TICK_TOL)
    cols = TraceColumns.from_records(bundle.records, backend=backend)
    got = IOModel.from_columns(cols, bundle.metadata, bundle.nprocs,
                               app_name=name)
    assert got.to_dict() == ref.to_dict()
    assert models_equivalent(got, ref)
