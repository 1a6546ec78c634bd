"""End-to-end methodology pipeline (paper section III).

Glues the three stages together:

1. ``characterize_app`` -- run the application once with the tracer on a
   neutral platform; extract the system-independent I/O abstract model.
2. ``estimate_on`` -- replay the model's phases with IOR on a target
   configuration: per-phase BW_CH and Time_io(CH) (eqs. 1-2).
3. ``measure_on`` -- actually run the application on the target and
   extract per-phase BW_MD / Time_io(MD) (validation only; the whole
   point of the methodology is that step 3 is *not needed* to choose a
   configuration).
4. ``evaluate`` -- join the two into the paper's evaluation rows:
   system usage (eq. 5) and estimation errors (eqs. 6-7).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro import obs
from repro.faults.resilience import RetryPolicy
from repro.simmpi.engine import IdealPlatform
from repro.tracer.hooks import TraceBundle, trace_run

from . import cache as simcache
from .estimate import (
    ClusterFactory,
    EstimateReport,
    MeasureReport,
    estimate_model,
    measure_phases,
    peak_bandwidth,
    relative_error,
    system_usage,
)
from .model import IOModel
from .planner import build_replay_plan
from .sweep import SweepJobError, sweep_map

MB = 1024 * 1024


def _trace_key(stage: str, fp, program: Callable, nprocs: int, args: tuple,
               *extras) -> tuple | None:
    """Memo key for a traced run, or None when trace caching is off.

    Tracing an application is the single most expensive step of a study,
    and it is a pure function of (program, process count, arguments,
    platform).  The result is memoized in the ``"trace"`` cache **only
    while a persistent store is attached** -- an in-memory-only trace
    cache would just hide repeated work inside one process, whereas the
    warm-start story is about the *next* process.  The program enters
    the disk key through its code-object digest, so editing the
    application source invalidates its cached traces automatically.
    """
    from repro import store as _store

    if _store.active() is None:
        return None
    if fp is None:
        return None  # platform opted out of fingerprinting
    key = ("trace_run", stage, program, nprocs, tuple(args), fp) + extras
    try:
        hash(key)
    except TypeError:
        return None  # unhashable arguments opt out of memoization
    return key


def characterize_app(program: Callable, nprocs: int, *args,
                     app_name: str = "app", tick_tol: int = 16,
                     platform=None,
                     jobs: int | None = None) -> tuple[IOModel, TraceBundle]:
    """Stage 1: trace the application off-line and extract its I/O model.

    The platform defaults to :class:`IdealPlatform` -- the model must not
    depend on any particular I/O subsystem (its phases, weights and
    offset functions are identical whatever platform is used; only the
    measured durations differ).

    With a persistent store attached (:mod:`repro.store`) the traced
    run and extracted model are memoized, so re-characterizing the same
    application warm-starts from disk.

    ``jobs`` scopes an ingest fan-out (:func:`repro.tracer.ingest
    .ingest_jobs`) over the characterization: the in-process tracer
    itself never parses text, but any trace-file ingest the program or
    a nested load triggers inherits it.  The model is unaffected.
    """
    from repro.tracer.ingest import ingest_jobs

    with obs.span("pipeline.characterize", cat="pipeline", app=app_name,
                  np=nprocs) as sp, ingest_jobs(jobs):
        plat = platform or IdealPlatform()
        key = _trace_key("characterize", simcache.platform_fingerprint(plat),
                         program, nprocs, args, app_name, tick_tol)
        if key is not None:
            hit = simcache.cache("trace").lookup(key)
            if hit is not simcache._MISS:
                model, hit_nprocs, metadata, columns = hit
                bundle = TraceBundle(hit_nprocs, columns=columns,
                                     metadata=metadata)
                sp.annotate(nphases=model.nphases, events=bundle.nevents,
                            cached=True)
                return model, bundle
        bundle = trace_run(program, nprocs, plat, *args)
        model = build_model(bundle, app_name=app_name, tick_tol=tick_tol)
        if key is not None:
            simcache.cache("trace").store(
                key, (model, bundle.nprocs, bundle.metadata, bundle.columns))
        sp.annotate(nphases=model.nphases, events=bundle.nevents)
    return model, bundle


def build_model(bundle: TraceBundle, app_name: str = "app",
                tick_tol: int = 16, gap: int = 1) -> IOModel:
    """Extract the I/O abstract model from an existing trace bundle."""
    return IOModel.from_trace(bundle, app_name=app_name, tick_tol=tick_tol,
                              gap=gap)


def characterize_stream(directory, app_name: str = "app",
                        tick_tol: int = 16, gap: int = 1,
                        chunk_rows: int = 1 << 16,
                        jobs: int | None = None) -> IOModel:
    """Extract the model from a saved trace directory, *streaming*.

    The bundle's trace files are parsed block-wise through the ingest
    engine's bulk kernel and folded incrementally
    (:meth:`IOModel.from_stream`), so a million-event text trace
    characterizes in O(parse block + open bursts) memory while
    producing the bit-identical model to :func:`build_model` on the
    loaded bundle.  ``jobs`` > 1 fans the parse out across a process
    pool (see :mod:`repro.tracer.ingest`; trades the memory bound for
    speed), and with a persistent store attached re-runs warm-start
    from the parse cache -- the model is identical either way.
    """
    from repro.tracer.hooks import stream_bundle

    with obs.span("pipeline.characterize_stream", cat="pipeline",
                  app=app_name) as sp:
        nprocs, metadata, chunks = stream_bundle(directory,
                                                 chunk_rows=chunk_rows,
                                                 jobs=jobs)
        model = IOModel.from_stream(chunks, metadata, nprocs,
                                    app_name=app_name, tick_tol=tick_tol,
                                    gap=gap)
        sp.annotate(nphases=model.nphases)
    return model


def _characterize_bundle_job(columns, metadata, nprocs: int, app_name: str,
                             tick_tol: int, gap: int) -> IOModel:
    """Worker-side body of one bundle's model extraction."""
    bundle = TraceBundle(nprocs, columns=columns, metadata=metadata)
    return IOModel.from_trace(bundle, app_name=app_name, tick_tol=tick_tol,
                              gap=gap)


def characterize_bundles(bundles: dict[str, TraceBundle], *,
                         tick_tol: int = 16, gap: int = 1,
                         parallel: bool = False,
                         max_workers: int | None = None,
                         raise_on_error: bool = True,
                         retry: RetryPolicy | None = None,
                         timeout_s: float | None = None,
                         checkpoint_dir: str | None = None,
                         resume: bool = False,
                         executor=None) -> dict[str, IOModel]:
    """Extract models from many trace bundles in one sweep.

    With ``parallel=True`` the bundles' column arrays are published to
    POSIX shared memory (:mod:`repro.tracer.shm`) and each worker
    attaches zero-copy instead of unpickling its own copy of the trace
    -- the dominant serialization cost of a multi-trace
    characterization sweep.  Serial and unpicklable sweeps behave
    exactly like calling :func:`build_model` per bundle.  The
    resilience knobs mirror :func:`repro.core.sweep.sweep_map`.
    """
    jobs = {name: (bundle.columns, bundle.metadata, bundle.nprocs,
                   name, tick_tol, gap)
            for name, bundle in bundles.items()}
    return sweep_map(_characterize_bundle_job, jobs,
                     parallel=parallel, max_workers=max_workers,
                     raise_on_error=raise_on_error, retry=retry,
                     timeout_s=timeout_s, checkpoint_dir=checkpoint_dir,
                     resume=resume, executor=executor)


def estimate_on(model: IOModel, cluster_factory: ClusterFactory,
                config_name: str = "config") -> EstimateReport:
    """Stage 2: IOR replication of each phase on the target (eqs. 1-2)."""
    with obs.span("pipeline.estimate", cat="pipeline", app=model.app_name,
                  config=config_name):
        report = estimate_model(model.phases, cluster_factory,
                                config_name=config_name)
    if obs.ACTIVE:
        for p in report.phases:
            obs.set_gauge("phase_bw_ch_mb_s", p.bw_ch_mb_s,
                          config=config_name, phase=str(p.phase_id))
    return report


def measure_on(program: Callable, nprocs: int, *args,
               cluster_factory: ClusterFactory, app_name: str = "app",
               tick_tol: int = 16) -> tuple[MeasureReport, IOModel]:
    """Stage 3 (validation): run the app on the target and measure phases."""
    with obs.span("pipeline.measure", cat="pipeline", app=app_name,
                  np=nprocs):
        key = _trace_key("measure", simcache.factory_fingerprint(cluster_factory),
                         program, nprocs, args, app_name, tick_tol)
        if key is not None:
            hit = simcache.cache("trace").lookup(key)
            if hit is not simcache._MISS:
                return measure_phases(hit.phases, config_name=app_name), hit
        cluster = cluster_factory()
        bundle = trace_run(program, nprocs, cluster, *args)
        model = IOModel.from_trace(bundle, app_name=app_name, tick_tol=tick_tol)
        if key is not None:
            simcache.cache("trace").store(key, model)
        return measure_phases(model.phases, config_name=app_name), model


@dataclass
class EvaluationRow:
    """One phase's joined evaluation (Tables IX/X/XIII/XIV columns)."""

    phase_id: int
    op_label: str
    n_operations: int
    weight: int
    bw_ch_mb_s: float
    bw_md_mb_s: float
    time_ch: float
    time_md: float
    bw_pk_mb_s: float | None = None

    @property
    def usage_pct(self) -> float:
        """eq. (5); requires bw_pk."""
        if self.bw_pk_mb_s is None:
            raise ValueError("no BW_PK available for this row")
        return system_usage(self.bw_md_mb_s, self.bw_pk_mb_s)

    @property
    def error_rel_pct(self) -> float:
        """eq. (6) on bandwidths."""
        return relative_error(self.bw_ch_mb_s, self.bw_md_mb_s)

    @property
    def time_error_rel_pct(self) -> float:
        """Relative error expressed on times (Tables XIII/XIV)."""
        return 100.0 * abs(self.time_ch - self.time_md) / max(self.time_md, 1e-12)


@dataclass
class Evaluation:
    """Full joined evaluation of one app model on one configuration."""

    config_name: str
    rows: list[EvaluationRow] = field(default_factory=list)

    @property
    def total_time_ch(self) -> float:
        return sum(r.time_ch for r in self.rows)

    @property
    def total_time_md(self) -> float:
        return sum(r.time_md for r in self.rows)

    @property
    def total_time_error_pct(self) -> float:
        return 100.0 * abs(self.total_time_ch - self.total_time_md) / \
            max(self.total_time_md, 1e-12)


def evaluate(model: IOModel, estimate: EstimateReport, measure: MeasureReport,
             peaks: dict[str, float] | None = None) -> Evaluation:
    """Join estimation and measurement into per-phase evaluation rows.

    ``peaks`` maps operation kind ("write"/"read") to BW_PK in MB/s; for
    mixed phases the average of the kinds' peaks is used (the paper's
    Table IX lists an intermediate BW_PK for the W-R phase).
    """
    ev = Evaluation(config_name=estimate.config_name)
    measured = {m.phase_id: m for m in measure.phases}
    model_phases = {ph.phase_id: ph for ph in model.phases}
    for est in estimate.phases:
        md = measured.get(est.phase_id)
        if md is None:
            continue
        ph = model_phases[est.phase_id]
        bw_pk = None
        if peaks:
            kinds = ph.kinds
            bw_pk = sum(peaks[k] for k in kinds) / len(kinds)
        ev.rows.append(EvaluationRow(
            phase_id=est.phase_id,
            op_label=est.op_label,
            n_operations=ph.n_operations,
            weight=est.weight,
            bw_ch_mb_s=est.bw_ch_mb_s,
            bw_md_mb_s=md.bw_md_mb_s,
            time_ch=est.time_ch,
            time_md=md.time_md,
            bw_pk_mb_s=bw_pk,
        ))
    if obs.ACTIVE:
        obs.event("pipeline.evaluate", cat="pipeline",
                  config=ev.config_name, rows=len(ev.rows))
    return ev


def characterize_peaks_for(cluster_factory: ClusterFactory) -> dict[str, float]:
    """BW_PK per operation kind for a configuration (eqs. 3-4, via IOzone)."""
    return {
        "write": peak_bandwidth(cluster_factory, "write"),
        "read": peak_bandwidth(cluster_factory, "read"),
    }


def full_study(program: Callable, nprocs: int, *args,
               cluster_factories: dict[str, ClusterFactory],
               app_name: str = "app",
               measure_configs: Sequence[str] = (),
               tick_tol: int = 16,
               parallel: bool = False,
               max_workers: int | None = None,
               retry: RetryPolicy | None = None,
               timeout_s: float | None = None,
               raise_on_error: bool = True,
               checkpoint_dir: str | None = None,
               resume: bool = False,
               executor=None) -> dict:
    """The complete methodology for one application.

    Characterize once; estimate on every configuration; optionally
    validate (measure) on some of them.  Returns a dict with the model,
    per-config estimates, measurements, evaluations and the selection.

    Estimation goes through the replay planner
    (:mod:`repro.core.planner`): the replay requests of all
    configurations are deduplicated up front, so only unique
    (phase signature, configuration fingerprint) pairs are executed.
    ``parallel=True`` sweeps those unique replays concurrently in
    worker processes (factories must be picklable, i.e. module-level;
    unpicklable sweeps fall back to the serial path).
    ``executor="cluster"`` (or ``REPRO_EXECUTOR=cluster``) fans the
    unique replays out to socket workers instead -- see
    :mod:`repro.core.executors`; results are bit-identical whichever
    backend runs them.

    Resilience (see :mod:`repro.core.sweep`), applied per unique
    replay: ``retry`` re-runs it on transient faults with bounded
    backoff; ``timeout_s`` bounds each parallel job;
    ``raise_on_error=False`` keeps going past failures (every dependent
    configuration appears as a :class:`~repro.core.sweep.JobFailure`
    entry in ``estimates`` and is excluded from the selection);
    ``checkpoint_dir``/``resume`` persist each completed replay
    atomically so a killed study can be resumed bit-identically.
    """
    with obs.span("pipeline.full_study", cat="pipeline", app=app_name,
                  np=nprocs) as sp:
        model, bundle = characterize_app(program, nprocs, *args,
                                         app_name=app_name, tick_tol=tick_tol)
        plan = build_replay_plan(model.phases, cluster_factories)
        estimates = plan.execute(
            parallel=parallel, max_workers=max_workers,
            retry=retry, timeout_s=timeout_s,
            raise_on_error=raise_on_error,
            checkpoint_dir=checkpoint_dir, resume=resume,
            executor=executor)
        if obs.ACTIVE:
            for name, report in estimates.items():
                if not report:  # JobFailure
                    continue
                for p in report.phases:
                    obs.set_gauge("phase_bw_ch_mb_s", p.bw_ch_mb_s,
                                  config=name, phase=str(p.phase_id))
        evaluations = {}
        for name in measure_configs:
            factory = cluster_factories[name]
            measure, measured_model = measure_on(
                program, nprocs, *args, cluster_factory=factory,
                app_name=app_name, tick_tol=tick_tol)
            peaks = characterize_peaks_for(factory)
            evaluations[name] = evaluate(measured_model, estimates[name],
                                         measure, peaks=peaks)
        totals = {name: est.total_time_ch
                  for name, est in estimates.items() if est}
        if not totals:
            raise SweepJobError(
                "selection", "every configuration's estimate failed",
                "\n".join(f.traceback for f in estimates.values() if not f))
        best = min(totals, key=totals.get)
        sp.annotate(best=best)
    return {
        "model": model,
        "trace": bundle,
        "estimates": estimates,
        "evaluations": evaluations,
        "selection": {"best": best, "totals": totals},
    }
