"""The named workload metrics: unit, which way is better, and bound.

``BENCHMARK.json`` lists the metrics every workload reports on the last
line of a run (``setup_s``, ``round_s``, ``peak_rss_mb``).  The metrics
below are the ones each workload defines for its own users; ``run.py``
prints them by name with their unit and records them for
``compare.py``.  A bound is the share of the parent's median by which
the metric may get worse before a change counts as a regression;
``None`` marks a value kept for the record.  Timing bounds are wide
because identical runs on a shared two-core machine vary by up to a
third.
"""

METRICS = {
    # every workload; setup_s and peak_rss_mb take BENCHMARK.json's bounds
    "failed_frac": ("ratio", "lower", 0.0),
    # study_btio
    "study_s": ("s", "lower", 0.25),
    "estimate_error_max_pct": ("%", "lower", 0.01),
    # characterize_1m
    "stream_events_per_s": ("events/s", "higher", 0.25),
    "stream_rss_mb": ("MB", "lower", 0.10),
    "batch_events_per_s": ("events/s", "higher", 0.25),
    "python_events_per_s": ("events/s", "higher", 0.25),
    # select_space
    "lattice_select_s": ("s", "lower", 0.25),
    "replay_select_s": ("s", "lower", 0.25),
    # service_mixed
    "svc_requests_per_s": ("req/s", "higher", 0.25),
    "svc_latency_p50_ms": ("ms", "lower", 0.25),
    "svc_latency_tail_ms": ("ms", "lower", 0.25),
    "svc_latency_tail_pct": ("percentile", "higher", None),
    "svc_latency_samples": ("count", "higher", None),
}
