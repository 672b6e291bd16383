"""Rendering of the hot-path benchmark report (``python -m repro.perf.report``).

In-process timing is :func:`repro.obs.span`; :func:`repro.obs.timings`
reads the per-name aggregates back.
"""
