"""Observability plane: metrics registry, span tracing, exposition.

Callers import the submodules directly: :mod:`repro.obs.metrics`
(counters, gauges, histograms and their registry),
:mod:`repro.obs.trace` (stage spans and the :class:`Telemetry` seam) and
:mod:`repro.obs.prom` (Prometheus text exposition).  Telemetry off is
``None`` wherever a seam takes one, and the evaluation core imports no
obs module (``tools/check_obs_imports.py``).  Everything here is
stdlib-only.
"""
