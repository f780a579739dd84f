"""repro — reproduction of "Framework and Rule-based Language for
Facilitating Context-aware Computing using Information Appliances"
(Nishigaki, Yasumoto, Shibata, Ito, Higashino — ICDCS 2005).

Subsystem map (see README.md for the architecture diagram):

* :mod:`repro.sim` / :mod:`repro.net` — discrete-event kernel and
  simulated LAN.
* :mod:`repro.upnp` — the UPnP substrate (discovery, control, eventing).
* :mod:`repro.home` — the virtual home: appliances, sensors, residents.
* :mod:`repro.cadel` — the CADEL language: lexer, parser, words, binder,
  compiler.
* :mod:`repro.solver` — Simplex / interval satisfiability of linear
  inequality conjunctions.
* :mod:`repro.core` — rule objects, database, consistency and conflict
  checks, priorities, access control, the execution engine, and the
  :class:`~repro.core.server.HomeServer` facade.
* :mod:`repro.support` — authoring sessions, lookup, guidance,
  import/export, text console.
* :mod:`repro.workloads` / :mod:`repro.scenarios` — the evaluation
  harness.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
