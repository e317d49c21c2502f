"""repro.lint — AST-based invariant linter for the reproduction.

The simulator's credibility rests on invariants the interpreter never
checks:

* **determinism** — every stochastic draw flows through
  :class:`repro.util.rng.RngStreams`, so one seed reproduces every
  figure bit-for-bit (RPL001, RPL005);
* **unit safety** — module boundaries speak SI base units (seconds,
  bytes, bits per second); conversions go through
  :mod:`repro.util.units` instead of ad-hoc ``* 1e6`` arithmetic
  (RPL002);
* **event-loop hygiene** — components with a teardown method never
  discard :class:`~repro.net.simulator.EventHandle` results, so a
  stopped component leaves the loop clean (RPL003);
* **hot-path slots** — per-packet dataclasses carry no ``__dict__``
  (RPL006).

On top of the per-file rules, a whole-program engine
(:mod:`repro.lint.project`) builds a symbol table and import/call
graph over the full tree and runs cross-module dataflow rules
(:mod:`repro.lint.crossrules`):

* **unit dimensions** — a ``*_ms`` value must not flow into a
  ``*_s`` parameter two packages away (RPL007);
* **RNG stream discipline** — one component per derived stream, no
  import-time capture (RPL009);
* **wall-clock taint** — ``time.time()`` values never reach sim-time
  sinks (RPL010).

Two invariants need no rule because a boundary enforces them. Trace
record names: emitters and consumers share the constants of
:mod:`repro.obs.names`, so a misspelt name fails at the site, and
:class:`~repro.obs.recorder.Recorder` rejects any name outside
:data:`repro.obs.names.TRACE_NAMES`. Picklability of campaign work:
:class:`~repro.runner.work.WorkUnit` rejects any param that is not
plain data, so no lambda or closure reaches the process pool.

Every run parses the whole scope once, prints text and writes nothing
to disk. Run it as ``python -m repro.lint`` or via the ``repro lint``
CLI subcommand (``--select``, ``--list-rules``, ``--max-seconds``).
Suppress a deliberate violation with a same-line pragma::

    start = time.time()  # repro-lint: ignore[RPL001]

``# repro-lint: ignore`` (no rule list) suppresses every rule on that
line; ``# repro-lint: skip-file`` excludes the whole file. For the
cross-module rules the pragma may sit on any line of a multi-line
call expression.
"""

from __future__ import annotations

from repro.lint.findings import Finding, PragmaIndex
from repro.lint.project import ProjectIndex, extract_facts
from repro.lint.rules import ALL_RULES, Rule
from repro.lint.runner import lint_project, lint_source

__all__ = [
    "ALL_RULES",
    "Finding",
    "PragmaIndex",
    "ProjectIndex",
    "Rule",
    "extract_facts",
    "lint_project",
    "lint_source",
]
