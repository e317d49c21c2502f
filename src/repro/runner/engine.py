"""The campaign execution engine.

:class:`CampaignRunner` takes a list of :class:`WorkUnit` and returns
their results *in submission order*, regardless of how many worker
processes executed them — results are reassembled by index, and every
unit is deterministic given its config, so any merge of the returned
list is order-independent and identical to the serial path.

Execution strategy per unit:

1. consult the :class:`ResultCache` (if enabled) — hits cost one
   pickle load and never touch the pool;
2. misses fan out over a ``multiprocessing`` pool of ``workers``
   processes (``workers=1`` executes in-process, preserving the
   classic serial path with zero pickling overhead);
3. fresh results are written back to the cache and reported to the
   optional progress callback together with their telemetry record.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro.obs import CampaignStatusWriter, DiagnosisSummary, MetricsRegistry
from repro.runner.batch import BatchPlan, execute_batch, plan_batches
from repro.runner.cache import MISS, ResultCache
from repro.runner.work import WorkUnit, execute_unit


@dataclass
class RunTelemetry:
    """Wall-clock accounting of one executed (or cache-served) unit."""

    unit: str  #: short work-unit id (kind + scenario label)
    worker: str  #: ``"main"``, ``"worker-<pid>"`` or ``"cache"``
    wall_start: float  #: ``time.time()`` at execution start
    wall_end: float  #: ``time.time()`` at execution end
    sim_duration: float  #: simulated seconds the unit covers
    cache_hit: bool  #: served from the result cache

    @property
    def wall_time(self) -> float:
        """Wall-clock seconds spent on this unit."""
        return self.wall_end - self.wall_start

    @property
    def sim_wall_ratio(self) -> float:
        """Simulated seconds per wall second (cache hits: inf-like)."""
        wall = self.wall_time
        if wall <= 0.0:
            return float("inf")
        return self.sim_duration / wall

    def to_dict(self) -> dict[str, Any]:
        """JSON-able rendering of this record."""
        return {
            "unit": self.unit,
            "worker": self.worker,
            "wall_start": self.wall_start,
            "wall_end": self.wall_end,
            "wall_time": self.wall_time,
            "sim_duration": self.sim_duration,
            "cache_hit": self.cache_hit,
        }


@dataclass
class CampaignTelemetry:
    """Aggregated accounting of one :meth:`CampaignRunner.run` call."""

    runs: list[RunTelemetry] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    executed: int = 0  #: units actually simulated (== misses)
    wall_time: float = 0.0  #: end-to-end wall seconds of the campaign

    def summary(self) -> str:
        """One-line human-readable digest."""
        sim_total = sum(r.sim_duration for r in self.runs if not r.cache_hit)
        ratio = sim_total / self.wall_time if self.wall_time > 0 else float("inf")
        return (
            f"{len(self.runs)} units: {self.cache_hits} cached, "
            f"{self.executed} executed in {self.wall_time:.1f} s wall "
            f"({ratio:.1f}x real time)"
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-able rendering for post-hoc ETA/throughput analysis.

        Everything the in-memory records hold survives the export, so
        throughput studies (units/hour per worker, cache hit rates
        over time) do not need a live watcher attached to the
        campaign.
        """
        return {
            "summary": self.summary(),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "executed": self.executed,
            "wall_time": self.wall_time,
            "runs": [record.to_dict() for record in self.runs],
        }

    def write_json(self, path: str) -> None:
        """Write :meth:`to_dict` to ``path`` atomically."""
        import json

        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)


#: ``progress(done, total, record)`` — invoked in the parent process
#: once per completed unit (cache hits included).
ProgressFn = Callable[[int, int, RunTelemetry], None]


def _execute_indexed(payload: tuple[int, WorkUnit]) -> tuple[int, Any, RunTelemetry]:
    """Pool entry point: run one unit, stamp its telemetry."""
    index, unit = payload
    start = time.time()  # repro-lint: ignore[RPL001] (wall-clock telemetry)
    result = execute_unit(unit)
    record = RunTelemetry(
        unit=unit.describe(),
        worker=f"worker-{os.getpid()}",
        wall_start=start,
        wall_end=time.time(),  # repro-lint: ignore[RPL001] (wall-clock telemetry)
        sim_duration=unit.config.duration,
        cache_hit=False,
    )
    return index, result, record


def _execute_batched(
    plan: BatchPlan,
) -> tuple[BatchPlan, list[Any], list[RunTelemetry]]:
    """Pool entry point: run one seed-sweep batch, stamp per-unit telemetry.

    The batch executes as a single struct-of-arrays task; its wall time
    is apportioned evenly across the member units so per-unit records
    (and ``sim_wall_ratio``) stay meaningful in campaign summaries.
    """
    start = time.time()  # repro-lint: ignore[RPL001] (wall-clock telemetry)
    results = execute_batch(plan)
    end = time.time()  # repro-lint: ignore[RPL001] (wall-clock telemetry)
    share = (end - start) / len(plan.units)
    worker = f"worker-{os.getpid()}"
    records = [
        RunTelemetry(
            unit=unit.describe(),
            worker=f"{worker}/batch{len(plan.units)}",
            wall_start=start + position * share,
            wall_end=start + (position + 1) * share,
            sim_duration=unit.config.duration,
            cache_hit=False,
        )
        for position, unit in enumerate(plan.units)
    ]
    return plan, results, records


class CampaignRunner:
    """Fan campaign work units out over processes, caching results.

    Parameters
    ----------
    workers:
        Process count. ``None`` means ``os.cpu_count()``; ``1`` runs
        every unit in the calling process (no pool, no pickling).
    cache:
        A :class:`ResultCache`, or ``None`` to disable caching.
    progress:
        Optional per-unit completion callback (see :data:`ProgressFn`).
    batch:
        Execute cache-missed units of the same scenario-modulo-seed as
        struct-of-arrays seed sweeps (see :mod:`repro.runner.batch`).
        Batched results are bit-identical to the scalar path and fan
        back into the cache per unit, so an interrupted batched
        campaign resumes from what completed. Units the planner deems
        non-batchable (ping probes, fleets, trace-instrumented
        sessions) fall back to scalar execution transparently.

    The worker pool is created lazily on the first parallel campaign
    and **reused across** :meth:`run` calls — repeated campaigns skip
    the per-call fork/spawn cost. Call :meth:`close` (or use the
    runner as a context manager) when done, so worker processes do
    not outlive their campaign.

    Results carrying an observability snapshot (``extra["metrics"]``
    from instrumented sessions, cache hits included) are merged into
    :attr:`metrics`, a parent-side :class:`MetricsRegistry`, so
    campaign-wide metrics are available without re-simulating.
    Likewise, per-session diagnoses (``extra["diagnosis"]``) fold
    their embedded summaries into :attr:`diagnosis`, a
    :class:`DiagnosisSummary` — violation counts and primary-cause
    tallies across the whole campaign (e.g. the fraction of latency
    violations attributable to handover, the paper's Fig. 9 claim)
    without re-running detection.
    """

    def __init__(
        self,
        workers: int | None = None,
        *,
        cache: ResultCache | None = None,
        progress: ProgressFn | None = None,
        batch: bool = False,
        status_path: str | None = None,
        status_interval: float = 1.0,
    ) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.cache = cache
        self.progress = progress
        self.batch = batch
        self.telemetry = CampaignTelemetry()
        self.metrics = MetricsRegistry()
        self.diagnosis = DiagnosisSummary()
        #: Live telemetry plane: when ``status_path`` is set, every
        #: completed unit updates an atomic JSON status file that
        #: ``repro watch`` tails (see :mod:`repro.obs.live`).
        self.status: CampaignStatusWriter | None = (
            CampaignStatusWriter(
                status_path, interval=status_interval, workers=workers
            )
            if status_path is not None
            else None
        )
        self._pool: multiprocessing.pool.Pool | None = None

    def run(self, units: Sequence[WorkUnit]) -> list[Any]:
        """Execute ``units`` and return results in submission order."""
        campaign_start = time.time()  # repro-lint: ignore[RPL001] (wall-clock telemetry)
        total = len(units)
        results: list[Any] = [None] * total
        done = 0
        pending: list[tuple[int, WorkUnit]] = []
        if self.status is not None:
            self.status.begin(total)

        for index, unit in enumerate(units):
            cached = self.cache.get(unit) if self.cache is not None else MISS
            if cached is MISS:
                self.telemetry.cache_misses += 1
                pending.append((index, unit))
                continue
            self.telemetry.cache_hits += 1
            now = time.time()  # repro-lint: ignore[RPL001] (wall-clock telemetry)
            record = RunTelemetry(
                unit=unit.describe(),
                worker="cache",
                wall_start=now,
                wall_end=now,
                sim_duration=unit.config.duration,
                cache_hit=True,
            )
            results[index] = cached
            done += 1
            self._collect_metrics(cached)
            self._note(record, done, total)

        if self.batch and pending:
            plans, pending = plan_batches(pending, self.workers)
            for plan, batch_results, records in self._execute_batches(plans):
                for index, result, record in zip(
                    plan.indices, batch_results, records
                ):
                    # Per-unit cache writes as each batch lands: an
                    # interrupted campaign resumes from exactly the
                    # units that finished, batched or not.
                    if self.cache is not None:
                        self.cache.put(units[index], result)
                    results[index] = result
                    done += 1
                    self.telemetry.executed += 1
                    self._collect_metrics(result)
                    self._note(record, done, total)

        for index, result, record in self._execute(pending):
            if self.cache is not None:
                self.cache.put(units[index], result)
            results[index] = result
            done += 1
            self.telemetry.executed += 1
            self._collect_metrics(result)
            self._note(record, done, total)

        self.telemetry.wall_time += time.time() - campaign_start  # repro-lint: ignore[RPL001]
        if self.status is not None:
            self.status.finish()
        return results

    def _execute(
        self, pending: list[tuple[int, WorkUnit]]
    ) -> Iterable[tuple[int, Any, RunTelemetry]]:
        if not pending:
            return
        if self.workers == 1 or len(pending) == 1:
            for payload in pending:
                index, result, record = _execute_indexed(payload)
                record.worker = "main"
                yield index, result, record
            return
        if self._pool is None:
            self._pool = multiprocessing.Pool(processes=self.workers)
        yield from self._pool.imap_unordered(
            _execute_indexed, pending, chunksize=1
        )

    def _execute_batches(
        self, plans: list[BatchPlan]
    ) -> Iterable[tuple[BatchPlan, list[Any], list[RunTelemetry]]]:
        if not plans:
            return
        if self.workers == 1 or len(plans) == 1:
            for plan in plans:
                plan, batch_results, records = _execute_batched(plan)
                for record in records:
                    record.worker = f"main/batch{len(plan.units)}"
                yield plan, batch_results, records
            return
        if self._pool is None:
            self._pool = multiprocessing.Pool(processes=self.workers)
        yield from self._pool.imap_unordered(
            _execute_batched, plans, chunksize=1
        )

    def close(self) -> None:
        """Shut the worker pool down (idempotent).

        A closed runner remains usable: the next parallel campaign
        simply builds a fresh pool.
        """
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "CampaignRunner":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _collect_metrics(self, result: Any) -> None:
        extra = getattr(result, "extra", None)
        if isinstance(extra, dict):
            snapshot = extra.get("metrics")
            if snapshot:
                self.metrics.merge_snapshot(snapshot)
            diagnosis = extra.get("diagnosis")
            if isinstance(diagnosis, dict) and "summary" in diagnosis:
                self.diagnosis.merge(
                    DiagnosisSummary.from_dict(diagnosis["summary"])
                )
        if self.status is not None:
            # Fleet results feed the live per-cell occupancy gauges
            # (duck-typed on peak_occupancy; other kinds are no-ops).
            self.status.note_result(result)

    def _note(self, record: RunTelemetry, done: int, total: int) -> None:
        self.telemetry.runs.append(record)
        if self.progress is not None:
            self.progress(done, total, record)
        if self.status is not None:
            self.status.note(record, done, total)
