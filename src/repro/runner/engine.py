"""The parallel execution engine.

``ParallelRunner.run`` resolves cache hits up front, fans the misses
over a :class:`~concurrent.futures.ProcessPoolExecutor` (or runs them
inline when ``workers == 1`` — the serial reference path), and hands
back outcomes in submission order regardless of completion order.
Determinism holds across both paths because every job re-seeds the
global RNG from its stable per-job seed before running, and every
experiment carries its own seeded generators besides.
"""

from __future__ import annotations

import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.errors import ConfigurationError
from repro.experiments.common import ExperimentResult
from repro.obs.residency import absorb_account, drain_account
from repro.runner.cache import ResultCache
from repro.runner.jobs import ExperimentJob, execute_job
from repro.runner.metrics import MetricsBus

ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")


@dataclass
class JobOutcome:
    """What happened to one job: a result or an error, plus provenance."""

    job: ExperimentJob
    result: Optional[ExperimentResult]
    wall_s: float
    cached: bool
    error: Optional[str] = None
    #: The job's :func:`drain_account` (empty for cache hits).
    account: Dict[str, Dict] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.error is None and self.result is not None


@dataclass
class _Execution:
    """Everything one job execution produced, success or failure.

    Bundling the drained process-global accounts with the result (and
    with the error, when the job failed) is the fix for a real leak:
    the old error paths returned before draining, so a failed job's
    fault/perf counters sat in the globals and were attributed to the
    *next* job that ran in the same process.
    """

    result: Optional[ExperimentResult]
    wall_s: float
    account: Dict[str, Dict]
    error: Optional[str] = None


def _timed_execute(job: ExperimentJob) -> _Execution:
    """Worker entry point: run one job and drain its process accounts.

    The account comes from the process-global accumulators of the
    process that ran the job — drained here so it survives the trip
    back from pool workers, and drained on the exception path too so a
    failed job's counters land on *its* outcome instead of leaking into
    the next job's.
    """
    start = time.perf_counter()
    try:
        result: Optional[ExperimentResult] = execute_job(job)
        error = None
    except Exception:  # noqa: BLE001 — one bad job must not kill a sweep
        result = None
        error = traceback.format_exc(limit=8)
    wall = time.perf_counter() - start
    return _Execution(result=result, wall_s=wall, account=drain_account(),
                      error=error)


class ParallelRunner:
    """Schedules experiment jobs over processes with result caching."""

    def __init__(self, workers: int = 1,
                 cache: Optional[ResultCache] = None,
                 metrics: Optional[MetricsBus] = None):
        if workers < 1:
            raise ConfigurationError("need at least one worker")
        self.workers = workers
        self.cache = cache
        self.metrics = metrics or MetricsBus()

    # --- scheduling --------------------------------------------------------

    def run(self, jobs: Sequence[ExperimentJob]) -> List[JobOutcome]:
        """Run every job; outcomes come back in submission order.

        Completion order is whatever the pool produces — the metrics
        stream records it faithfully — but the returned list lines up
        with *jobs* so callers can render deterministically.
        """
        started = time.perf_counter()
        outcomes: List[Optional[JobOutcome]] = [None] * len(jobs)

        pending: List[Tuple[int, ExperimentJob]] = []
        for index, job in enumerate(jobs):
            hit = self.cache.get(job) if self.cache is not None else None
            if hit is not None:
                outcomes[index] = JobOutcome(job=job, result=hit,
                                             wall_s=0.0, cached=True)
                self.metrics.job_end(job.experiment, 0.0, cached=True)
            else:
                pending.append((index, job))

        try:
            if pending:
                if self.workers == 1:
                    for index, job in pending:
                        outcomes[index] = self._run_inline(job)
                else:
                    self._run_pool(pending, outcomes)
        except KeyboardInterrupt:
            # Close the metrics stream truthfully before propagating:
            # tooling tailing the JSONL must see the suite end as
            # interrupted, not vanish mid-run or read as complete.
            elapsed = time.perf_counter() - started
            self.metrics.suite_end(self.workers, elapsed,
                                   interrupted=True)
            raise

        elapsed = time.perf_counter() - started
        self.metrics.suite_end(self.workers, elapsed)
        return [o for o in outcomes if o is not None]

    def _run_inline(self, job: ExperimentJob) -> JobOutcome:
        self.metrics.job_start(job.experiment)
        try:
            execution = _timed_execute(job)
        except Exception:  # noqa: BLE001 — a broken harness path (not a
            # job failure: _timed_execute contains those) still must not
            # kill the sweep, and still must not leave the process
            # accounts loaded for the next job.
            execution = _Execution(
                result=None, wall_s=0.0, account=drain_account(),
                error=traceback.format_exc(limit=8))
        return self._finish(job, execution)

    def _run_pool(self, pending: Sequence[Tuple[int, ExperimentJob]],
                  outcomes: List[Optional[JobOutcome]]) -> None:
        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            try:
                futures = {}
                for index, job in pending:
                    self.metrics.job_start(job.experiment)
                    futures[pool.submit(_timed_execute, job)] = (index, job)
                remaining = set(futures)
                while remaining:
                    done, remaining = wait(remaining,
                                           return_when=FIRST_COMPLETED)
                    for future in done:
                        index, job = futures[future]
                        try:
                            execution = future.result()
                        except Exception as err:  # noqa: BLE001 — the
                            # worker process itself died; its accounts
                            # died with it.
                            message = "".join(
                                traceback.format_exception_only(
                                    type(err), err)).strip()
                            execution = _Execution(
                                result=None, wall_s=0.0, account={},
                                error=message)
                        outcomes[index] = self._finish(job, execution)
            except KeyboardInterrupt:
                _abort_pool(pool)
                raise

    def _finish(self, job: ExperimentJob, execution: _Execution) -> JobOutcome:
        """Store, meter, and shape one finished execution (either path)."""
        if execution.error is None and execution.result is not None:
            self._store(job, execution.result, execution.wall_s)
        error_line = (execution.error.splitlines()[-1]
                      if execution.error else None)
        self.metrics.job_end(job.experiment, execution.wall_s, cached=False,
                             error=error_line, account=execution.account)
        return JobOutcome(job=job, result=execution.result,
                          wall_s=execution.wall_s, cached=False,
                          error=execution.error, account=execution.account)

    def _store(self, job: ExperimentJob, result: ExperimentResult,
               wall_s: float) -> None:
        if self.cache is not None:
            self.cache.put(job, result, wall_s)


def _abort_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down *now* for an interrupt.

    ``cancel_futures`` drops everything still queued; terminating the
    worker processes cuts jobs already running.  Without the terminate,
    the executor's exit handler would block until every in-flight job
    ran to completion — exactly what a Ctrl-C / SIGTERM asked to avoid.
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        process.terminate()


def _drained_call(fn: Callable[[ItemT], ResultT],
                  item: ItemT) -> Tuple[ResultT, float, Dict[str, Dict]]:
    """Run one :func:`fan_out` item and drain its process account.

    Module-level (pool-picklable) for the same reason as
    :func:`_timed_execute`: the drain must happen in the process that
    ran the item, or a pool worker's account never reaches the
    parent's ``job_end`` events.
    """
    t0 = time.perf_counter()
    result = fn(item)
    wall = time.perf_counter() - t0
    return result, wall, drain_account()


def fan_out(fn: Callable[[ItemT], ResultT], items: Sequence[ItemT],
            workers: int = 1,
            metrics: Optional[MetricsBus] = None,
            label: Callable[[ItemT], str] = str) -> List[ResultT]:
    """Map a picklable callable over *items*, preserving item order.

    The generic sibling of :class:`ParallelRunner` for drivers (like the
    benchmark sweeps and the fleet) whose unit of work is not a registry
    experiment.  *fn* must be a module-level function (or
    ``functools.partial`` of one) so it can cross the process boundary.

    Without *metrics* every item's account ends up in the calling
    process's account — left loaded inline, folded back in item order
    from pool workers — so a fan-out nested in a runner job (fleet,
    tournament) reaches that job's own drain.
    """
    if workers < 1:
        raise ConfigurationError("need at least one worker")
    inline = workers == 1 or len(items) <= 1
    if inline and metrics is None:
        return [fn(item) for item in items]
    bus = metrics or MetricsBus()
    started = time.perf_counter()
    results: List[ResultT] = [None] * len(items)  # type: ignore[list-item]
    accounts: List[Dict[str, Dict]] = [{}] * len(items)
    try:
        if inline:
            for index, item in enumerate(items):
                bus.job_start(label(item))
                result, wall, account = _drained_call(fn, item)
                results[index] = result
                bus.job_end(label(item), wall, cached=False, account=account)
        else:
            from concurrent.futures import as_completed

            with ProcessPoolExecutor(max_workers=workers) as pool:
                try:
                    futures = {}
                    for index, item in enumerate(items):
                        bus.job_start(label(item))
                        futures[pool.submit(_drained_call, fn, item)] = \
                            (index, item)
                    for future in as_completed(futures):
                        index, item = futures[future]
                        result, wall, account = future.result()
                        results[index] = result
                        accounts[index] = account
                        bus.job_end(label(item), wall, cached=False,
                                    account=account)
                except KeyboardInterrupt:
                    _abort_pool(pool)
                    raise
    except KeyboardInterrupt:
        bus.suite_end(workers, time.perf_counter() - started,
                      interrupted=True)
        raise
    bus.suite_end(workers, time.perf_counter() - started)
    if metrics is None:
        for account in accounts:
            absorb_account(account)
    return results
