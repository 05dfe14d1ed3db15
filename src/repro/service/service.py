"""The asyncio sweep-job service: queue, scheduler, streams, warm cache.

:class:`SweepJobService` turns the one-shot
:class:`~repro.core.monitor.TransferFunctionMonitor` into a long-lived
measurement controller, the shape production synthesizer test flows
assume: jobs queue up, ``shards`` scheduler workers drain them through
the monitor, and every finished tone is streamed to subscribers *while
the sweep is still in flight* — the seam the ROADMAP's adaptive sweep
planning needs.

Design points
-------------
* **One loop thread owns all state.**  Jobs run in worker threads (the
  sweep is CPU-bound synchronous code), but every mutation — job
  transitions, event emission, cache bookkeeping — happens on the
  asyncio loop via ``call_soon_threadsafe``.  The per-tone callback the
  worker installs is also where cancellation and timeouts bite: both
  simply raise :class:`~repro.core.executor.SweepAborted` at the next
  tone boundary.  Under ``engine="auto"`` the first boundary comes
  after the job's farm pass, which is not interruptible.
* **One job per shard at a time.**  The scheduler is ``shards`` wide
  (width 1 by default); each shard drains the same fair queue and runs
  its job in its own worker thread, so N jobs progress concurrently.
  Per-job parallelism fans the tones the monitor cannot answer from
  its measurement cache over the process pool — a 2-shard service
  running 2-worker scalar jobs keeps four cores busy.
* **Fair dispatch.**  Pending jobs are drained round-robin across
  client ids within each priority class (higher
  :attr:`~repro.service.jobs.SweepJobRequest.priority` classes first),
  so one client flooding the queue delays only its own jobs — the
  next distinct client's job is at most one round-robin turn away.
* **Finished tones are the warm tier, with one writer.**  A tone's
  measurement (or its :class:`~repro.errors.MeasurementError` text) is
  a pure function of (physics, stimulus, tone, config) and all a later
  job needs from an earlier one, so the service keeps one
  :class:`~repro.core.warm.ToneMeasurementCache`, keyed by
  :meth:`~repro.pll.config.ChargePumpPLL.physics_signature` and owned
  by the loop thread.  Each job measures into a fresh cache seeded with
  its physics family's tones (:func:`~repro.core.warm.warm_shipment`,
  the lot pool's one-way transport), and the loop publishes each
  finished tone back; an existing entry wins.  A tone no tier answers
  settles from lock inside its job.  With a ``cache_path`` the tier is
  reloaded at start and spilled after every finished job and at
  shutdown (:meth:`~repro.core.warm.BoundedCache.save`).
* **Plan-order streaming.**  The monitor releases each job's tones in
  plan order whichever way they were measured (pooled tones complete
  out of order), and the service emits each tone event as it arrives,
  so the in-band reference tone always comes first and watchers can
  fold eq. (7) incrementally.
"""

from __future__ import annotations

import asyncio
import logging
import os
import threading
import time
from collections import Counter, OrderedDict, deque
from typing import AsyncIterator, Deque, Dict, List, Optional, Union

from repro.core.evaluation import magnitude_db_eq7
from repro.core.executor import SweepAborted, ToneOutcome
from repro.core.monitor import TransferFunctionMonitor
from repro.core.sequencer import ToneMeasurement, measurement_cache_key
from repro.core.warm import ToneMeasurementCache, warm_shipment
from repro.errors import (
    CachePersistenceError,
    JobQueueFullError,
    MeasurementError,
    ServiceError,
)
from repro.reporting import device_report
# The service honours the batch screen's stubbing contract verbatim: a
# device that cannot be measured still yields the same failure artefact
# a lot screen would have archived.
from repro.reporting.device_report import _failure_stub
from repro.service.events import (
    EVENT_ACCEPTED,
    EVENT_CANCELLED,
    EVENT_DONE,
    EVENT_FAILED,
    EVENT_STARTED,
    EVENT_TONE,
    JobEvent,
    tone_event_payload,
)
from repro.service.jobs import JobState, SweepJob, SweepJobRequest

__all__ = ["SweepJobService"]

#: Abort reasons recorded before the abort flag is set, so the worker's
#: SweepAborted can be classified when it surfaces.
_REASON_CANCELLED = "cancelled"
_REASON_TIMEOUT = "timeout"

_log = logging.getLogger(__name__)


class SweepJobService:
    """Long-lived asyncio front-end over the sweep monitor.

    Parameters
    ----------
    queue_limit:
        Maximum number of *live* (pending + running) jobs.  Submissions
        beyond it raise :class:`~repro.errors.JobQueueFullError` —
        back-pressure is explicit.  Cancelling a pending job frees its
        slot immediately.
    cache_path:
        Disk spill location of the shared measurement cache.  Loaded at
        construction (entries that are not finished measurements are
        skipped, an unreadable file starts cold), saved after every
        finished job and at :meth:`stop`, so finished tones survive
        service restarts between lots.
    cache_max_entries:
        Capacity of the shared cache (a job's own cache fits its seed).
    max_finished_jobs:
        How many *terminal* jobs (and their event histories) the service
        retains for late watchers and status listings.  Older finished
        jobs are evicted wholesale — a long-lived service stays bounded
        in memory, like its cache and queue.  ``stats()`` keeps counting
        evicted jobs in ``jobs_by_state``; ``jobs()`` lists only the
        retained ones.
    shards:
        Scheduler width: how many jobs run concurrently, each in its
        own worker thread (default 1).

    Usage::

        service = SweepJobService(cache_path="warm.cache")
        await service.start()
        job = service.submit(request)
        async for event in service.watch(job.job_id):
            ...                       # tone events stream in plan order
        await service.stop()
    """

    def __init__(
        self,
        queue_limit: int = 16,
        cache_path: Optional[Union[str, os.PathLike]] = None,
        cache_max_entries: int = 1024,
        max_finished_jobs: int = 64,
        shards: int = 1,
    ) -> None:
        if queue_limit < 1:
            raise ServiceError(
                f"queue_limit must be >= 1, got {queue_limit!r}"
            )
        if max_finished_jobs < 1:
            raise ServiceError(
                f"max_finished_jobs must be >= 1, got {max_finished_jobs!r}"
            )
        if shards < 1:
            raise ServiceError(f"shards must be >= 1, got {shards!r}")
        self.queue_limit = queue_limit
        self.max_finished_jobs = max_finished_jobs
        self.shards = shards
        self.cache_path = cache_path
        self.cache = self._load_or_new_cache(cache_path, cache_max_entries)
        # Running jobs' own caches; finished jobs' summed cache counters.
        self._job_caches: Dict[str, ToneMeasurementCache] = {}
        self._finished_counts: Counter = Counter()
        self._jobs: Dict[str, SweepJob] = {}
        self._order: List[str] = []
        self._history: Dict[str, List[JobEvent]] = {}
        self._subscribers: Dict[str, List["asyncio.Queue[JobEvent]"]] = {}
        self._abort_events: Dict[str, threading.Event] = {}
        self._abort_reasons: Dict[str, str] = {}
        # Fair dispatch ring: priority class -> client id -> FIFO of
        # pending job ids.  The asyncio queue (created in start())
        # carries only wake tokens; the ring decides *which* job runs.
        self._pending_ring: Dict[int, "OrderedDict[str, Deque[str]]"] = {}
        # Created in start(): a Queue built here would bind whatever
        # loop exists at construction time, and the natural pattern —
        # build the service, then asyncio.run(...) — runs on a
        # *different* loop (a hard failure on Python 3.9).
        self._queue: Optional["asyncio.Queue[Optional[bool]]"] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._scheduler_tasks: List["asyncio.Task[None]"] = []
        self._accepting = False
        self._live = 0
        self._next_id = 1
        self._jobs_evicted = 0
        self._started_at: Optional[float] = None
        self._tones_streamed = 0
        self._run_wall_s = 0.0
        self._jobs_by_state: Dict[str, int] = {
            state.value: 0 for state in JobState
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @staticmethod
    def _load_or_new_cache(
        cache_path, max_entries: int
    ) -> ToneMeasurementCache:
        """Reload the spilled cache, or start cold on any trouble.

        An unreadable spill (truncated write on a crashed host, a file
        from a newer library, a settled-snapshot spill an older release
        left behind, whose entry classes no longer exist) costs warm
        starts, never availability.
        """
        if cache_path is None:
            return ToneMeasurementCache(max_entries=max_entries)
        try:
            return ToneMeasurementCache.load(
                cache_path, max_entries=max_entries
            )
        except CachePersistenceError:
            return ToneMeasurementCache(max_entries=max_entries)

    async def start(self) -> None:
        """Bind to the running loop and start the scheduler shards."""
        if self._scheduler_tasks:
            raise ServiceError("service already started")
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        self._started_at = time.monotonic()
        self._accepting = True
        self._scheduler_tasks = [
            self._loop.create_task(self._scheduler(shard))
            for shard in range(self.shards)
        ]
        for task in self._scheduler_tasks:
            task.add_done_callback(self._scheduler_done)

    def _scheduler_done(self, task: "asyncio.Task[None]") -> None:
        """Watchdog: a crashed scheduler shard must not keep advertising.

        The dispatch loop is written never to raise, but if it ever
        does, the service would otherwise keep accepting jobs that will
        never run.  Flip ``_accepting`` so submitters fail fast; the
        exception itself still surfaces from :meth:`stop`'s await.
        """
        if task.cancelled():
            return
        exc = task.exception()
        if exc is not None:
            self._accepting = False
            _log.error(
                "sweep-job scheduler shard died (%s: %s); "
                "service no longer accepts jobs",
                type(exc).__name__, exc,
            )

    async def stop(self, save_cache: bool = True) -> None:
        """Drain and shut down: no new jobs, finish/abort running ones.

        Pending jobs are cancelled (their slots freed, their watchers
        get a terminal event); running jobs are aborted at their next
        tone boundary.  With ``save_cache`` (default) and a configured
        ``cache_path``, the measurement cache spills to disk last, so the
        next session's first job starts warm.
        """
        if not self._scheduler_tasks:
            return
        self._accepting = False
        for job_id in list(self._order):
            job = self._jobs[job_id]
            if job.state is JobState.PENDING:
                self.cancel(job_id)
            elif job.state is JobState.RUNNING:
                self.cancel(job_id)
        assert self._queue is not None  # created alongside the scheduler
        for _ in self._scheduler_tasks:
            # One sentinel per shard: each exits after its current job.
            await self._queue.put(None)
        await asyncio.gather(*self._scheduler_tasks)
        self._scheduler_tasks = []
        if save_cache and self.cache_path is not None:
            # Same log-and-continue policy as the per-job spill: the
            # scheduler has already drained, so a full disk here must
            # cost the next session's warm start, not raise out of a
            # clean shutdown.
            try:
                self.cache.save(self.cache_path)
            except Exception:  # noqa: BLE001 - opportunistic spill
                _log.warning(
                    "final cache spill to %s failed",
                    self.cache_path, exc_info=True,
                )

    @property
    def running(self) -> bool:
        """Whether the scheduler is up and accepting work."""
        return bool(self._scheduler_tasks) and self._accepting

    # ------------------------------------------------------------------
    # submission / cancellation
    # ------------------------------------------------------------------
    def submit(self, request: SweepJobRequest) -> SweepJob:
        """Admit one job; raises when the service is down or the queue full.

        Returns the tracked :class:`~repro.service.jobs.SweepJob` with
        its assigned id; the job's ``accepted`` event is already in its
        history when this returns, so an immediately attached watcher
        replays it.
        """
        if not self.running:
            raise ServiceError("service is not accepting jobs")
        if self._live >= self.queue_limit:
            raise JobQueueFullError(
                f"job queue is full ({self._live}/{self.queue_limit} live "
                "jobs); retry after one finishes or cancel a pending job"
            )
        job_id = f"job-{self._next_id:04d}"
        self._next_id += 1
        job = SweepJob(
            job_id=job_id,
            request=request,
            submitted_at=time.monotonic(),
        )
        self._jobs[job_id] = job
        self._order.append(job_id)
        self._history[job_id] = []
        self._subscribers[job_id] = []
        self._live += 1
        self._jobs_by_state[JobState.PENDING.value] += 1
        self._emit(job, EVENT_ACCEPTED, {
            "label": request.label,
            "tones_planned": len(request.plan.frequencies_hz),
            "queue_depth": self.queue_depth,
        })
        # Enqueue into the fair ring, then wake one scheduler shard.
        # The token only says "a job arrived"; _next_fair_job decides
        # which one actually runs.
        clients = self._pending_ring.setdefault(
            request.priority, OrderedDict()
        )
        clients.setdefault(request.client_id or "", deque()).append(job_id)
        self._queue.put_nowait(True)
        return job

    def _next_fair_job(self) -> Optional[SweepJob]:
        """Pick the next pending job: priority first, then client RR.

        The highest priority class present is drained first; inside a
        class, one job is taken from the front client's FIFO and that
        client rotates to the back of the ring, so interleaved clients
        alternate no matter how deep any one client's backlog runs.
        Jobs cancelled while queued are skipped here (their queue slot
        was already freed at cancel time).
        """
        while self._pending_ring:
            priority = max(self._pending_ring)
            clients = self._pending_ring[priority]
            client, backlog = next(iter(clients.items()))
            job_id = backlog.popleft()
            clients.move_to_end(client)
            if not backlog:
                del clients[client]
            if not clients:
                del self._pending_ring[priority]
            job = self._jobs.get(job_id)
            if job is not None and job.state is JobState.PENDING:
                return job
        return None

    def cancel(self, job_id: str) -> bool:
        """Cancel a job; ``True`` if the request had any effect.

        A **pending** job transitions to ``CANCELLED`` immediately and
        frees its queue slot (its id stays in the dispatch queue but the
        scheduler skips non-pending ids).  A **running** job gets its
        abort flag set and transitions at the next tone boundary — tones
        already streamed stay valid; under ``engine="auto"`` that is
        after the job's farm pass.  Terminal jobs return ``False``.
        """
        job = self._require_job(job_id)
        if job.state is JobState.PENDING:
            self._transition(job, JobState.CANCELLED)
            job.error = "cancelled while queued"
            self._finish(job, EVENT_CANCELLED, {"error": job.error})
            return True
        if job.state is JobState.RUNNING:
            self._abort_reasons.setdefault(job_id, _REASON_CANCELLED)
            event = self._abort_events.get(job_id)
            if event is not None:
                event.set()
            return True
        return False

    def get(self, job_id: str) -> SweepJob:
        """Look a job up by id (raises ServiceError for unknown ids)."""
        return self._require_job(job_id)

    def jobs(self) -> List[SweepJob]:
        """All retained jobs, in submission order.

        Live jobs are always here; terminal jobs age out past the
        ``max_finished_jobs`` retention bound (``stats()`` still counts
        them in ``jobs_by_state`` / ``jobs_evicted``).
        """
        return [self._jobs[job_id] for job_id in self._order]

    # ------------------------------------------------------------------
    # watching
    # ------------------------------------------------------------------
    async def watch(self, job_id: str) -> AsyncIterator[JobEvent]:
        """Stream a job's events: full history first, then live.

        The iterator ends after the terminal event, so ``async for`` over
        it is bounded.  Multiple watchers per job are fine; each gets the
        identical sequence regardless of when it attached.
        """
        self._require_job(job_id)
        queue: "asyncio.Queue[JobEvent]" = asyncio.Queue()
        self._subscribers[job_id].append(queue)
        try:
            history = list(self._history[job_id])
            last_seq = history[-1].seq if history else -1
            for event in history:
                yield event
                if event.terminal:
                    return
            while True:
                event = await queue.get()
                if event.seq <= last_seq:
                    continue  # already replayed from history
                yield event
                if event.terminal:
                    return
        finally:
            # .get(): the job may have been evicted while this watcher
            # was replaying pure history (eviction skips jobs with live
            # subscribers, but only from the moment we registered).
            queues = self._subscribers.get(job_id)
            if queues is not None and queue in queues:
                queues.remove(queue)

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Jobs admitted but not yet started."""
        return self._jobs_by_state[JobState.PENDING.value]

    def stats(self) -> dict:
        """``/status``-style snapshot: queue, throughput, cache health.

        The ``cache`` block aggregates the measurement tier: ``entries``
        / ``capacity`` / ``merged`` describe the shared persisted cache,
        while ``hits`` / ``misses`` / ``evictions`` also sum every job's
        own cache, where the job looks each tone up once.  A hit is a
        tone some earlier job (or session) measured.
        """
        detail = self.cache.stats_detail
        job_caches = [c.stats_detail for c in self._job_caches.values()]
        for counts in (self._finished_counts, *job_caches):
            for counter in ("hits", "misses", "evictions"):
                detail[counter] += counts[counter]
        lookups = detail["hits"] + detail["misses"]
        running = [
            job.job_id
            for job in self._jobs.values()
            if job.state is JobState.RUNNING
        ]
        wall = self._run_wall_s
        for job_id in running:
            job = self._jobs[job_id]
            if job.started_at is not None:
                wall += time.monotonic() - job.started_at
        return {
            "uptime_s": (
                time.monotonic() - self._started_at
                if self._started_at is not None
                else 0.0
            ),
            "accepting": self.running,
            "shards": self.shards,
            "queue_limit": self.queue_limit,
            "queue_depth": self.queue_depth,
            "live_jobs": self._live,
            "running_job": running[0] if running else None,
            "running_jobs": running,
            "jobs_by_state": dict(self._jobs_by_state),
            "jobs_evicted": self._jobs_evicted,
            "tones_streamed": self._tones_streamed,
            "tones_per_s": (
                self._tones_streamed / wall if wall > 0.0 else 0.0
            ),
            "cache": {
                **detail,
                "hit_rate": (
                    detail["hits"] / lookups if lookups else 0.0
                ),
                "path": (
                    str(self.cache_path)
                    if self.cache_path is not None
                    else None
                ),
            },
        }

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _require_job(self, job_id: str) -> SweepJob:
        job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError(f"unknown job id {job_id!r}")
        return job

    def _transition(self, job: SweepJob, state: JobState) -> None:
        self._jobs_by_state[job.state.value] -= 1
        self._jobs_by_state[state.value] += 1
        job.state = state

    def _emit(self, job: SweepJob, kind: str, payload: dict) -> None:
        event = JobEvent(
            job_id=job.job_id,
            seq=len(self._history[job.job_id]),
            kind=kind,
            payload=payload,
        )
        self._history[job.job_id].append(event)
        for queue in self._subscribers[job.job_id]:
            queue.put_nowait(event)

    def _finish(self, job: SweepJob, kind: str, payload: dict) -> None:
        """Terminal bookkeeping shared by every exit path."""
        job.finished_at = time.monotonic()
        if job.started_at is not None:
            self._run_wall_s += job.finished_at - job.started_at
        self._live -= 1
        self._abort_events.pop(job.job_id, None)
        self._abort_reasons.pop(job.job_id, None)
        self._emit(job, kind, {**payload, **job.status_row()})
        self._prune_finished()

    def _prune_finished(self) -> None:
        """Evict the oldest terminal jobs past the retention bound.

        Keeps the service bounded in memory across an arbitrarily long
        session (histories hold one event per tone per job).  A job with
        an attached watcher is skipped this round — its stream finishes
        from history it already holds, and the job is reaped when the
        next job finishes.
        """
        finished = [
            job_id for job_id in self._order
            if self._jobs[job_id].finished
        ]
        excess = len(finished) - self.max_finished_jobs
        for job_id in finished:
            if excess <= 0:
                return
            if self._subscribers.get(job_id):
                continue
            del self._jobs[job_id]
            self._order.remove(job_id)
            del self._history[job_id]
            del self._subscribers[job_id]
            self._jobs_evicted += 1
            excess -= 1

    async def _scheduler(self, shard: int) -> None:
        """One shard's dispatch loop; exits on a ``stop`` sentinel.

        Every submission enqueues one wake token, so tokens always
        cover the pending jobs; a token whose job was cancelled while
        queued simply finds nothing to run.
        """
        assert self._queue is not None  # created alongside this task
        while True:
            token = await self._queue.get()
            if token is None:
                return
            job = self._next_fair_job()
            if job is None:
                continue  # cancelled while queued; slot already freed
            await self._run_job(job, shard)

    async def _run_job(self, job: SweepJob, shard: int) -> None:
        assert self._loop is not None
        request = job.request
        self._transition(job, JobState.RUNNING)
        job.started_at = time.monotonic()
        self._emit(job, EVENT_STARTED, {
            "label": request.label,
            "engine": request.engine,
            "n_workers": request.n_workers,
            "timeout_s": request.timeout_s,
            "shard": shard,
        })
        # Seed the job's own cache on the loop thread; from here on only
        # the job's worker thread writes it.
        shipment = warm_shipment(self.cache, [request.pll])
        job_cache = ToneMeasurementCache(
            max_entries=len(shipment) + len(request.plan.frequencies_hz))
        job_cache.merge(shipment)
        self._job_caches[job.job_id] = job_cache
        abort = threading.Event()
        self._abort_events[job.job_id] = abort

        reference: Optional[ToneMeasurement] = None

        def publish(f_mod: float) -> None:
            # Copy a finished tone into the shared tier as the job's
            # cache holds it (the monitor stores a tone there before it
            # streams it); an existing entry wins.
            key = measurement_cache_key(request.pll, request.stimulus,
                                        request.config, f_mod)
            value = None if key is None else job_cache.peek(key)
            if value is not None and key not in self.cache:
                self.cache.put(key, value)

        def deliver(index: int, outcome: ToneOutcome) -> None:
            # Runs on the loop thread (scheduled by the worker), so all
            # state below is single-threaded.  The monitor releases
            # tones in plan order, so the reference arrives first.
            nonlocal reference
            publish(outcome.f_mod)
            if job.finished:
                return  # late tone of an aborted run
            magnitude: Optional[float] = None
            if not outcome.failed:
                m = outcome.measurement
                if index == 0:
                    reference = m
                if reference is not None:
                    try:
                        magnitude = magnitude_db_eq7(
                            m.delta_f_hz, reference.delta_f_hz
                        )
                    except MeasurementError:
                        magnitude = None
                job.warm_tones += int(m.timing is not None and m.timing.warm)
            else:
                job.failed_tones += 1
            job.streamed_indices.append(index)
            self._tones_streamed += 1
            self._emit(
                job, EVENT_TONE, tone_event_payload(index, outcome, magnitude)
            )

        def on_outcome(index: int, outcome: ToneOutcome) -> None:
            # Worker-thread side of the seam: check the abort flag at
            # every tone boundary, then hand the outcome to the loop.
            # call_soon_threadsafe preserves per-thread ordering, and
            # the executor future resolves after the last callback, so
            # all tone events land before the terminal event.
            if abort.is_set():
                raise SweepAborted(
                    self._abort_reasons.get(
                        job.job_id, _REASON_CANCELLED
                    )
                )
            self._loop.call_soon_threadsafe(deliver, index, outcome)

        timeout_handle = None
        if request.timeout_s is not None:

            def expire() -> None:
                if job.state is JobState.RUNNING:
                    self._abort_reasons[job.job_id] = _REASON_TIMEOUT
                    abort.set()

            timeout_handle = self._loop.call_later(
                request.timeout_s, expire
            )

        def measure():
            monitor = TransferFunctionMonitor(
                request.pll, request.stimulus, request.config
            )
            return monitor.run(
                request.plan,
                n_workers=request.n_workers,
                on_outcome=on_outcome,
                engine=request.engine,
                measurement_cache=job_cache,
            )

        try:
            result = await self._loop.run_in_executor(None, measure)
        except SweepAborted:
            # Finished tones that never streamed (an ``auto`` farm pass
            # measures them all first) still warm the shared tier.
            for f_mod in request.plan.frequencies_hz:
                publish(f_mod)
            reason = self._abort_reasons.get(
                job.job_id, _REASON_CANCELLED
            )
            if reason == _REASON_TIMEOUT:
                job.error = (
                    f"timed out after {request.timeout_s:g} s "
                    "(stopped at the next tone boundary)"
                )
                self._transition(job, JobState.FAILED)
                job.report = _failure_stub(request.pll, job.error)
                self._finish(job, EVENT_FAILED, {"error": job.error})
            else:
                job.error = "cancelled while running"
                self._transition(job, JobState.CANCELLED)
                self._finish(job, EVENT_CANCELLED, {"error": job.error})
        except MeasurementError as exc:
            # The reference tone died: no transfer function exists, but
            # the job still archives a failure-stub artefact — the
            # service loop survives, mirroring _render_one.
            job.error = str(exc)
            self._transition(job, JobState.FAILED)
            job.report = _failure_stub(request.pll, job.error)
            self._finish(job, EVENT_FAILED, {"error": job.error})
        except Exception as exc:  # noqa: BLE001 - any per-job error stubs
            job.error = f"{type(exc).__name__}: {exc}"
            self._transition(job, JobState.FAILED)
            job.report = _failure_stub(request.pll, job.error)
            self._finish(job, EVENT_FAILED, {"error": job.error})
        else:
            job.result = result
            job.report = device_report(request.pll, result)
            self._transition(job, JobState.DONE)
            self._finish(job, EVENT_DONE, {
                "summary": result.summary(),
                "complete": result.complete,
            })
        finally:
            if timeout_handle is not None:
                timeout_handle.cancel()
            # The worker thread is done: fold its cache into the totals.
            done = self._job_caches.pop(job.job_id)
            self._finished_counts.update(done.stats_detail)
            if self.cache_path is not None:
                # Spill after every job: a few hundred bytes per finished
                # tone buys the next session a warm first lot even if
                # this process dies before a clean stop().
                try:
                    self.cache.save(self.cache_path)
                except Exception:  # noqa: BLE001 - opportunistic spill
                    # Disk trouble, an unpicklable entry — whatever
                    # went wrong, a failed spill costs warm restarts,
                    # never the scheduler loop.  stop()'s final save
                    # still reports persistence errors loudly.
                    _log.warning(
                        "per-job cache spill to %s failed",
                        self.cache_path, exc_info=True,
                    )
