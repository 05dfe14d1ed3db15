"""The sweep-job service: streaming, warmth, cancellation, survival.

The acceptance contract: a job's report is byte-identical to the
equivalent one-shot monitor run; tone events arrive in plan order while
the sweep is still running; a second same-physics job is served warm
from the shared cache (and, via the disk spill, so is the first job of
the *next* service session); cancelling a pending job frees its queue
slot; and a dying device fails its own job with a stub artefact without
killing the service loop.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.core import SweepPlan, TransferFunctionMonitor
from repro.core.sequencer import measurement_cache_key
from repro.core.warm import ToneMeasurementCache
from repro.errors import JobQueueFullError, ServiceError
from repro.pll.faults import FAULT_LIBRARY, apply_fault
from repro.presets import paper_pll, paper_stimulus
from repro.reporting import device_report
from repro.service import (
    EVENT_TONE,
    JobState,
    SweepJobRequest,
    SweepJobService,
)

# Five tones the fast configuration measures cleanly (fn sits between
# them), plus the 2 kHz starver for failure-path tests — same physics
# rationale as test_parallel_sweep.
SMOKE_TONES = (5.0, 10.0, 20.0, 40.0, 55.0)
STARVING_TONES = (2000.0, 4000.0)


def run(coro):
    return asyncio.run(coro)


def request(fast_bist_config, tones=SMOKE_TONES, **kwargs):
    kwargs.setdefault("pll", paper_pll())
    return SweepJobRequest(
        stimulus=paper_stimulus("multitone"),
        plan=SweepPlan(tones),
        config=fast_bist_config,
        **kwargs,
    )


async def run_to_end(service, req):
    """Submit one job and drain its event stream; returns (job, events)."""
    job = service.submit(req)
    events = [event async for event in service.watch(job.job_id)]
    return job, events


class TestStreamingSmoke:
    def test_five_tone_job_streams_in_plan_order(self, fast_bist_config):
        async def scenario():
            service = SweepJobService()
            await service.start()
            try:
                return await run_to_end(service, request(fast_bist_config))
            finally:
                await service.stop()

        job, events = run(scenario())
        tones = [e for e in events if e.kind == EVENT_TONE]
        assert [e.payload["index"] for e in tones] == list(range(5))
        assert [e.payload["f_mod_hz"] for e in tones] == list(SMOKE_TONES)
        assert [e.kind for e in events[:2]] == ["accepted", "started"]
        assert events[-1].kind == "done"
        assert job.state is JobState.DONE
        # The reference tone is index 0, so its eq. (7) magnitude is an
        # exact 0 dB and every later tone carries a magnitude too.
        assert tones[0].payload["magnitude_db"] == 0.0
        assert all("magnitude_db" in e.payload for e in tones)

    def test_report_byte_identical_to_one_shot(self, fast_bist_config):
        async def scenario():
            service = SweepJobService()
            await service.start()
            try:
                return (await run_to_end(
                    service, request(fast_bist_config)
                ))[0]
            finally:
                await service.stop()

        job = run(scenario())
        one_shot = TransferFunctionMonitor(
            paper_pll(), paper_stimulus("multitone"), fast_bist_config
        ).run(SweepPlan(SMOKE_TONES), engine="scalar")
        assert job.report == device_report(paper_pll(), one_shot)

    def test_pool_executor_still_streams_in_plan_order(
        self, fast_bist_config, monkeypatch
    ):
        # Pretend the runner has cores so the factory genuinely builds
        # a process pool instead of falling back to serial on 1-CPU CI.
        import repro.core.executor as executor_module

        monkeypatch.setattr(
            executor_module, "_visible_cpu_count", lambda: 8
        )

        async def scenario():
            service = SweepJobService()
            await service.start()
            try:
                return await run_to_end(
                    service,
                    request(fast_bist_config, n_workers=4),
                )
            finally:
                await service.stop()

        job, events = run(scenario())
        tones = [e.payload["index"] for e in events if e.kind == EVENT_TONE]
        # Pooled tones complete out of order; the monitor must still
        # release them strictly by plan index.
        assert tones == sorted(tones) == list(range(5))
        assert job.state is JobState.DONE


class TestWarmAcrossJobs:
    def test_second_job_warm_and_byte_identical(self, fast_bist_config):
        async def scenario():
            service = SweepJobService()
            await service.start()
            try:
                first, _ = await run_to_end(
                    service, request(fast_bist_config, engine="scalar")
                )
                second, events = await run_to_end(
                    service, request(fast_bist_config, engine="scalar")
                )
                return first, second, events, service.stats()
            finally:
                await service.stop()

        first, second, events, stats = run(scenario())
        assert first.warm_tones == 0
        assert second.warm_tones == len(SMOKE_TONES)
        assert stats["cache"]["hits"] == len(SMOKE_TONES)
        assert stats["cache"]["hit_rate"] == 0.5
        assert first.report == second.report
        assert all(
            e.payload["warm"] for e in events if e.kind == EVENT_TONE
        )

    def test_auto_pair_counts_only_earlier_jobs_as_hits(
        self, fast_bist_config
    ):
        # Under auto the first job's farm measures every tone; only the
        # second job's lookups find tones an earlier job measured.
        async def scenario():
            service = SweepJobService()
            await service.start()
            try:
                rates = []
                for _ in range(2):
                    await run_to_end(service, request(fast_bist_config))
                    rates.append(service.stats()["cache"]["hit_rate"])
                return rates
            finally:
                await service.stop()

        assert run(scenario()) == [0.0, 0.5]

    def test_auto_tones_read_warm_only_from_an_earlier_job(
        self, fast_bist_config
    ):
        # The first job's farm pass measures its tones: they stream
        # with the farm's own timing, not as warm hits.
        async def scenario():
            service = SweepJobService()
            await service.start()
            try:
                jobs = []
                for _ in range(2):
                    job, events = await run_to_end(
                        service, request(fast_bist_config))
                    jobs.append((job.warm_tones, [
                        e.payload["warm"] for e in events
                        if e.kind == EVENT_TONE]))
                return jobs
            finally:
                await service.stop()

        (first, first_flags), (second, second_flags) = run(scenario())
        assert first == 0 and not any(first_flags)
        assert second == len(SMOKE_TONES) and all(second_flags)

    def test_warmth_survives_service_restart(
        self, fast_bist_config, tmp_path
    ):
        cache_path = tmp_path / "service.cache"

        async def session():
            service = SweepJobService(cache_path=cache_path)
            await service.start()
            try:
                job, _ = await run_to_end(
                    service, request(fast_bist_config, engine="scalar")
                )
                return job, service.stats()["cache"]
            finally:
                await service.stop()

        cold_job, cold_cache = run(session())
        warm_job, warm_cache = run(session())
        assert cold_job.warm_tones == 0 and cold_cache["hits"] == 0
        # The second *session* reloads the spill: every tone warm.
        assert warm_job.warm_tones == len(SMOKE_TONES)
        assert warm_cache["hits"] == len(SMOKE_TONES)
        assert warm_cache["misses"] == 0
        assert cold_job.report == warm_job.report

    def test_unreadable_spill_starts_cold(self, fast_bist_config, tmp_path):
        cache_path = tmp_path / "corrupt.cache"
        cache_path.write_bytes(b"definitely not a cache")

        async def scenario():
            service = SweepJobService(cache_path=cache_path)
            await service.start()
            try:
                return (await run_to_end(
                    service, request(fast_bist_config, engine="scalar")
                ))[0]
            finally:
                await service.stop()

        job = run(scenario())
        assert job.state is JobState.DONE
        assert job.warm_tones == 0


class TestQueueAndCancellation:
    def test_cancelled_pending_job_frees_its_slot(self, fast_bist_config):
        async def scenario():
            service = SweepJobService(queue_limit=2)
            await service.start()
            # No await between submits: the scheduler task has not run
            # yet, so every admission decision here is deterministic.
            first = service.submit(request(fast_bist_config))
            second = service.submit(request(fast_bist_config))
            with pytest.raises(JobQueueFullError):
                service.submit(request(fast_bist_config))
            assert service.cancel(second.job_id)
            assert second.state is JobState.CANCELLED
            third = service.submit(request(fast_bist_config))  # slot freed
            events = {}
            for job in (first, second, third):
                events[job.job_id] = [
                    e async for e in service.watch(job.job_id)
                ]
            await service.stop()
            return first, second, third, events

        first, second, third, events = run(scenario())
        assert first.state is JobState.DONE
        assert third.state is JobState.DONE
        assert events[second.job_id][-1].kind == "cancelled"
        assert second.streamed_indices == []

    @staticmethod
    def _cancel_at_first_tone(fast_bist_config, **kwargs):
        """Cancel a scalar job as its first tone streams; returns the
        job, its events, a follow-up job and the service stats."""

        async def scenario():
            service = SweepJobService()
            await service.start()
            job = service.submit(
                request(fast_bist_config, engine="scalar", **kwargs)
            )
            events = []
            async for event in service.watch(job.job_id):
                events.append(event)
                if event.kind == EVENT_TONE:
                    service.cancel(job.job_id)
            # The loop survives: a fresh job still runs to completion.
            follow_up, _ = await run_to_end(
                service, request(fast_bist_config, engine="scalar", **kwargs)
            )
            stats = service.stats()
            await service.stop()
            return job, events, follow_up, stats

        return run(scenario())

    def test_cancel_running_job_stops_at_tone_boundary(
        self, fast_bist_config
    ):
        job, events, follow_up, stats = self._cancel_at_first_tone(
            fast_bist_config
        )
        assert job.state is JobState.CANCELLED
        assert events[-1].kind == "cancelled"
        streamed = [e for e in events if e.kind == EVENT_TONE]
        assert 0 < len(streamed) < len(SMOKE_TONES)
        assert follow_up.state is JobState.DONE
        assert stats["live_jobs"] == 0

    def test_cancel_pooled_job_stops_at_tone_boundary(
        self, fast_bist_config, monkeypatch
    ):
        # A pooled job harvests tone by tone, so cancellation bites at
        # the next tone, not after a worker's whole share of the sweep.
        import repro.core.executor as executor_module

        monkeypatch.setattr(
            executor_module, "_visible_cpu_count", lambda: 2
        )
        # On SMOKE_TONES the second worker finishes every cheaper tone
        # while the first still runs the 5 Hz reference, so the whole
        # plan can stream at once; three more wide tones behind the
        # reference leave boundaries to stop at.
        tones = (5.0, 6.0, 7.0, 8.0) + SMOKE_TONES[1:]
        job, events, follow_up, _ = self._cancel_at_first_tone(
            fast_bist_config, n_workers=2, tones=tones
        )
        assert job.state is JobState.CANCELLED
        assert events[-1].kind == "cancelled"
        streamed = [e for e in events if e.kind == EVENT_TONE]
        assert 0 < len(streamed) < len(tones)
        assert follow_up.state is JobState.DONE

    def test_cancel_terminal_job_is_a_noop(self, fast_bist_config):
        async def scenario():
            service = SweepJobService()
            await service.start()
            try:
                job, _ = await run_to_end(
                    service, request(fast_bist_config)
                )
                return job, service.cancel(job.job_id)
            finally:
                await service.stop()

        job, cancelled = run(scenario())
        assert job.state is JobState.DONE
        assert cancelled is False

    def test_unknown_job_raises(self, fast_bist_config):
        async def scenario():
            service = SweepJobService()
            await service.start()
            try:
                service.cancel("job-9999")
            finally:
                await service.stop()

        with pytest.raises(ServiceError, match="unknown job"):
            run(scenario())


class TestFailureIsolation:
    def test_failed_non_reference_tone_is_data_not_death(
        self, fast_bist_config
    ):
        # A starving *non-reference* tone fails as data: its tone event
        # carries ok=False + the captured error, and the job still
        # completes DONE with an (incomplete) report.
        async def scenario():
            service = SweepJobService()
            await service.start()
            try:
                return await run_to_end(
                    service,
                    request(
                        fast_bist_config,
                        tones=SMOKE_TONES + (STARVING_TONES[0],),
                    ),
                )
            finally:
                await service.stop()

        job, events = run(scenario())
        assert job.state is JobState.DONE
        assert job.failed_tones == 1
        tones = [e for e in events if e.kind == EVENT_TONE]
        dead = [e for e in tones if e.payload["ok"] is False]
        assert len(dead) == 1
        assert dead[0].payload["f_mod_hz"] == STARVING_TONES[0]
        assert dead[0].payload["error"]
        assert events[-1].kind == "done"
        assert job.result is not None and not job.result.complete

    def test_dead_reference_stubs_job_and_loop_survives(
        self, fast_bist_config
    ):
        async def scenario():
            service = SweepJobService()
            await service.start()
            try:
                dead, dead_events = await run_to_end(
                    service,
                    request(fast_bist_config, tones=STARVING_TONES),
                )
                healthy, _ = await run_to_end(
                    service, request(fast_bist_config)
                )
                return dead, dead_events, healthy
            finally:
                await service.stop()

        dead, dead_events, healthy = run(scenario())
        assert dead.state is JobState.FAILED
        assert dead_events[-1].kind == "failed"
        assert "in-band reference tone" in dead.error
        # Same stubbing contract as the batch screen's _render_one: the
        # job archives a failure artefact instead of raising.
        assert dead.report.startswith("# BIST report")
        assert "FAIL (sweep aborted)" in dead.report
        # ...and the service loop is alive to run the next device.
        assert healthy.state is JobState.DONE

    def test_timeout_fails_at_next_tone_boundary(self, fast_bist_config):
        async def scenario():
            service = SweepJobService()
            await service.start()
            try:
                return await run_to_end(
                    service,
                    request(fast_bist_config, timeout_s=0.001),
                )
            finally:
                await service.stop()

        job, events = run(scenario())
        assert job.state is JobState.FAILED
        assert "timed out" in job.error
        assert events[-1].kind == "failed"
        assert len(job.streamed_indices) < len(SMOKE_TONES)
        assert "FAIL (sweep aborted)" in job.report


class TestFailedSpillSurvival:
    def test_unspillable_cache_does_not_kill_scheduler(
        self, fast_bist_config, tmp_path, monkeypatch
    ):
        # A non-OSError from cache.save (e.g. an unpicklable snapshot)
        # must stay inside the opportunistic per-job spill, not kill
        # the scheduler task and strand later jobs.
        async def scenario():
            service = SweepJobService(cache_path=tmp_path / "warm.cache")
            monkeypatch.setattr(
                service.cache,
                "save",
                lambda path: (_ for _ in ()).throw(RuntimeError("boom")),
            )
            await service.start()
            try:
                first, _ = await run_to_end(
                    service, request(fast_bist_config)
                )
                second, _ = await run_to_end(
                    service, request(fast_bist_config)
                )
                return first, second
            finally:
                await service.stop(save_cache=False)

        first, second = run(scenario())
        assert first.state is JobState.DONE
        assert second.state is JobState.DONE

    def test_unspillable_cache_does_not_fail_stop(
        self, fast_bist_config, tmp_path, monkeypatch
    ):
        # Regression: the *final* spill in stop() was the one save call
        # outside the log-and-continue policy, so a full disk at
        # shutdown raised out of an otherwise clean stop() — after the
        # scheduler had already drained.
        async def scenario():
            service = SweepJobService(cache_path=tmp_path / "warm.cache")
            await service.start()
            job, _ = await run_to_end(service, request(fast_bist_config))
            monkeypatch.setattr(
                service.cache,
                "save",
                lambda path: (_ for _ in ()).throw(OSError("disk full")),
            )
            await service.stop()  # must not raise
            return job, service

        job, service = run(scenario())
        assert job.state is JobState.DONE
        assert service.running is False


class TestShardedService:
    def test_two_shard_reports_byte_identical_to_width_one(
        self, fast_bist_config
    ):
        # Two jobs submitted together run concurrently on two shards;
        # each still produces the exact one-shot artefact.
        async def scenario():
            service = SweepJobService(shards=2)
            await service.start()
            try:
                first = service.submit(request(fast_bist_config))
                second = service.submit(request(fast_bist_config))
                for job in (first, second):
                    async for _ in service.watch(job.job_id):
                        pass
                return first, second, service.stats()
            finally:
                await service.stop()

        first, second, stats = run(scenario())
        one_shot = TransferFunctionMonitor(
            paper_pll(), paper_stimulus("multitone"), fast_bist_config
        ).run(SweepPlan(SMOKE_TONES))
        expected = device_report(paper_pll(), one_shot)
        assert first.report == expected
        assert second.report == expected
        assert stats["shards"] == 2

    def test_anti_entropy_warms_the_other_shard(self, fast_bist_config):
        # Sequential same-physics jobs on a 2-shard service: whichever
        # shard takes the second job is seeded with the first job's
        # finished tones from the shared tier, so it runs fully warm.
        async def scenario():
            service = SweepJobService(shards=2)
            await service.start()
            try:
                first, _ = await run_to_end(
                    service, request(fast_bist_config, engine="scalar")
                )
                second, _ = await run_to_end(
                    service, request(fast_bist_config, engine="scalar")
                )
                return first, second, service.stats()
            finally:
                await service.stop()

        first, second, stats = run(scenario())
        assert first.warm_tones == 0
        assert second.warm_tones == len(SMOKE_TONES)
        # The aggregated counters fold every job's own cache in.
        assert stats["cache"]["hits"] == len(SMOKE_TONES)
        assert stats["cache"]["hit_rate"] == 0.5

    def test_rejects_nonpositive_shards(self):
        with pytest.raises(ServiceError, match="shards"):
            SweepJobService(shards=0)


class TestOneCacheOwnedByTheLoop:
    def test_streamed_tone_is_in_the_shared_tier_mid_job(
        self, fast_bist_config, monkeypatch
    ):
        # Hold every tone after the reference until the test has looked:
        # the reference's event must already have published its entry.
        import repro.core.executor as executor_module

        release = threading.Event()
        measure = executor_module._measure

        def held(sequencer, f_mod):
            if f_mod != SMOKE_TONES[0]:
                release.wait(timeout=60.0)
            return measure(sequencer, f_mod)

        monkeypatch.setattr(executor_module, "_measure", held)
        req = request(fast_bist_config, engine="scalar")
        key = measurement_cache_key(
            req.pll, req.stimulus, req.config, SMOKE_TONES[0]
        )

        async def scenario():
            service = SweepJobService()
            await service.start()
            try:
                job = service.submit(req)
                async for event in service.watch(job.job_id):
                    if event.kind == EVENT_TONE and not release.is_set():
                        seen = (job.state, key in service.cache,
                                len(service.cache))
                        release.set()
                return job, seen
            finally:
                release.set()
                await service.stop()

        job, (state, published, entries) = run(scenario())
        assert state is JobState.RUNNING
        assert published and entries == 1
        assert job.state is JobState.DONE

    def test_job_is_seeded_with_its_own_physics_family_only(
        self, fast_bist_config, monkeypatch
    ):
        # A merge spy sees every seeding: the faulted spec starts from
        # nothing although the healthy tones are in the shared tier, and
        # the healthy repeat gets exactly its family's tones.
        seeds = []
        merge = ToneMeasurementCache.merge

        def spy(cache, entries):
            entries = tuple(entries)
            seeds.append(entries)
            return merge(cache, entries)

        monkeypatch.setattr(ToneMeasurementCache, "merge", spy)
        healthy = paper_pll()
        faulted = apply_fault(healthy, FAULT_LIBRARY["C tripled"])

        async def scenario():
            service = SweepJobService()
            await service.start()
            try:
                jobs = []
                for pll in (healthy, faulted, healthy):
                    jobs.append((await run_to_end(service, request(
                        fast_bist_config, pll=pll, engine="scalar"
                    )))[0])
                return jobs, service.cache.export()
            finally:
                await service.stop()

        jobs, shared = run(scenario())
        assert all(job.state is JobState.DONE for job in jobs)
        assert [len(seed) for seed in seeds] == [0, 0, len(SMOKE_TONES)]
        family = {key for key, __ in shared
                  if key[0] == healthy.physics_signature()}
        assert {key for key, __ in seeds[2]} == family
        assert len(shared) == 2 * len(SMOKE_TONES)
        assert [job.warm_tones for job in jobs] == [0, 0, len(SMOKE_TONES)]

    def test_timed_out_job_still_publishes_its_farm_pass(
        self, fast_bist_config
    ):
        # The timeout bites at the first tone boundary, after the auto
        # job's farm pass measured every tone: none streams, yet all of
        # them reach the shared tier, so a scalar rerun is fully warm.
        async def scenario():
            service = SweepJobService()
            await service.start()
            try:
                first, __ = await run_to_end(
                    service, request(fast_bist_config, timeout_s=0.001)
                )
                second, __ = await run_to_end(
                    service, request(fast_bist_config, engine="scalar")
                )
                return first, second, service.stats()["cache"]
            finally:
                await service.stop()

        first, second, stats = run(scenario())
        assert first.state is JobState.FAILED and "timed out" in first.error
        assert first.streamed_indices == []
        assert second.state is JobState.DONE
        assert second.warm_tones == len(SMOKE_TONES)
        assert stats["hits"] == len(SMOKE_TONES)


class TestFairDispatch:
    def test_flooding_client_cannot_starve_another(self, fast_bist_config):
        # Client A floods three jobs before client B submits one.  A
        # FIFO queue would run B last; the round-robin ring runs B
        # right after A's first job.
        async def scenario():
            service = SweepJobService()
            await service.start()
            try:
                flood = [
                    service.submit(
                        request(fast_bist_config, client_id="flooder")
                    )
                    for _ in range(3)
                ]
                polite = service.submit(
                    request(fast_bist_config, client_id="polite")
                )
                for job in flood + [polite]:
                    async for _ in service.watch(job.job_id):
                        pass
                return flood, polite
            finally:
                await service.stop()

        flood, polite = run(scenario())
        assert all(job.state is JobState.DONE for job in flood + [polite])
        starts = sorted(
            flood + [polite], key=lambda job: job.started_at
        )
        assert [job.job_id for job in starts] == [
            flood[0].job_id,      # flooder's head-of-line job
            polite.job_id,        # ...then the other client's turn
            flood[1].job_id,
            flood[2].job_id,
        ]

    def test_higher_priority_class_drains_first(self, fast_bist_config):
        async def scenario():
            service = SweepJobService()
            await service.start()
            try:
                bulk = [
                    service.submit(
                        request(fast_bist_config, client_id="bulk")
                    )
                    for _ in range(2)
                ]
                urgent = service.submit(
                    request(
                        fast_bist_config, client_id="probe", priority=1
                    )
                )
                for job in bulk + [urgent]:
                    async for _ in service.watch(job.job_id):
                        pass
                return bulk, urgent
            finally:
                await service.stop()

        bulk, urgent = run(scenario())
        assert all(job.state is JobState.DONE for job in bulk + [urgent])
        # The priority-1 job was submitted last but dispatched first.
        assert urgent.started_at < min(job.started_at for job in bulk)

    def test_cancelled_queued_job_is_skipped_by_the_ring(
        self, fast_bist_config
    ):
        async def scenario():
            service = SweepJobService()
            await service.start()
            try:
                first = service.submit(request(fast_bist_config))
                doomed = service.submit(request(fast_bist_config))
                survivor = service.submit(request(fast_bist_config))
                service.cancel(doomed.job_id)
                for job in (first, doomed, survivor):
                    async for _ in service.watch(job.job_id):
                        pass
                return first, doomed, survivor
            finally:
                await service.stop()

        first, doomed, survivor = run(scenario())
        assert first.state is JobState.DONE
        assert doomed.state is JobState.CANCELLED
        assert doomed.started_at is None
        assert survivor.state is JobState.DONE


class TestRetention:
    def test_finished_jobs_age_out_past_the_bound(self, fast_bist_config):
        async def scenario():
            service = SweepJobService(max_finished_jobs=2)
            await service.start()
            try:
                jobs = []
                for _ in range(4):
                    job, _ = await run_to_end(
                        service, request(fast_bist_config)
                    )
                    jobs.append(job)
                return jobs, service.jobs(), service.stats()
            finally:
                await service.stop()

        jobs, retained, stats = run(scenario())
        assert all(job.state is JobState.DONE for job in jobs)
        # Oldest two evicted; listings hold only the newest two.
        assert [job.job_id for job in retained] == \
            [jobs[2].job_id, jobs[3].job_id]
        assert stats["jobs_evicted"] == 2
        # Lifetime accounting is not rewritten by eviction.
        assert stats["jobs_by_state"]["done"] == 4

    def test_evicted_job_is_unknown_to_watchers(self, fast_bist_config):
        async def scenario():
            service = SweepJobService(max_finished_jobs=1)
            await service.start()
            try:
                first, _ = await run_to_end(
                    service, request(fast_bist_config)
                )
                await run_to_end(service, request(fast_bist_config))
                async for _ in service.watch(first.job_id):
                    pass
            finally:
                await service.stop()

        with pytest.raises(ServiceError, match="unknown job"):
            run(scenario())

    def test_rejects_nonpositive_retention(self):
        with pytest.raises(ServiceError, match="max_finished_jobs"):
            SweepJobService(max_finished_jobs=0)


class TestServiceLifecycle:
    def test_submit_before_start_raises(self, fast_bist_config):
        service = SweepJobService()
        with pytest.raises(ServiceError, match="not accepting"):
            service.submit(request(fast_bist_config))

    def test_rejects_nonpositive_queue_limit(self):
        with pytest.raises(ServiceError):
            SweepJobService(queue_limit=0)

    def test_stats_shape(self, fast_bist_config):
        async def scenario():
            service = SweepJobService()
            await service.start()
            try:
                await run_to_end(service, request(fast_bist_config))
                return service.stats()
            finally:
                await service.stop()

        stats = run(scenario())
        assert stats["jobs_by_state"]["done"] == 1
        assert stats["tones_streamed"] == len(SMOKE_TONES)
        assert stats["tones_per_s"] > 0.0
        assert stats["queue_depth"] == 0

    def test_late_watcher_replays_full_history(self, fast_bist_config):
        async def scenario():
            service = SweepJobService()
            await service.start()
            try:
                job, live = await run_to_end(
                    service, request(fast_bist_config)
                )
                # Attach *after* the job finished: history replay only.
                replay = [e async for e in service.watch(job.job_id)]
                return live, replay
            finally:
                await service.stop()

        live, replay = run(scenario())
        assert [(e.seq, e.kind) for e in live] == \
            [(e.seq, e.kind) for e in replay]
