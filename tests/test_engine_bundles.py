"""Tests for the broadcast bundler (:func:`repro.engine.exec.deal_bundles`):
how one trace key's jobs are dealt into a wave's consumer processes."""

from __future__ import annotations

from collections import defaultdict

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import Engine, JobGraph
from repro.engine.exec import (
    JOB_COSTS,
    deal_bundles,
    job_cost,
    observes_baseline,
)
from repro.engine.journal import (
    JOURNAL_NAME,
    RunJournal,
    find_run,
    read_journal,
)
from repro.engine.job import PrefetcherSpec
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import EXPERIMENTS, EXTENDED_SET, PAPER_SET
from repro.tools.report import build_report


def declared(names, **config) -> list:
    """The jobs ``names`` declare at the small preset."""
    cfg = ExperimentConfig.small()
    for field, value in config.items():
        setattr(cfg, field, value)
    graph = JobGraph()
    for name in names:
        EXPERIMENTS[name].declare(cfg, graph)
    return list(graph)


def by_trace_key(jobs) -> dict:
    groups = defaultdict(list)
    for job in jobs:
        groups[job.trace_key].append(job)
    return groups


def replays(bundles) -> int:
    """The baseline replays ``run_group`` steps over ``bundles``: one per
    bundle and ``SystemConfig`` among its baseline-observing jobs."""
    return sum(
        len({job.system for job in bundle if observes_baseline(job)})
        for bundle in bundles
    )


def cost_key(job) -> tuple:
    spec = job.prefetcher or PrefetcherSpec()
    return (job.kind, spec.kind, spec.with_stride)


#: one trace key's jobs as ``all --extended`` declares them (every
#: (kind, prefetcher) pair the extended set runs on an OLTP key)
KEY_JOBS = by_trace_key(declared(EXTENDED_SET))[
    ("db2", ExperimentConfig.small().trace_length,
     ExperimentConfig.small().seed)
]


class TestDealBundles:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        jobs=st.lists(st.sampled_from(KEY_JOBS), min_size=1,
                      unique_by=lambda job: job.job_hash),
        bundles=st.integers(min_value=1, max_value=4),
        order=st.randoms(use_true_random=False),
    )
    def test_dealing_rule(self, jobs, bundles, order):
        dealt = deal_bundles(jobs, bundles)
        dealt_hashes = [job.job_hash for bundle in dealt for job in bundle]
        assert sorted(dealt_hashes) == sorted(job.job_hash for job in jobs)
        assert 1 <= len(dealt) <= min(bundles, len(jobs))
        assert all(dealt)
        shuffled = list(jobs)
        order.shuffle(shuffled)
        assert deal_bundles(shuffled, bundles) == dealt

        count = min(bundles, len(jobs))
        total = sum(job_cost(job) for job in jobs)
        replay = [job for job in jobs if observes_baseline(job)]
        replay_cost = sum(job_cost(job) for job in replay)
        kept = bool(replay) and replay_cost * count <= total
        if kept:
            assert replays(dealt) == 1
        units = [job_cost(job) for job in jobs
                 if not (kept and observes_baseline(job))]
        largest_unit = max(units + ([replay_cost] if kept else []))
        loads = [sum(job_cost(job) for job in bundle) for bundle in dealt]
        # longest-first onto the least loaded: no bundle ends more than
        # one unit above the mean
        assert max(loads) * len(dealt) <= total + largest_unit * len(dealt)

    def test_all_small_at_two_jobs_steps_one_replay_per_key(self):
        groups = by_trace_key(declared(PAPER_SET))
        assert len(groups) == 10
        # round-robin in hash order (group[start::2]) splits the four
        # replay members of nine of the ten keys: 19 replays
        assert sum(
            replays(deal_bundles(group, 2)) for group in groups.values()
        ) == 10

    def test_every_declared_triple_has_a_cost(self):
        jobs = declared(EXTENDED_SET)
        assert {cost_key(job) for job in jobs} <= set(JOB_COSTS)

    def test_wave_runs_each_job_in_its_dealt_bundle(self, tmp_path):
        jobs = declared(("fig6", "fig8", "fig9"), trace_length=6_000,
                        workloads=["db2"])
        graph = JobGraph()
        for job in jobs:
            graph.add(job)
        journal = RunJournal.create(tmp_path / "runs", header={"argv": []})
        engine = Engine(jobs=2, trace_store=tmp_path / "store",
                        broadcast="on", journal=journal)
        assert not engine.run(graph).failures()
        journal.finish("clean")
        assert engine.stats.broadcast_waves == 1
        events, _, _ = read_journal(journal.directory / JOURNAL_NAME)
        worker = {event["job"]: event["worker"] for event in events
                  if event["event"] == "job_completed"}
        dealt = deal_bundles(jobs, 2)
        assert len(dealt) == 2
        for index, bundle in enumerate(dealt):
            for job in bundle:
                assert worker[job.job_hash] == f"bundle-{index}"
        assert len({worker[job.job_hash] for job in jobs
                    if observes_baseline(job)}) == 1
        # repro-report reads the same wave back from the journal
        record = find_run(tmp_path / "runs", "last")
        waves = build_report(record, events, None)["waves"]
        assert len(waves) == 1
        assert (waves[0]["workload"], waves[0]["length"]) == ("db2", 6_000)
        assert [(b["worker"], b["jobs"]) for b in waves[0]["bundles"]] == [
            (f"bundle-{index}", len(bundle))
            for index, bundle in enumerate(dealt)
        ]
        assert all(b["wall_s"] > 0 for b in waves[0]["bundles"])
