"""Tests for the seeded parallel trial runner and its consumers.

The headline property: a seeded run's results are bit-identical whatever
``jobs`` is — chunking and per-chunk/per-trial seeds depend only on the
trial count, the chunk size and the root seed.
"""

from functools import partial

import numpy as np
import pytest

from repro.analysis.montecarlo import BouncingMonteCarlo
from repro.core.trials import (
    DispatchCancelled,
    TaskChunk,
    TrialChunk,
    group_chunks,
    parallel_map,
    plan_chunks,
    plan_task_chunks,
    resolve_jobs,
    run_chunk_groups,
    run_task_chunks,
)
from repro.experiments import registry
from repro.experiments.runner import build_parser, run_experiments
from repro.spec.config import SpecConfig


def draw_sum(trial_index, seed=0):
    """Picklable per-trial worker seeding itself from its index."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial_index,)))
    return trial_index, float(np.sum(rng.random(5)))


def chunk_lengths(chunk: TrialChunk) -> list:
    return [chunk.start + offset for offset in range(chunk.size)]


def square_chunk(chunk: TaskChunk, offset: int = 0) -> list:
    """Picklable task-chunk worker: one squared value per task."""
    return [task * task + offset for task in chunk.tasks]


def short_chunk(chunk: TaskChunk) -> list:
    """Defective worker: drops the last task's result."""
    return [task for task in chunk.tasks[:-1]]


class TestChunkPlanning:
    def test_chunks_cover_all_trials(self):
        chunks = plan_chunks(10, seed=0, chunk_size=4)
        assert [(c.start, c.size) for c in chunks] == [(0, 4), (4, 4), (8, 2)]

    def test_plan_is_deterministic(self):
        first = plan_chunks(7, seed=3, chunk_size=2)
        second = plan_chunks(7, seed=3, chunk_size=2)
        for a, b in zip(first, second):
            assert np.array_equal(
                a.rng().random(4), b.rng().random(4)
            )

    def test_different_seeds_differ(self):
        a = plan_chunks(1, seed=0)[0].rng().random(4)
        b = plan_chunks(1, seed=1)[0].rng().random(4)
        assert not np.array_equal(a, b)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            plan_chunks(0)
        with pytest.raises(ValueError):
            plan_chunks(5, chunk_size=0)

    def test_resolve_jobs(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1
        assert resolve_jobs(4) == 4
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(-1) >= 1


class TestChunkPlanningEdgeCases:
    def test_zero_trials_rejected(self):
        # A zero-trial run is an error, not an empty plan: every consumer
        # (run_chunk_groups, the Monte-Carlo layers) validates its trial
        # count before planning.
        with pytest.raises(ValueError):
            plan_chunks(0, seed=3)
        with pytest.raises(ValueError):
            run_chunk_groups(lambda group: [], 0, seed=3)

    def test_single_trial_chunks(self):
        chunks = plan_chunks(5, seed=1, chunk_size=1)
        assert [(c.start, c.size) for c in chunks] == [
            (0, 1), (1, 1), (2, 1), (3, 1), (4, 1)
        ]

    @pytest.mark.parametrize(
        "n_trials,chunk_size", [(10, 3), (7, 7), (1, 64), (13, 5), (64, 63)]
    )
    def test_uneven_splits_cover_every_trial_exactly_once(self, n_trials, chunk_size):
        chunks = plan_chunks(n_trials, seed=0, chunk_size=chunk_size)
        covered = [
            index for chunk in chunks for index in range(chunk.start, chunk.stop)
        ]
        assert covered == list(range(n_trials))
        assert all(chunk.size >= 1 for chunk in chunks)

    def test_jobs_exceeding_trials(self):
        # More workers than trials must not duplicate or drop results.
        trial = partial(draw_sum, seed=11)
        few = parallel_map(trial, range(3), jobs=8, chunk_size=1)
        serial = parallel_map(trial, range(3), jobs=1, chunk_size=1)
        assert few == serial
        assert [index for index, _ in few] == [0, 1, 2]


def group_draw_worker(group):
    """Picklable group worker: per-chunk generators drawn in chunk order."""
    results = []
    for chunk in group:
        rng = chunk.rng()
        results.extend(float(value) for value in rng.random(chunk.size))
    return results


class TestChunkGrouping:
    def test_grouping_preserves_order_and_coverage(self):
        chunks = plan_chunks(50, seed=2, chunk_size=7)
        for batch in (1, 7, 10, 14, 49, 100):
            groups = group_chunks(chunks, batch)
            assert [c for group in groups for c in group] == chunks

    def test_groups_respect_batch_budget(self):
        chunks = plan_chunks(60, seed=0, chunk_size=8)
        for group in group_chunks(chunks, 20):
            assert sum(c.size for c in group) <= 20

    def test_oversized_chunk_forms_its_own_group(self):
        chunks = plan_chunks(10, seed=0, chunk_size=10)
        groups = group_chunks(chunks, 3)
        assert len(groups) == 1 and groups[0] == chunks

    def test_invalid_batch_rejected(self):
        chunks = plan_chunks(4, seed=0, chunk_size=2)
        with pytest.raises(ValueError):
            group_chunks(chunks, 0)


class TestRunChunkGroups:
    def test_results_independent_of_batch(self):
        baseline = run_chunk_groups(
            group_draw_worker, 33, seed=9, chunk_size=5, batch=1
        )
        assert len(baseline) == 33
        for batch in (5, 12, 33, None):
            assert (
                run_chunk_groups(
                    group_draw_worker, 33, seed=9, chunk_size=5, batch=batch
                )
                == baseline
            )

    def test_results_independent_of_jobs(self):
        serial = run_chunk_groups(
            group_draw_worker, 24, seed=4, chunk_size=4, batch=8, jobs=1
        )
        parallel = run_chunk_groups(
            group_draw_worker, 24, seed=4, chunk_size=4, batch=8, jobs=3
        )
        assert serial == parallel

    def test_matches_per_chunk_streams(self):
        # The grouped runner must consume exactly the per-chunk streams of
        # the plan: same chunks, same seeds, same draws.
        chunked = [
            float(value)
            for chunk in plan_chunks(21, seed=6, chunk_size=4)
            for value in chunk.rng().random(chunk.size)
        ]
        grouped = run_chunk_groups(
            group_draw_worker, 21, seed=6, chunk_size=4, batch=16
        )
        assert chunked == grouped

    def test_group_worker_must_return_one_result_per_trial(self):
        def bad_worker(group):
            return [0] * (sum(chunk.size for chunk in group) + 1)

        with pytest.raises(ValueError):
            run_chunk_groups(bad_worker, 6, seed=0, chunk_size=2, batch=4)


class TestSeededTrialsThroughParallelMap:
    """Self-seeding per-trial work mapped over trial indices."""

    def test_serial_equals_parallel(self):
        trial = partial(draw_sum, seed=42)
        serial = parallel_map(trial, range(9), jobs=1, chunk_size=3)
        parallel = parallel_map(trial, range(9), jobs=3, chunk_size=3)
        assert serial == parallel

    def test_results_ordered_by_trial(self):
        results = parallel_map(draw_sum, range(6), chunk_size=2)
        assert [index for index, _ in results] == list(range(6))

    def test_chunk_size_does_not_change_per_trial_streams(self):
        trial = partial(draw_sum, seed=5)
        coarse = parallel_map(trial, range(8), chunk_size=8)
        fine = parallel_map(trial, range(8), chunk_size=1)
        assert coarse == fine


class TestParallelMap:
    def test_order_preserved(self):
        items = list(range(20))
        assert parallel_map(square, items, jobs=1) == [i * i for i in items]

    def test_parallel_matches_serial(self):
        items = list(range(10))
        assert parallel_map(square, items, jobs=2) == parallel_map(
            square, items, jobs=1
        )

    def test_empty_and_single_item(self):
        assert parallel_map(square, [], jobs=2) == []
        assert parallel_map(square, [3], jobs=2) == [9]


def square(x):
    return x * x


class TestTaskChunks:
    """The task-generic chunked runner behind the slot-sim sweep engine."""

    def test_plan_covers_all_tasks_in_order(self):
        chunks = plan_task_chunks(list("abcdefg"), chunk_size=3)
        assert [(c.start, c.tasks) for c in chunks] == [
            (0, ("a", "b", "c")),
            (3, ("d", "e", "f")),
            (6, ("g",)),
        ]
        assert [c.stop for c in chunks] == [3, 6, 7]

    def test_plan_of_no_tasks_is_empty(self):
        assert plan_task_chunks([]) == []
        assert run_task_chunks(square_chunk, []) == []

    def test_invalid_chunk_size(self):
        with pytest.raises(ValueError):
            plan_task_chunks([1], chunk_size=0)

    def test_results_in_task_order(self):
        tasks = list(range(11))
        assert run_task_chunks(square_chunk, tasks, chunk_size=4) == [
            t * t for t in tasks
        ]

    def test_jobs_and_chunk_size_invariant(self):
        tasks = list(range(10))
        serial = run_task_chunks(square_chunk, tasks, jobs=1, chunk_size=4)
        parallel = run_task_chunks(square_chunk, tasks, jobs=2, chunk_size=2)
        fine = run_task_chunks(square_chunk, tasks, jobs=3, chunk_size=1)
        assert serial == parallel == fine

    def test_worker_args_forwarded(self):
        assert run_task_chunks(
            square_chunk, [1, 2], chunk_size=1, worker_args=(10,)
        ) == [11, 14]

    def test_result_count_validated(self):
        with pytest.raises(ValueError):
            run_task_chunks(short_chunk, [1, 2, 3], chunk_size=3)


class TestObservableCancellableDispatch:
    """The service-facing dispatch hooks: per-chunk observation + cancel."""

    def test_on_chunk_done_fires_in_plan_order(self):
        observed = []
        results = run_task_chunks(
            square_chunk,
            list(range(7)),
            jobs=1,
            chunk_size=3,
            on_chunk_done=lambda chunk, rows: observed.append(
                (chunk.start, tuple(rows))
            ),
        )
        assert results == [t * t for t in range(7)]
        assert observed == [(0, (0, 1, 4)), (3, (9, 16, 25)), (6, (36,))]

    def test_on_chunk_done_fires_under_process_pool(self):
        observed = []
        results = run_task_chunks(
            square_chunk,
            list(range(6)),
            jobs=2,
            chunk_size=2,
            on_chunk_done=lambda chunk, rows: observed.append(chunk.start),
        )
        assert results == [t * t for t in range(6)]
        assert observed == [0, 2, 4]

    def test_cancel_raises_after_observed_chunks(self):
        observed = []

        def on_chunk(chunk, rows):
            observed.append(chunk.start)

        with pytest.raises(DispatchCancelled):
            run_task_chunks(
                square_chunk,
                list(range(6)),
                jobs=1,
                chunk_size=2,
                on_chunk_done=on_chunk,
                cancel=lambda: len(observed) >= 2,
            )
        # Chunks observed before the cancellation are final.
        assert observed == [0, 2]

    def test_cancel_before_start_runs_nothing(self):
        observed = []
        with pytest.raises(DispatchCancelled):
            run_task_chunks(
                square_chunk,
                [1, 2],
                jobs=1,
                chunk_size=1,
                on_chunk_done=lambda chunk, rows: observed.append(chunk.start),
                cancel=lambda: True,
            )
        assert observed == []

    def test_cancel_under_process_pool(self):
        observed = []
        with pytest.raises(DispatchCancelled):
            run_task_chunks(
                square_chunk,
                list(range(8)),
                jobs=2,
                chunk_size=2,
                on_chunk_done=lambda chunk, rows: observed.append(chunk.start),
                cancel=lambda: len(observed) >= 1,
            )
        assert observed[0] == 0

    def test_no_hooks_is_the_legacy_path(self):
        tasks = list(range(9))
        plain = run_task_chunks(square_chunk, tasks, jobs=1, chunk_size=4)
        hooked = run_task_chunks(
            square_chunk,
            tasks,
            jobs=1,
            chunk_size=4,
            on_chunk_done=lambda chunk, rows: None,
            cancel=lambda: False,
        )
        assert plain == hooked


class TestMonteCarloParallelism:
    """Regression: seeded Monte-Carlo runs are identical serial vs parallel."""

    FAST = SpecConfig.mainnet().with_overrides(inactivity_penalty_quotient=2 ** 16)

    def _trials_equal(self, first, second):
        assert len(first.trials) == len(second.trials)
        for a, b in zip(first.trials, second.trials):
            assert a.stop_epoch == b.stop_epoch
            assert a.survived == b.survived
            assert a.byzantine_proportion_branch_a == b.byzantine_proportion_branch_a
            assert a.byzantine_proportion_branch_b == b.byzantine_proportion_branch_b

    def test_serial_equals_parallel_with_stopping(self):
        mc = BouncingMonteCarlo(beta0=0.3, n_honest=20, config=self.FAST, seed=9)
        serial = mc.run(n_trials=30, horizon=40, record_epochs=[20, 40], jobs=1, chunk_size=8)
        parallel = mc.run(n_trials=30, horizon=40, record_epochs=[20, 40], jobs=3, chunk_size=8)
        self._trials_equal(serial, parallel)

    def test_serial_equals_parallel_without_stopping(self):
        mc = BouncingMonteCarlo(
            beta0=1 / 3, n_honest=15, config=self.FAST, enforce_stopping=False, seed=4
        )
        serial = mc.run(n_trials=20, horizon=30, jobs=1, chunk_size=6)
        parallel = mc.run(n_trials=20, horizon=30, jobs=2, chunk_size=6)
        self._trials_equal(serial, parallel)

    def test_backends_agree_on_seeded_run(self):
        results = {}
        for backend in ("numpy", "python"):
            mc = BouncingMonteCarlo(
                beta0=0.3,
                n_honest=10,
                config=self.FAST,
                enforce_stopping=False,
                seed=2,
                backend=backend,
            )
            results[backend] = mc.run(n_trials=5, horizon=25)
        self._trials_equal(results["numpy"], results["python"])


class TestRunnerCLI:
    def test_parser_accepts_jobs_and_seed(self):
        args = build_parser().parse_args(["fig10-montecarlo", "--jobs", "2", "--seed", "7"])
        assert args.jobs == 2
        assert args.seed == 7
        assert args.experiments == ["fig10-montecarlo"]

    def test_registry_reports_parallel_experiments(self):
        assert registry.get("fig10-montecarlo").parallelizable
        assert registry.get("sweep-grid").parallelizable
        assert "seed" in registry.get("fig10-montecarlo").accepted_options()
        assert not registry.get("fig2").parallelizable

    def test_run_experiments_forwards_options(self):
        # The run must not fail when extra options are supplied, and
        # parallel output must match serial output.
        serial = run_experiments(["sweep-grid"], jobs=1, seed=3)
        parallel = run_experiments(["sweep-grid"], jobs=2, seed=3)
        assert serial == parallel

    def test_parser_accepts_batch_and_backend(self):
        args = build_parser().parse_args(
            ["fig10-montecarlo", "--batch", "256", "--backend", "python"]
        )
        assert args.batch == 256
        assert args.backend == "python"
        # Defaults leave each experiment's own choices untouched.
        defaults = build_parser().parse_args(["fig10-montecarlo"])
        assert defaults.batch is None
        assert defaults.backend is None
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig10-montecarlo", "--batch", "0"])

    def test_registry_reports_batched_experiments(self):
        assert "batch" in registry.get("fig10-montecarlo").accepted_options()
        assert "backend" in registry.get("fig10-montecarlo").accepted_options()
        assert "batch" not in registry.get("fig2").accepted_options()

    def test_run_experiments_forwards_batch_and_backend(self):
        default = run_experiments(["sweep-grid"], jobs=1)
        pinned = run_experiments(
            ["sweep-grid"], jobs=1, batch=8, backend="numpy"
        )
        assert default == pinned
