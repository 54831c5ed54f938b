"""Seeded, chunked, optionally-parallel trial execution.

Every parallel workload in the package dispatches through one core,
:func:`_dispatch_units`: serial below two workers, a
``ProcessPoolExecutor`` otherwise, per-unit results flattened in plan
order — so results never depend on ``jobs``.  Two planners feed it:

* :func:`run_chunk_groups` — seeded Monte-Carlo trials.  Every chunk of
  trials receives a child :class:`numpy.random.SeedSequence` spawned from
  the root seed, and the chunk plan depends only on ``(n_trials, seed,
  chunk_size)``; contiguous chunks are stacked into kernel batches of up
  to ``batch`` trials without touching the plan, so results are
  independent of ``batch`` as well as ``jobs``.
* :func:`run_task_chunks` — arbitrary picklable task descriptions (grid
  points, ``(scenario, trial)`` pairs, trial indices, …) in contiguous,
  order-preserving chunks, with per-chunk observation and cancellation
  for the experiment service.  Tasks that carry their own determinism (a
  seed derived from the task content, as the slot-sim sweeps do) are
  jobs- and chunk-size-invariant by construction.  :func:`parallel_map`
  is its per-item convenience form.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: Default number of trials per chunk.  Fixed (never derived from ``jobs``)
#: so the chunk plan — and therefore every seeded result — is independent
#: of the parallelism level.
DEFAULT_CHUNK_SIZE = 64


class DispatchCancelled(RuntimeError):
    """A chunked dispatch was cancelled before every unit completed.

    Raised by the dispatch core when a ``cancel`` predicate turns true.
    Units already delivered through ``on_unit_done`` are final — the
    experiment service persists each one as it arrives, so cancellation
    (graceful shutdown, job timeout) loses at most the in-flight units.
    """


@dataclass(frozen=True)
class TrialChunk:
    """A contiguous block of trial indices plus its spawned seed."""

    start: int
    size: int
    seed: np.random.SeedSequence

    @property
    def stop(self) -> int:
        return self.start + self.size

    def rng(self) -> np.random.Generator:
        """A fresh generator for this chunk's seed."""
        return np.random.default_rng(self.seed)


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value: ``None``/1 serial, <=0 all cores."""
    if jobs is None:
        return 1
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def plan_chunks(
    n_trials: int, seed: int = 0, chunk_size: int = DEFAULT_CHUNK_SIZE
) -> List[TrialChunk]:
    """Split ``n_trials`` into seeded chunks of at most ``chunk_size``.

    The plan is a pure function of ``(n_trials, seed, chunk_size)``.
    """
    if n_trials <= 0:
        raise ValueError("n_trials must be positive")
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    starts = list(range(0, n_trials, chunk_size))
    children = np.random.SeedSequence(seed).spawn(len(starts))
    return [
        TrialChunk(start=start, size=min(chunk_size, n_trials - start), seed=child)
        for start, child in zip(starts, children)
    ]


def _dispatch_units(
    unit_runner: Callable[..., List[Any]],
    worker: Callable[..., Sequence[Any]],
    units: Sequence[Any],
    worker_args: Tuple[Any, ...],
    jobs: Optional[int],
    on_unit_done: Optional[Callable[[int, List[Any]], None]] = None,
    cancel: Optional[Callable[[], bool]] = None,
) -> List[Any]:
    """Run ``unit_runner(worker, unit, worker_args)`` for every unit; flatten.

    The one dispatch core behind every runner in this module: serial
    below two workers, a ``ProcessPoolExecutor`` otherwise, always
    flattening per-unit result lists in submission order — so the output
    never depends on ``jobs``.

    ``on_unit_done(index, results)`` is called once per unit, in plan
    order, as soon as the unit's results are available — the observation
    hook the experiment service uses to persist per-trial results and
    stream progress.  ``cancel()`` is polled between units; when it turns
    true the dispatch raises :class:`DispatchCancelled` (pending pool
    futures are cancelled; units already observed are final).
    """
    n_workers = min(resolve_jobs(jobs), len(units))
    per_unit: List[List[Any]] = []
    if n_workers <= 1:
        for index, unit in enumerate(units):
            if cancel is not None and cancel():
                raise DispatchCancelled(
                    f"dispatch cancelled after {index} of {len(units)} units"
                )
            results = unit_runner(worker, unit, worker_args)
            if on_unit_done is not None:
                on_unit_done(index, results)
            per_unit.append(results)
    else:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            futures = [
                pool.submit(unit_runner, worker, unit, worker_args) for unit in units
            ]
            try:
                for index, future in enumerate(futures):
                    if cancel is not None and cancel():
                        raise DispatchCancelled(
                            f"dispatch cancelled after {index} of {len(units)} units"
                        )
                    results = future.result()
                    if on_unit_done is not None:
                        on_unit_done(index, results)
                    per_unit.append(results)
            except BaseException:
                for future in futures:
                    future.cancel()
                raise
    return [result for unit_results in per_unit for result in unit_results]


def group_chunks(
    chunks: Sequence[TrialChunk], batch: int
) -> List[List[TrialChunk]]:
    """Group contiguous chunks so each group holds at most ``batch`` trials.

    Grouping never splits a chunk and never reorders: each group is a run
    of consecutive chunks whose combined size fits ``batch`` (a single
    oversized chunk still forms its own group).  Because the chunk plan —
    and with it every per-chunk seed — is untouched, a worker that draws
    from each chunk's own generator produces the same per-trial streams
    whatever ``batch`` is; grouping only widens the kernel batch.
    """
    if batch <= 0:
        raise ValueError("batch must be positive")
    groups: List[List[TrialChunk]] = []
    current: List[TrialChunk] = []
    current_size = 0
    for chunk in chunks:
        if current and current_size + chunk.size > batch:
            groups.append(current)
            current = []
            current_size = 0
        current.append(chunk)
        current_size += chunk.size
    if current:
        groups.append(current)
    return groups


def _run_group_worker(
    worker: Callable[..., Sequence[Any]],
    group: Sequence[TrialChunk],
    args: Tuple[Any, ...],
) -> List[Any]:
    results = list(worker(group, *args))
    expected = sum(chunk.size for chunk in group)
    if len(results) != expected:
        raise ValueError(
            f"group worker returned {len(results)} results for {expected} trials"
        )
    return results


def run_chunk_groups(
    worker: Callable[..., Sequence[Any]],
    n_trials: int,
    *,
    seed: int = 0,
    jobs: Optional[int] = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    batch: Optional[int] = None,
    worker_args: Tuple[Any, ...] = (),
) -> List[Any]:
    """Run ``worker(chunks, *worker_args)`` over groups of seeded chunks.

    The chunk plan (and every per-chunk seed) is a pure function of
    ``(n_trials, seed, chunk_size)``; workers receive whole *groups* of
    contiguous chunks — up to ``batch`` trials each, default one group
    per dispatch of everything — so a vectorized engine can advance all
    of a group's trials per kernel call.  ``worker`` must return one
    result per trial, in trial order across its chunks.  Results are
    identical whatever ``jobs`` and ``batch`` are (asserted by the trials
    tests).
    """
    chunks = plan_chunks(n_trials, seed=seed, chunk_size=chunk_size)
    groups = group_chunks(chunks, batch if batch is not None else n_trials)
    return _dispatch_units(_run_group_worker, worker, groups, worker_args, jobs)


# ----------------------------------------------------------------------
# Task-generic chunked execution
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TaskChunk:
    """A contiguous block of task descriptions plus its position.

    The task-generic counterpart of :class:`TrialChunk`: instead of a
    spawned seed it carries the tasks themselves — whatever picklable
    descriptions the caller enumerated (grid points, ``(scenario, trial)``
    pairs, …).  Workers that derive all randomness from the task content
    are deterministic whatever the chunking.
    """

    start: int
    tasks: Tuple[Any, ...]

    @property
    def size(self) -> int:
        return len(self.tasks)

    @property
    def stop(self) -> int:
        return self.start + len(self.tasks)


def plan_task_chunks(
    tasks: Sequence[Any], chunk_size: int = DEFAULT_CHUNK_SIZE
) -> List[TaskChunk]:
    """Split ``tasks`` into contiguous chunks of at most ``chunk_size``.

    The plan is a pure function of ``(tasks, chunk_size)`` — order is
    preserved and nothing is dropped or duplicated.
    """
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    tasks = list(tasks)
    return [
        TaskChunk(start=start, tasks=tuple(tasks[start : start + chunk_size]))
        for start in range(0, len(tasks), chunk_size)
    ]


def _run_task_chunk_worker(
    worker: Callable[..., Sequence[Any]], chunk: TaskChunk, args: Tuple[Any, ...]
) -> List[Any]:
    results = list(worker(chunk, *args))
    if len(results) != chunk.size:
        raise ValueError(
            f"task worker returned {len(results)} results for {chunk.size} tasks"
        )
    return results


def run_task_chunks(
    worker: Callable[..., Sequence[Any]],
    tasks: Sequence[Any],
    *,
    jobs: Optional[int] = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    worker_args: Tuple[Any, ...] = (),
    on_chunk_done: Optional[Callable[[TaskChunk, List[Any]], None]] = None,
    cancel: Optional[Callable[[], bool]] = None,
) -> List[Any]:
    """Run ``worker(chunk, *worker_args)`` over chunks of ``tasks``; flatten.

    The task-generic chunked ProcessPool runner: ``worker`` receives a
    :class:`TaskChunk` and must return one result per task, in task order.
    Results come back in the original task order and are independent of
    ``jobs`` (chunks are dispatched whole and flattened in plan order);
    they are also independent of ``chunk_size`` whenever the worker is a
    pure function of each task.  When ``jobs`` > 1 the worker and every
    task must be picklable.

    ``on_chunk_done(chunk, results)`` fires once per chunk in plan order
    as results arrive (so callers can persist/stream incrementally);
    ``cancel()`` is polled between chunks and aborts the dispatch with
    :class:`DispatchCancelled` — chunks already observed are final.
    """
    chunks = plan_task_chunks(tasks, chunk_size=chunk_size)
    on_unit_done = None
    if on_chunk_done is not None:
        on_unit_done = lambda index, results: on_chunk_done(chunks[index], results)
    return _dispatch_units(
        _run_task_chunk_worker,
        worker,
        chunks,
        worker_args,
        jobs,
        on_unit_done=on_unit_done,
        cancel=cancel,
    )


class _MapWorker:
    """Picklable task-chunk worker applying ``fn`` to every task."""

    def __init__(self, fn: Callable[[Any], Any]) -> None:
        self.fn = fn

    def __call__(self, chunk: TaskChunk) -> List[Any]:
        return [self.fn(task) for task in chunk.tasks]


def parallel_map(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    *,
    jobs: Optional[int] = None,
    chunk_size: Optional[int] = None,
) -> List[Any]:
    """Order-preserving map, optionally across processes.

    For work whose results are a pure function of each item — closed-form
    grid points, or trials that seed themselves from their index.  Items
    are dispatched in chunks through :func:`run_task_chunks` (default
    chunk: a quarter of each worker's share), so results never depend on
    ``jobs`` or ``chunk_size``; with ``jobs`` <= 1 this is a plain ``map``.
    """
    items = list(items)
    if chunk_size is None:
        chunk_size = max(1, len(items) // (4 * resolve_jobs(jobs)))
    return run_task_chunks(_MapWorker(fn), items, jobs=jobs, chunk_size=chunk_size)
