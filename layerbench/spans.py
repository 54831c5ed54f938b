"""Outside-in span tracer for the benchmark's traced passes.

The tracer wraps public functions of the ``repro`` package from the
benchmark's side: a class method is replaced on its class, and a
module-level function is rebound at *every* module that holds it (a
function imported by name, such as ``run_task_chunks`` inside
``repro.sim.sweeps``, is a second binding the original module's attribute
does not reach).  :meth:`Tracer.restore` puts every original back, and
:func:`tracing` does so after a normal exit and after an exception.

Each call of a wrapped function records one span: its layer, start, end
(``time.perf_counter``, the system-wide monotonic clock, so spans of
different processes share one time axis) and the span that was open when
it started.  Spans live in flat arrays in memory and are reduced to
per-layer numbers when the pass ends.

Pool workers are forked from the traced process, so they inherit the
wrappers.  The wrapped unit runners of :mod:`repro.core.trials` notice
they run in another process, record the worker's spans, and spill them to
``spill_dir`` after every unit; :meth:`Tracer.merge_spills` folds them back
in.  A worker's first span keeps the dispatch span that was open at fork
as its parent, so the parent's self time excludes the time its workers
covered, counted once even when two workers overlap.
"""

from __future__ import annotations

import array
import functools
import importlib
import json
import math
import os
import pathlib
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Span layer of the timed phase as a whole.  Its self time is the time
#: spent in no named layer.
ROOT = "root"

#: Span layer of one dispatched unit (a chunk or chunk group) running in a
#: pool worker or, below two workers, inline.  Reported as the extras
#: ``core.trials.units`` and ``core.trials.worker_busy_s``; its self time
#: counts towards ``core.trials.self_s``.
UNIT = "core.trials.unit"

@dataclass(frozen=True)
class Target:
    """One public function to time: ``module`` + ``qualname`` under ``layer``.

    ``qualname`` is ``"function"`` or ``"Class.method"``; a method is also
    wrapped on every loaded subclass that defines its own override.
    ``kind`` is ``"call"``, ``"dispatch"`` (a trial
    dispatch, weighted by the cores it may use), ``"unit"`` (a unit runner,
    spilled from pool workers) or ``"engine"`` (an engine run, which also
    records its per-epoch wall times).
    """

    layer: str
    module: str
    qualname: str
    kind: str = "call"


def _module_functions_bound_to(function: Any) -> List[Tuple[Any, str]]:
    """Every ``(module, attribute)`` of a loaded ``repro`` module bound to ``function``."""
    sites = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is function:
                sites.append((module, attribute))
    return sites


def _subclasses(cls: type) -> List[type]:
    found, pending = [], list(cls.__subclasses__())
    while pending:
        sub = pending.pop()
        if sub not in found:
            found.append(sub)
            pending.extend(sub.__subclasses__())
    return found


class Tracer:
    """Records spans of wrapped calls while :attr:`active` is true."""

    def __init__(self, spill_dir: Optional[pathlib.Path] = None, cores: Optional[int] = None) -> None:
        self.owner_pid = os.getpid()
        self.spill_dir = pathlib.Path(spill_dir) if spill_dir is not None else None
        self.cores = cores or os.cpu_count() or 1
        self.active = False
        self.layers: List[str] = []
        self._codes: Dict[str, int] = {}
        self._clear()
        self._stack: List[int] = []
        self._next_id = 0
        self._restores: List[Callable[[], None]] = []
        self._worker_ready = False

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _clear(self) -> None:
        self.ids = array.array("q")
        self.parents = array.array("q")
        self.codes = array.array("h")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.outermost = array.array("b")
        self._depth: Dict[int, int] = {}
        #: Per dispatch: (duration, cores it could use).
        self.dispatches: List[Tuple[float, int]] = []
        #: Per engine run: the wall time of each epoch in seconds.
        self.epoch_series: List[List[float]] = []
        self.peak_views = 0

    def code(self, layer: str) -> int:
        code = self._codes.get(layer)
        if code is None:
            code = self._codes[layer] = len(self.layers)
            self.layers.append(layer)
        return code

    def _open(self, code: int) -> Tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        span_id = self._next_id
        self._next_id += 1
        self._stack.append(span_id)
        self._depth[code] = self._depth.get(code, 0) + 1
        return span_id, parent

    def _close(self, span_id: int, parent: int, code: int, start: float, end: float) -> None:
        self._stack.pop()
        depth = self._depth[code] - 1
        self._depth[code] = depth
        self.ids.append(span_id)
        self.parents.append(parent)
        self.codes.append(code)
        self.starts.append(start)
        self.ends.append(end)
        self.outermost.append(1 if depth == 0 else 0)

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """Record one span around the ``with`` body (used for the root)."""
        code = self.code(layer)
        span_id, parent = self._open(code)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(span_id, parent, code, start, time.perf_counter())

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _wrap(self, function: Callable[..., Any], layer: str, kind: str) -> Callable[..., Any]:
        tracer = self
        code = self.code(UNIT if kind == "unit" else layer)
        clock = time.perf_counter

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return function(*args, **kwargs)
            in_worker = kind == "unit" and os.getpid() != tracer.owner_pid
            if in_worker:
                tracer._enter_worker()
            series = None
            if kind == "engine":
                series = _EpochClock()
                args[0].observers.append(series)
            span_id, parent = tracer._open(code)
            start = clock()
            try:
                result = function(*args, **kwargs)
                if series is not None:
                    tracer.peak_views = max(tracer.peak_views, int(result.peak_view_count))
                return result
            finally:
                end = clock()
                tracer._close(span_id, parent, code, start, end)
                if series is not None:
                    args[0].observers.remove(series)
                    tracer.epoch_series.append(series.durations(start))
                if kind == "dispatch" and tracer._depth[code] == 0:
                    tracer.dispatches.append((end - start, tracer._width(kwargs)))
                if in_worker:
                    tracer._spill()

        return wrapper

    def _width(self, kwargs: Dict[str, Any]) -> int:
        from repro.core.trials import resolve_jobs

        return max(1, min(resolve_jobs(kwargs.get("jobs")), self.cores))

    def install(self, targets: Sequence[Target]) -> None:
        """Wrap every target; :meth:`restore` undoes exactly what this did.

        Raises ``AttributeError`` when a target's class does not itself
        define the method, so a renamed or moved method fails the traced
        pass instead of reporting a layer of zeros.
        """
        for target in targets:
            module = importlib.import_module(target.module)
            head, _, method = target.qualname.partition(".")
            if not method:
                original = getattr(module, head)
                wrapped = self._wrap(original, target.layer, target.kind)
                for site, attribute in _module_functions_bound_to(original):
                    setattr(site, attribute, wrapped)
                    self._restores.append(functools.partial(setattr, site, attribute, original))
                continue
            cls = getattr(module, head)
            if method not in cls.__dict__:
                raise AttributeError(f"{target.module}.{head} defines no {method!r} to trace")
            for owner in [cls] + _subclasses(cls):
                original = owner.__dict__.get(method)
                if original is None or getattr(original, "__isabstractmethod__", False):
                    continue
                setattr(owner, method, self._wrap(original, target.layer, target.kind))
                self._restores.append(functools.partial(setattr, owner, method, original))

    def restore(self) -> None:
        """Put every wrapped function back, newest first."""
        self.active = False
        while self._restores:
            self._restores.pop()()

    # ------------------------------------------------------------------
    # Pool workers
    # ------------------------------------------------------------------
    def _enter_worker(self) -> None:
        """Start a worker's own record (the fork copied the parent's)."""
        if not self._worker_ready:
            self._worker_ready = True
            self._next_id = os.getpid() << 32
        self._clear()

    def _spill(self) -> None:
        if self.spill_dir is None:
            raise RuntimeError("a traced pool worker needs a spill directory")
        record = {
            "layers": self.layers,
            "ids": self.ids.tolist(),
            "parents": self.parents.tolist(),
            "codes": self.codes.tolist(),
            "starts": self.starts.tolist(),
            "ends": self.ends.tolist(),
            "outermost": self.outermost.tolist(),
            "epoch_series": self.epoch_series,
            "peak_views": self.peak_views,
        }
        path = self.spill_dir / f"worker-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        self._clear()

    def merge_spills(self) -> int:
        """Fold every spilled worker record into this tracer; returns records read."""
        if self.spill_dir is None:
            return 0
        merged = 0
        for path in sorted(self.spill_dir.glob("worker-*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                record = json.loads(line)
                remap = [self.code(layer) for layer in record["layers"]]
                self.ids.extend(record["ids"])
                self.parents.extend(record["parents"])
                self.codes.extend(remap[c] for c in record["codes"])
                self.starts.extend(record["starts"])
                self.ends.extend(record["ends"])
                self.outermost.extend(record["outermost"])
                self.epoch_series.extend(record["epoch_series"])
                self.peak_views = max(self.peak_views, record["peak_views"])
                merged += 1
        return merged


@contextmanager
def tracing(tracer: Tracer, targets: Sequence[Target]) -> Iterator[Tracer]:
    """Install ``targets`` for the ``with`` body, restoring them however it exits."""
    try:
        tracer.install(targets)
        yield tracer
    finally:
        tracer.restore()


class _EpochClock:
    """Engine observer stamping the wall time at which each epoch closed."""

    def __init__(self) -> None:
        self.stamps: List[float] = []

    def __call__(self, engine: Any, epoch: int) -> None:
        self.stamps.append(time.perf_counter())

    def durations(self, run_start: float) -> List[float]:
        edges = [run_start] + self.stamps
        return [b - a for a, b in zip(edges, edges[1:])]


# ----------------------------------------------------------------------
# Reduction
# ----------------------------------------------------------------------
def union_length(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    covered, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


def self_times(
    ids: Sequence[int], parents: Sequence[int], starts: Sequence[float], ends: Sequence[float]
) -> List[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for parent, start, end in zip(parents, starts, ends):
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - union_length(children.get(span_id, ()), start, end)
        for span_id, start, end in zip(ids, starts, ends)
    ]


def tail_percentile(n: int, min_beyond: int = 10) -> Optional[int]:
    """The highest whole percentile with at least ``min_beyond`` samples above it.

    Percentiles are nearest-rank: the ``p``-th of ``n`` sorted samples is
    the one at rank ``ceil(p * n / 100)``, leaving ``n - rank`` beyond it.
    ``None`` when not even the median qualifies.
    """
    for p in range(99, 49, -1):
        if n - math.ceil(p * n / 100) >= min_beyond:
            return p
    return None


def nearest_rank(values: Sequence[float], p: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered) / 100) - 1)]


def layer_metrics(tracer: Tracer, layers: Sequence[str]) -> Dict[str, float]:
    """``<layer>.calls``/``.busy_s``/``.self_s`` for every layer, plus trace extras.

    ``calls`` and ``busy_s`` count outermost spans only, so a layer that
    calls itself (a subclass method calling its base) is one call whose
    inclusive time is counted once.  ``self_s`` sums every span's self
    time.  Layers absent from the trace report zeros.
    """
    selfs = self_times(tracer.ids, tracer.parents, tracer.starts, tracer.ends)
    calls = [0] * len(tracer.layers)
    busy = [0.0] * len(tracer.layers)
    own = [0.0] * len(tracer.layers)
    for code, start, end, outer, self_s in zip(
        tracer.codes, tracer.starts, tracer.ends, tracer.outermost, selfs
    ):
        own[code] += self_s
        if outer:
            calls[code] += 1
            busy[code] += end - start
    by_layer = {layer: (calls[c], busy[c], own[c]) for c, layer in enumerate(tracer.layers)}
    unit_calls, unit_busy, unit_self = by_layer.get(UNIT, (0, 0.0, 0.0))

    metrics: Dict[str, float] = {}
    for layer in layers:
        n, inclusive, exclusive = by_layer.get(layer, (0, 0.0, 0.0))
        if layer == "core.trials":
            exclusive += unit_self
        metrics[f"{layer}.calls"] = n
        metrics[f"{layer}.busy_s"] = inclusive
        metrics[f"{layer}.self_s"] = exclusive

    capacity = sum(duration * width for duration, width in tracer.dispatches)
    metrics["core.trials.units"] = unit_calls
    metrics["core.trials.worker_busy_s"] = unit_busy
    metrics["core.trials.parallel_efficiency"] = unit_busy / capacity if capacity else 0.0

    root_calls, root_busy, root_self = by_layer.get(ROOT, (0, 0.0, 0.0))
    metrics["trace.root_self_share"] = root_self / root_busy if root_busy else 0.0
    metrics.update(epoch_metrics(tracer.epoch_series))
    metrics["sim.engine.peak_views"] = tracer.peak_views
    return metrics


def epoch_metrics(series: Sequence[Sequence[float]]) -> Dict[str, float]:
    """Per-epoch wall time (ms): first and last tenth of each run, growth, tail.

    The first and last ``max(1, n // 10)`` epochs of every engine run are
    pooled across runs and summarised by their medians; the tail is the
    nearest-rank percentile :func:`tail_percentile` allows over all epochs
    (0 with its percentile 0 when fewer than 20 epochs ran).
    """
    first: List[float] = []
    last: List[float] = []
    every: List[float] = []
    for durations in series:
        if not durations:
            continue
        tenth = max(1, len(durations) // 10)
        first.extend(durations[:tenth])
        last.extend(durations[-tenth:])
        every.extend(durations)
    first_ms = statistics.median(first) * 1e3 if first else 0.0
    last_ms = statistics.median(last) * 1e3 if last else 0.0
    pct = tail_percentile(len(every))
    return {
        "sim.engine.epoch_ms.first_tenth": first_ms,
        "sim.engine.epoch_ms.last_tenth": last_ms,
        "sim.engine.epoch_growth": last_ms / first_ms if first_ms else 0.0,
        "sim.engine.epoch_ms.tail": nearest_rank(every, pct) * 1e3 if pct else 0.0,
        "sim.engine.epoch_ms.tail_pct": pct or 0,
    }
