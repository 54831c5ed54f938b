"""Tests of the benchmark harness: span arithmetic, ratio bases, tails, wrappers.

Run with ``python3 -m pytest layerbench/tests -q`` from the repository root.
"""

import json
import math
import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import ROOT as ROOT_SPAN, UNIT, Tracer, Target  # noqa: E402


def _record(tracer, layer, start, end, parent=-1, span_id=None, outermost=True):
    span_id = len(tracer.ids) if span_id is None else span_id
    tracer.ids.append(span_id)
    tracer.parents.append(parent)
    tracer.codes.append(tracer.code(layer))
    tracer.starts.append(start)
    tracer.ends.append(end)
    tracer.outermost.append(1 if outermost else 0)
    return span_id


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def test_self_time_subtracts_the_union_of_overlapping_children():
    # Parent [0, 10]; two workers overlap on [3, 4]; one child runs past the
    # parent's end and only its covered part counts.
    ids = [0, 1, 2, 3]
    parents = [-1, 0, 0, 0]
    starts = [0.0, 1.0, 3.0, 8.0]
    ends = [10.0, 4.0, 6.0, 12.0]
    selfs = spans.self_times(ids, parents, starts, ends)
    assert selfs[0] == pytest.approx(10.0 - (5.0 + 2.0))
    assert selfs[1:] == pytest.approx([3.0, 3.0, 4.0])


def test_self_time_of_nested_children_is_what_no_child_covers():
    ids = [0, 1, 2]
    parents = [-1, 0, 1]
    starts = [0.0, 2.0, 3.0]
    ends = [10.0, 6.0, 5.0]
    assert spans.self_times(ids, parents, starts, ends) == pytest.approx([6.0, 2.0, 2.0])


def test_union_length_clips_to_the_parent_interval():
    assert spans.union_length([(-5.0, 1.0), (0.5, 2.0), (9.0, 20.0)], 0.0, 10.0) == pytest.approx(3.0)
    assert spans.union_length([], 0.0, 10.0) == 0.0


# ----------------------------------------------------------------------
# Ratio bases
# ----------------------------------------------------------------------
def test_parallel_efficiency_divides_worker_busy_by_dispatch_time_and_usable_cores():
    tracer = Tracer(cores=2)
    root = _record(tracer, ROOT_SPAN, 0.0, 12.0)
    dispatch = _record(tracer, "core.trials", 1.0, 11.0, parent=root)
    _record(tracer, UNIT, 1.0, 9.0, parent=dispatch)
    _record(tracer, UNIT, 2.0, 9.0, parent=dispatch)
    # jobs=4 on 2 cores: the base is the 2 cores the dispatch could use.
    tracer.dispatches.append((10.0, tracer._width({"jobs": 4})))
    metrics = spans.layer_metrics(tracer, layers.LAYERS)
    assert metrics["core.trials.units"] == 2
    assert metrics["core.trials.worker_busy_s"] == pytest.approx(15.0)
    assert metrics["core.trials.parallel_efficiency"] == pytest.approx(15.0 / (10.0 * 2))
    # The dispatch waited on its units for [1, 9], so 2 s are its own; the
    # units' own time (no traced children here) counts towards the layer.
    assert metrics["core.trials.busy_s"] == pytest.approx(10.0)
    assert metrics["core.trials.self_s"] == pytest.approx(2.0 + 15.0)
    assert metrics["trace.root_self_share"] == pytest.approx(2.0 / 12.0)


def test_dispatch_width_is_capped_by_jobs_and_by_cores():
    assert Tracer(cores=8)._width({"jobs": 2}) == 2
    assert Tracer(cores=2)._width({"jobs": 8}) == 2
    assert Tracer(cores=4)._width({}) == 1


def test_calls_and_busy_count_outermost_spans_once():
    tracer = Tracer()
    outer = _record(tracer, "agents", 0.0, 4.0)
    _record(tracer, "agents", 1.0, 3.0, parent=outer, outermost=False)
    metrics = spans.layer_metrics(tracer, layers.LAYERS)
    assert metrics["agents.calls"] == 1
    assert metrics["agents.busy_s"] == pytest.approx(4.0)
    assert metrics["agents.self_s"] == pytest.approx(4.0)


def test_epoch_growth_is_last_tenth_over_first_tenth():
    durations = [0.010] * 10 + [0.020] * 80 + [0.050] * 10
    metrics = spans.epoch_metrics([durations])
    assert metrics["sim.engine.epoch_ms.first_tenth"] == pytest.approx(10.0)
    assert metrics["sim.engine.epoch_ms.last_tenth"] == pytest.approx(50.0)
    assert metrics["sim.engine.epoch_growth"] == pytest.approx(5.0)


def test_trace_overhead_is_traced_over_untraced_run_time():
    def report(traced, run_s):
        return {
            "traced": traced,
            "run_s": run_s,
            "setup_s": 1.0,
            "import_s": 0.75,
            "build_s": 0.25,
            "layers": {"sim.engine.calls": 1},
            "counters": {},
        }

    passes = [report(False, 10.0), report(True, 13.0), report(False, 12.0), report(True, 15.0)]
    metrics = run.per_layer(passes)
    assert metrics["trace.overhead"]["value"] == pytest.approx(14.0 / 11.0)
    assert metrics["setup.import_s"]["value"] == pytest.approx(0.75)


def test_fastest_steps_sums_each_steps_fastest_time():
    # The host slowed pass 1 in its first step and pass 2 in its second.
    assert run.fastest_steps([[3.0, 1.0, 2.0], [1.0, 4.0, 2.5]]) == pytest.approx(1.0 + 1.0 + 2.0)
    assert run.fastest_steps([[5.0]]) == pytest.approx(5.0)
    with pytest.raises(ValueError, match="step counts"):
        run.fastest_steps([[1.0, 2.0], [1.0]])


def test_pass_steps_run_from_phase_start_through_each_lap_to_its_end():
    import one_pass

    assert one_pass.steps(0.0, [1.0, 3.0], 6.0) == pytest.approx([1.0, 2.0, 3.0])
    assert one_pass.steps(2.0, [], 2.5) == pytest.approx([0.5])


def test_slot_sim_steps_close_at_each_epoch_through_the_observer_hook():
    class FakeEngine:
        def __init__(self):
            self.observers = []

        def run(self, epochs):
            for epoch in range(epochs):
                for observer in self.observers:
                    observer(self, epoch)
            return epochs

    workload = workloads.Horizon64()
    workload.engines = {"a": FakeEngine(), "b": FakeEngine()}
    workload.run()
    assert workload.results == {"a": 100, "b": 100}
    assert len(workload.laps) == 200


def test_pass_count_is_fixed_by_seconds_not_by_the_passes_as_they_run():
    assert run.pass_count("horizon-64", 32, 1) == 4
    assert run.pass_count("mainnet-10k-mix", 32, 1) == 3
    assert run.pass_count("campaign", 32, 2) == 4
    assert run.pass_count("horizon-64", 1, 1) == run.MIN_PASSES


def test_end_to_end_setup_runs_from_spawn_through_every_build_step():
    def report(spawned, t_imported, build_steps, run_steps, rss):
        return {
            "spawned": spawned,
            "t_imported": t_imported,
            "build_steps": build_steps,
            "run_steps": run_steps,
            "peak_rss_mb": rss,
        }

    passes = [report(0.0, 1.0, [0.5, 0.7], [2.0, 3.0], 90.0), report(10.0, 10.9, [0.6, 0.6], [2.5, 2.0], 92.0)]
    metrics = run.end_to_end(passes)
    assert metrics["setup_s"]["value"] == pytest.approx(0.9 + 0.5 + 0.6)
    assert metrics["run_s"]["value"] == pytest.approx(2.0 + 2.0)
    assert metrics["peak_rss_mb"]["value"] == pytest.approx(91.0)


def test_traced_pass_fails_when_too_much_time_is_in_no_layer():
    def report(traced, share):
        return {"traced": traced, "checks": [["ok", True]], "digest": "d", "layers": {"trace.root_self_share": share}}

    assert run.tally([report(False, 0.9), report(True, 0.1)]) == {"attempted": 4, "failed": 0}
    assert run.tally([report(False, 0.0), report(True, 0.3)]) == {"attempted": 4, "failed": 1}


# ----------------------------------------------------------------------
# Tail percentile
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n, expected", [(100, 90), (1000, 99), (64, 84), (20, 50), (19, None), (6, None)])
def test_tail_percentile_is_the_highest_with_ten_samples_beyond(n, expected):
    assert spans.tail_percentile(n) == expected


@pytest.mark.parametrize("n", [20, 37, 64, 100, 250, 999])
def test_tail_percentile_leaves_at_least_ten_samples_and_the_next_does_not(n):
    p = spans.tail_percentile(n)
    assert n - math.ceil(p * n / 100) >= 10
    if p < 99:
        assert n - math.ceil((p + 1) * n / 100) < 10


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert spans.nearest_rank(values, 90) == 90
    assert spans.nearest_rank(values, 50) == 50


def test_unsupported_tail_reports_zero():
    metrics = spans.epoch_metrics([[0.1, 0.2], [0.3, 0.4]])
    assert metrics["sim.engine.epoch_ms.tail"] == 0.0
    assert metrics["sim.engine.epoch_ms.tail_pct"] == 0


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _bindings():
    """Every binding the targets touch, as (owner, attribute) -> object."""
    import repro.core.trials
    import repro.service.executor
    import repro.sim.sweeps  # noqa: F401  (binds run_task_chunks by name)
    import repro.analysis.montecarlo  # noqa: F401  (binds run_chunk_groups by name)

    bound = {}
    for target in layers.TARGETS:
        module = sys.modules[target.module]
        head, _, method = target.qualname.partition(".")
        if not method:
            function = getattr(module, head)
            for site, attribute in spans._module_functions_bound_to(function):
                bound[(site.__name__, attribute)] = function
            continue
        cls = getattr(module, head)
        for owner in [cls] + spans._subclasses(cls):
            if method in owner.__dict__:
                bound[(owner, method)] = owner.__dict__[method]
    return bound


def test_wrappers_cover_every_import_site_and_are_restored():
    import repro.core.trials
    import repro.sim.sweeps

    before = _bindings()
    original = repro.core.trials.run_task_chunks
    tracer = Tracer()
    with spans.tracing(tracer, layers.TARGETS):
        assert repro.sim.sweeps.run_task_chunks is repro.core.trials.run_task_chunks
        assert repro.sim.sweeps.run_task_chunks is not original
        assert repro.sim.sweeps.run_task_chunks.__wrapped__ is original
    assert repro.sim.sweeps.run_task_chunks is original
    assert _bindings() == before


def test_wrappers_are_restored_after_an_exception():
    before = _bindings()
    tracer = Tracer()
    with pytest.raises(RuntimeError, match="boom"):
        with spans.tracing(tracer, layers.TARGETS):
            tracer.active = True
            raise RuntimeError("boom")
    assert not tracer.active
    assert _bindings() == before


def _square_chunk(chunk):
    return [task * task for task in chunk.tasks]


def test_pool_worker_spans_are_spilled_and_merged(tmp_path):
    import repro.core.trials as trials

    tracer = Tracer(spill_dir=tmp_path, cores=2)
    targets = [t for t in layers.TARGETS if t.layer == "core.trials"]
    with spans.tracing(tracer, targets):
        tracer.active = True
        with tracer.span(ROOT_SPAN):
            result = trials.run_task_chunks(_square_chunk, list(range(8)), jobs=2, chunk_size=2)
        tracer.active = False
    assert result == [task * task for task in range(8)]
    assert tracer.merge_spills() == 4
    metrics = spans.layer_metrics(tracer, layers.LAYERS)
    assert metrics["core.trials.calls"] == 1
    assert metrics["core.trials.units"] == 4
    assert metrics["core.trials.worker_busy_s"] > 0.0
    # Worker spans keep the dispatch span as their parent.
    dispatch = tracer.ids[list(tracer.codes).index(tracer.code("core.trials"))]
    unit_code = tracer.code(UNIT)
    assert all(p == dispatch for p, c in zip(tracer.parents, tracer.codes) if c == unit_code)


def test_install_fails_when_the_named_class_lacks_the_method():
    tracer = Tracer()
    missing = Target("cache", "repro.cache", "ResultCache.no_such_method")
    with pytest.raises(AttributeError, match="no_such_method"):
        with spans.tracing(tracer, [Target("cache", "repro.cache", "ResultCache.fetch"), missing]):
            pass
    from repro.cache import ResultCache

    assert not hasattr(ResultCache.fetch, "__wrapped__")


def test_methods_are_wrapped_on_overriding_subclasses():
    class Base:
        def step(self):
            return "base"

    class Override(Base):
        def step(self):
            return "override"

    class Inherit(Base):
        pass

    module = type(sys)("layerbench_fake_module")
    module.Base = Base
    sys.modules[module.__name__] = module
    try:
        tracer = Tracer()
        with spans.tracing(tracer, [Target("agents", module.__name__, "Base.step")]):
            assert Base.__dict__["step"].__wrapped__ is not None
            assert Override.__dict__["step"].__wrapped__ is not None
            assert "step" not in Inherit.__dict__
            tracer.active = True
            assert Override().step() == "override"
            assert Inherit().step() == "base"
            tracer.active = False
        assert len(tracer.ids) == 2
        assert not hasattr(Override.__dict__["step"], "__wrapped__")
    finally:
        del sys.modules[module.__name__]


def test_exception_inside_a_wrapped_call_closes_its_span():
    from repro.cache import ResultCache

    tracer = Tracer()
    with spans.tracing(tracer, [Target("cache", "repro.cache", "ResultCache.fetch")]):
        tracer.active = True
        with pytest.raises(AttributeError):
            ResultCache.fetch(None, "x", {})
        tracer.active = False
    assert len(tracer.ids) == 1 and tracer._stack == []


# ----------------------------------------------------------------------
# Declarations and seeds
# ----------------------------------------------------------------------
def test_benchmark_json_declares_exactly_what_the_runs_print():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == layers.per_layer_metrics()
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(run.WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)
    assert [m["name"] for m in declared["end_to_end"]] == ["setup_s", "run_s", "peak_rss_mb"]


def test_seeds_derive_from_the_benchmark_seed_alone():
    assert workloads.int_seed(3, "fig10") == workloads.int_seed(3, "fig10")
    assert workloads.int_seed(3, "fig10") != workloads.int_seed(4, "fig10")
    assert workloads.int_seed(3, "fig10") != workloads.int_seed(3, "sweep")
    assert workloads.engine_seed(3, "horizon") != workloads.engine_seed(4, "horizon")
