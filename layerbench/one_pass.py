"""One benchmark pass in a fresh interpreter: set up, run the timed phase, check.

Usage (``run.py`` starts it; it can also be run by hand)::

    python3 layerbench/one_pass.py --workload horizon-64 --seed 1 [--trace]

Prints one JSON object: ``t_imported`` and ``timed_start`` (absolute
``perf_counter`` readings, which share the system-wide monotonic clock
with the parent so the parent can time set-up from the moment it spawned
this interpreter), ``import_s``, ``build_s``, ``run_s``, the durations of
the build and run steps the workload marked (``build_steps``,
``run_steps``; see :meth:`workloads.Workload.lap`), ``peak_rss_mb``, the
output checks, the output digest, the layers' own counters and, with
``--trace``, the per-layer metrics of :func:`spans.layer_metrics`.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def peak_rss_mb() -> float:
    """Largest RSS of this process and of any waited-for child (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def steps(start: float, laps: list, end: float) -> list:
    """Durations between ``start``, each lap and ``end``."""
    edges = [start] + list(laps) + [end]
    return [b - a for a, b in zip(edges, edges[1:])]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    scratch = ROOT / ".layerbench_tmp" / f"pass-{os.getpid()}"  # run.py clears it after a kill
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        workload.imports()
        t_imported = time.perf_counter()
        workload.build(args.seed, scratch)
        t_built = time.perf_counter()
        build_laps, workload.laps = workload.laps, []

        tracer = None
        if args.trace:
            from layers import LAYERS, TARGETS
            from spans import ROOT as ROOT_SPAN, Tracer, layer_metrics, tracing

            spill = scratch / "spans"
            spill.mkdir()
            tracer = Tracer(spill_dir=spill)
            with tracing(tracer, TARGETS):
                tracer.active = True
                timed_start = time.perf_counter()
                with tracer.span(ROOT_SPAN):
                    workload.run()
                timed_end = time.perf_counter()
                tracer.active = False
        else:
            timed_start = time.perf_counter()
            workload.run()
            timed_end = time.perf_counter()
        rss = peak_rss_mb()

        report = {
            "t_imported": t_imported,
            "timed_start": timed_start,
            "import_s": t_imported - _T0,
            "build_s": t_built - t_imported,
            "run_s": timed_end - timed_start,
            "build_steps": steps(t_imported, build_laps, timed_start),
            "run_steps": steps(timed_start, workload.laps, timed_end),
            "peak_rss_mb": rss,
            "checks": workload.checks(),
            "digest": workload.digest(),
            "counters": workload.counters(),
        }
        if tracer is not None:
            tracer.merge_spills()
            report["layers"] = layer_metrics(tracer, LAYERS)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
