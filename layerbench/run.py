"""The repository's benchmark: run one workload, check it, print its metrics.

Usage, from the root of a checkout::

    python3 layerbench/run.py --workload horizon-64 --seed 1 --seconds 32 --trace 0
    python3 layerbench/run.py --workload campaign --seed 1 --seconds 32 --trace 1

Every pass runs in a fresh interpreter (``one_pass.py``), so each one pays
the set-up a user pays (``import repro`` plus building the workload) and
no pass inherits another's heap.  A run makes as many passes as fill
about ``--seconds`` at the workload's nominal pass length
(:func:`pass_count`; at least two, and none starts that could not end
within the three-minute budget).

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (from spawning
the interpreter to the first timed call), ``run_s`` (the timed phase) and
``peak_rss_mb`` (the largest RSS of the pass and of its pool workers,
median over the passes).  Each pass cuts set-up and the timed phase into
the same steps (the import, each engine or store built, each epoch, each
job); ``setup_s`` and ``run_s`` are the sums over steps of each step's
fastest time across the passes.  The host's slowdowns come and go and
only ever add time, so each step's fastest time is the best reading of
what the code costs; a median follows the host more (see README.md).

``--trace 1`` alternates an untraced and a traced pass and reports every
per-layer metric (medians over the traced passes), the set-up split of
the untraced passes, and ``trace.overhead`` = traced ``run_s`` ÷
untraced ``run_s``.

Each output check of each pass is one attempted operation; a failed
check, a pass that crashed, or two passes of one seed whose output
digests differ count as failed.  A traced pass adds one more check: the
time spent in no named layer stays under :data:`MAX_ROOT_SELF_SHARE` of
its timed phase.  The last line printed is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
#: Where a pass keeps its stores (``one_pass.py`` names its own directory).
SCRATCH = ROOT / ".layerbench_tmp"

#: A run must end within 180 s; no pass starts unless the slowest pass
#: so far would still end before this.
BUDGET_S = 165.0

WORKLOAD_NAMES = ("horizon-64", "mainnet-10k-mix", "campaign")

#: Fewest passes per run: two passes of one seed must give one digest.
MIN_PASSES = 2

#: A traced pass fails when more of its timed phase than this is spent
#: in no named layer (the root span's self time): the layers would then
#: no longer say where the time goes.
MAX_ROOT_SELF_SHARE = 0.25


def run_pass(workload: str, seed: int, traced: bool, timeout: float) -> Dict[str, Any]:
    """Run one pass in a fresh interpreter; its report plus ``setup_s`` and ``wall_s``."""
    command = [sys.executable, str(HERE / "one_pass.py"), "--workload", workload, "--seed", str(seed)]
    if traced:
        command.append("--trace")
    spawned = time.perf_counter()
    # A session of its own, so a timeout also kills the pass's pool workers.
    child = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, stderr = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        shutil.rmtree(SCRATCH / f"pass-{child.pid}", ignore_errors=True)
        return {"error": f"pass timed out after {timeout:.0f}s", "wall_s": time.perf_counter() - spawned}
    wall = time.perf_counter() - spawned
    lines = stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1]) if child.returncode == 0 and lines else None
    except ValueError:
        report = None
    if not isinstance(report, dict):
        return {"error": stderr.strip()[-2000:] or f"exit code {child.returncode}", "wall_s": wall}
    report["spawned"] = spawned
    report["setup_s"] = report["timed_start"] - spawned
    report["wall_s"] = wall
    return report


def pass_count(workload: str, seconds: float, cycle: int) -> int:
    """How many passes a run makes: whole cycles filling about ``seconds``.

    The count comes from the workload's nominal pass length, not from the
    passes as they run, so every run of one ``--seconds`` takes each
    step's fastest time over the same number of passes however fast the
    host is that minute.
    """
    from workloads import WORKLOADS

    cycles = max(1, round(seconds / (WORKLOADS[workload].pass_s * cycle)))
    return max(MIN_PASSES, cycles * cycle)


def run_passes(workload: str, seed: int, seconds: float, pattern: List[bool]) -> List[Dict[str, Any]]:
    """Run :func:`pass_count` passes, cycling through ``pattern`` (traced flags).

    No pass starts that the slowest pass so far could not finish within
    :data:`BUDGET_S`.
    """
    started = time.perf_counter()
    passes: List[Dict[str, Any]] = []
    slowest = 0.0
    for index in range(pass_count(workload, seconds, len(pattern))):
        elapsed = time.perf_counter() - started
        if passes and elapsed + slowest > BUDGET_S:
            break
        traced = pattern[index % len(pattern)]
        report = run_pass(workload, seed, traced, max(1.0, BUDGET_S - elapsed))
        report["traced"] = traced
        passes.append(report)
        slowest = max(slowest, report["wall_s"])
        if "error" in report:
            break
    return passes


def tally(passes: List[Dict[str, Any]]) -> Dict[str, int]:
    """Attempted and failed operations over every pass."""
    attempted = failed = 0
    for report in passes:
        if "error" in report:
            attempted += 1
            failed += 1
            continue
        for name, ok in report["checks"]:
            attempted += 1
            if not ok:
                failed += 1
                print(f"check failed: {name}")
        if report["traced"]:
            share = report["layers"]["trace.root_self_share"]
            attempted += 1
            if not share < MAX_ROOT_SELF_SHARE:
                failed += 1
                print(f"check failed: {share:.3f} of the traced run is in no named layer")
    digests = {report["digest"] for report in passes if "error" not in report}
    if len([r for r in passes if "error" not in r]) > 1:
        attempted += 1
        if len(digests) != 1:
            failed += 1
            print(f"check failed: one seed gave different digests {sorted(digests)}")
    return {"attempted": attempted, "failed": failed}


def median_of(passes: List[Dict[str, Any]], key: str) -> float:
    return statistics.median(report[key] for report in passes)


def fastest_steps(series: List[List[float]]) -> float:
    """Sum over steps of each step's fastest time; one list of step times per pass."""
    if len({len(steps) for steps in series}) != 1:
        raise ValueError(f"passes of one seed cut into different step counts: {[len(s) for s in series]}")
    return sum(min(times) for times in zip(*series))


def end_to_end(passes: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    setups = [[r["t_imported"] - r["spawned"]] + r["build_steps"] for r in passes]
    return {
        "setup_s": {"value": fastest_steps(setups), "unit": "s"},
        "run_s": {"value": fastest_steps([r["run_steps"] for r in passes]), "unit": "s"},
        "peak_rss_mb": {"value": median_of(passes, "peak_rss_mb"), "unit": "MB"},
    }


def per_layer(passes: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    from layers import per_layer_metrics

    plain = [r for r in passes if not r["traced"]]
    traced = [r for r in passes if r["traced"]]
    measured: Dict[str, float] = {}
    for key in traced[0]["layers"]:
        measured[key] = statistics.median(r["layers"][key] for r in traced)
    for key in traced[0]["counters"]:
        measured[key] = statistics.median(r["counters"][key] for r in traced)
    setup_s = median_of(plain, "setup_s")
    measured.update(
        {
            "setup.calls": 1,
            "setup.busy_s": setup_s,
            "setup.self_s": setup_s,
            "setup.import_s": median_of(plain, "import_s"),
            "setup.build_s": median_of(plain, "build_s"),
            "trace.overhead": median_of(traced, "run_s") / median_of(plain, "run_s"),
        }
    )
    return {
        name: {"value": measured.get(name, 0), "unit": unit}
        for name, unit, _ in per_layer_metrics()
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}: run from a checkout", file=sys.stderr)
        return 2

    pattern = [False, True] if args.trace else [False]
    passes = run_passes(args.workload, args.seed, args.seconds, pattern)
    for report in passes:
        if "error" in report:
            print(f"pass failed: {report['error']}", file=sys.stderr)
            continue
        print(
            f"pass traced={int(report['traced'])} setup_s={report['setup_s']:.4f} "
            f"run_s={report['run_s']:.4f} peak_rss_mb={report['peak_rss_mb']:.1f} "
            f"digest={report['digest']}"
        )
    counts = tally(passes)
    good = [r for r in passes if "error" not in r]
    if args.trace:
        complete = any(r["traced"] for r in good) and any(not r["traced"] for r in good)
        metrics = per_layer(good) if complete else {}
    else:
        metrics = end_to_end(good) if good else {}
    result = {
        "correct": counts["failed"] == 0 and bool(metrics),
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": metrics,
    }
    try:
        SCRATCH.rmdir()  # only when every pass cleaned up after itself
    except OSError:
        pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
