"""The benchmark's workloads: what each builds, times, checks and digests.

Every workload derives all of its seeds from the one ``--seed`` argument
(:func:`engine_seed`, :func:`int_seed`), so a seed names its inputs
exactly and two runs of one seed produce the same :meth:`digest`.

* ``horizon-64`` — the Section 5.2.1 double-voting attack in the slot
  simulator, run to 100 epochs: past the first conflicting finalization.
  The only workload whose history grows, so the slasher, fork choice and
  message ingest do the work.
* ``mainnet-10k-mix`` — three 10k-validator presets (balancing, gossip,
  double voting), 2 epochs each: view splitting, gossip latency,
  transport and epoch processing over 10k validators, and the only
  workload large enough for a memory change to show.
* ``campaign`` — the experiment service as a user drives it on a fresh
  cache: Monte-Carlo, Table 2 and a grown sweep, then identical
  resubmissions.  Batched kernels, trial dispatch and the cache do the
  work; the only multi-process workload.

Workloads call the package's public functions only.  Imports of
``repro`` happen in :meth:`Workload.imports`, which the pass times as the
import part of set-up.  :meth:`Workload.build` and :meth:`Workload.run`
cut their phase into steps with :meth:`Workload.lap` (one per engine
built, per epoch, per job), the same steps on every pass of a seed, so
``run.py`` can take each step's fastest time over the passes.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import shutil
import time
from typing import Any, Dict, List, Tuple

Check = Tuple[str, bool]


def engine_seed(seed: int, label: str) -> str:
    """The duty/sweep seed string of ``label`` under benchmark seed ``seed``."""
    return f"layerbench-{seed}-{label}"


def int_seed(seed: int, label: str) -> int:
    """A 32-bit integer seed of ``label`` under benchmark seed ``seed``."""
    digest = hashlib.blake2b(engine_seed(seed, label).encode(), digest_size=4).digest()
    return int.from_bytes(digest, "big")


def _digest(value: Any) -> str:
    text = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def _result_summary(result: Any) -> Dict[str, Any]:
    """The deterministic outcome of one slot-simulation run."""
    finalized = sorted(
        {repr(state.finalized_checkpoint) for state in result.distinct_final_states()}
    )
    stats = result.transport_stats
    return {
        "epochs": result.epochs_run,
        "first_violation": result.first_safety_violation_epoch(),
        "slashed": sorted(result.slashed_indices),
        "finalized": finalized,
        "peak_views": result.peak_view_count,
        "views": len(result.view_events),
        "sent": stats.sent,
        "delivered": stats.delivered,
    }


class Workload:
    """One benchmark workload; a pass calls the methods in this order."""

    name = ""
    #: Nominal wall time of one pass (spawn to exit), measured on a fast
    #: minute of the 2-core VM the benchmark was built on.  It turns
    #: ``--seconds`` into a fixed number of passes (``run.pass_count``).
    pass_s = 0.0

    def __init__(self) -> None:
        #: Step boundaries (``perf_counter``) within the current phase.
        self.laps: List[float] = []

    def lap(self) -> None:
        """Close one step of the phase that is running."""
        self.laps.append(time.perf_counter())

    def imports(self) -> None:
        """Import what the workload uses (timed as ``setup.import_s``)."""
        import repro  # noqa: F401  (the package import every CLI user pays)

    def build(self, seed: int, scratch: pathlib.Path) -> None:
        """Build engines, specs and stores (timed as ``setup.build_s``)."""
        raise NotImplementedError

    def run(self) -> None:
        """The timed phase."""
        raise NotImplementedError

    def checks(self) -> List[Check]:
        """``(name, passed)`` for every output check; each is one operation."""
        raise NotImplementedError

    def digest(self) -> str:
        """A digest of the outputs; equal for equal seeds."""
        raise NotImplementedError

    def counters(self) -> Dict[str, float]:
        """Counts the layers keep themselves, read after the timed phase."""
        return {}


class _SlotSimWorkload(Workload):
    """Shared by the slot-simulator workloads: engines in, results out."""

    epochs = 0

    def run(self) -> None:
        self.results = {}
        for name, engine in self.engines.items():
            engine.observers.append(self._epoch_closed)
            self.results[name] = engine.run(self.epochs)

    def _epoch_closed(self, engine: Any, epoch: int) -> None:
        """``EngineObserver`` hook: each epoch of each engine is one step."""
        self.lap()

    def digest(self) -> str:
        return _digest({name: _result_summary(r) for name, r in self.results.items()})

    def counters(self) -> Dict[str, float]:
        stats = [result.transport_stats for result in self.results.values()]
        return {
            "network.transport.sent": sum(s.sent for s in stats),
            "network.transport.delivered": sum(s.delivered for s in stats),
        }

    def _no_honest_slashed(self) -> List[Check]:
        return [
            (
                f"{name}: no honest validator slashed",
                not (set(result.slashed_indices) & set(result.honest_indices)),
            )
            for name, result in self.results.items()
        ]


class Horizon64(_SlotSimWorkload):
    name = "horizon-64"
    pass_s = 8.0
    epochs = 100

    def build(self, seed: int, scratch: pathlib.Path) -> None:
        from repro.sim.scenarios import build_partitioned_simulation
        from repro.spec.config import SpecConfig

        self.engines = {
            "double-voting-64": build_partitioned_simulation(
                n_validators=64,
                p0=0.5,
                byzantine_fraction=0.33,
                byzantine_strategy="double-voting",
                config=SpecConfig.minimal(),
                seed=engine_seed(seed, "horizon"),
            )
        }

    def checks(self) -> List[Check]:
        result = self.results["double-voting-64"]
        # The slashed count is not pinned: it depends on the duty seed.
        return [
            ("conflicting finalization reached", result.safety_violated()),
            (
                "every slashed validator is Byzantine",
                set(result.slashed_indices) <= set(result.byzantine_indices),
            ),
        ]


class Mainnet10kMix(_SlotSimWorkload):
    name = "mainnet-10k-mix"
    pass_s = 11.0
    epochs = 2
    PRESETS = ("mainnet-balancing-10k", "mainnet-gossip-10k", "mainnet-double-voting-10k")

    def build(self, seed: int, scratch: pathlib.Path) -> None:
        from repro.sim.scenarios import build_preset

        self.engines = {}
        for name in self.PRESETS:
            self.engines[name] = build_preset(
                name, seed=engine_seed(seed, name), latency_seed=int_seed(seed, name)
            )
            self.lap()

    def checks(self) -> List[Check]:
        balancing = self.results["mainnet-balancing-10k"]
        gossip = self.results["mainnet-gossip-10k"].transport_stats
        return [
            ("balancing attack split the views", balancing.peak_view_count >= 2),
            ("gossip delivered every message sent", gossip.delivered == gossip.sent),
        ] + self._no_honest_slashed()


class Campaign(Workload):
    """Experiment-service jobs, each through submit -> claim -> execute_job."""

    name = "campaign"
    pass_s = 9.0
    SWEEP_TRIALS = 16

    def imports(self) -> None:
        super().imports()
        import repro.experiments.runner  # noqa: F401  (experiment jobs import it lazily)
        import repro.service.executor  # noqa: F401

    def build(self, seed: int, scratch: pathlib.Path) -> None:
        from repro.cache import ResultCache
        from repro.service.jobs import JobStore
        from repro.sim.sweeps import ScenarioSpec

        self.root = scratch / "campaign"
        shutil.rmtree(self.root, ignore_errors=True)
        self.store = JobStore(self.root / "service")
        self.cache = ResultCache(self.root / "cache")
        self.jobs = min(2, os.cpu_count() or 1)
        sweep = ScenarioSpec.from_preset(
            "mainnet-balancing-10k", epochs=2, seed=engine_seed(seed, "sweep"), n_validators=256
        ).canonical()
        fig10 = {
            "experiment": "fig10-montecarlo",
            "options": {
                "n_trials": 256,
                "horizon": 1000,
                "seed": int_seed(seed, "fig10"),
                "jobs": self.jobs,
            },
        }
        table2 = {"experiment": "table2", "options": {"jobs": self.jobs}}
        small = {"specs": [sweep], "n_trials": self.SWEEP_TRIALS}
        grown = {"specs": [sweep], "n_trials": 2 * self.SWEEP_TRIALS}
        self.plan = [
            ("fig10", "experiment", fig10),
            ("table2", "experiment", table2),
            ("sweep", "sweep", small),
            ("sweep-grown", "sweep", grown),
            ("fig10-replay", "experiment", fig10),
            ("table2-replay", "experiment", table2),
            ("sweep-grown-replay", "sweep", grown),
        ]

    def run(self) -> None:
        from repro.service.executor import execute_job

        self.records: Dict[str, Any] = {}
        self.stores: Dict[str, int] = {}
        self.retries = 0
        for label, kind, spec in self.plan:
            stores_before = self.cache.stats.stores
            record = self.store.submit(kind, spec)
            while not record.terminal:
                claimed = self.store.claim(record.job_id)
                if claimed is None:
                    break
                self.retries += int(claimed.attempts > 1)
                record = execute_job(claimed, self.store, self.cache, jobs=self.jobs)
            self.records[label] = record
            self.stores[label] = self.cache.stats.stores - stores_before
            self.lap()

    def _payload(self, label: str) -> str:
        return json.dumps(self.records[label].result, sort_keys=True)

    def checks(self) -> List[Check]:
        checks = [
            (f"{label} done", self.records[label].state == "done") for label, _, _ in self.plan
        ]
        for cold in ("fig10", "table2", "sweep-grown"):
            checks.append(
                (f"{cold} replay byte-identical", self._payload(cold) == self._payload(f"{cold}-replay"))
            )
            checks.append((f"{cold} replay stores nothing", self.stores[f"{cold}-replay"] == 0))
        checks.append(
            ("grown sweep stores only new trials", self.stores["sweep-grown"] == self.SWEEP_TRIALS)
        )
        rows = (self.records["table2"].result or {}).get("rows") or []
        checks.append(("table2 has five rows", len(rows) == 5))
        for row in rows:
            simulated, paper = row.get("epochs_simulated"), row.get("epochs_paper")
            checks.append(
                (
                    f"table2 beta0={row.get('beta0')} within 1% of the paper",
                    simulated is not None and paper and abs(simulated - paper) <= 0.01 * paper,
                )
            )
        return checks

    def digest(self) -> str:
        return _digest({label: self.records[label].result for label, _, _ in self.plan})

    def counters(self) -> Dict[str, float]:
        stats = self.cache.stats
        return {
            "cache.lookups": stats.lookups,
            "cache.hits": stats.hits,
            "cache.stores": stats.stores,
            "cache.hit_rate": stats.hit_rate,
            "service.retries": self.retries,
        }


WORKLOADS: Dict[str, type] = {w.name: w for w in (Horizon64, Mainnet10kMix, Campaign)}
