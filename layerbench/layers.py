"""The layers the traced pass times, and the per-layer metrics it reports.

Layer names follow the ``repro`` package's modules.  Every target is a
public function or method; the tracer wraps it from outside the package.
``PER_LAYER_METRICS`` is the exact list a traced run prints, in the order
``BENCHMARK.json`` declares it (a harness test keeps the two equal).
"""

from __future__ import annotations

from typing import List, Tuple

from spans import Target

TARGETS: Tuple[Target, ...] = (
    Target("spec.slashing", "repro.spec.slashing", "SlashingDetector.observe"),
    Target("spec.slashing", "repro.spec.slashing", "SlashingDetector.observe_batch"),
    Target("spec.forkchoice", "repro.spec.forkchoice", "Store.get_head"),
    Target("spec.forkchoice", "repro.spec.forkchoice", "Store.get_head_weighted"),
    Target("spec.forkchoice", "repro.spec.forkchoice", "Store.on_block"),
    Target("spec.forkchoice", "repro.spec.forkchoice", "Store.on_attestation_batch"),
    Target("sim.node", "repro.sim.node", "Node.receive"),
    Target("sim.node", "repro.sim.node", "Node.process_epoch_end"),
    Target("sim.node", "repro.sim.node", "Node.split_clone"),
    Target("core.ffg", "repro.core.ffg", "FlatVotePool.add_vote"),
    Target("core.ffg", "repro.core.ffg", "FlatVotePool.add_batch"),
    Target("agents", "repro.agents.base", "ValidatorAgent.propose"),
    Target("agents", "repro.agents.base", "ValidatorAgent.attest"),
    Target("agents", "repro.agents.base", "ValidatorAgent.attest_committee"),
    Target("sim.engine", "repro.sim.engine", "SimulationEngine.run", kind="engine"),
    Target("network.adversary", "repro.network.adversary", "Adversary.send_to_validators"),
    Target("network.adversary", "repro.network.adversary", "Adversary.send_to_partition"),
    Target("network.adversary", "repro.network.adversary", "Adversary.withhold"),
    Target("network.adversary", "repro.network.adversary", "Adversary.release_all"),
    Target("network.transport", "repro.network.transport", "Network.broadcast"),
    Target("network.transport", "repro.network.transport", "Network.send"),
    Target("network.transport", "repro.network.transport", "Network.deliveries_until"),
    Target("network.latency", "repro.network.latency", "LatencyModel.delivery_times"),
    Target("network.latency", "repro.network.latency", "GossipPropagation.hops_from"),
    Target("core.stake_engine", "repro.core.stake_engine", "BatchedStakeEngine.step"),
    Target("analysis.montecarlo", "repro.analysis.montecarlo", "BouncingMonteCarlo.run"),
    Target("core.trials", "repro.core.trials", "run_task_chunks", kind="dispatch"),
    Target("core.trials", "repro.core.trials", "run_chunk_groups", kind="dispatch"),
    Target("core.trials", "repro.core.trials", "_run_task_chunk_worker", kind="unit"),
    Target("core.trials", "repro.core.trials", "_run_group_worker", kind="unit"),
    Target("sim.sweeps", "repro.sim.sweeps", "run_sweep_resumable"),
    Target("cache", "repro.cache", "ResultCache.fetch"),
    Target("cache", "repro.cache", "ResultCache.store"),
    Target("cache", "repro.cache", "ResultCache.fetch_or_compute"),
    Target("service", "repro.service.jobs", "JobStore.submit"),
    Target("service", "repro.service.jobs", "JobStore.claim"),
    Target("service", "repro.service.jobs", "JobStore.save"),
    Target("service", "repro.service.jobs", "JobStore.finish"),
    Target("service", "repro.service.executor", "execute_job"),
)

#: Layers with ``.calls``/``.busy_s``/``.self_s``, outermost first.
#: ``setup`` is not traced: it is the untraced pass's import and build.
LAYERS: Tuple[str, ...] = (
    "service",
    "sim.sweeps",
    "cache",
    "core.trials",
    "analysis.montecarlo",
    "core.stake_engine",
    "sim.engine",
    "agents",
    "network.adversary",
    "network.transport",
    "network.latency",
    "sim.node",
    "spec.forkchoice",
    "core.ffg",
    "spec.slashing",
)

_UNIT_OF_SUFFIX = {"calls": "count", "busy_s": "s", "self_s": "s"}

#: Extras beyond calls/busy/self: (name, unit, better).
EXTRAS: Tuple[Tuple[str, str, str], ...] = (
    ("setup.import_s", "s", "lower"),
    ("setup.build_s", "s", "lower"),
    ("sim.engine.epoch_ms.first_tenth", "ms", "lower"),
    ("sim.engine.epoch_ms.last_tenth", "ms", "lower"),
    ("sim.engine.epoch_ms.tail", "ms", "lower"),
    ("sim.engine.epoch_ms.tail_pct", "percentile", "higher"),
    ("sim.engine.epoch_growth", "ratio", "lower"),
    ("sim.engine.peak_views", "count", "lower"),
    ("network.transport.sent", "count", "lower"),
    ("network.transport.delivered", "count", "lower"),
    ("core.trials.units", "count", "higher"),
    ("core.trials.worker_busy_s", "s", "lower"),
    ("core.trials.parallel_efficiency", "ratio", "higher"),
    ("cache.lookups", "count", "lower"),
    ("cache.hits", "count", "higher"),
    ("cache.stores", "count", "lower"),
    ("cache.hit_rate", "ratio", "higher"),
    ("service.retries", "count", "lower"),
    ("trace.root_self_share", "ratio", "lower"),
    ("trace.overhead", "ratio", "lower"),
)


def per_layer_metrics() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``."""
    metrics = [
        (f"{layer}.{suffix}", unit, "lower")
        for layer in ("setup",) + LAYERS
        for suffix, unit in _UNIT_OF_SUFFIX.items()
    ]
    return metrics + list(EXTRAS)
