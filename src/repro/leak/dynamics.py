"""Epoch-level aggregate simulation of the inactivity leak.

Each *branch* of a fork is simulated independently (exactly as the paper
analyses them): per epoch, groups of validators are deemed active or
inactive on the branch, the discrete inactivity-score and penalty rules
(Equations 1 and 2) are applied, low-balance validators are ejected, and
justification/finalization is recorded whenever the active stake reaches a
supermajority in consecutive epochs.

This is the discrete ground truth against which the paper's continuous
closed forms (:mod:`repro.analysis`) are validated, and the engine behind
the long-horizon scenario experiments (Tables 2 and 3, Figures 3 and 7).

The per-epoch stake/score/ejection arithmetic is delegated to the shared
:class:`repro.core.BatchedStakeEngine` (one trial, one ledger entry per
group), so this module only owns the branch bookkeeping: activity
patterns, records, and justification/finalization via
:class:`repro.core.FinalityTracker`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.backend import StakeBackend
from repro.core.ffg import FinalityTracker
from repro.core.stake_engine import BatchedStakeEngine
from repro.leak.groups import BranchView, GroupLedger, GroupSpec
from repro.spec.config import SpecConfig


@dataclass
class EpochRecord:
    """Per-epoch observables of one branch."""

    epoch: int
    active_ratio: float
    byzantine_proportion: float
    in_leak: bool
    justified: bool
    finalized: bool
    group_stakes: Dict[str, float]
    ejected_groups: Tuple[str, ...] = ()


@dataclass
class BranchResult:
    """Full history of one simulated branch."""

    name: str
    records: List[EpochRecord] = field(default_factory=list)
    #: First epoch (relative to the simulation start) at which the active
    #: ratio reached the supermajority threshold.
    threshold_epoch: Optional[int] = None
    #: First epoch at which a post-fork checkpoint was finalized.
    finalization_epoch: Optional[int] = None
    #: Epoch -> groups ejected at that epoch.
    ejections: Dict[int, Tuple[str, ...]] = field(default_factory=dict)

    def active_ratio_series(self) -> List[float]:
        """The Figure-3 series: active stake ratio per epoch."""
        return [record.active_ratio for record in self.records]

    def byzantine_proportion_series(self) -> List[float]:
        """The beta(t) series: Byzantine stake proportion per epoch."""
        return [record.byzantine_proportion for record in self.records]

    def max_byzantine_proportion(self) -> float:
        """Largest Byzantine stake proportion observed on this branch."""
        if not self.records:
            return 0.0
        return max(record.byzantine_proportion for record in self.records)

    def stake_series(self, group_name: str) -> List[float]:
        """Per-epoch stake of one group."""
        return [record.group_stakes[group_name] for record in self.records]


@dataclass
class LeakResult:
    """Result of a multi-branch leak simulation."""

    branches: Dict[str, BranchResult]
    config: SpecConfig

    def branch(self, name: str) -> BranchResult:
        """Return the result of the named branch."""
        return self.branches[name]

    def conflicting_finalization_epoch(self) -> Optional[int]:
        """Epoch at which *all* branches have finalized (Safety is lost).

        Conflicting finalization occurs once the slowest branch finalizes
        (Section 5.1); returns ``None`` if some branch never finalized.
        """
        epochs = [result.finalization_epoch for result in self.branches.values()]
        if any(epoch is None for epoch in epochs):
            return None
        return max(epochs)  # type: ignore[type-var]

    def safety_violated(self) -> bool:
        """True when two or more branches finalized conflicting checkpoints."""
        finalized = [
            result
            for result in self.branches.values()
            if result.finalization_epoch is not None
        ]
        return len(finalized) >= 2


class BranchSimulation:
    """Simulates one branch of the fork, epoch by epoch.

    The group ledgers are a dict-of-dataclasses *view* over the flat-array
    state of a ``(1, groups)`` :class:`BatchedStakeEngine`; they are kept
    in sync after every step so callers can keep reading
    ``simulation.ledgers[name].stake``.
    """

    def __init__(
        self,
        name: str,
        groups: Sequence[GroupSpec],
        config: Optional[SpecConfig] = None,
        leak_from_epoch: int = 0,
        stop_leak_on_finalization: bool = True,
        backend: Union[str, StakeBackend] = "auto",
    ) -> None:
        if not groups:
            raise ValueError("a branch needs at least one validator group")
        self.name = name
        self.config = config or SpecConfig.mainnet()
        total_weight = sum(spec.weight for spec in groups)
        if total_weight <= 0:
            raise ValueError("total group weight must be positive")
        self.ledgers: Dict[str, GroupLedger] = {}
        for spec in groups:
            if spec.name in self.ledgers:
                raise ValueError(f"duplicate group name {spec.name!r}")
            normalised = GroupSpec(
                name=spec.name,
                weight=spec.weight / total_weight,
                pattern=spec.pattern,
                byzantine=spec.byzantine,
                initial_stake=spec.initial_stake,
            )
            self.ledgers[spec.name] = GroupLedger(spec=normalised, stake=spec.initial_stake)
        self._group_names: List[str] = [spec.name for spec in groups]
        # step() computes its own weighted sums (a handful of groups), but
        # the engine is a public attribute — give it the real weights so
        # engine.total_stake()/active_ratio() answer correctly for callers.
        self.engine = BatchedStakeEngine(
            [[self.ledgers[name].stake for name in self._group_names]],
            weights=[self.ledgers[name].weight for name in self._group_names],
            config=self.config,
            backend=backend,
        )
        # The branch never reads the per-epoch penalty totals; clone the
        # backend (it may be a caller-supplied shared instance) before
        # switching their reductions off.
        self.engine.backend = self.engine.backend.clone()
        self.engine.backend.track_penalty_totals = False
        self.leak_from_epoch = leak_from_epoch
        self.stop_leak_on_finalization = stop_leak_on_finalization
        self.result = BranchResult(name=name)
        self._finality = FinalityTracker.for_config(self.config)

    # ------------------------------------------------------------------
    def _in_leak(self, epoch: int) -> bool:
        if epoch < self.leak_from_epoch:
            return False
        if self.stop_leak_on_finalization and self._finality.finalized:
            return False
        return True

    def _sync_ledgers(self, epoch: int) -> List[str]:
        """Mirror the engine arrays back into the group ledgers."""
        ejected_now: List[str] = []
        stakes, scores, ejected = (
            self.engine.stakes[0],
            self.engine.scores[0],
            self.engine.ejected[0],
        )
        for position, name in enumerate(self._group_names):
            ledger = self.ledgers[name]
            ledger.stake = float(stakes[position])
            ledger.inactivity_score = float(scores[position])
            if bool(ejected[position]) and not ledger.ejected:
                ledger.ejected = True
                ledger.ejection_epoch = epoch
                ejected_now.append(name)
        return ejected_now

    # ------------------------------------------------------------------
    def step(self, epoch: int) -> EpochRecord:
        """Process one epoch and return its record."""
        in_leak = self._in_leak(epoch)
        view = BranchView(
            branch_name=self.name,
            epoch=epoch,
            previous_active_ratio=self._finality.previous_active_ratio,
            in_leak=in_leak,
            finalized=self._finality.finalized,
        )

        # 1. Decide activity of each (non-ejected) group this epoch.
        active_flags = [
            (not self.ledgers[name].ejected)
            and self.ledgers[name].spec.pattern(epoch, view)
            for name in self._group_names
        ]

        # 2-4. Penalties (Eq. 2), score updates (Eq. 1) and ejections, all
        # delegated to the shared kernel in protocol order.
        self.engine.step(np.array([active_flags], dtype=bool), in_leak=in_leak)
        ejected_now = self._sync_ledgers(epoch)
        if ejected_now:
            self.result.ejections[epoch] = tuple(ejected_now)

        # 5. Compute the active-stake ratio and run justification/finalization.
        # Groups are few, so the weighted sums stay plain Python (cheaper
        # than array reductions on 2-5 entries, and the exact arithmetic of
        # the pre-engine implementation).
        total = sum(ledger.weighted_stake() for ledger in self.ledgers.values())
        active_stake = sum(
            self.ledgers[name].weighted_stake()
            for name, is_active in zip(self._group_names, active_flags)
            if is_active and not self.ledgers[name].ejected
        )
        ratio = active_stake / total if total > 0 else 0.0
        justified, finalized_now = self._finality.observe(epoch, ratio)
        self.result.threshold_epoch = self._finality.threshold_epoch
        self.result.finalization_epoch = self._finality.finalization_epoch

        byz_stake = sum(
            ledger.weighted_stake()
            for ledger in self.ledgers.values()
            if ledger.spec.byzantine
        )
        record = EpochRecord(
            epoch=epoch,
            active_ratio=ratio,
            byzantine_proportion=byz_stake / total if total > 0 else 0.0,
            in_leak=in_leak,
            justified=justified,
            finalized=finalized_now,
            group_stakes={
                name: ledger.effective_stake for name, ledger in self.ledgers.items()
            },
            ejected_groups=tuple(ejected_now),
        )
        self.result.records.append(record)
        return record

    def run(self, max_epochs: int, stop_on_finalization: bool = False) -> BranchResult:
        """Run the branch for up to ``max_epochs`` epochs."""
        for epoch in range(max_epochs):
            self.step(epoch)
            if stop_on_finalization and self._finality.finalized:
                break
        return self.result


@dataclass
class LeakSimulation:
    """A multi-branch leak simulation (one branch per partition)."""

    branch_specs: Dict[str, Sequence[GroupSpec]]
    config: SpecConfig = field(default_factory=SpecConfig.mainnet)
    leak_from_epoch: int = 0
    backend: Union[str, StakeBackend] = "auto"

    def run(self, max_epochs: int, stop_on_all_finalized: bool = True) -> LeakResult:
        """Simulate every branch for up to ``max_epochs`` epochs."""
        simulations = {
            name: BranchSimulation(
                name=name,
                groups=specs,
                config=self.config,
                leak_from_epoch=self.leak_from_epoch,
                backend=self.backend,
            )
            for name, specs in self.branch_specs.items()
        }
        for epoch in range(max_epochs):
            for simulation in simulations.values():
                simulation.step(epoch)
            if stop_on_all_finalized and all(
                simulation.result.finalization_epoch is not None
                for simulation in simulations.values()
            ):
                break
        return LeakResult(
            branches={name: sim.result for name, sim in simulations.items()},
            config=self.config,
        )
