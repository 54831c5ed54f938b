"""Pluggable backends for the discrete stake-dynamics epoch update.

This module is the single implementation of the paper's per-epoch stake
forces, operating on flat arrays over an arbitrary population of validators
(or validator groups): Equations 1 and 2 (inactivity scores and penalties)
with the score floor at zero and the 16.75-ETH ejection rule
(:meth:`StakeBackend.epoch_update`), the attestation rewards/penalties of
incentive type ii (:meth:`StakeBackend.attestation_rewards_epoch_update`),
slashing with its ejection ordering
(:meth:`StakeBackend.slashing_epoch_update`) and Casper FFG
justification/finalization over flat checkpoint-vote arrays
(:meth:`StakeBackend.finality_epoch_update`).  Everything that used to
re-implement these rules — the group-ledger leak simulator
(:mod:`repro.leak.dynamics`), the per-validator Monte-Carlo bouncing
simulation (:mod:`repro.analysis.montecarlo`) and the per-node epoch
processing behind :mod:`repro.sim` (:mod:`repro.spec.inactivity`,
:mod:`repro.spec.rewards`, :mod:`repro.spec.slashing`) — delegates here.

There are two backends:

``"numpy"``
    The fast path: vectorized element-wise updates over the whole
    population at once.  Arrays may have any shape (the Monte-Carlo layer
    batches ``(trials, validators)`` matrices through it).

``"python"``
    A pure-Python reference that applies the identical arithmetic one
    element at a time.  Because both backends perform the same IEEE-754
    double operations in the same order per element, their trajectories are
    bit-identical — which the equivalence tests assert, and which makes the
    loop backend a trustworthy semantics oracle for the vectorized one.

The leak flag of the stake-dynamics and reward kernels may be a scalar
bool or a *per-trial* array: a mask of shape ``(trials,)`` (or any prefix
of the state shape) broadcast across the validator axes, so batched
``(trials, validators)`` sweeps can mix in-leak and out-of-leak trials in
one kernel call.  Masked updates are defined element-wise as "the scalar
in-leak update where the mask is set, the scalar no-leak update elsewhere",
so they are bit-identical to running each trial separately.

The epoch update is decomposed into three stages executed in protocol
order (penalties from carried-over scores, score updates from this epoch's
activity, ejections), mirroring Equation 2's ``I(t-1) * s(t-1) / 2**26``
indexing.  Ejected validators are frozen: their stake and score stop
evolving and they can never be re-ejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core is below spec)
    from repro.spec.config import SpecConfig


@dataclass(frozen=True)
class StakeRules:
    """The protocol parameters consumed by the epoch-update kernel."""

    score_bias: float
    score_recovery: float
    score_recovery_no_leak: float
    penalty_quotient: float
    ejection_balance: float

    @classmethod
    def from_config(cls, config: "Optional[SpecConfig]" = None) -> "StakeRules":
        """Extract the kernel parameters from a :class:`SpecConfig`."""
        from repro.spec.config import SpecConfig

        cfg = config or SpecConfig.mainnet()
        return cls(
            score_bias=float(cfg.inactivity_score_bias),
            score_recovery=float(cfg.inactivity_score_recovery),
            score_recovery_no_leak=float(cfg.inactivity_score_recovery_no_leak),
            penalty_quotient=float(cfg.inactivity_penalty_quotient),
            ejection_balance=float(cfg.ejection_balance),
        )


@dataclass(frozen=True)
class RewardRules:
    """Parameters of the attestation reward/penalty kernel (Section 3.3)."""

    base_reward_fraction: float
    attestation_penalty_fraction: float
    max_effective_balance: float

    @classmethod
    def from_config(cls, config: "Optional[SpecConfig]" = None) -> "RewardRules":
        """Extract the kernel parameters from a :class:`SpecConfig`."""
        from repro.spec.config import SpecConfig

        cfg = config or SpecConfig.mainnet()
        return cls(
            base_reward_fraction=float(cfg.base_reward_fraction),
            attestation_penalty_fraction=float(cfg.attestation_penalty_fraction),
            max_effective_balance=float(cfg.max_effective_balance),
        )


@dataclass(frozen=True)
class SlashingRules:
    """Parameters of the slashing kernel (Section 5.2.1)."""

    penalty_fraction: float

    @classmethod
    def from_config(cls, config: "Optional[SpecConfig]" = None) -> "SlashingRules":
        """Extract the kernel parameters from a :class:`SpecConfig`."""
        from repro.spec.config import SpecConfig

        cfg = config or SpecConfig.mainnet()
        return cls(penalty_fraction=float(cfg.min_slashing_penalty_fraction))


@dataclass(frozen=True)
class FinalityRules:
    """Parameters of the FFG justification/finalization kernel (Section 3.2)."""

    supermajority_fraction: float

    @classmethod
    def from_config(cls, config: "Optional[SpecConfig]" = None) -> "FinalityRules":
        """Extract the kernel parameters from a :class:`SpecConfig`."""
        from repro.spec.config import SpecConfig

        cfg = config or SpecConfig.mainnet()
        return cls(supermajority_fraction=float(cfg.supermajority_fraction))


@dataclass
class EpochOutcome:
    """Result of one fused epoch update."""

    stakes: np.ndarray
    scores: np.ndarray
    ejected: np.ndarray
    #: Mask of validators ejected by *this* update.
    newly_ejected: np.ndarray
    #: Total stake burned by inactivity penalties this epoch.
    total_penalty: float


@dataclass
class RewardOutcome:
    """Result of one epoch of attestation reward/penalty processing."""

    stakes: np.ndarray
    #: Mask of validators credited a non-zero reward this epoch.
    rewarded: np.ndarray
    #: Mask of validators charged a non-zero attestation penalty this epoch.
    penalized: np.ndarray
    total_rewards: float
    total_penalties: float


@dataclass
class SlashingEpochOutcome:
    """Result of one epoch of slashing processing."""

    stakes: np.ndarray
    #: Slashed flags after the update.
    slashed: np.ndarray
    #: Mask of validators slashed by *this* update.
    newly_slashed: np.ndarray
    #: Total stake burned by slashing penalties this epoch.
    total_penalty: float


@dataclass(frozen=True)
class FinalityEvent:
    """One justification recorded by the finality kernel, in event order.

    ``finalizes_source`` is set when the justification also finalized its
    source (consecutive-epochs rule); roots are the caller's interned ids.
    """

    target_epoch: int
    target_root: int
    source_epoch: int
    source_root: int
    finalizes_source: bool


@dataclass
class FinalityUpdate:
    """Result of one epoch of FFG justification/finalization processing."""

    #: Justifications in the order the decision loop recorded them.
    events: List[FinalityEvent] = field(default_factory=list)
    #: ``(source_epoch, source_root, target_root)`` -> supporting stake of
    #: eligible voters, for every link present in the epoch's votes.
    link_supports: Dict[Tuple[int, int, int], float] = field(default_factory=dict)

    @property
    def justified(self) -> List[Tuple[int, int]]:
        """Newly justified ``(epoch, root_id)`` checkpoints, in order."""
        return [(event.target_epoch, event.target_root) for event in self.events]

    @property
    def finalized(self) -> List[Tuple[int, int]]:
        """Newly finalized ``(epoch, root_id)`` checkpoints, in order."""
        return [
            (event.source_epoch, event.source_root)
            for event in self.events
            if event.finalizes_source
        ]


#: The leak flag accepted by the kernels: a scalar bool or a per-trial mask.
LeakFlag = Union[bool, np.bool_, np.ndarray, Sequence[bool]]


def leak_mask(in_leak: LeakFlag, shape: Tuple[int, ...]) -> Optional[np.ndarray]:
    """Normalise a kernel leak flag against a state shape.

    Returns ``None`` for scalar flags (the fast path: the caller keeps its
    scalar branch).  Array flags must match a leading prefix of ``shape``
    — typically ``(trials,)`` against ``(trials, validators)`` — and are
    broadcast to the full state shape.
    """
    if isinstance(in_leak, (bool, np.bool_)):
        return None
    mask = np.asarray(in_leak, dtype=bool)
    if mask.ndim == 0:
        return None
    if mask.shape != shape[: mask.ndim]:
        raise ValueError(
            f"in_leak mask of shape {mask.shape} must match a leading prefix "
            f"of the state shape {shape}"
        )
    return np.broadcast_to(
        mask.reshape(mask.shape + (1,) * (len(shape) - mask.ndim)), shape
    )


class StakeBackend:
    """Interface of an epoch-update backend.

    Subclasses implement the three stages; :meth:`epoch_update` composes
    them in protocol order and is shared so both backends agree on the
    sequencing by construction.
    """

    name: str = "abstract"
    #: When False, :meth:`apply_penalties` reports a total of 0.0 instead of
    #: summing the burned stake — hot loops that never read the total (the
    #: Monte-Carlo batches) flip this off to skip two reductions per epoch.
    #: The stake/score/ejection trajectories are unaffected.
    track_penalty_totals: bool = True

    def clone(self) -> "StakeBackend":
        """A fresh instance of this backend with the same settings.

        Call sites that flip :attr:`track_penalty_totals` must clone first
        so a caller-supplied shared instance is never mutated.
        """
        other = type(self)()
        other.track_penalty_totals = self.track_penalty_totals
        return other

    # -- stages --------------------------------------------------------
    def apply_penalties(
        self,
        stakes: np.ndarray,
        scores: np.ndarray,
        ejected: np.ndarray,
        rules: StakeRules,
    ) -> Tuple[np.ndarray, float]:
        """Equation 2: charge ``score * stake / quotient`` to live validators.

        Returns the new stakes and the total amount actually burned (the
        penalty is floored so the stake never goes negative).
        """
        raise NotImplementedError

    def update_scores(
        self,
        scores: np.ndarray,
        active: np.ndarray,
        ejected: np.ndarray,
        rules: StakeRules,
        in_leak: bool,
    ) -> np.ndarray:
        """Equation 1: bias up inactive scores, recover active ones (floored).

        Outside a leak every live score additionally recovers by
        ``score_recovery_no_leak``.
        """
        raise NotImplementedError

    def find_ejections(
        self, stakes: np.ndarray, ejected: np.ndarray, rules: StakeRules
    ) -> np.ndarray:
        """Mask of live validators whose stake fell to/below the ejection balance."""
        raise NotImplementedError

    def attestation_rewards_epoch_update(
        self,
        stakes: np.ndarray,
        active: np.ndarray,
        ineligible: np.ndarray,
        rules: RewardRules,
        in_leak: bool,
    ) -> RewardOutcome:
        """One epoch of attestation rewards/penalties (incentive type ii).

        Eligible (not ``ineligible``) validators in ``active`` earn the base
        reward ``stake * base_reward_fraction`` capped at the maximum
        effective balance — except during a leak, when no attester rewards
        are paid.  Eligible validators *not* in ``active`` are charged
        ``stake * attestation_penalty_fraction`` (floored so the stake never
        goes negative), leak or not.  The rewarded/penalized masks record
        only non-zero credits/deductions.  ``in_leak`` may be a per-trial
        mask (see :func:`leak_mask`) gating the reward path per element.
        """
        raise NotImplementedError

    def slashing_epoch_update(
        self,
        stakes: np.ndarray,
        slashable: np.ndarray,
        slashed: np.ndarray,
        ineligible: np.ndarray,
        rules: SlashingRules,
    ) -> SlashingEpochOutcome:
        """One epoch of slashing: charge the penalty and flag the offender.

        A validator in ``slashable`` is slashed only if it is neither
        already ``slashed`` nor ``ineligible`` (already out of the active
        set — an ejected validator cannot be charged after leaving, see the
        ejection ordering in :meth:`epoch_update`).  Newly slashed
        validators lose ``stake * penalty_fraction`` (floored at the stake);
        exit scheduling is the caller's responsibility via the
        ``newly_slashed`` mask.
        """
        raise NotImplementedError

    def ffg_link_supports(
        self,
        vote_validators: np.ndarray,
        vote_source_epochs: np.ndarray,
        vote_source_roots: np.ndarray,
        vote_target_roots: np.ndarray,
        stakes: np.ndarray,
        eligible: np.ndarray,
    ) -> Dict[Tuple[int, int, int], float]:
        """Stake supporting each distinct supermajority link of one epoch.

        The four vote arrays are parallel, one row per voting validator
        (the caller — :class:`repro.core.ffg.FlatVotePool` — guarantees at
        most one row per validator); roots are interned integer ids.  The
        support of a link is the sum of ``stakes`` over its voters that
        are ``eligible`` (active at the processed epoch), accumulated *in
        increasing validator order* — both backends perform that exact
        IEEE-754 summation, so supports are bit-identical to each other
        and to the per-validator dict scan this kernel replaced.  Links
        whose voters are all ineligible are still reported, with support
        0.0.
        """
        raise NotImplementedError

    def finality_epoch_update(
        self,
        vote_validators: np.ndarray,
        vote_source_epochs: np.ndarray,
        vote_source_roots: np.ndarray,
        vote_target_roots: np.ndarray,
        stakes: np.ndarray,
        eligible: np.ndarray,
        rules: FinalityRules,
        epoch: int,
        total_stake: float,
        justified_roots: Mapping[int, int],
        finalized_epoch: int,
        root_rank: "Optional[Sequence[int]]" = None,
    ) -> FinalityUpdate:
        """One epoch of Casper FFG justification/finalization (Section 3.2).

        Link supports come from :meth:`ffg_link_supports` (the per-backend
        stage); the decision cascade below is shared, so both backends
        agree on the sequencing by construction.  Targets are visited in
        checkpoint order (by ``root_rank``; pass ``None`` when ids are
        already rank-ordered), and for each target the justified sources
        — ``justified_roots`` maps epoch to the justified checkpoint's
        root id — are tried in checkpoint order until one link clears the
        strict supermajority of ``total_stake``.  A justification at
        ``source epoch + 1`` whose source lies beyond ``finalized_epoch``
        finalizes that source (two consecutive justified checkpoints).
        Justifications recorded mid-loop are visible to later targets of
        the same call, mirroring the state-mutating loop this replaces.
        """
        supports = self.ffg_link_supports(
            vote_validators,
            vote_source_epochs,
            vote_source_roots,
            vote_target_roots,
            stakes,
            eligible,
        )
        update = FinalityUpdate(link_supports=supports)
        if not supports:
            return update

        if root_rank is None:
            def rank(root_id: int) -> int:
                return root_id
        else:
            def rank(root_id: int) -> int:
                return int(root_rank[root_id])

        justified_map = dict(justified_roots)
        last_finalized = int(finalized_epoch)
        epoch = int(epoch)
        for target_root in sorted({key[2] for key in supports}, key=rank):
            if justified_map.get(epoch) == target_root:
                continue
            sources = sorted(
                {(key[0], key[1]) for key in supports if key[2] == target_root},
                key=lambda source: (source[0], rank(source[1])),
            )
            for source_epoch, source_root in sources:
                if justified_map.get(source_epoch) != source_root:
                    continue
                support = supports[(source_epoch, source_root, target_root)]
                if total_stake <= 0 or not (
                    support / total_stake > rules.supermajority_fraction
                ):
                    continue
                justified_map[epoch] = target_root
                finalizes = (
                    epoch == source_epoch + 1 and source_epoch > last_finalized
                )
                if finalizes:
                    last_finalized = source_epoch
                update.events.append(
                    FinalityEvent(
                        target_epoch=epoch,
                        target_root=target_root,
                        source_epoch=source_epoch,
                        source_root=source_root,
                        finalizes_source=finalizes,
                    )
                )
                break
        return update

    # -- fused step ----------------------------------------------------
    def epoch_update(
        self,
        stakes: np.ndarray,
        scores: np.ndarray,
        active: np.ndarray,
        ejected: np.ndarray,
        rules: StakeRules,
        in_leak: LeakFlag = True,
    ) -> EpochOutcome:
        """One epoch of stake dynamics in protocol order.

        1. Penalties from the scores/stakes carried into the epoch (only
           during a leak).
        2. Score updates from this epoch's activity.
        3. Ejection of live validators at/below the ejection balance.

        ``in_leak`` may be a per-trial mask (see :func:`leak_mask`): each
        element then follows the in-leak or no-leak scalar update according
        to its trial's flag, bit-identically to stepping the trials one by
        one with scalar flags.
        """
        leak = leak_mask(in_leak, np.shape(stakes))
        if leak is not None:
            return self._epoch_update_masked(
                stakes, scores, active, ejected, rules, leak
            )
        if in_leak:
            stakes, total_penalty = self.apply_penalties(stakes, scores, ejected, rules)
        else:
            stakes, total_penalty = np.array(stakes, dtype=float, copy=True), 0.0
        scores = self.update_scores(scores, active, ejected, rules, in_leak)
        newly_ejected = self.find_ejections(stakes, ejected, rules)
        ejected = np.logical_or(ejected, newly_ejected)
        return EpochOutcome(
            stakes=stakes,
            scores=scores,
            ejected=ejected,
            newly_ejected=newly_ejected,
            total_penalty=total_penalty,
        )

    def _epoch_update_masked(
        self,
        stakes: np.ndarray,
        scores: np.ndarray,
        active: np.ndarray,
        ejected: np.ndarray,
        rules: StakeRules,
        leak: np.ndarray,
    ) -> EpochOutcome:
        """The per-trial-leak composition, shared by every backend.

        Both scalar variants of each leak-dependent stage are evaluated and
        stitched element-wise by the mask, so each element's arithmetic is
        exactly the scalar path its flag selects.
        """
        old_stakes = np.asarray(stakes, dtype=float)
        leaked_stakes, _ = self.apply_penalties(stakes, scores, ejected, rules)
        new_stakes = np.where(leak, leaked_stakes, old_stakes)
        if self.track_penalty_totals:
            total_penalty = float(np.sum(old_stakes) - np.sum(new_stakes))
        else:
            total_penalty = 0.0
        new_scores = np.where(
            leak,
            self.update_scores(scores, active, ejected, rules, True),
            self.update_scores(scores, active, ejected, rules, False),
        )
        newly_ejected = self.find_ejections(new_stakes, ejected, rules)
        ejected = np.logical_or(ejected, newly_ejected)
        return EpochOutcome(
            stakes=new_stakes,
            scores=new_scores,
            ejected=ejected,
            newly_ejected=newly_ejected,
            total_penalty=total_penalty,
        )


class NumpyBackend(StakeBackend):
    """Vectorized epoch updates over the whole population at once."""

    name = "numpy"

    def apply_penalties(self, stakes, scores, ejected, rules):
        stakes = np.asarray(stakes, dtype=float)
        ejected = np.asarray(ejected, dtype=bool)
        # Per element this is exactly max(0.0, stake - score*stake/quotient),
        # with in-place ops to keep large batched updates allocation-light.
        penalised = np.asarray(scores, dtype=float) * stakes
        penalised /= rules.penalty_quotient
        np.subtract(stakes, penalised, out=penalised)
        np.maximum(penalised, 0.0, out=penalised)
        np.copyto(penalised, stakes, where=ejected)
        if not self.track_penalty_totals:
            return penalised, 0.0
        return penalised, float(np.sum(stakes) - np.sum(penalised))

    def update_scores(self, scores, active, ejected, rules, in_leak):
        scores = np.asarray(scores, dtype=float)
        # Build score - recovery (active) / score + bias (inactive) from a
        # 0/1 selector: multiplying the exact scalars by 0.0 or 1.0 and
        # adding keeps every element bit-identical to the loop reference
        # while avoiding np.where's much slower scalar broadcast.  The
        # global floor matches max(0, score - recovery) on the active side
        # and is a no-op on the inactive side because scores are
        # non-negative (Equation 1 floors at zero every epoch).
        selector = np.asarray(active, dtype=float)
        updated = selector * (-rules.score_recovery)
        updated += scores
        np.subtract(1.0, selector, out=selector)
        selector *= rules.score_bias
        updated += selector
        np.maximum(updated, 0.0, out=updated)
        if not in_leak:
            updated -= rules.score_recovery_no_leak
            np.maximum(updated, 0.0, out=updated)
        np.copyto(updated, scores, where=np.asarray(ejected, dtype=bool))
        return updated

    def find_ejections(self, stakes, ejected, rules):
        newly = np.asarray(stakes, dtype=float) <= rules.ejection_balance
        newly &= ~np.asarray(ejected, dtype=bool)
        return newly

    def attestation_rewards_epoch_update(self, stakes, active, ineligible, rules, in_leak):
        stakes = np.asarray(stakes, dtype=float)
        active = np.asarray(active, dtype=bool)
        eligible = ~np.asarray(ineligible, dtype=bool)
        leak = leak_mask(in_leak, stakes.shape)
        reward_mask = eligible & active
        if leak is not None:
            reward_mask = reward_mask & ~leak
        penalty_mask = eligible & ~active
        new_stakes = stakes.copy()
        # Per element the reward path is min(stake + stake*fraction, cap);
        # the capped value is written back directly (never stake + credited,
        # which would not round-trip bit-exactly through the subtraction).
        if leak is None and in_leak:
            credited = np.zeros_like(stakes)
        else:
            grown = stakes * rules.base_reward_fraction
            grown += stakes
            np.minimum(grown, rules.max_effective_balance, out=grown)
            np.copyto(new_stakes, grown, where=reward_mask)
            credited = np.where(reward_mask, grown - stakes, 0.0)
        # Penalty path: min(stake, stake*fraction) deducted; masks are
        # disjoint so one fused subtraction (0.0 elsewhere) is exact.
        deducted = stakes * rules.attestation_penalty_fraction
        np.minimum(deducted, stakes, out=deducted)
        deducted = np.where(penalty_mask, deducted, 0.0)
        np.subtract(new_stakes, deducted, out=new_stakes)
        return RewardOutcome(
            stakes=new_stakes,
            rewarded=reward_mask & (credited > 0.0),
            penalized=penalty_mask & (deducted > 0.0),
            total_rewards=float(np.sum(credited)),
            total_penalties=float(np.sum(deducted)),
        )

    def slashing_epoch_update(self, stakes, slashable, slashed, ineligible, rules):
        stakes = np.asarray(stakes, dtype=float)
        slashed = np.asarray(slashed, dtype=bool)
        newly = np.asarray(slashable, dtype=bool) & ~slashed
        newly &= ~np.asarray(ineligible, dtype=bool)
        penalty = stakes * rules.penalty_fraction
        np.minimum(penalty, stakes, out=penalty)
        deducted = np.where(newly, penalty, 0.0)
        return SlashingEpochOutcome(
            stakes=stakes - deducted,
            slashed=slashed | newly,
            newly_slashed=newly,
            total_penalty=float(np.sum(deducted)),
        )

    def ffg_link_supports(
        self,
        vote_validators,
        vote_source_epochs,
        vote_source_roots,
        vote_target_roots,
        stakes,
        eligible,
    ):
        validators = np.asarray(vote_validators, dtype=np.int64)
        if validators.size == 0:
            return {}
        source_epochs = np.asarray(vote_source_epochs, dtype=np.int64)
        source_roots = np.asarray(vote_source_roots, dtype=np.int64)
        target_roots = np.asarray(vote_target_roots, dtype=np.int64)
        stakes = np.asarray(stakes, dtype=float)
        eligible = np.asarray(eligible, dtype=bool)
        # Group votes by link with voters ascending within each link;
        # bincount then accumulates each link's stake strictly left to
        # right, i.e. the same sequential sum over sorted voters as the
        # loop reference (np.sum's pairwise blocking would not be
        # bit-identical here).  Ineligible voters contribute exactly
        # +0.0, which never perturbs the non-negative partial sums.
        #
        # Fast path: epochs, interned root ids and validator indices are
        # small dense non-negative ints, so the whole (target, source
        # epoch, source root, validator) sort key packs into one int64 —
        # a single np.sort replaces the 4-key lexsort and its gathers.
        # The validator occupies the low bits, keeping voters ascending
        # within each link.
        spans = []
        packable = True
        for array in (validators, source_roots, source_epochs):
            low, high = int(array.min()), int(array.max())
            packable &= low >= 0
            spans.append(high + 1)
        v_span, sr_span, se_span = spans
        tr_low = int(target_roots.min())
        if packable and tr_low >= 0 and (
            (int(target_roots.max()) + 1) * se_span * sr_span * v_span < 2 ** 62
        ):
            combined = target_roots * se_span + source_epochs
            combined *= sr_span
            combined += source_roots
            combined *= v_span
            combined += validators
            combined = np.sort(combined)
            link_keys = combined // v_span
            voters = combined - link_keys * v_span
            boundary = np.empty(combined.shape[0], dtype=bool)
            boundary[0] = True
            np.not_equal(link_keys[1:], link_keys[:-1], out=boundary[1:])
            firsts = np.flatnonzero(boundary)
            link_ids = np.cumsum(boundary) - 1
            weights = np.where(eligible[voters], stakes[voters], 0.0)
            totals = np.bincount(link_ids, weights=weights)
            first_keys = link_keys[firsts]
            first_sources = first_keys // sr_span
            return {
                (
                    int(first_sources[link]) % se_span,
                    int(first_keys[link]) % sr_span,
                    int(first_sources[link]) // se_span,
                ): float(totals[link])
                for link in range(firsts.shape[0])
            }
        # General path: unbounded or negative ids, 4-key lexsort.
        order = np.lexsort((validators, source_roots, source_epochs, target_roots))
        validators = validators[order]
        source_epochs = source_epochs[order]
        source_roots = source_roots[order]
        target_roots = target_roots[order]
        boundary = np.empty(validators.shape[0], dtype=bool)
        boundary[0] = True
        np.not_equal(target_roots[1:], target_roots[:-1], out=boundary[1:])
        boundary[1:] |= source_epochs[1:] != source_epochs[:-1]
        boundary[1:] |= source_roots[1:] != source_roots[:-1]
        link_ids = np.cumsum(boundary) - 1
        weights = np.where(eligible[validators], stakes[validators], 0.0)
        totals = np.bincount(link_ids, weights=weights)
        firsts = np.flatnonzero(boundary)
        return {
            (
                int(source_epochs[first]),
                int(source_roots[first]),
                int(target_roots[first]),
            ): float(totals[link])
            for link, first in enumerate(firsts)
        }


class PythonBackend(StakeBackend):
    """Pure-Python loop reference, kept for exact-semantics validation."""

    name = "python"

    def apply_penalties(self, stakes, scores, ejected, rules):
        stakes = np.asarray(stakes, dtype=float)
        scores = np.asarray(scores, dtype=float)
        ejected = np.asarray(ejected, dtype=bool)
        shape = stakes.shape
        flat_stakes = stakes.ravel().tolist()
        flat_scores = scores.ravel().tolist()
        flat_ejected = ejected.ravel().tolist()
        total = 0.0
        out = []
        for stake, score, gone in zip(flat_stakes, flat_scores, flat_ejected):
            if gone:
                out.append(stake)
                continue
            new_stake = max(0.0, stake - score * stake / rules.penalty_quotient)
            total += stake - new_stake
            out.append(new_stake)
        if not self.track_penalty_totals:
            total = 0.0
        return np.array(out, dtype=float).reshape(shape), total

    def update_scores(self, scores, active, ejected, rules, in_leak):
        scores = np.asarray(scores, dtype=float)
        active = np.asarray(active, dtype=bool)
        ejected = np.asarray(ejected, dtype=bool)
        shape = scores.shape
        out = []
        for score, is_active, gone in zip(
            scores.ravel().tolist(), active.ravel().tolist(), ejected.ravel().tolist()
        ):
            if gone:
                out.append(score)
                continue
            if is_active:
                score = max(0.0, score - rules.score_recovery)
            else:
                score = score + rules.score_bias
            if not in_leak:
                score = max(0.0, score - rules.score_recovery_no_leak)
            out.append(score)
        return np.array(out, dtype=float).reshape(shape)

    def find_ejections(self, stakes, ejected, rules):
        stakes = np.asarray(stakes, dtype=float)
        ejected = np.asarray(ejected, dtype=bool)
        shape = stakes.shape
        out = [
            (not gone) and stake <= rules.ejection_balance
            for stake, gone in zip(stakes.ravel().tolist(), ejected.ravel().tolist())
        ]
        return np.array(out, dtype=bool).reshape(shape)

    def attestation_rewards_epoch_update(self, stakes, active, ineligible, rules, in_leak):
        stakes = np.asarray(stakes, dtype=float)
        shape = stakes.shape
        leak = leak_mask(in_leak, shape)
        flat_stakes = stakes.ravel().tolist()
        flat_active = np.asarray(active, dtype=bool).ravel().tolist()
        flat_ineligible = np.asarray(ineligible, dtype=bool).ravel().tolist()
        flat_leak = (
            [bool(in_leak)] * len(flat_stakes)
            if leak is None
            else leak.ravel().tolist()
        )
        out_stakes = []
        credited = []
        deducted = []
        for stake, is_active, out, leaked in zip(
            flat_stakes, flat_active, flat_ineligible, flat_leak
        ):
            credit = 0.0
            deduct = 0.0
            if not out:
                if is_active:
                    if not leaked:
                        grown = min(
                            stake + stake * rules.base_reward_fraction,
                            rules.max_effective_balance,
                        )
                        credit = grown - stake
                        stake = grown
                else:
                    deduct = min(stake, stake * rules.attestation_penalty_fraction)
                    stake = stake - deduct
            out_stakes.append(stake)
            credited.append(credit)
            deducted.append(deduct)
        # Totals go through the same np.sum reduction as the vectorized
        # backend (pairwise summation) so they too are bit-identical.
        credited_array = np.array(credited, dtype=float).reshape(shape)
        deducted_array = np.array(deducted, dtype=float).reshape(shape)
        return RewardOutcome(
            stakes=np.array(out_stakes, dtype=float).reshape(shape),
            rewarded=credited_array > 0.0,
            penalized=deducted_array > 0.0,
            total_rewards=float(np.sum(credited_array)),
            total_penalties=float(np.sum(deducted_array)),
        )

    def slashing_epoch_update(self, stakes, slashable, slashed, ineligible, rules):
        stakes = np.asarray(stakes, dtype=float)
        shape = stakes.shape
        flat_stakes = stakes.ravel().tolist()
        flat_slashable = np.asarray(slashable, dtype=bool).ravel().tolist()
        flat_slashed = np.asarray(slashed, dtype=bool).ravel().tolist()
        flat_ineligible = np.asarray(ineligible, dtype=bool).ravel().tolist()
        out_stakes = []
        out_slashed = []
        out_newly = []
        deducted = []
        for stake, target, done, out in zip(
            flat_stakes, flat_slashable, flat_slashed, flat_ineligible
        ):
            newly = target and not done and not out
            deduct = min(stake, stake * rules.penalty_fraction) if newly else 0.0
            out_stakes.append(stake - deduct)
            out_slashed.append(done or newly)
            out_newly.append(newly)
            deducted.append(deduct)
        return SlashingEpochOutcome(
            stakes=np.array(out_stakes, dtype=float).reshape(shape),
            slashed=np.array(out_slashed, dtype=bool).reshape(shape),
            newly_slashed=np.array(out_newly, dtype=bool).reshape(shape),
            total_penalty=float(np.sum(np.array(deducted, dtype=float))),
        )

    def ffg_link_supports(
        self,
        vote_validators,
        vote_source_epochs,
        vote_source_roots,
        vote_target_roots,
        stakes,
        eligible,
    ):
        validators = np.asarray(vote_validators, dtype=np.int64).tolist()
        source_epochs = np.asarray(vote_source_epochs, dtype=np.int64).tolist()
        source_roots = np.asarray(vote_source_roots, dtype=np.int64).tolist()
        target_roots = np.asarray(vote_target_roots, dtype=np.int64).tolist()
        stakes = np.asarray(stakes, dtype=float).tolist()
        eligible = np.asarray(eligible, dtype=bool).tolist()
        # The faithful port of the dict-based implementation this kernel
        # replaced: enumerate the distinct links, then re-scan the whole
        # vote set once per link (``voters_for_link``) and sum the stakes
        # of its eligible voters in ascending validator order
        # (``stake_of``) — the exact sequential IEEE-754 additions the
        # vectorized backend reproduces per link via ``np.bincount``.
        keys = list(zip(source_epochs, source_roots, target_roots))
        links: List[Tuple[int, int, int]] = []
        seen = set()
        for key in keys:
            if key not in seen:
                seen.add(key)
                links.append(key)
        supports = {}
        for link in links:
            voters = [
                voter for voter, key in zip(validators, keys) if key == link
            ]
            support = 0.0
            for voter in sorted(voters):
                if eligible[voter]:
                    support += stakes[voter]
            supports[link] = support
        return supports

    def epoch_update(self, stakes, scores, active, ejected, rules, in_leak=True):
        # One fused pass per element, applying the identical arithmetic in
        # the identical order as the composed stages.  For the small
        # populations this backend targets (a handful of group ledgers) the
        # single conversion round-trip beats a dozen tiny array ops.
        stakes = np.asarray(stakes, dtype=float)
        shape = stakes.shape
        leak = leak_mask(in_leak, shape)
        flat_stakes = stakes.ravel().tolist()
        flat_scores = np.asarray(scores, dtype=float).ravel().tolist()
        flat_active = np.asarray(active, dtype=bool).ravel().tolist()
        flat_ejected = np.asarray(ejected, dtype=bool).ravel().tolist()
        flat_leak = (
            [bool(in_leak)] * len(flat_stakes)
            if leak is None
            else leak.ravel().tolist()
        )
        out_newly = [False] * len(flat_stakes)
        total_penalty = 0.0
        for i, (stake, score, is_active, gone, leaked) in enumerate(
            zip(flat_stakes, flat_scores, flat_active, flat_ejected, flat_leak)
        ):
            if gone:
                continue
            if leaked:
                new_stake = max(0.0, stake - score * stake / rules.penalty_quotient)
                total_penalty += stake - new_stake
                stake = new_stake
            if is_active:
                score = max(0.0, score - rules.score_recovery)
            else:
                score = score + rules.score_bias
            if not leaked:
                score = max(0.0, score - rules.score_recovery_no_leak)
            if stake <= rules.ejection_balance:
                out_newly[i] = True
                flat_ejected[i] = True
            flat_stakes[i] = stake
            flat_scores[i] = score
        if not self.track_penalty_totals:
            total_penalty = 0.0
        return EpochOutcome(
            stakes=np.array(flat_stakes, dtype=float).reshape(shape),
            scores=np.array(flat_scores, dtype=float).reshape(shape),
            ejected=np.array(flat_ejected, dtype=bool).reshape(shape),
            newly_ejected=np.array(out_newly, dtype=bool).reshape(shape),
            total_penalty=total_penalty,
        )


_BACKENDS: Dict[str, Type[StakeBackend]] = {
    NumpyBackend.name: NumpyBackend,
    PythonBackend.name: PythonBackend,
}


def available_backends() -> Tuple[str, ...]:
    """Names of the registered backends."""
    return tuple(sorted(_BACKENDS))


#: Population size below which the loop backend beats the vectorized one
#: (NumPy dispatch overhead dominates tiny arrays).  Used by ``"auto"``.
AUTO_BACKEND_THRESHOLD = 32


def get_backend(
    backend: "str | StakeBackend" = "numpy", population: Optional[int] = None
) -> StakeBackend:
    """Resolve a backend name (or pass an instance through).

    ``"auto"`` picks ``"python"`` for populations smaller than
    ``AUTO_BACKEND_THRESHOLD`` (a handful of group ledgers) and ``"numpy"``
    otherwise; it requires ``population``.
    """
    if isinstance(backend, StakeBackend):
        return backend
    if backend == "auto":
        if population is None:
            raise ValueError('backend "auto" needs the population size')
        backend = "python" if population < AUTO_BACKEND_THRESHOLD else "numpy"
    try:
        return _BACKENDS[backend]()
    except KeyError:
        raise ValueError(
            f"unknown backend {backend!r}; available: {available_backends()}"
        ) from None
