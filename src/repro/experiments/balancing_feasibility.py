"""Feasibility of the Gasper balancing attack's role assignment.

The balancing attack (see :class:`repro.agents.byzantine.SwayerByzantine`)
needs the adversary to fill specific *roles* from the epoch's random duty
assignment: the proposer of the split slot must be adversarial, and every
later slot's committee needs enough adversarial members to act as swayers.
Whether a random committee shuffle admits such an assignment is exactly
the rejection-sampling question the scenario builder answers for one seed;
this experiment sweeps it as a probability over (committees per epoch C,
validators N, adversarial count F).

Each trial draws one uniformly random committee assignment (a seeded
shuffle split into C equal committees, the slot-k proposer being the first
member of committee k) and checks the roles; the feasibility probability
is the fraction of feasible trials.  Trial ``i`` of grid point ``k``
draws from ``SeedSequence(seed + k, spawn_key=(i,))`` and trials are
mapped through the shared dispatcher (:func:`repro.core.trials.parallel_map`),
so results are identical at any ``--jobs`` level and reproducible from
``--seed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.trials import parallel_map


def roles_feasible(
    assignment: np.ndarray, committee_size: int, n_adversarial: int, swayers_per_slot: int
) -> bool:
    """Can the adversary staff the balancing attack from this assignment?

    ``assignment`` is a permutation of ``range(N)``; committee ``k`` is the
    ``k``-th block of ``committee_size`` entries and its first entry
    proposes slot ``k``.  Validators with index ``< n_adversarial`` are
    adversarial (any fixed set works, by symmetry of the shuffle).  The
    attack needs an adversarial split-slot (slot-0) proposer plus at least
    ``swayers_per_slot`` adversarial members in every later committee.
    """
    if assignment[0] >= n_adversarial:
        return False
    n_slots = assignment.shape[0] // committee_size
    adversarial = assignment < n_adversarial
    for slot in range(1, n_slots):
        committee = adversarial[slot * committee_size : (slot + 1) * committee_size]
        if int(committee.sum()) < swayers_per_slot:
            return False
    return True


def _feasibility_trial(
    index: int,
    *,
    seed: int,
    n_validators: int,
    n_committees: int,
    n_adversarial: int,
    swayers_per_slot: int,
) -> bool:
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
    committee_size = n_validators // n_committees
    assignment = rng.permutation(n_validators)
    return roles_feasible(assignment, committee_size, n_adversarial, swayers_per_slot)


@dataclass
class BalancingFeasibilityResult:
    """Attack-role feasibility probability per (C, N, F) grid point."""

    n_trials: int
    swayers_per_slot: int
    grid: List[Tuple[int, int, int]]
    #: (C, N, F) -> empirical P[roles feasible].
    probabilities: Dict[Tuple[int, int, int], float]

    def rows(self) -> List[Dict[str, float]]:
        return [
            {
                "committees": c,
                "n_validators": n,
                "n_adversarial": f,
                "committee_size": n // c,
                "adversarial_fraction": f / n,
                "feasible_probability": self.probabilities[(c, n, f)],
                "n_trials": self.n_trials,
            }
            for c, n, f in self.grid
        ]

    def format_text(self) -> str:
        lines = [
            "Balancing-attack role feasibility "
            f"({self.n_trials} trials per point, "
            f"{self.swayers_per_slot} swayers needed per slot)",
            f"  {'C':>4}  {'N':>6}  {'F':>5}  {'F/N':>6}  {'P[feasible]':>12}",
        ]
        for row in self.rows():
            lines.append(
                f"  {row['committees']:>4d}  {row['n_validators']:>6d}  "
                f"{row['n_adversarial']:>5d}  {row['adversarial_fraction']:>6.3f}  "
                f"{row['feasible_probability']:>12.3f}"
            )
        return "\n".join(lines)


def default_grid() -> List[Tuple[int, int, int]]:
    """The default (C, N, F) sweep: two sizes, four adversarial fractions."""
    grid: List[Tuple[int, int, int]] = []
    for n_committees, n_validators in ((8, 128), (8, 256)):
        for fraction in (0.05, 0.1, 0.2, 0.3):
            grid.append((n_committees, n_validators, round(n_validators * fraction)))
    return grid


def run(
    grid: Optional[Sequence[Tuple[int, int, int]]] = None,
    swayers_per_slot: int = 2,
    n_trials: int = 256,
    seed: int = 0,
    jobs: Optional[int] = None,
) -> BalancingFeasibilityResult:
    """Sweep the balancing-attack feasibility probability over ``grid``.

    ``grid`` holds ``(C, N, F)`` points with ``N`` divisible by ``C``.
    ``jobs`` parallelizes the trials (``None``/1 serial, <=0 all
    cores); seeded results are identical at any parallelism level.
    """
    points = [tuple(point) for point in (grid if grid is not None else default_grid())]
    for n_committees, n_validators, n_adversarial in points:
        if n_validators % n_committees:
            raise ValueError(
                f"N={n_validators} is not divisible into C={n_committees} committees"
            )
        if not 0 <= n_adversarial <= n_validators:
            raise ValueError(f"F={n_adversarial} out of range for N={n_validators}")
    probabilities: Dict[Tuple[int, int, int], float] = {}
    for position, (n_committees, n_validators, n_adversarial) in enumerate(points):
        trial = partial(
            _feasibility_trial,
            # Decorrelate grid points while keeping each reproducible.
            seed=seed + position,
            n_validators=n_validators,
            n_committees=n_committees,
            n_adversarial=n_adversarial,
            swayers_per_slot=swayers_per_slot,
        )
        outcomes = parallel_map(trial, range(n_trials), jobs=jobs)
        probabilities[(n_committees, n_validators, n_adversarial)] = float(
            sum(outcomes)
        ) / float(n_trials)
    return BalancingFeasibilityResult(
        n_trials=n_trials,
        swayers_per_slot=swayers_per_slot,
        grid=points,
        probabilities=probabilities,
    )
