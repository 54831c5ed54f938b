"""Tests for the balancing-attack role-feasibility experiment.

The rows are pinned to a digest taken before the experiment's trials
moved onto :func:`repro.core.trials.parallel_map`: trial ``i`` of grid
point ``k`` still draws from ``SeedSequence(seed + k, spawn_key=(i,))``,
so the probabilities are unchanged, byte for byte, at any ``jobs``.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.experiments import balancing_feasibility

GRID = [(4, 32, 10), (4, 64, 20), (8, 64, 24)]

#: sha256 of ``json.dumps(rows, sort_keys=True)`` for ``GRID``,
#: ``n_trials=64``, ``seed=5``, captured from the earlier per-trial executor.
PINNED_DIGEST = "e3fe75c5aa67c12a13bbd56ece3fd2fd64c980b16541c5234552320d674839bc"


def rows_digest(result) -> str:
    return hashlib.sha256(
        json.dumps(result.rows(), sort_keys=True).encode()
    ).hexdigest()


@pytest.mark.parametrize("jobs", [1, 2])
def test_rows_match_the_pinned_digest_at_any_jobs(jobs):
    result = balancing_feasibility.run(grid=GRID, n_trials=64, seed=5, jobs=jobs)
    probabilities = [row["feasible_probability"] for row in result.rows()]
    assert all(0.0 < p < 1.0 for p in probabilities)
    assert rows_digest(result) == PINNED_DIGEST


def test_roles_feasible_needs_proposer_and_swayers():
    # 8 validators in 2 committees of 4; validators 0-2 are adversarial.
    assignment = np.array([0, 4, 5, 6, 1, 2, 7, 3])
    assert balancing_feasibility.roles_feasible(assignment, 4, 3, swayers_per_slot=2)
    assert not balancing_feasibility.roles_feasible(assignment, 4, 3, swayers_per_slot=3)
    # An honest split-slot proposer makes the attack infeasible.
    assert not balancing_feasibility.roles_feasible(assignment[::-1], 4, 3, 1)


def test_invalid_grid_rejected():
    with pytest.raises(ValueError):
        balancing_feasibility.run(grid=[(3, 32, 4)])
    with pytest.raises(ValueError):
        balancing_feasibility.run(grid=[(4, 32, 40)])
