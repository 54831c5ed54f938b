"""Backend-equivalence tests for the rewards and slashing kernels.

Like the inactivity kernel, ``attestation_rewards_epoch_update`` and
``slashing_epoch_update`` must be *bit-identical* between the ``"numpy"``
and ``"python"`` backends — the loop backend is the semantics oracle.  The
suite covers the edge cases the spec layer relies on: stake-0 validators
(charged nothing, not recorded as penalized), rewards capped at the
maximum effective balance, the leak boundary (no rewards in leak,
penalties always), and slashing after ejection (skipped).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backend import RewardRules, SlashingRules, get_backend
from repro.core.stake_engine import BatchedStakeEngine
from repro.spec.config import SpecConfig

MAINNET = SpecConfig.mainnet()
MINIMAL = SpecConfig.minimal()
REWARDS = RewardRules.from_config(MINIMAL)
SLASHING = SlashingRules.from_config(MINIMAL)


def run_rewards_both(stakes, active, ineligible, rules, in_leak):
    outcomes = {}
    for name in ("numpy", "python"):
        outcomes[name] = get_backend(name).attestation_rewards_epoch_update(
            np.array(stakes, dtype=float),
            np.array(active, dtype=bool),
            np.array(ineligible, dtype=bool),
            rules,
            in_leak,
        )
    return outcomes["numpy"], outcomes["python"]


def run_slashing_both(stakes, slashable, slashed, ineligible, rules):
    outcomes = {}
    for name in ("numpy", "python"):
        outcomes[name] = get_backend(name).slashing_epoch_update(
            np.array(stakes, dtype=float),
            np.array(slashable, dtype=bool),
            np.array(slashed, dtype=bool),
            np.array(ineligible, dtype=bool),
            rules,
        )
    return outcomes["numpy"], outcomes["python"]


def assert_reward_outcomes_identical(a, b):
    assert np.array_equal(a.stakes, b.stakes)
    assert np.array_equal(a.rewarded, b.rewarded)
    assert np.array_equal(a.penalized, b.penalized)
    assert a.total_rewards == b.total_rewards
    assert a.total_penalties == b.total_penalties


def assert_slashing_outcomes_identical(a, b):
    assert np.array_equal(a.stakes, b.stakes)
    assert np.array_equal(a.slashed, b.slashed)
    assert np.array_equal(a.newly_slashed, b.newly_slashed)
    assert a.total_penalty == b.total_penalty


class TestRewardKernel:
    def test_zero_stake_validator_not_penalized(self):
        numpy_out, python_out = run_rewards_both(
            [0.0, 32.0], [False, False], [False, False], REWARDS, in_leak=False
        )
        assert_reward_outcomes_identical(numpy_out, python_out)
        # The stake-0 validator is charged nothing and not recorded.
        assert numpy_out.penalized.tolist() == [False, True]
        assert float(numpy_out.stakes[0]) == 0.0

    def test_reward_capped_at_max_effective_balance(self):
        cap = REWARDS.max_effective_balance
        numpy_out, python_out = run_rewards_both(
            [cap, cap - 1.0], [True, True], [False, False], REWARDS, in_leak=False
        )
        assert_reward_outcomes_identical(numpy_out, python_out)
        # At the cap nothing is credited (and not recorded as rewarded);
        # below the cap the credit never pushes past it.
        assert numpy_out.rewarded.tolist() == [False, True]
        assert float(numpy_out.stakes[0]) == cap
        assert float(numpy_out.stakes[1]) <= cap
        assert numpy_out.total_rewards > 0.0

    def test_leak_boundary_gates_rewards_not_penalties(self):
        for in_leak in (True, False):
            numpy_out, python_out = run_rewards_both(
                [30.0, 30.0], [True, False], [False, False], REWARDS, in_leak=in_leak
            )
            assert_reward_outcomes_identical(numpy_out, python_out)
            if in_leak:
                assert numpy_out.total_rewards == 0.0
                assert float(numpy_out.stakes[0]) == 30.0
            else:
                assert numpy_out.total_rewards > 0.0
            # Attestation penalties apply leak or not.
            assert numpy_out.total_penalties > 0.0
            assert numpy_out.penalized.tolist() == [False, True]

    def test_ineligible_entries_frozen(self):
        numpy_out, python_out = run_rewards_both(
            [30.0, 30.0], [True, False], [True, True], REWARDS, in_leak=False
        )
        assert_reward_outcomes_identical(numpy_out, python_out)
        assert numpy_out.stakes.tolist() == [30.0, 30.0]
        assert not numpy_out.rewarded.any()
        assert not numpy_out.penalized.any()

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
        n=st.integers(min_value=1, max_value=12),
        in_leak=st.booleans(),
    )
    def test_property_backends_agree(self, seed, n, in_leak):
        rng = np.random.default_rng(seed)
        stakes = rng.uniform(0.0, 33.0, size=n)
        stakes[rng.random(n) < 0.2] = 0.0
        active = rng.random(n) < 0.5
        ineligible = rng.random(n) < 0.2
        numpy_out, python_out = run_rewards_both(
            stakes, active, ineligible, REWARDS, in_leak
        )
        assert_reward_outcomes_identical(numpy_out, python_out)

    def test_batched_update_matches_flat_update(self):
        rng = np.random.default_rng(5)
        kernel = get_backend("numpy")
        stakes = rng.uniform(0.0, 33.0, size=(3, 5))
        active = rng.random((3, 5)) < 0.5
        ineligible = rng.random((3, 5)) < 0.2
        batched = kernel.attestation_rewards_epoch_update(
            stakes, active, ineligible, REWARDS, False
        )
        for row in range(3):
            single = kernel.attestation_rewards_epoch_update(
                stakes[row], active[row], ineligible[row], REWARDS, False
            )
            assert np.array_equal(batched.stakes[row], single.stakes)
            assert np.array_equal(batched.rewarded[row], single.rewarded)
            assert np.array_equal(batched.penalized[row], single.penalized)


class TestSlashingKernel:
    def test_slash_charges_penalty_and_flags(self):
        numpy_out, python_out = run_slashing_both(
            [32.0, 32.0], [True, False], [False, False], [False, False], SLASHING
        )
        assert_slashing_outcomes_identical(numpy_out, python_out)
        assert numpy_out.newly_slashed.tolist() == [True, False]
        assert float(numpy_out.stakes[0]) == pytest.approx(
            32.0 * (1 - SLASHING.penalty_fraction)
        )
        assert float(numpy_out.stakes[1]) == 32.0

    def test_already_slashed_skipped(self):
        numpy_out, python_out = run_slashing_both(
            [31.0], [True], [True], [False], SLASHING
        )
        assert_slashing_outcomes_identical(numpy_out, python_out)
        assert not numpy_out.newly_slashed.any()
        assert float(numpy_out.stakes[0]) == 31.0
        assert numpy_out.total_penalty == 0.0

    def test_slash_after_ejection_skipped(self):
        # A validator that already left the active set (16.75-ETH ejection)
        # cannot be charged a slashing penalty any more.
        numpy_out, python_out = run_slashing_both(
            [16.0, 32.0], [True, True], [False, False], [True, False], SLASHING
        )
        assert_slashing_outcomes_identical(numpy_out, python_out)
        assert numpy_out.newly_slashed.tolist() == [False, True]
        assert float(numpy_out.stakes[0]) == 16.0

    def test_zero_stake_slash_deducts_nothing(self):
        numpy_out, python_out = run_slashing_both(
            [0.0], [True], [False], [False], SLASHING
        )
        assert_slashing_outcomes_identical(numpy_out, python_out)
        assert numpy_out.newly_slashed.tolist() == [True]
        assert numpy_out.total_penalty == 0.0

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
        n=st.integers(min_value=1, max_value=12),
    )
    def test_property_backends_agree(self, seed, n):
        rng = np.random.default_rng(seed)
        stakes = rng.uniform(0.0, 33.0, size=n)
        slashable = rng.random(n) < 0.5
        slashed = rng.random(n) < 0.2
        ineligible = rng.random(n) < 0.2
        numpy_out, python_out = run_slashing_both(
            stakes, slashable, slashed, ineligible, SLASHING
        )
        assert_slashing_outcomes_identical(numpy_out, python_out)


class TestStakeEngineIncentives:
    """Incentive updates on a single population (a ``trials=1`` engine)."""

    def test_apply_attestation_rewards_updates_stakes(self):
        engine = BatchedStakeEngine([[30.0, 30.0]], config=MINIMAL)
        outcome = engine.apply_attestation_rewards([[True, False]], in_leak=False)
        assert float(engine.stakes[0, 0]) > 30.0
        assert float(engine.stakes[0, 1]) < 30.0
        assert outcome.total_rewards > 0.0
        assert outcome.total_penalties > 0.0

    def test_apply_slashings_marks_and_ejects(self):
        engine = BatchedStakeEngine([[32.0, 32.0]], config=MINIMAL)
        outcome = engine.apply_slashings([[True, False]])
        assert engine.slashed.tolist() == [[True, False]]
        assert engine.ejected.tolist() == [[True, False]]
        assert engine.ejection_epoch.tolist() == [[0, -1]]
        assert outcome.total_penalty > 0.0
        # Slashing the same entry again is a no-op.
        again = engine.apply_slashings([[True, False]])
        assert not again.newly_slashed.any()
        assert again.total_penalty == 0.0

    def test_slashed_entries_skip_rewards(self):
        engine = BatchedStakeEngine([[30.0, 30.0]], config=MINIMAL)
        engine.apply_slashings([[True, False]])
        stake_after_slash = float(engine.stakes[0, 0])
        engine.apply_attestation_rewards([[True, True]], in_leak=False)
        assert float(engine.stakes[0, 0]) == stake_after_slash

    def test_engine_backends_agree_on_incentives(self):
        rng = np.random.default_rng(13)
        finals = {}
        for backend in ("numpy", "python"):
            rng = np.random.default_rng(13)
            engine = BatchedStakeEngine(
                rng.uniform(0.0, 32.0, size=(1, 40)), config=MINIMAL, backend=backend
            )
            for round_index in range(20):
                active = rng.random((1, 40)) < 0.5
                engine.apply_attestation_rewards(active, in_leak=round_index % 2 == 0)
                engine.step(active, in_leak=round_index % 2 == 0)
                if round_index == 10:
                    engine.apply_slashings(rng.random((1, 40)) < 0.1)
            finals[backend] = (engine.stakes, engine.scores, engine.ejected, engine.slashed)
        for a, b in zip(finals["numpy"], finals["python"]):
            assert np.array_equal(a, b)
