"""Vanilla CFR trainer tests.

The trainer enumerates all 24 deals each iteration and updates all three
seats simultaneously, so training is deterministic.  Each sweep gathers
every decision node's reaches from its root path in `game.PATHS` and
backs values up the compiled tree in one bottom-up pass; the digest test
pins its float results bit for bit.  Convergence bounds below were frozen
from measured runs with margin.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction as F

from kuhn3p import equilibrium as eq
from kuhn3p import strategy


def test_zero_iterations_gives_uniform_average():
    trainer = eq.CfrTrainer()
    profile = trainer.average_profile()
    assert all(p == 0.5 for p in profile.aggressive.values())
    assert eq.cfr_train(0).aggressive == profile.aggressive


def test_current_policy_starts_uniform():
    # No positive regret anywhere: regret matching falls back to uniform.
    trainer = eq.CfrTrainer()
    policy = trainer.current_policy()
    assert policy.shape == (48, 2)
    assert (policy == 0.5).all()


def test_training_is_deterministic():
    a = eq.cfr_train(500)
    b = eq.cfr_train(500)
    assert a.aggressive == b.aggressive


def test_sweep_is_bit_identical_to_pinned_digest():
    # sha256 of both arrays after 1000 iterations, recorded from the earlier
    # recursive sweep: any change in the order of float operations shows.
    trainer = eq.CfrTrainer().run(1000)
    data = trainer.cumulative_regret.tobytes() + trainer.cumulative_strategy.tobytes()
    assert hashlib.sha256(data).hexdigest() == \
        "e5d6e3b957e767348f79f9fd3480deb9b5b0071c9eda11cd9fd522f368b243b2"


def test_run_is_incremental():
    one = eq.CfrTrainer()
    one.run(300)
    two = eq.CfrTrainer()
    two.run(100)
    two.run(200)
    assert one.iteration_count == two.iteration_count == 300
    assert one.average_profile().aggressive == two.average_profile().aggressive


def test_average_profile_is_valid():
    profile = eq.cfr_train(200)
    assert len(profile.aggressive) == 48
    assert all(0.0 <= p <= 1.0 for p in profile.aggressive.values())


def test_epsilon_shrinks_with_training():
    checkpoints = [100, 1000, 10000]
    trainer = eq.CfrTrainer()
    done = 0
    eps = []
    for cp in checkpoints:
        trainer.run(cp - done)
        done = cp
        eps.append(eq.epsilon(trainer.average_profile()))
    assert eps[0] > eps[1] > eps[2]
    # Frozen bounds with margin: measured 0.0372 / 0.0061 / 0.0013.
    assert eps[0] < F(1, 10)
    assert eps[1] < F(1, 100)
    assert eps[2] < F(1, 300)


def test_trained_profile_beats_uniform_start():
    assert eq.epsilon(eq.cfr_train(2000)) < eq.epsilon(strategy.constant_profile(F(1, 2)))
