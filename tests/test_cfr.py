"""Vanilla CFR trainer tests.

The trainer enumerates all 24 deals each iteration and updates all three
seats simultaneously, so training is deterministic.  Each sweep gathers
every decision node's reaches from its root path in `game.PATHS`, backs
values up the compiled tree one depth at a time, with one multiply and
one add per depth into a child-pair array, and applies each infoset's six
updates in deal order in one reduction.  The digest test pins its float
results bit for bit; `reference_sweep`, the earlier `np.add.at` sweep,
checks it from drawn states; `layout_faults` checks the depth layout
against the tree of `game`; and an exact `Fraction` backup of
`exact_reference.card_tables` checks the regret it adds.  Convergence
bounds below were frozen from measured runs with margin.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import exact_reference
from kuhn3p import equilibrium as eq
from kuhn3p import game, strategy
from kuhn3p.game import (AGGRESSIVE_CHILD, DECISION_SEAT, DEALS, N_DECISIONS, PASSIVE_CHILD,
                         SEATS)

# The sweep before the child-pair backup, kept as the reference: its
# regret matching, its reach gather and its np.add.at updates.
_N_DEALS = len(DEALS)
_CHANCE_F = 1.0 / _N_DEALS
_DECISIONS = np.arange(N_DECISIONS)
_ACTOR = np.array(DECISION_SEAT) - 1
_CHILD_NODES = np.array([PASSIVE_CHILD, AGGRESSIVE_CHILD])  # (action, decision node)
_ONE_ROW = np.ones((1, _N_DEALS))
_OWN_ACTIONS = np.array([
    [([1 + a * N_DECISIONS + m for m, a in path if DECISION_SEAT[m] == seat] + [0, 0])[:2]
     for seat in SEATS]
    for path in game.PATHS[:N_DECISIONS]])
_NODE_INFOSETS = game.INFOSET_INDEX.T
_TERMINAL_PAYOFFS = game.PAYOFFS[:, N_DECISIONS:].transpose(1, 0, 2).astype(np.float64)
_PASSIVE, _AGGRESSIVE = 0, 1


def reference_sweep(regret, strategy_sums):
    """One vanilla-CFR sweep on the (48, 2) regret and strategy sums, in place."""
    positive = np.maximum(regret, 0.0)
    norms = positive.sum(axis=1, keepdims=True)
    uniform = np.full_like(positive, 0.5)
    with np.errstate(invalid="ignore"):
        matched = positive / norms
    policy = np.where(norms > 0, matched, uniform)
    # probability[action, decision node, deal] under regret matching.
    probability = policy.T[:, _NODE_INFOSETS]
    # reach[decision node, seat - 1, deal]: the product of the seat's
    # own (at most two) action probabilities on the node's root path.
    # 1.0 * p1 * p2 == p1 * p2, so a parents-first walk gives the same.
    slots = np.concatenate((_ONE_ROW, probability.reshape(-1, _N_DEALS)))[_OWN_ACTIONS]
    reach = slots[:, :, 0] * slots[:, :, 1]
    # value[node, deal, seat - 1]: expected chips, children first.
    value = np.empty((len(game.NODES), _N_DEALS, 3))
    value[N_DECISIONS:] = _TERMINAL_PAYOFFS
    for n in reversed(range(N_DECISIONS)):
        value[n] = (probability[_PASSIVE, n, :, None] * value[PASSIVE_CHILD[n]]
                    + probability[_AGGRESSIVE, n, :, None] * value[AGGRESSIVE_CHILD[n]])

    # Every infoset belongs to one decision node, so each one takes its
    # six updates in deal order, whatever the order of the nodes.
    # _ACTOR - 1 and _ACTOR - 2 are the other two seats (indices wrap).
    actor_value = value[_DECISIONS, :, _ACTOR]
    counterfactual = (_CHANCE_F * reach[_DECISIONS, _ACTOR - 1]
                      * reach[_DECISIONS, _ACTOR - 2])
    own = _CHANCE_F * reach[_DECISIONS, _ACTOR]
    for action, child in enumerate(_CHILD_NODES):
        np.add.at(regret[:, action], _NODE_INFOSETS,
                  counterfactual * (value[child, :, _ACTOR] - actor_value))
        np.add.at(strategy_sums[:, action], _NODE_INFOSETS,
                  own * probability[action])


def layout_faults(order, slot, levels, passive, aggressive):
    """The faults, each naming its level, of the sweep's layout (`order`:
    position -> decision node; `slot`: node -> slot; `levels`: runs of
    positions) for the tree with these child tables, decision nodes first."""
    n_decisions = len(passive)
    faults = []
    if sorted(slot) != list(range(2 * n_decisions + 1)) or slot[0] != 2 * n_decisions:
        faults.append("the slots are not a permutation of the nodes with the root's last")
    if sorted(order[j] for level in levels for j in level) != list(range(n_decisions)):
        faults.append("the levels do not hold every decision node exactly once")
    written = {slot[t] for t in range(n_decisions, 2 * n_decisions + 1)}
    for d, level in reversed(list(enumerate(levels))):
        nodes = [order[j] for j in level]
        reads = [slot[c] for n in nodes for c in (passive[n], aggressive[n])]
        if reads != list(range(2 * level.start, 2 * level.stop)):
            faults.append(f"level {d}: its nodes' child pairs are not its block of slots")
        if not written.issuperset(reads):
            faults.append(f"level {d}: it reads a slot that no deeper level or terminal wrote")
        writes = [slot[n] for n in nodes]
        if writes != list(range(writes[0], writes[0] + len(writes))):
            faults.append(f"level {d}: its nodes do not fill contiguous slots")
        written.update(writes)
    return faults


def exact_instant_regret(policy):
    """{infoset index: [passive, aggressive]} exact instantaneous regrets of
    `policy`, a (48, 2) float array: per seat and card, the seat's
    `exact_reference.card_tables` row backed up by mixing at its own nodes
    by the policy, and at an own node n, mixed[child] - mixed[n] for each
    child."""
    probabilities = [(F(p), F(q)) for p, q in policy.tolist()]
    regret = {}
    for seat in SEATS:
        for card, mixed in zip(game.CARDS, exact_reference.card_tables(probabilities, seat)):
            for n in reversed(range(N_DECISIONS)):
                children = PASSIVE_CHILD[n], AGGRESSIVE_CHILD[n]
                if DECISION_SEAT[n] != seat:
                    mixed[n] = mixed[children[0]] + mixed[children[1]]
                    continue
                i = game.KEY_INDEX[game.InfoSetKey(seat, card, game.DECISION_SITUATION[n])]
                mixed[n] = sum(p * mixed[c] for p, c in zip(probabilities[i], children))
                regret[i] = [mixed[c] - mixed[n] for c in children]
    return regret


def test_zero_iterations_gives_uniform_average():
    trainer = eq.CfrTrainer()
    profile = trainer.average_profile()
    assert all(p == 0.5 for p in profile.aggressive.values())
    assert eq.CfrTrainer().run(0).average_profile().aggressive == profile.aggressive


def test_current_policy_starts_uniform():
    # No positive regret anywhere: regret matching falls back to uniform.
    trainer = eq.CfrTrainer()
    policy = trainer.current_policy()
    assert policy.shape == (48, 2)
    assert (policy == 0.5).all()


def test_training_is_deterministic():
    a = eq.CfrTrainer().run(500).average_profile()
    b = eq.CfrTrainer().run(500).average_profile()
    assert a.aggressive == b.aggressive


def test_sweep_is_bit_identical_to_pinned_digest():
    # sha256 of both arrays after 1000 iterations, recorded from the earlier
    # recursive sweep: any change in the order of float operations shows.
    trainer = eq.CfrTrainer().run(1000)
    data = trainer.cumulative_regret.tobytes() + trainer.cumulative_strategy.tobytes()
    assert hashlib.sha256(data).hexdigest() == \
        "e5d6e3b957e767348f79f9fd3480deb9b5b0071c9eda11cd9fd522f368b243b2"


def test_level_layout_fits_the_tree():
    assert layout_faults(eq._ORDER, eq._SLOT, eq._LEVELS, PASSIVE_CHILD, AGGRESSIVE_CHILD) == []
    # Exchange the children of KK: the layout no longer fits the tree, and
    # the fault names the level that holds KK.
    kk = game.NODE_ID["KK"]
    passive, aggressive = list(PASSIVE_CHILD), list(AGGRESSIVE_CHILD)
    passive[kk], aggressive[kk] = aggressive[kk], passive[kk]
    assert layout_faults(eq._ORDER, eq._SLOT, eq._LEVELS, passive, aggressive) == [
        "level 2: its nodes' child pairs are not its block of slots"]


def test_run_is_incremental():
    one = eq.CfrTrainer()
    one.run(300)
    two = eq.CfrTrainer()
    two.run(100)
    two.run(200)
    assert one.iteration_count == two.iteration_count == 300
    assert one.average_profile().aggressive == two.average_profile().aggressive


def test_run_rejects_negative_iterations():
    trainer = eq.CfrTrainer()
    with pytest.raises(ValueError, match="^iterations must be nonnegative$"):
        trainer.run(-1)
    assert trainer.iteration_count == 0


def test_average_profile_is_valid():
    profile = eq.CfrTrainer().run(200).average_profile()
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
    trained = eq.CfrTrainer().run(2000).average_profile()
    assert eq.epsilon(trained) < eq.epsilon(strategy.constant_profile(F(1, 2)))


# Mixed signs, zeros (signed too) and magnitudes up to 1e6; a row with no
# positive regret falls back to uniform.
_SUMS = arrays(np.float64, (48, 2), elements=st.one_of(
    st.sampled_from([0.0, -0.0, 1e6, -1e6]), st.floats(-1e6, 1e6)))
_EDGES = np.resize([[0.0, 0.0], [-1e6, -2.5], [1e6, -0.0], [0.25, 3.0], [-0.0, 7e-9]], (48, 2))
# Near 2**50 a sum rounds each small update away, though not always their
# total: only adding them one by one, in deal order, passes.
_LARGE = np.full((48, 2), 2.0 ** 50)
# Seat 1 always folds at KKB (situation 2), so KKBC's updates are signed
# zeros, and a -0.0 sum must stay -0.0.
_FOLDS_AT_KKB = np.full((48, 2), -0.0)
_FOLDS_AT_KKB[1:16:4] = [1.0, -0.0]


@given(_SUMS, _SUMS)
@example(_EDGES, np.abs(_EDGES))
@example(_LARGE, _LARGE / 2)
@example(_FOLDS_AT_KKB, -np.zeros((48, 2)))
def test_sweep_matches_reference_sweep(regret, strategy_sums):
    trainer = eq.CfrTrainer()
    trainer.cumulative_regret[...] = regret  # through the (48, 2) views
    trainer.cumulative_strategy[...] = strategy_sums
    trainer._sweep()
    reference_regret, reference_strategy = regret.copy(), strategy_sums.copy()
    reference_sweep(reference_regret, reference_strategy)
    assert (trainer.cumulative_regret.tobytes() + trainer.cumulative_strategy.tobytes()
            == reference_regret.tobytes() + reference_strategy.tobytes())


def test_sweep_adds_the_exact_instantaneous_regret():
    # Regrets of order one keep the float difference after - before within
    # rounding of the increment itself.
    rel_tol = 1e-9
    for seed in range(3):
        trainer = eq.CfrTrainer()
        trainer.cumulative_regret[...] = np.random.default_rng(seed).uniform(-1, 1, (48, 2))
        trainer.cumulative_regret[seed::7] = -0.5  # no positive regret: uniform
        before = trainer.cumulative_regret.copy()
        exact = exact_instant_regret(trainer.current_policy())
        trainer._sweep()
        delta = trainer.cumulative_regret - before
        assert sorted(exact) == list(range(48))
        for i, increments in exact.items():
            for a, increment in enumerate(increments):
                assert math.isclose(delta[i, a], increment, rel_tol=rel_tol), (seed, i, a)
