"""Exact equilibrium-verification tests.

Expected values and epsilons below were frozen from two independent
computations: the expected-value walk and best-response expectimax on one
side, and the 65,536-pure-strategy enumeration oracle on the other.  A
property test holds the tree walks against the oracle and against a plain
enumeration of deals and terminal action strings through the string API of
`game`.  Everything here is exact rational arithmetic.
"""

from __future__ import annotations

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kuhn3p import equilibrium as eq
from kuhn3p import game, harness, strategy
from kuhn3p.agents import AgentSpec, make_agent
from kuhn3p.game import InfoSetKey


def test_expected_values_zero_sum():
    for profile in (strategy.constant_profile(F(1, 2)),
                    strategy.nash_profile("LB"),
                    strategy.nash_profile("UB"),
                    strategy.constant_profile(F(1, 3))):
        assert sum(eq.expected_values(profile)) == 0


def test_all_passive_expected_values():
    # Everyone checks: three-way showdown every hand, symmetric by seat.
    profile = strategy.constant_profile(F(0))
    assert eq.expected_values(profile) == (F(0), F(0), F(0))


def test_lb_profile_is_exact_equilibrium():
    profile = strategy.nash_profile("LB")
    assert eq.expected_values(profile) == (F(-1, 48), F(-1, 48), F(1, 24))
    for seat in (1, 2, 3):
        br = eq.best_response(profile, seat)
        assert br.br_value == eq.expected_values(profile)[seat - 1]
    assert eq.epsilon(profile) == 0


def test_ub_profile_has_seat1_gap():
    # The UB table as published is not an exact equilibrium once completed
    # by dominance: seat 1 profits by betting the ace at the root, because
    # b32 = 1 makes seat 2 call a lone bet with K too often.  The gap is
    # exactly 1/192 and no other infoset is profitable to deviate at.
    profile = strategy.nash_profile("UB")
    assert eq.expected_values(profile) == (F(-1, 32), F(-1, 48), F(5, 96))
    assert eq.best_response(profile, 1).br_value == F(-5, 192)
    assert eq.epsilon(profile) == F(1, 192)
    report = eq.epsilon_report(profile)
    deviations = [(key, gain) for s in report.seats for key, gain in s.deviations]
    assert deviations == [(InfoSetKey(1, "A", 1), F(1, 192))]


def test_ub_table_with_b32_reduced_is_exact():
    # Any b32 in [1/2, 15/16] with the other 26 tabled values intact gives
    # an exact equilibrium, confirming the defect is localized to b32.
    table = strategy.load_table("UB")
    for b32 in (F(1, 2), F(3, 4), F(15, 16)):
        repaired = dict(table)
        repaired[(2, 3, 2)] = b32
        assert eq.epsilon(strategy.complete_profile(repaired)) == 0


def test_uniform_profile_constants():
    profile = strategy.constant_profile(F(1, 2))
    assert eq.expected_values(profile) == (F(15, 64), F(-3, 64), F(-3, 16))
    br_values = tuple(eq.best_response(profile, s).br_value for s in (1, 2, 3))
    assert br_values == (F(25, 32), F(31, 48), F(61, 96))
    assert eq.epsilon(profile) == F(79, 96)


def test_best_response_matches_pure_strategy_oracle():
    # 10 seeded random rational profiles x 3 seats, plus the named ones.
    rng = np.random.default_rng(2026)
    profiles = [strategy.nash_profile("LB"), strategy.nash_profile("UB"),
                strategy.constant_profile(F(1, 2))]
    for _ in range(10):
        values = rng.integers(0, 33, size=48)
        aggressive = {
            key: F(int(v), 32)
            for key, v in zip(game.all_infoset_keys(), values)
        }
        profiles.append(strategy.StrategyProfile(aggressive))
    for profile in profiles:
        for seat in (1, 2, 3):
            br = eq.best_response(profile, seat)
            oracle = eq.pure_strategy_oracle(profile, seat)
            assert br.br_value == oracle.br_value
            assert oracle.evaluations == 2 ** 16


def test_best_response_strategy_is_pure_and_complete():
    profile = strategy.constant_profile(F(1, 2))
    for seat in (1, 2, 3):
        br = eq.best_response(profile, seat)
        assert set(br.br_strategy) == {k for k in game.all_infoset_keys() if k.seat == seat}
        assert all(p in (F(0), F(1)) for p in br.br_strategy.values())
        # Playing the best response must achieve the best-response value.
        deviated = profile
        for key, p in br.br_strategy.items():
            deviated = deviated.replace(key, p)
        assert eq.expected_values(deviated)[seat - 1] == br.br_value


def test_best_response_ties_break_passive():
    # LB leaves seat 1 indifferent at the root with J, Q, and A; the
    # tie-break must pick the passive action.
    profile = strategy.nash_profile("LB")
    found = 0
    for seat in (1, 2, 3):
        br = eq.best_response(profile, seat)
        for key, (v_passive, v_aggressive) in br.infoset_values.items():
            if v_passive == v_aggressive:
                assert br.br_strategy[key] == 0
                found += 1
    assert found >= 3


def test_epsilon_nonnegative_and_zero_only_at_equilibrium():
    assert eq.epsilon(strategy.nash_profile("LB")) == 0
    for profile in (strategy.constant_profile(F(1, 2)),
                    strategy.constant_profile(F(0)),
                    strategy.constant_profile(F(1))):
        assert eq.epsilon(profile) > 0


def test_epsilon_report_render():
    report = eq.epsilon_report(strategy.nash_profile("LB"))
    text = report.render()
    assert "seat 1" in text and "seat 2" in text and "seat 3" in text
    assert "epsilon = 0" in text
    ub_text = eq.epsilon_report(strategy.nash_profile("UB")).render()
    assert "deviate at seat 1 card A situation 1" in ub_text
    assert "1/192" in ub_text


def test_best_response_value_dominates_profile_value():
    for profile in (strategy.constant_profile(F(1, 2)), strategy.nash_profile("UB")):
        evs = eq.expected_values(profile)
        for seat in (1, 2, 3):
            assert eq.best_response(profile, seat).br_value >= evs[seat - 1]


def test_float_profiles_verify_exactly():
    # Floats convert to exact rationals, so float profiles verify too.
    profile = strategy.constant_profile(0.5)
    assert eq.epsilon(profile) == F(79, 96)


probabilities = st.one_of(
    st.sampled_from([F(0), F(1)]),
    st.fractions(min_value=0, max_value=1, max_denominator=12),
    st.floats(min_value=0.0, max_value=1.0),
)
profiles = st.lists(probabilities, min_size=48, max_size=48).map(
    lambda ps: strategy.StrategyProfile(dict(zip(game.all_infoset_keys(), ps))))


def enumerated_values(profile):
    """Expected values summed over the 24 deals x 13 terminal action
    strings, each weighted by the probabilities of its actions."""
    totals = [F(0), F(0), F(0)]
    for deal in game.DEALS:
        for terminal in game.TERMINAL_HISTORIES:
            weight = F(1, 24)
            for j, action in enumerate(terminal):
                seat = game.acting_seat(terminal[:j])
                p = F(profile[game.infoset_key(seat, deal[seat - 1], terminal[:j])])
                weight *= p if action == game.action_pair(terminal[:j])[1] else 1 - p
            for i, chips in enumerate(game.terminal_payoffs(deal, terminal)):
                totals[i] += weight * chips
    return tuple(totals)


# Fewer examples than the suite's default: each one runs three oracles.
@settings(max_examples=30)
@given(profile=profiles)
def test_tree_walks_match_oracle_and_enumeration(profile):
    values = eq.expected_values(profile)
    assert values == enumerated_values(profile)
    for seat in (1, 2, 3):
        br = eq.best_response(profile, seat)
        assert br.br_value == eq.pure_strategy_oracle(profile, seat).br_value
        deviated = strategy.StrategyProfile({**profile.aggressive, **br.br_strategy})
        assert eq.expected_values(deviated)[seat - 1] == br.br_value


def test_tree_walks_call_no_string_helpers(monkeypatch):
    def refuse(*args):
        raise AssertionError(f"string helper called with {args}")

    for name in ("acting_seat", "action_pair", "situation_of", "infoset_key", "is_terminal",
                 "showdown_seats", "contributions", "terminal_payoffs"):
        monkeypatch.setattr(game, name, refuse)
    profile = strategy.nash_profile("UB")
    assert eq.epsilon_report(profile).epsilon == F(1, 192)
    assert eq.pure_strategy_oracle(profile, 1).br_value == F(-5, 192)
    assert eq.CfrTrainer().run(20).iteration_count == 20
    # A batch match, its log and the log's replay.
    agents = [make_agent(AgentSpec("UniformRandom"))] * 3
    record = harness.run_match(agents, harness.deal_sequence(3, (0,), 200), 3)
    assert len(record.hands) == 200
    assert harness.replay_match_log(harness.match_log(record)) == record
