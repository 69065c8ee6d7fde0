"""Exact equilibrium-verification tests.

Expected values and epsilons below were frozen from two independent
computations: the best-response backup, which also gives each seat's
expected value, on one side, and the 65,536-pure-strategy enumeration
oracle on the other.  A property test holds the tree walks against the
oracle and against a plain enumeration of deals and terminal action
strings through the string API of `game`.  Another holds every result of
`equilibrium`, which computes on integer numerators over one common
denominator, equal to the earlier `Fraction` routines kept in
`exact_reference`.  Everything here is exact rational arithmetic.
"""

from __future__ import annotations

import ast
import doctest
import functools
import re
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import exact_reference as reference
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


def test_ub_b32_repairs_exactly_on_half_to_fifteen_sixteenths():
    # epsilon as a function of b32 alone is convex: seat 2's best response
    # ignores its own entries and its value is linear in b32, so its gap is
    # linear; seats 1 and 3 each have a gap that is a maximum of linear
    # functions less a linear one.  Zero at both ends of [1/2, 15/16] is
    # then zero on the whole interval.  Just outside an end a, epsilon at
    # distance h is twice epsilon at h/2, so it is affine and positive
    # there: the interval is exact.
    table = strategy.load_table("UB")

    def epsilon(b32):
        return eq.epsilon(strategy.complete_profile({**table, (2, 3, 2): b32}))

    h = F(1, 64)
    assert epsilon(F(1, 2)) == epsilon(F(15, 16)) == 0
    assert (epsilon(F(1, 2) - h), epsilon(F(1, 2) - h / 2)) == (F(1, 192), F(1, 384))
    assert (epsilon(F(15, 16) + h), epsilon(F(15, 16) + h / 2)) == (F(1, 768), F(1, 1536))


def min_epsilon_over_one_entry(profile, key):
    """The exact minimum of epsilon over [0, 1] as only the entry at `key`
    varies, and the point where the search reaches it.

    Each seat's gap is convex and piecewise affine in that entry p: for a
    seat that does not own it, the best response is a max of functions
    affine in p and `ev` is affine; for its owner the best response does
    not depend on p. At a point, the max-gap seat's pure best response
    sigma gives one such line, sigma's ev less the seat's, which touches
    epsilon there and lies below it elsewhere. Cutting planes: minimize
    the max of the lines found exactly, over the ends and the crossings,
    until epsilon at the minimizer equals that max.
    """
    def at(p):
        return profile.replace(key, p)

    lines = []  # (value at 0, slope)
    p = profile[key]
    for _ in range(8):
        report = eq.epsilon_report(at(p))
        if lines and max(a + b * p for a, b in lines) == report.epsilon:
            return report.epsilon, p
        worst = max(report.seats, key=lambda s: s.gap)
        g0, g1 = (eq.best_response(strategy.StrategyProfile({**at(x).aggressive, **worst.br_strategy}),
                                   worst.seat).ev - eq.best_response(at(x), worst.seat).ev
                  for x in (F(0), F(1)))
        assert g0 + (g1 - g0) * p == report.epsilon
        lines.append((g0, g1 - g0))
        crossings = ((a2 - a1) / (b1 - b2) for a1, b1 in lines for a2, b2 in lines if b1 > b2)
        points = sorted({F(0), F(1), *(x for x in crossings if 0 <= x <= 1)})
        p = min(points, key=lambda x: max(a + b * x for a, b in lines))
    raise AssertionError(f"no exact minimum for {key} after 8 cuts")


def test_no_other_single_ub_entry_closes_the_gap():
    # Only b32 = (2, K, 2) can close UB's 1/192 gap on its own, from the low
    # end of its repair interval. Seven other entries narrow the gap; the
    # other 40, (2, J, 1), (2, Q, 1), (3, J, 1) and (3, Q, 1) among them,
    # cannot move it below 1/192.
    profile = strategy.nash_profile("UB")
    minima = {(key.seat, key.card, key.situation): min_epsilon_over_one_entry(profile, key)
              for key in game.all_infoset_keys()}
    below = {entry: value for entry, (value, _) in minima.items() if value < F(1, 192)}
    assert below == {(2, "K", 2): 0, (2, "K", 4): F(1, 384), (3, "K", 1): F(1, 336),
                     (2, "K", 1): F(5, 1536), (3, "K", 2): F(1, 240), (3, "Q", 2): F(5, 1152),
                     (3, "J", 2): F(5, 1056), (1, "A", 1): F(5, 984)}
    assert {value for entry, (value, _) in minima.items() if entry not in below} == {F(1, 192)}
    assert (minima[2, "K", 2][1], minima[2, "K", 4][1]) == (F(1, 2), F(1, 8))
    # The closest miss, checked on a 1/64 grid: 1/384 at 1/8 and nowhere lower.
    grid = [eq.epsilon(profile.replace(InfoSetKey(2, "K", 4), F(i, 64))) for i in range(65)]
    assert min(grid) == grid[8] == F(1, 384)


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
        for key, (v_passive, v_aggressive) in reference.action_values(profile, seat).items():
            if v_passive == v_aggressive:
                assert br.br_strategy[key] == 0
                found += 1
    assert found >= 3


@pytest.mark.parametrize("routine", [eq.best_response, eq.pure_strategy_oracle])
def test_routines_reject_a_seat_outside_1_to_3(routine):
    for seat in (0, 4):
        with pytest.raises(ValueError, match=rf"^seat must be one of \(1, 2, 3\), got {seat}$"):
            routine(strategy.nash_profile("LB"), seat)


def test_epsilon_nonnegative_and_zero_only_at_equilibrium():
    assert eq.epsilon(strategy.nash_profile("LB")) == 0
    for profile in (strategy.constant_profile(F(1, 2)),
                    strategy.constant_profile(F(0)),
                    strategy.constant_profile(F(1))):
        assert eq.epsilon(profile) > 0


def test_epsilon_report_render():
    assert eq.epsilon_report(strategy.nash_profile("LB")).render() == (
        "seat 1: ev = -1/48 (-0.020833)  best response = -1/48 (-0.020833)  gap = 0 (0.000e+00)\n"
        "seat 2: ev = -1/48 (-0.020833)  best response = -1/48 (-0.020833)  gap = 0 (0.000e+00)\n"
        "seat 3: ev = 1/24 (+0.041667)  best response = 1/24 (+0.041667)  gap = 0 (0.000e+00)\n"
        "epsilon = 0 (0.000e+00)")
    assert eq.epsilon_report(strategy.nash_profile("UB")).render() == (
        "seat 1: ev = -1/32 (-0.031250)  best response = -5/192 (-0.026042)  gap = 1/192 (5.208e-03)\n"
        "    deviate at seat 1 card A situation 1: gain 1/192 (5.208e-03)\n"
        "seat 2: ev = -1/48 (-0.020833)  best response = -1/48 (-0.020833)  gap = 0 (0.000e+00)\n"
        "seat 3: ev = 5/96 (+0.052083)  best response = 5/96 (+0.052083)  gap = 0 (0.000e+00)\n"
        "epsilon = 1/192 (5.208e-03)")


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


def profile_of(values):
    return strategy.StrategyProfile(dict(zip(game.all_infoset_keys(), values)))


profiles = st.lists(probabilities, min_size=48, max_size=48).map(profile_of)


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


def reference_deviations(profile, seat):
    """The positive local gains, in KEY_INDEX order, recomputed from
    the reference's action values and the profile's own probability."""
    deviations = []
    for key, (v_passive, v_aggressive) in sorted(reference.action_values(profile, seat).items(),
                                                 key=lambda kv: game.KEY_INDEX[kv[0]]):
        p = F(profile[key])
        gain = max(v_passive, v_aggressive) - (p * v_aggressive + (1 - p) * v_passive)
        if gain > 0:
            deviations.append((key, gain))
    return deviations


# Fewer examples than the suite's default: each one runs three oracles.
@settings(max_examples=30)
@given(profile=profiles)
def test_tree_walks_match_oracle_and_enumeration(profile):
    enumerated = enumerated_values(profile)
    assert eq.expected_values(profile) == enumerated
    gaps = []
    for seat in (1, 2, 3):
        br = eq.best_response(profile, seat)
        assert br.ev == enumerated[seat - 1]
        assert br.br_value == eq.pure_strategy_oracle(profile, seat).br_value
        deviated = strategy.StrategyProfile({**profile.aggressive, **br.br_strategy})
        assert eq.expected_values(deviated)[seat - 1] == br.br_value
        assert br.gap == br.br_value - br.ev
        assert br.deviations == reference_deviations(profile, seat)
        gaps.append(br.gap)
    assert eq.epsilon(profile) == eq.epsilon_report(profile).epsilon == max(gaps)


# Floats at the edges of exactness: the smallest subnormal, whose
# denominator is 2**1074, the largest float below one, and pure 0/1 mixes.
extreme_floats = st.sampled_from([0.0, 1.0, 5e-324, 1 - 2 ** -53, 2 ** -53])
exact_profiles = st.one_of(
    st.lists(st.fractions(min_value=0, max_value=1, max_denominator=60), min_size=48, max_size=48),
    st.lists(st.one_of(extreme_floats, st.floats(min_value=0.0, max_value=1.0)),
             min_size=48, max_size=48),
).map(profile_of) | st.sampled_from([0, 1, 10, 300, 3000]).map(functools.cache(
    lambda n: eq.CfrTrainer().run(n).average_profile()))


# Fewer examples than the suite's default: each one sums the 65,536 masks
# of the reference oracle in Python.
@settings(max_examples=30)
@given(profile=exact_profiles, seat=st.sampled_from(game.SEATS))
@example(profile=strategy.constant_profile(5e-324), seat=1)
@example(profile=strategy.constant_profile(1 - 2 ** -53), seat=2)
@example(profile=profile_of([0.0, 1.0, 5e-324, 1 - 2 ** -53] * 12), seat=3)
@example(profile=strategy.nash_profile("UB"), seat=1)
def test_integer_routines_equal_the_fraction_reference(profile, seat):
    seats = [reference.best_response(profile, s) for s in game.SEATS]
    assert [eq.best_response(profile, s) for s in game.SEATS] == seats
    assert eq.epsilon_report(profile).render() == eq.EpsilonReport(seats).render()
    assert eq.epsilon(profile) == max(s.gap for s in seats)
    oracle = eq.pure_strategy_oracle(profile, seat)
    want = reference.pure_strategy_oracle(profile, seat)
    assert (oracle.br_value, oracle.br_strategy) == (want.br_value, want.br_strategy)
    assert oracle.br_value == seats[seat - 1].br_value


@pytest.mark.parametrize("profile", [strategy.nash_profile("LB"),
                                     strategy.constant_profile(F(1, 2)),
                                     strategy.constant_profile(F(0))],
                         ids=["LB", "uniform", "all-passive"])
def test_oracle_keeps_the_lowest_mask_maximizer(profile):
    for seat in game.SEATS:
        values, denominator = reference.mask_values(profile, seat)
        top = max(values)
        maximizers = [mask for mask, value in enumerate(values) if value == top]
        assert len(maximizers) > 1  # a tie for the rule to break
        oracle = eq.pure_strategy_oracle(profile, seat)
        assert oracle.br_strategy == reference.pure_strategy(seat, maximizers[0])
        assert oracle.br_value == F(values[maximizers[0]], denominator)
        assert oracle.evaluations == 1 << 16


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
    # A scalar match with an observing FrequencyModeler, and its replay.
    agents = [make_agent(AgentSpec(kind)) for kind in ("FrequencyModeler", "NashLB", "UniformRandom")]
    record = harness.run_match(agents, harness.deal_sequence(3, (1,), 200), 3)
    assert max(map(max, agents[0]._counts)) > 0
    assert harness.replay_match_log(harness.match_log(record)) == record


def test_no_src_function_calls_itself():
    # Every tree walk is a loop over the compiled tables, not a recursion.
    recursive = []
    for path in sorted(Path(game.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    isinstance(call, ast.Call)
                    and ast.unparse(call.func) in (node.name, f"self.{node.name}")
                    for call in ast.walk(node)):
                recursive.append(f"{path.name}:{node.name}")
    assert recursive == []


def test_readme_python_examples_run():
    # Each fenced python block of README.md, run as a doctest.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    assert blocks
    for i, block in enumerate(blocks):
        test = doctest.DocTestParser().get_doctest(block, {}, f"README.md python block {i}",
                                                   "README.md", 0)
        assert test.examples and doctest.DocTestRunner().run(test).failed == 0
