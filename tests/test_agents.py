"""Agent-zoo tests: legality, sampling fidelity, modeler semantics, and
spec validation."""

from __future__ import annotations

import copy
import re
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from kuhn3p import agents, game, strategy
from kuhn3p.agents import AgentSpec, Observation, make_agent


class FixedRng:
    """Hands the agent a preset uniform."""

    def __init__(self, value: float) -> None:
        self.value = value

    def uniform(self) -> float:
        return self.value


def all_observations():
    for h in game.DECISION_HISTORIES:
        seat = game.acting_seat(h)
        for card in game.CARDS:
            yield Observation(seat, card, h)


ALL_KINDS = [
    AgentSpec("NashLB"),
    AgentSpec("NashUB"),
    AgentSpec("UniformRandom"),
    AgentSpec("AlwaysAggressive"),
    AgentSpec("AlwaysPassive"),
    AgentSpec("HonestNoBluff"),
    AgentSpec("HonestNoBluff", {"king_bet": "1/3"}),
    AgentSpec("FrequencyModeler"),
]


def test_every_agent_plays_legal_actions_everywhere():
    for spec in ALL_KINDS:
        agent = make_agent(spec)
        for obs in all_observations():
            for u in (0.0, 0.5, 0.97):
                action = agent.act(obs, FixedRng(u))
                assert action in game.action_pair(obs.history), (spec, obs)


def test_profile_agent_uses_profile_probabilities():
    agent = make_agent(AgentSpec("NashUB"))
    # b11 = 1/4: seat 2 holding J at "K" bets iff the uniform is below 1/4.
    obs = Observation(2, "J", "K")
    assert agent.act(obs, FixedRng(0.2499)) == "B"
    assert agent.act(obs, FixedRng(0.25)) == "K"
    # c41 = 1: seat 3 holding A at "KK" always bets.
    lb = make_agent(AgentSpec("NashLB"))
    obs = Observation(3, "A", "KK")
    for u in (0.0, 0.5, 0.999999):
        assert lb.act(obs, FixedRng(u)) == "B"


def test_always_passive_folds_to_any_bet():
    agent = make_agent(AgentSpec("AlwaysPassive"))
    for obs in all_observations():
        if "B" in obs.history:
            assert agent.act(obs, FixedRng(0.0)) == "F"


def test_always_aggressive_bets_and_calls():
    agent = make_agent(AgentSpec("AlwaysAggressive"))
    for obs in all_observations():
        assert agent.act(obs, FixedRng(0.999)) in ("B", "C")


def test_sampling_frequencies_match_profile():
    # z-test at 1e5 samples per infoset: |phat - p| under 4 standard errors.
    agent = make_agent(AgentSpec("NashUB"))
    gen = np.random.default_rng(7)
    n = 100_000
    cases = [
        (Observation(2, "J", "K"), 0.25),
        (Observation(2, "Q", "K"), 0.25),
        (Observation(2, "K", "KKBF"), 0.875),
        (Observation(1, "K", "KBF"), 0.5),
        (Observation(3, "Q", "KK"), 0.5),
        (Observation(3, "K", "KK"), 0.0),
    ]
    for obs, p in cases:
        uniforms = gen.random(n)
        aggressive = game.action_pair(obs.history)[1]
        hits = sum(agent.act(obs, FixedRng(u)) == aggressive for u in uniforms)
        phat = hits / n
        if p in (0.0, 1.0):
            assert phat == p
        else:
            se = (p * (1 - p) / n) ** 0.5
            assert abs(phat - p) < 4 * se, (obs, phat, p)


def test_honest_no_bluff_profile():
    profile = agents.build_honest_profile(F(1, 2))
    for key in game.all_infoset_keys():
        if key.situation == 1:
            expected = {"A": F(1), "K": F(1, 2), "Q": F(0), "J": F(0)}[key.card]
        else:
            expected = F(1) if key.card == "A" else F(0)
        assert profile[key] == expected


def test_honest_no_bluff_king_bet_parameter():
    agent = make_agent(AgentSpec("HonestNoBluff", {"king_bet": 1.0}))
    obs = Observation(1, "K", "")
    assert agent.act(obs, FixedRng(0.999)) == "B"
    agent = make_agent(AgentSpec("HonestNoBluff", {"king_bet": 0.0}))
    assert agent.act(obs, FixedRng(0.0)) == "K"


def node(seat, situation):
    """The decision node at which seat meets situation."""
    return game.NODE_ID[game.SITUATION_HISTORIES[seat][situation]]


def test_modeler_prior_is_one_half():
    # At the float extremes too: 2 * smoothing overflows above max / 2.
    for smoothing in (1.0, sys.float_info.max, sys.float_info.max / 2, 5e-324):
        modeler = agents.FrequencyModeler(smoothing=smoothing)
        for seat in (1, 2, 3):
            for situation in (1, 2, 3, 4):
                assert modeler.estimate(node(seat, situation)) == 0.5


def test_modeler_counts_public_actions():
    modeler = agents.FrequencyModeler(smoothing=1.0)
    # KKBFF: seats 1 and 2 check, seat 3 bets, seats 1 and 2 fold.  Every
    # action is counted at its node: seat 1's check (situation 1) and fold
    # (situation 2), seat 2's check (situation 1) and fold (situation 3),
    # and seat 3's bet (situation 1).
    modeler.observe_result({}, "KKBFF", (-1, -1, 2))
    assert modeler.estimate(node(3, 1)) == pytest.approx(2 / 3)  # one bet observed
    assert modeler.estimate(node(2, 1)) == pytest.approx(1 / 3)  # one check observed
    assert modeler.estimate(node(2, 3)) == pytest.approx(1 / 3)  # one fold observed
    assert modeler.estimate(node(3, 2)) == 0.5  # never observed
    # Seat 1's own nodes hold counts too, but its decisions never read them,
    # not even once the counts there are lopsided.
    own = [game.NODE_ID[""], game.NODE_ID["KKB"]]
    assert [modeler._counts[n] for n in own] == [[1, 0], [1, 0]]
    for _ in range(50):
        modeler.observe_result({}, "KKBCC", (-2, -2, 4))
    blind = copy.deepcopy(modeler)
    for n in own:
        blind._counts[n] = [0, 0]
    for obs in all_observations():
        if obs.seat == 1:
            assert modeler.act(obs, FixedRng(0.5)) == blind.act(obs, FixedRng(0.5)), obs


def test_modeler_estimates_stay_interior():
    modeler = agents.FrequencyModeler(smoothing=1.0)
    for _ in range(1000):
        modeler.observe_result({}, "KKBFF", (-1, -1, 2))
    assert 0.0 < modeler.estimate(node(3, 1)) < 1.0
    assert 0.0 < modeler.estimate(node(2, 3)) < 1.0


def test_modeler_exploits_folding_opponents():
    # After watching both opponents fold to every bet, betting any card
    # from seat 1 shows an immediate profit; the modeler must bluff.
    modeler = agents.FrequencyModeler(smoothing=1.0)
    for _ in range(200):
        modeler.observe_result({}, "BFF", (2, -1, -1))
    assert modeler.act(Observation(1, "J", ""), FixedRng(0.5)) == "B"


def test_modeler_decision_ignores_hidden_cards():
    # Two modelers with identical observation streams must act identically
    # regardless of what the opponents actually held.
    a = agents.FrequencyModeler()
    b = agents.FrequencyModeler()
    history, payoffs = "KKBFF", (-1, -1, 2)
    a.observe_result({}, history, payoffs)
    b.observe_result({}, history, payoffs)
    obs = Observation(1, "Q", "")
    assert a.act(obs, FixedRng(0.5)) == b.act(obs, FixedRng(0.5))


def test_modeler_backs_up_exactly_the_subtree():
    # Through the string API: node n's descendants are the decision
    # histories that strictly extend its history, latest node id first.
    for n, h in enumerate(game.DECISION_HISTORIES):
        below = [game.NODE_ID[g] for g in game.DECISION_HISTORIES
                 if g.startswith(h) and g != h]
        assert list(agents._DESCENDANTS[n]) == sorted(below, reverse=True), h
    assert len(agents._DESCENDANTS) == game.N_DECISIONS


def string_expectimax(modeler, deals, seat, h):
    """The modeler's expectimax over history strings, as a reference."""
    if game.is_terminal(h):
        return sum(game.terminal_payoffs(d, h)[seat - 1] for d in deals) / len(deals)
    values = [string_expectimax(modeler, deals, seat, h + a) for a in game.action_pair(h)]
    if game.acting_seat(h) == seat:
        return max(values)
    f = modeler.estimate(game.NODE_ID[h])
    return (1.0 - f) * values[0] + f * values[1]


@given(smoothing=st.floats(0.1, 10, allow_nan=False, allow_infinity=False),
       observed=st.lists(st.sampled_from(game.TERMINAL_HISTORIES), max_size=30))
@example(smoothing=0.5,
         observed=[h for i, h in enumerate(game.TERMINAL_HISTORIES) for _ in range(i)])
# act spells estimate out inline: check it at the largest smoothing, where only estimate's
# halved denominator stays finite, and at the smallest.
@example(smoothing=sys.float_info.max,
         observed=[h for i, h in enumerate(game.TERMINAL_HISTORIES) for _ in range(i)])
@example(smoothing=5e-324,
         observed=[h for i, h in enumerate(game.TERMINAL_HISTORIES) for _ in range(i)])
def test_modeler_act_matches_string_expectimax(smoothing, observed):
    modeler = agents.FrequencyModeler(smoothing=smoothing)
    for history in observed:
        modeler.observe_result({}, history, game.terminal_payoffs("JQK", history))
    for obs in all_observations():
        deals = [d for d in game.DEALS if d[obs.seat - 1] == obs.private_card]
        passive, aggressive = game.action_pair(obs.history)
        v_passive, v_aggressive = (string_expectimax(modeler, deals, obs.seat, obs.history + a)
                                   for a in (passive, aggressive))
        expected = aggressive if v_aggressive > v_passive else passive
        assert modeler.act(obs, FixedRng(0.5)) == expected, obs


def expectimax_action(modeler, obs):
    """The action string_expectimax picks at obs, ties passive."""
    deals = [d for d in game.DEALS if d[obs.seat - 1] == obs.private_card]
    passive, aggressive = game.action_pair(obs.history)
    v_passive, v_aggressive = (string_expectimax(modeler, deals, obs.seat, obs.history + a)
                               for a in (passive, aggressive))
    return aggressive if v_aggressive > v_passive else passive


# Seat 1 holding Q asked at the root, shown a result, then asked at KKB: KKB's backup
# must recompute KKBC, which the root's ask left in the reused value list under older counts.
@example(smoothing=1.0, steps=[Observation(1, "Q", ""), "KKBCF", Observation(1, "Q", "KKB")])
@given(smoothing=st.floats(0.1, 10, allow_nan=False, allow_infinity=False),
       steps=st.lists(st.one_of(st.sampled_from(game.TERMINAL_HISTORIES),
                                st.sampled_from(list(all_observations()))), max_size=60))
def test_modeler_act_matches_string_expectimax_between_results(smoothing, steps):
    # Results and asks interleaved: the same card at different nodes, and repeats,
    # so each ask reuses a value list that earlier asks filled under other counts.
    modeler = agents.FrequencyModeler(smoothing=smoothing)
    for step in steps:
        if isinstance(step, Observation):
            assert modeler.act(step, FixedRng(0.5)) == expectimax_action(modeler, step), step
        else:
            modeler.observe_result({}, step, game.terminal_payoffs("JQK", step))


def test_modeler_rejects_bad_smoothing():
    with pytest.raises(ValueError):
        agents.FrequencyModeler(smoothing=0.0)
    with pytest.raises(ValueError, match="finite"):
        agents.FrequencyModeler(smoothing=float("inf"))
    with pytest.raises(ValueError, match="finite"):
        make_agent(AgentSpec("FrequencyModeler", {"smoothing": 1e400}))
    with pytest.raises(ValueError, match="finite"):  # an int with no float
        make_agent(AgentSpec("FrequencyModeler", {"smoothing": 10 ** 400}))


def test_make_agent_validation():
    with pytest.raises(ValueError, match="unknown agent kind"):
        make_agent(AgentSpec("NeuralNet"))
    with pytest.raises(ValueError, match="does not accept parameter"):
        make_agent(AgentSpec("NashLB", {"king_bet": 0.5}))
    with pytest.raises(ValueError, match="king_bet"):
        make_agent(AgentSpec("HonestNoBluff", {"king_bet": 1.5}))
    # "0_1" would read as 1 and "\u0661/\u0662" as 1/2.
    for king_bet in ("0_1", "\u0661/\u0662", "abc", [1]):
        with pytest.raises(ValueError, match=f"^king_bet is not a number: {re.escape(repr(king_bet))}$"):
            make_agent(AgentSpec("HonestNoBluff", {"king_bet": king_bet}))
    with pytest.raises(ValueError, match="smoothing"):
        make_agent(AgentSpec("FrequencyModeler", {"smoothing": -1}))
    with pytest.raises(ValueError, match="profile"):
        make_agent(AgentSpec("CFRTrained"))
    with pytest.raises(ValueError, match="StrategyProfile"):
        make_agent(AgentSpec("CFRTrained", {"profile": "/nonexistent/path.txt"}))


def _readme_agent_rows():
    """README's ## Agents table as (kinds, parameter or None) per row: the
    backticked names of its first column and the first of its third."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = readme.split("\n## Agents\n", 1)[1].lstrip("\n").splitlines()
    rows = []
    for line in lines[2:]:  # past the header and its rule
        if not line.startswith("|"):
            break
        kinds, _, parameters = (cell.strip() for cell in line.strip().strip("|").split("|"))
        first = re.search(r"`([^`]+)`", parameters)
        rows.append((re.findall(r"`([^`]+)`", kinds), first and first.group(1)))
    return rows


def test_readme_agent_table_is_the_table_of_kinds():
    rows = _readme_agent_rows()
    assert [kind for kinds, _ in rows for kind in kinds] == list(agents.AGENT_KINDS)
    for kinds, parameter in rows:
        for kind in kinds:
            assert agents._KINDS[kind][0] == ((parameter,) if parameter else ()), kind


def test_every_fixed_profile_kind_builds_a_plain_profile_agent():
    # harness.run_match decides exactly the ProfileAgent type in one batch.
    parameters = {"CFRTrained": {"profile": strategy.nash_profile("LB")}}
    for kind in agents.AGENT_KINDS:
        agent = make_agent(AgentSpec(kind, parameters.get(kind, {})))
        assert type(agent) is (agents.FrequencyModeler if kind == "FrequencyModeler"
                                else agents.ProfileAgent), kind


def test_cfr_trained_agent_loads_profile():
    agent = make_agent(AgentSpec("CFRTrained", {"profile": strategy.nash_profile("LB")}))
    obs = Observation(3, "A", "KK")
    assert agent.act(obs, FixedRng(0.999)) == "B"  # c41 = 1


def test_nash_agents_complete_each_table_once(monkeypatch):
    complete = strategy.complete_profile
    completed = []
    monkeypatch.setattr(strategy, "complete_profile",
                        lambda table: completed.append(table) or complete(table))
    strategy.nash_profile.cache_clear()
    built = [make_agent(AgentSpec(kind)) for kind in ("NashLB", "NashUB") * 3]
    assert len(completed) == 2
    assert all(agent.profile is built[i % 2].profile for i, agent in enumerate(built))


def test_stateless_agents_ignore_results():
    agent = make_agent(AgentSpec("NashLB"))
    before = dict(agent.profile.aggressive)
    agent.observe_result({1: "A"}, "KKK", (2, -1, -1))
    assert agent.profile.aggressive == before
