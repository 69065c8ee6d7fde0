"""Agent-zoo tests: legality, sampling fidelity, modeler semantics, and
spec validation."""

from __future__ import annotations

from fractions import Fraction as F

import numpy as np
import pytest

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
            yield Observation(seat, card, h, 0)


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
    obs = Observation(2, "J", "K", 0)
    assert agent.act(obs, FixedRng(0.2499)) == "B"
    assert agent.act(obs, FixedRng(0.25)) == "K"
    # c41 = 1: seat 3 holding A at "KK" always bets.
    lb = make_agent(AgentSpec("NashLB"))
    obs = Observation(3, "A", "KK", 0)
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
        (Observation(2, "J", "K", 0), 0.25),
        (Observation(2, "Q", "K", 0), 0.25),
        (Observation(2, "K", "KKBF", 0), 0.875),
        (Observation(1, "K", "KBF", 0), 0.5),
        (Observation(3, "Q", "KK", 0), 0.5),
        (Observation(3, "K", "KK", 0), 0.0),
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
    obs = Observation(1, "K", "", 0)
    assert agent.act(obs, FixedRng(0.999)) == "B"
    agent = make_agent(AgentSpec("HonestNoBluff", {"king_bet": 0.0}))
    assert agent.act(obs, FixedRng(0.0)) == "K"


def test_modeler_prior_is_one_half():
    modeler = agents.FrequencyModeler(smoothing=1.0)
    for seat in (1, 2, 3):
        for situation in (1, 2, 3, 4):
            assert modeler.estimate(seat, situation) == 0.5


def test_modeler_counts_public_actions():
    modeler = agents.FrequencyModeler(smoothing=1.0)
    modeler.act(Observation(1, "Q", "", 0), FixedRng(0.5))  # binds the seat
    # KKBFF: seats 1 and 2 check, seat 3 bets, seats 1 and 2 fold.  From
    # seat 1 the countable opponent actions are seat 2's check (situation
    # 1), seat 3's bet (situation 1), and seat 2's fold (situation 3).
    modeler.observe_result({}, "KKBFF", (-1, -1, 2))
    assert modeler.estimate(3, 1) == pytest.approx(2 / 3)  # one bet observed
    assert modeler.estimate(2, 1) == pytest.approx(1 / 3)  # one check observed
    assert modeler.estimate(2, 3) == pytest.approx(1 / 3)  # one fold observed
    assert modeler.estimate(3, 2) == 0.5  # never observed


def test_modeler_estimates_stay_interior():
    modeler = agents.FrequencyModeler(smoothing=1.0)
    modeler.act(Observation(1, "Q", "", 0), FixedRng(0.5))
    for _ in range(1000):
        modeler.observe_result({}, "KKBFF", (-1, -1, 2))
    assert 0.0 < modeler.estimate(3, 1) < 1.0
    assert 0.0 < modeler.estimate(2, 3) < 1.0


def test_modeler_exploits_folding_opponents():
    # After watching both opponents fold to every bet, betting any card
    # from seat 1 shows an immediate profit; the modeler must bluff.
    modeler = agents.FrequencyModeler(smoothing=1.0)
    modeler.act(Observation(1, "J", "", 0), FixedRng(0.5))
    for _ in range(200):
        modeler.observe_result({}, "BFF", (2, -1, -1))
    assert modeler.act(Observation(1, "J", "", 0), FixedRng(0.5)) == "B"


def test_modeler_decision_ignores_hidden_cards():
    # Two modelers with identical observation streams must act identically
    # regardless of what the opponents actually held.
    a = agents.FrequencyModeler()
    b = agents.FrequencyModeler()
    history, payoffs = "KKBFF", (-1, -1, 2)
    for modeler in (a, b):
        modeler.act(Observation(1, "Q", "", 0), FixedRng(0.5))
    a.observe_result({}, history, payoffs)
    b.observe_result({}, history, payoffs)
    obs = Observation(1, "Q", "", 1)
    assert a.act(obs, FixedRng(0.5)) == b.act(obs, FixedRng(0.5))


def string_expectimax(modeler, deals, seat, h):
    """The modeler's expectimax over history strings, as a reference."""
    if game.is_terminal(h):
        return sum(game.terminal_payoffs(d, h)[seat - 1] for d in deals) / len(deals)
    values = [string_expectimax(modeler, deals, seat, h + a) for a in game.action_pair(h)]
    actor = game.acting_seat(h)
    if actor == seat:
        return max(values)
    f = modeler.estimate(actor, game.situation_of(actor, h))
    return (1.0 - f) * values[0] + f * values[1]


def test_modeler_act_matches_string_expectimax():
    modeler = agents.FrequencyModeler(smoothing=0.5)
    modeler.act(Observation(1, "Q", "", 0), FixedRng(0.5))
    for i, history in enumerate(game.TERMINAL_HISTORIES):
        for _ in range(i):
            modeler.observe_result({}, history, game.terminal_payoffs("JQK", history))
    for obs in all_observations():
        deals = [d for d in game.DEALS if d[obs.seat - 1] == obs.private_card]
        passive, aggressive = game.action_pair(obs.history)
        v_passive, v_aggressive = (string_expectimax(modeler, deals, obs.seat, obs.history + a)
                                   for a in (passive, aggressive))
        expected = aggressive if v_aggressive > v_passive else passive
        assert modeler.act(obs, FixedRng(0.5)) == expected, obs


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
    with pytest.raises(ValueError, match="smoothing"):
        make_agent(AgentSpec("FrequencyModeler", {"smoothing": -1}))
    with pytest.raises(ValueError, match="profile"):
        make_agent(AgentSpec("CFRTrained"))
    with pytest.raises(ValueError, match="StrategyProfile"):
        make_agent(AgentSpec("CFRTrained", {"profile": "/nonexistent/path.txt"}))


def test_cfr_trained_agent_loads_profile():
    agent = make_agent(AgentSpec("CFRTrained", {"profile": strategy.nash_profile("LB")}))
    obs = Observation(3, "A", "KK", 0)
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
