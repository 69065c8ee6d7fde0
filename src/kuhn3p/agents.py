"""Decision-making agents for three-player Kuhn poker.

An agent is asked for one action at a time through ``act`` and shown each
completed hand through ``observe_result``.  One agent instance serves one
seat for the duration of one match; stateless agents may be shared
read-only.  Agents see only their own card, the public action history, and
whatever cards a showdown reveals -- never an opponent's mucked card.

The zoo covers the broad opponent categories a three-player Kuhn
tournament tends to attract: game-theoretic play backed by a fixed
strategy profile, naive rule-based play, uniform randomness, and a simple
opponent modeler.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, NamedTuple, Optional

import numpy as np

from . import game
from . import strategy
from .game import (AGGRESSIVE_CHILD, DECISION_ACTIONS, DECISION_SEAT, DECISION_SITUATION,
                   N_DECISIONS, PASSIVE_CHILD, Action, ActionHistory, Card, InfoSetKey, Seat)
from .strategy import StrategyProfile


class Observation(NamedTuple):
    """Everything an agent may condition on when choosing an action."""

    seat: Seat
    private_card: Card
    history: ActionHistory
    hand_index: int


class Agent:
    """Base agent: subclasses override act; observe_result defaults to no-op."""

    name = "agent"

    def act(self, obs: Observation, rng) -> Action:
        raise NotImplementedError

    def observe_result(self, revealed: Mapping[Seat, Card],
                       history: ActionHistory,
                       payoffs: tuple[int, int, int]) -> None:
        """Called once per completed hand; revealed holds showdown cards only."""

    def __setstate__(self, state: dict) -> None:
        # Attribute by attribute, as __init__ sets them: CPython reads the
        # attributes of a copy whose __dict__ was filled whole more slowly.
        for name, value in state.items():
            setattr(self, name, value)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class ProfileAgent(Agent):
    """Plays a fixed strategy profile: samples the aggressive action with the
    profile probability at the current information set."""

    def __init__(self, profile: StrategyProfile, name: str) -> None:
        self.profile = profile
        self.name = name
        # Float lookup table keeps the per-decision cost flat.
        self._prob = {key: float(p) for key, p in profile.aggressive.items()}
        #: The same floats in all_infoset_keys() order, for batch play.
        self.probabilities = np.array([self._prob[key] for key in game.all_infoset_keys()])
        self.probabilities.flags.writeable = False

    def act(self, obs: Observation, rng) -> Action:
        n = game.NODE_ID[obs.history]
        passive, aggressive = DECISION_ACTIONS[n]
        key = InfoSetKey(obs.seat, obs.private_card, DECISION_SITUATION[n])
        return aggressive if rng.uniform() < self._prob[key] else passive


def build_honest_profile(king_bet: Fraction | float = Fraction(1, 2)) -> StrategyProfile:
    """Honest no-bluff play: bet A always and K with probability king_bet at
    the first opportunity, never bet J or Q, and call only with A."""
    aggressive = {}
    for key in game.all_infoset_keys():
        if key.situation == 1:
            if key.card == "A":
                aggressive[key] = Fraction(1)
            elif key.card == "K":
                aggressive[key] = Fraction(king_bet)
            else:
                aggressive[key] = Fraction(0)
        else:
            # Situations 2-4 all face an outstanding bet.
            aggressive[key] = Fraction(1) if key.card == "A" else Fraction(0)
    return StrategyProfile(aggressive)


def finite_positive(value: object, name: str) -> float:
    """value as a float.  ValueError naming it unless it is an int or a
    float (a bool is neither) with 0 < value <= the largest float: that
    bound, unlike math.isfinite, holds for an int too large for a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not 0 < value <= sys.float_info.max:
        raise ValueError(f"{name} must be a finite number > 0, got {value!r}")
    return float(value)


def _terminal_means(seat: Seat, card: Card) -> list[float]:
    """Per node, seat's mean payoff over the six deals in which it holds
    card (0 at decision nodes).  Sums of six small integers are exact in
    float."""
    deals = [d for d, cards in enumerate(game.DEALS) if cards[seat - 1] == card]
    return (game.PAYOFFS[deals, :, seat - 1].sum(axis=0) / len(deals)).tolist()


_TERMINAL_MEANS = {(seat, card): _terminal_means(seat, card)
                   for seat in game.SEATS for card in game.CARDS}


class FrequencyModeler(Agent):
    """Opponent modeler: tracks per-seat, per-situation aggressive
    frequencies with additive smoothing and plays greedy expectimax against
    the modeled behavior.

    The model is card-independent, so observed opponent actions carry no
    information about hidden cards and the posterior over the unseen deals
    stays uniform; the expectimax below relies on that.
    """

    name = "FrequencyModeler"

    def __init__(self, smoothing: float = 1.0) -> None:
        self.smoothing = finite_positive(smoothing, "smoothing")
        self._counts: dict[tuple[Seat, int], list[int]] = {}
        self._seat: Optional[Seat] = None

    def estimate(self, seat: Seat, situation: int) -> float:
        """Smoothed aggressive frequency for an opponent decision point."""
        passive, aggressive = self._counts.get((seat, situation), (0, 0))
        s = self.smoothing
        return (aggressive + s) / (passive + aggressive + 2 * s)

    def act(self, obs: Observation, rng) -> Action:
        self._seat = obs.seat
        n = game.NODE_ID[obs.history]
        passive, aggressive = DECISION_ACTIONS[n]
        means = _TERMINAL_MEANS[obs.seat, obs.private_card]
        v_passive = self._value(means, obs.seat, PASSIVE_CHILD[n])
        v_aggressive = self._value(means, obs.seat, AGGRESSIVE_CHILD[n])
        # Ties break passive, matching the best-response convention.
        return aggressive if v_aggressive > v_passive else passive

    def _value(self, means: list[float], seat: Seat, n: int) -> float:
        # Expected payoff for seat at node n over the uniform posterior on
        # deals (means), with opponents playing their modeled frequencies
        # and this agent playing greedily at its own future decision points.
        # Modeled frequencies do not depend on the deal, so branch weights
        # factor out of the posterior.
        if n >= N_DECISIONS:
            return means[n]
        actor = DECISION_SEAT[n]
        if actor == seat:
            return max(self._value(means, seat, PASSIVE_CHILD[n]),
                       self._value(means, seat, AGGRESSIVE_CHILD[n]))
        f = self.estimate(actor, DECISION_SITUATION[n])
        return ((1.0 - f) * self._value(means, seat, PASSIVE_CHILD[n])
                + f * self._value(means, seat, AGGRESSIVE_CHILD[n]))

    def observe_result(self, revealed: Mapping[Seat, Card],
                       history: ActionHistory,
                       payoffs: tuple[int, int, int]) -> None:
        # Count every public opponent action; own actions are skipped.  The
        # model keys on the acting seat, which identifies the opponent for
        # the duration of a match.  Mucked cards are never passed in, and the
        # card-independent model has no use for the revealed ones.
        if self._seat is None:
            return
        for n, action in game.PATHS[game.NODE_ID[history]]:
            actor = DECISION_SEAT[n]
            if actor != self._seat:
                self._counts.setdefault((actor, DECISION_SITUATION[n]), [0, 0])[action] += 1


# Every agent kind, with the parameters it accepts.
_PARAMETERS = {
    "NashLB": (),
    "NashUB": (),
    "CFRTrained": ("profile",),
    "UniformRandom": (),
    "AlwaysAggressive": (),
    "AlwaysPassive": (),
    "HonestNoBluff": ("king_bet",),
    "FrequencyModeler": ("smoothing",),
}
AGENT_KINDS = tuple(_PARAMETERS)


@dataclass(frozen=True)
class AgentSpec:
    """Declarative agent description.  A tournament config names a
    CFRTrained profile by path; the CLI reads and parses that file, so the
    spec always holds the StrategyProfile itself.  name, if given, is the
    agent's label in a pool (harness.pool_labels)."""

    kind: str
    parameters: Mapping[str, object] = field(default_factory=dict)
    name: Optional[str] = None


def _as_probability(value: object, name: str) -> Fraction | float:
    if isinstance(value, str):
        try:
            value = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"{name} is not a number: {value!r}") from None
    if not isinstance(value, (int, float, Fraction)) or isinstance(value, bool):
        raise ValueError(f"{name} is not a number: {value!r}")
    if not 0 <= value <= 1:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return value


def make_agent(spec: AgentSpec) -> Agent:
    """Construct the agent an AgentSpec describes.  Raises ValueError naming
    the offending field for an unknown kind, a parameter the kind does not
    take, a CFRTrained spec without a StrategyProfile, a king_bet outside
    [0, 1] or a smoothing that is not finite and > 0.  Pure: it reads no
    file, and equal specs give agents that play alike."""
    kind, parameters = spec.kind, spec.parameters
    if kind not in AGENT_KINDS:
        raise ValueError(f"unknown agent kind {kind!r}; valid kinds: {', '.join(AGENT_KINDS)}")
    for key in parameters:
        if key not in _PARAMETERS[kind]:
            raise ValueError(f"{kind} does not accept parameter {key!r}")
    if kind == "NashLB" or kind == "NashUB":
        return ProfileAgent(strategy.nash_profile(kind[-2:]), kind)
    if kind == "CFRTrained":
        if "profile" not in parameters:
            raise ValueError("CFRTrained requires parameter 'profile'")
        if not isinstance(parameters["profile"], StrategyProfile):
            raise ValueError("CFRTrained parameter 'profile' must be a StrategyProfile")
        return ProfileAgent(parameters["profile"], kind)
    if kind == "UniformRandom":
        return ProfileAgent(strategy.constant_profile(Fraction(1, 2)), kind)
    if kind == "AlwaysAggressive":
        return ProfileAgent(strategy.constant_profile(Fraction(1)), kind)
    if kind == "AlwaysPassive":
        return ProfileAgent(strategy.constant_profile(Fraction(0)), kind)
    if kind == "HonestNoBluff":
        king_bet = _as_probability(parameters.get("king_bet", 0.5), "king_bet")
        return ProfileAgent(build_honest_profile(king_bet), kind)
    assert kind == "FrequencyModeler"
    return FrequencyModeler(parameters.get("smoothing", 1.0))
