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
    """All an agent may condition on: its seat, its own card, the public history."""

    seat: Seat
    private_card: Card
    history: ActionHistory


class Agent:
    """Base agent: subclasses override act; observe_result defaults to no-op."""

    name = "agent"

    def act(self, obs: Observation, rng) -> Action:
        raise NotImplementedError

    def observe_result(self, revealed: Mapping[Seat, Card],
                       history: ActionHistory,
                       payoffs: tuple[int, int, int]) -> None:
        """Called once per completed hand; revealed holds showdown cards only."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class ProfileAgent(Agent):
    """Plays a fixed strategy profile: samples the aggressive action with the
    profile probability at the current information set."""

    def __init__(self, profile: StrategyProfile, name: str) -> None:
        self.profile = profile
        self.name = name
        #: The profile as floats in all_infoset_keys() order: the one table
        #: that act and harness.run_match's batch comparison read.
        self.probabilities = np.array([float(profile[key]) for key in game.all_infoset_keys()])
        self.probabilities.flags.writeable = False

    def act(self, obs: Observation, rng) -> Action:
        n = game.NODE_ID[obs.history]
        passive, aggressive = DECISION_ACTIONS[n]
        key = InfoSetKey(obs.seat, obs.private_card, DECISION_SITUATION[n])
        return aggressive if rng.uniform() < self.probabilities[game.KEY_INDEX[key]] else passive


def build_honest_profile(king_bet: Fraction | float = Fraction(1, 2)) -> StrategyProfile:
    """Honest no-bluff play: bet A always and K with probability king_bet at
    the first opportunity, never bet J or Q, and call only with A."""
    # Situations 2-4 all face an outstanding bet.
    return StrategyProfile({key: Fraction(1) if key.card == "A"
                            else Fraction(king_bet) if key.card == "K" and key.situation == 1
                            else Fraction(0) for key in game.all_infoset_keys()})


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
#: Per decision node: the decision nodes below it, in descending id order,
#: so that a backup over them finishes each node's children before it.
_DESCENDANTS = tuple(tuple(m for m in reversed(range(N_DECISIONS))
                           if any(a == n for a, _ in game.PATHS[m]))
                     for n in range(N_DECISIONS))


class FrequencyModeler(Agent):
    """Opponent modeler: tracks the aggressive frequency at every decision
    node with additive smoothing and plays greedy expectimax against its
    opponents' smoothed frequencies.

    The model is card-independent, so observed opponent actions carry no
    information about hidden cards and the posterior over the unseen deals
    stays uniform: act backs the seat's mean terminal payoffs up the tree,
    weighting each opponent branch by its modeled frequency.
    """

    name = "FrequencyModeler"

    def __init__(self, smoothing: float = 1.0) -> None:
        self.smoothing = finite_positive(smoothing, "smoothing")
        #: Per decision node: [passive, aggressive] counts of the actions seen there.
        self._counts = [[0, 0] for _ in range(N_DECISIONS)]

    def estimate(self, n: int) -> float:
        """Smoothed aggressive frequency at decision node n."""
        passive, aggressive = self._counts[n]
        s = self.smoothing
        return (aggressive + s) / (passive + aggressive + 2 * s)

    def act(self, obs: Observation, rng) -> Action:
        seat = obs.seat
        n = game.NODE_ID[obs.history]
        passive, aggressive = DECISION_ACTIONS[n]
        estimate = self.estimate
        # One backup over n's subtree in reverse node order, so each node's
        # children are final before it reads them: own nodes take the better
        # child (ties break passive, matching the best-response convention),
        # opponent nodes mix the children by the modeled frequency.
        value = _TERMINAL_MEANS[seat, obs.private_card][:]
        for m in _DESCENDANTS[n]:
            v_passive, v_aggressive = value[PASSIVE_CHILD[m]], value[AGGRESSIVE_CHILD[m]]
            if DECISION_SEAT[m] == seat:
                value[m] = v_aggressive if v_aggressive > v_passive else v_passive
            else:
                f = estimate(m)
                value[m] = (1.0 - f) * v_passive + f * v_aggressive
        return aggressive if value[AGGRESSIVE_CHILD[n]] > value[PASSIVE_CHILD[n]] else passive

    def observe_result(self, revealed: Mapping[Seat, Card],
                       history: ActionHistory,
                       payoffs: tuple[int, int, int]) -> None:
        # Count every public action at its node.  A modeler keeps one seat
        # for a whole match (each match seats a fresh copy), so a node's
        # acting seat identifies one opponent, and act never reads the
        # counts at the modeler's own nodes.  Mucked cards are never passed
        # in, and the card-independent model has no use for the revealed ones.
        for n, action in game.PATHS[game.NODE_ID[history]]:
            self._counts[n][action] += 1


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


def _cfr_profile(parameters: Mapping[str, object]) -> StrategyProfile:
    if "profile" not in parameters:
        raise ValueError("CFRTrained requires parameter 'profile'")
    if not isinstance(parameters["profile"], StrategyProfile):
        raise ValueError("CFRTrained parameter 'profile' must be a StrategyProfile")
    return parameters["profile"]


# Every agent kind: the parameters it accepts, and the builder of the
# profile it plays from its parameters (None: it plays no fixed profile).
_KINDS = {
    "NashLB": ((), lambda parameters: strategy.nash_profile("LB")),
    "NashUB": ((), lambda parameters: strategy.nash_profile("UB")),
    "CFRTrained": (("profile",), _cfr_profile),
    "UniformRandom": ((), lambda parameters: strategy.constant_profile(Fraction(1, 2))),
    "AlwaysAggressive": ((), lambda parameters: strategy.constant_profile(Fraction(1))),
    "AlwaysPassive": ((), lambda parameters: strategy.constant_profile(Fraction(0))),
    "HonestNoBluff": (("king_bet",), lambda parameters: build_honest_profile(
        _as_probability(parameters.get("king_bet", 0.5), "king_bet"))),
    "FrequencyModeler": (("smoothing",), None),
}
AGENT_KINDS = tuple(_KINDS)


def make_agent(spec: AgentSpec) -> Agent:
    """Construct the agent an AgentSpec describes.  Raises ValueError naming
    the offending field for an unknown kind, a parameter the kind does not
    take, a CFRTrained spec without a StrategyProfile, a king_bet outside
    [0, 1] or a smoothing that is not finite and > 0.  Pure: it reads no
    file, and equal specs give agents that play alike."""
    kind, parameters = spec.kind, spec.parameters
    if kind not in AGENT_KINDS:  # a tuple: an unhashable kind is unknown, not a TypeError
        raise ValueError(f"unknown agent kind {kind!r}; valid kinds: {', '.join(AGENT_KINDS)}")
    accepted, build_profile = _KINDS[kind]
    for key in parameters:
        if key not in accepted:
            raise ValueError(f"{kind} does not accept parameter {key!r}")
    if build_profile is None:
        return FrequencyModeler(parameters.get("smoothing", 1.0))
    return ProfileAgent(build_profile(parameters), kind)
