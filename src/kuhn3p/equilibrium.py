"""Exact game values, best responses, equilibrium gap, and CFR training.

Every routine here walks the compiled tree of `game`: node ids in
parent-before-child order, the child tables and root paths, the per-deal
infoset index and the payoff array. None of them touches a history string.

Verification runs in exact rational arithmetic: profile probabilities are
converted to `Fraction` (exact even for floats), expectations are taken
over the 24 equiprobable deals, and a profile is an equilibrium iff its
gap `epsilon` is exactly zero. One top-down pass (`_reaches`) gives a
deal's reach probability at every node, optionally leaving out one seat's
own actions. Two independent routes compute the best response value:

  * `best_response` backs opponent-reach-weighted values up the tree in
    reverse node order, once per card of the responding seat, maximizing
    at each of its own decision nodes (ties go to the passive action);
  * `pure_strategy_oracle` enumerates all 2^16 = 65,536 pure strategies
    for the seat over its 16 infosets and evaluates each one exactly.

`CfrTrainer` implements vanilla counterfactual regret minimization:
every iteration enumerates all 24 deals, updates all three seats'
regrets simultaneously under the regret-matching policy, and accumulates
the reach-weighted average strategy. Each sweep reads every decision
node's reaches off its root path in one numpy gather, then backs values
up the tree in one bottom-up pass, both vectorized across deals.
Training is fully deterministic (there is no sampling).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import game
from .game import (AGGRESSIVE_CHILD, CARDS, CARD_INDEX, DEALS, DECISION_SEAT, DECISION_SITUATION,
                   N_DECISIONS, PASSIVE_CHILD, SEATS, InfoSetKey)
from .strategy import StrategyProfile

ValueVector = tuple[Fraction, Fraction, Fraction]

_CHANCE = Fraction(1, len(DEALS))
_ZERO = Fraction(0)

_N_NODES = len(game.NODES)
# Python ints: numpy integers do not combine exactly with Fraction.
_INFOSET = game.INFOSET_INDEX.tolist()
_PAYOFFS = game.PAYOFFS.tolist()


def _action_probabilities(profile: StrategyProfile) -> list[tuple[Fraction, Fraction]]:
    """(passive, aggressive) probabilities per infoset, in all_infoset_keys()
    order. Fraction(float) is exact, so float-valued profiles verify
    exactly too."""
    aggressive = [Fraction(profile[key]) for key in game.all_infoset_keys()]
    return [(1 - p, p) for p in aggressive]


def _reaches(probabilities: list[tuple[Fraction, Fraction]], deal: int,
             skip: int = 0) -> list[Fraction]:
    """Chance-weighted probability of reaching each of the 25 nodes in deal
    number `deal`, in node order; the actions of seat `skip` count as
    certain."""
    infosets = _INFOSET[deal]
    reach = [_CHANCE]
    for path in game.PATHS[1:]:
        m, action = path[-1]  # the parent, and the action taken there
        r = reach[m]
        reach.append(r if DECISION_SEAT[m] == skip else r * probabilities[infosets[m]][action])
    return reach


def expected_values(profile: StrategyProfile) -> ValueVector:
    """Exact per-seat expected net chips per hand under `profile`,
    over all 24 equiprobable deals. Components sum to zero."""
    probabilities = _action_probabilities(profile)
    totals = [_ZERO, _ZERO, _ZERO]
    for deal, payoffs in enumerate(_PAYOFFS):
        reach = _reaches(probabilities, deal)
        for n in range(N_DECISIONS, _N_NODES):
            if reach[n]:
                for i in range(3):
                    totals[i] += reach[n] * payoffs[n][i]
    return (totals[0], totals[1], totals[2])


@dataclass
class BestResponseResult:
    """A seat's best payoff against the other two seats' fixed strategies.

    `br_strategy` maps the seat's 16 infosets to a pure (0 or 1)
    aggressive probability. `infoset_values` holds the pair of
    opponent-reach-weighted action values (passive, aggressive) seen at
    each infoset during the expectimax; `evaluations` is set only by the
    brute-force oracle.
    """

    seat: int
    br_value: Fraction
    br_strategy: dict[InfoSetKey, Fraction]
    infoset_values: dict[InfoSetKey, tuple[Fraction, Fraction]] = field(
        default_factory=dict
    )
    evaluations: int | None = None


def best_response(profile: StrategyProfile, seat: int) -> BestResponseResult:
    """Expectimax best response for `seat` holding the other seats fixed.

    For each card the seat may hold, values are backed up from the
    terminals in reverse node order over the deals that share that card,
    each deal weighted by its opponent-only reach: opponent nodes add
    their children's values, own nodes take the better child. Exact ties
    pick the passive action. An own infoset enters `infoset_values` only
    when some deal reaches it with nonzero opponent weight.
    """
    if seat not in SEATS:
        raise ValueError(f"seat must be one of {SEATS}, got {seat}")
    probabilities = _action_probabilities(profile)
    reaches = [_reaches(probabilities, deal, skip=seat) for deal in range(len(DEALS))]
    chosen: dict[InfoSetKey, Fraction] = {}
    infoset_values: dict[InfoSetKey, tuple[Fraction, Fraction]] = {}
    total = _ZERO
    for card in CARDS:
        deals = [d for d, cards in enumerate(DEALS) if cards[seat - 1] == card]
        value = [_ZERO] * _N_NODES
        for n in range(N_DECISIONS, _N_NODES):
            value[n] = sum((reaches[d][n] * _PAYOFFS[d][n][seat - 1]
                            for d in deals if reaches[d][n]), _ZERO)
        for n in reversed(range(N_DECISIONS)):
            v_passive = value[PASSIVE_CHILD[n]]
            v_aggressive = value[AGGRESSIVE_CHILD[n]]
            if DECISION_SEAT[n] != seat:
                value[n] = v_passive + v_aggressive
                continue
            key = InfoSetKey(seat, card, DECISION_SITUATION[n])
            if any(reaches[d][n] for d in deals):
                infoset_values[key] = (v_passive, v_aggressive)
            take_aggressive = v_aggressive > v_passive
            chosen[key] = Fraction(1) if take_aggressive else Fraction(0)
            value[n] = v_aggressive if take_aggressive else v_passive
        total += value[0]
    return BestResponseResult(seat, total, chosen, infoset_values)


def pure_strategy_oracle(profile: StrategyProfile, seat: int) -> BestResponseResult:
    """Brute-force best response: evaluate all 65,536 pure strategies.

    A pure strategy is 16 bits, one per (card, situation) of the seat;
    bit set means the aggressive action. The seat's expected value splits
    by its own card into four independent 4-bit tables, so each candidate
    is an exact four-term sum over a common denominator.
    """
    if seat not in SEATS:
        raise ValueError(f"seat must be one of {SEATS}, got {seat}")

    # masks[t]: the 4-bit sub-strategies (bit sit - 1 set means aggressive
    # in situation sit) that make the seat's own choices on the path to
    # terminal t.
    masks = [
        [m for m in range(16)
         if all(m >> (DECISION_SITUATION[n] - 1) & 1 == action
                for n, action in path if DECISION_SEAT[n] == seat)]
        for path in game.PATHS[N_DECISIONS:]
    ]
    # tables[c][m] = value of playing 4-bit sub-strategy m when holding
    # card index c, summed over consistent deals and terminals.
    probabilities = _action_probabilities(profile)
    tables = [[_ZERO] * 16 for _ in CARDS]
    for deal, cards in enumerate(DEALS):
        table = tables[CARD_INDEX[cards[seat - 1]] - 1]
        reach = _reaches(probabilities, deal, skip=seat)
        for n, compatible in enumerate(masks, start=N_DECISIONS):
            weight = reach[n] * _PAYOFFS[deal][n][seat - 1]
            if weight == 0:
                continue
            for m in compatible:
                table[m] += weight

    denom = math.lcm(*(v.denominator for row in tables for v in row))
    ints = [[int(v * denom) for v in row] for row in tables]
    t_j, t_q, t_k, t_a = ints

    values = [
        t_j[m & 15] + t_q[m >> 4 & 15] + t_k[m >> 8 & 15] + t_a[m >> 12]
        for m in range(1 << 16)
    ]
    # max() keeps the first maximizer; ascending masks make that the
    # candidate with aggressive bits only where they are forced.
    best_mask = max(range(1 << 16), key=values.__getitem__)

    br_strategy = {}
    for card in CARDS:
        offset = 4 * (CARD_INDEX[card] - 1)
        for sit in (1, 2, 3, 4):
            bit = best_mask >> (offset + sit - 1) & 1
            br_strategy[InfoSetKey(seat, card, sit)] = Fraction(bit)
    return BestResponseResult(
        seat,
        Fraction(values[best_mask], denom),
        br_strategy,
        evaluations=1 << 16,
    )


def epsilon(profile: StrategyProfile) -> Fraction:
    """Largest unilateral gain any seat can get by deviating; exactly
    zero iff `profile` is a Nash equilibrium."""
    evs = expected_values(profile)
    return max(best_response(profile, seat).br_value - evs[seat - 1] for seat in SEATS)


@dataclass
class SeatGap:
    seat: int
    ev: Fraction
    br_value: Fraction
    gap: Fraction
    # infosets where the best response strictly beats the profile's own
    # mixture, with the local improvement (opponent-reach weighted).
    deviations: list[tuple[InfoSetKey, Fraction]]


@dataclass
class EpsilonReport:
    """Per-seat equilibrium diagnostics plus the overall gap."""

    seats: list[SeatGap]

    @property
    def epsilon(self) -> Fraction:
        return max(s.gap for s in self.seats)

    def render(self) -> str:
        # Exact fractions are printed only while they stay readable; the
        # huge denominators of float-valued profiles add nothing.
        def exact(v: Fraction) -> str:
            return f"{v} " if v.denominator <= 10**6 else ""

        lines = []
        for s in self.seats:
            lines.append(
                f"seat {s.seat}: ev = {exact(s.ev)}({float(s.ev):+.6f})  "
                f"best response = {exact(s.br_value)}({float(s.br_value):+.6f})  "
                f"gap = {exact(s.gap)}({float(s.gap):.3e})"
            )
            for key, gain in s.deviations:
                lines.append(
                    f"    deviate at seat {key.seat} card {key.card} "
                    f"situation {key.situation}: gain {exact(gain)}({float(gain):.3e})"
                )
        lines.append(f"epsilon = {exact(self.epsilon)}({float(self.epsilon):.3e})")
        return "\n".join(lines)


def epsilon_report(profile: StrategyProfile) -> EpsilonReport:
    """Where and by how much each seat could profit by deviating."""
    evs = expected_values(profile)
    seats = []
    for seat in SEATS:
        br = best_response(profile, seat)
        deviations = []
        for key, (v_passive, v_aggressive) in sorted(
            br.infoset_values.items(), key=lambda kv: kv[0].sort_index()
        ):
            p = Fraction(profile[key])
            held = p * v_aggressive + (1 - p) * v_passive
            gain = max(v_passive, v_aggressive) - held
            if gain > 0:
                deviations.append((key, gain))
        seats.append(
            SeatGap(seat, evs[seat - 1], br.br_value, br.br_value - evs[seat - 1], deviations)
        )
    return EpsilonReport(seats)


# ---------------------------------------------------------------------------
# Counterfactual regret minimization
# ---------------------------------------------------------------------------

_N_KEYS = len(game.all_infoset_keys())
_PASSIVE, _AGGRESSIVE = 0, 1  # action columns of the CFR arrays
_N_DEALS = len(DEALS)
_CHANCE_F = 1.0 / _N_DEALS
_DECISIONS = np.arange(N_DECISIONS)
_ACTOR = np.array(DECISION_SEAT) - 1
_CHILD_NODES = np.array([PASSIVE_CHILD, AGGRESSIVE_CHILD])  # (action, decision node)
_ONE_ROW = np.ones((1, _N_DEALS))
#: (decision node, seat - 1, slot) -> row, in _ONE_ROW stacked on the
#: flattened probability[action, decision node], of the seat's slot-th
#: action on the node's root path: 1 + action * 12 + m for an action at
#: node m, or row 0 (the ones) where the seat has no such action.
_OWN_ACTIONS = np.array([
    [([1 + a * N_DECISIONS + m for m, a in path if DECISION_SEAT[m] == seat] + [0, 0])[:2]
     for seat in SEATS]
    for path in game.PATHS[:N_DECISIONS]])
#: (decision node, deal) -> infoset index.
_NODE_INFOSETS = game.INFOSET_INDEX.T
#: (terminal, deal, seat - 1) -> net chips.
_TERMINAL_PAYOFFS = game.PAYOFFS[:, N_DECISIONS:].transpose(1, 0, 2).astype(np.float64)


class CfrTrainer:
    """Vanilla CFR over the full game, one exhaustive sweep per iteration.

    State is the classic regret/average-strategy pair per infoset and
    action. The current policy is regret matching on the positive part of
    the cumulative regrets, uniform where none are positive, and reaches
    come from root paths. Full deal enumeration leaves nothing to sample,
    so training is deterministic.
    """

    def __init__(self) -> None:
        self.iteration_count = 0
        self.cumulative_regret = np.zeros((_N_KEYS, 2), dtype=np.float64)
        self.cumulative_strategy = np.zeros((_N_KEYS, 2), dtype=np.float64)

    def current_policy(self) -> np.ndarray:
        """(48, 2) action distribution per infoset via regret matching."""
        positive = np.maximum(self.cumulative_regret, 0.0)
        norms = positive.sum(axis=1, keepdims=True)
        uniform = np.full_like(positive, 0.5)
        with np.errstate(invalid="ignore"):
            matched = positive / norms
        return np.where(norms > 0, matched, uniform)

    def run(self, iterations: int) -> "CfrTrainer":
        if iterations < 0:
            raise ValueError("iterations must be nonnegative")
        for _ in range(iterations):
            self._sweep()
            self.iteration_count += 1
        return self

    def _sweep(self) -> None:
        # probability[action, decision node, deal] under regret matching.
        probability = self.current_policy().T[:, _NODE_INFOSETS]
        # reach[decision node, seat - 1, deal]: the product of the seat's
        # own (at most two) action probabilities on the node's root path.
        # 1.0 * p1 * p2 == p1 * p2, so a parents-first walk gives the same.
        slots = np.concatenate((_ONE_ROW, probability.reshape(-1, _N_DEALS)))[_OWN_ACTIONS]
        reach = slots[:, :, 0] * slots[:, :, 1]
        # value[node, deal, seat - 1]: expected chips, children first.
        value = np.empty((_N_NODES, _N_DEALS, 3))
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
            np.add.at(self.cumulative_regret[:, action], _NODE_INFOSETS,
                      counterfactual * (value[child, :, _ACTOR] - actor_value))
            np.add.at(self.cumulative_strategy[:, action], _NODE_INFOSETS,
                      own * probability[action])

    def average_profile(self) -> StrategyProfile:
        """Normalized average strategy; uniform at never-reached infosets
        (and everywhere after zero iterations)."""
        sums = self.cumulative_strategy
        norms = sums.sum(axis=1)
        aggressive = np.where(
            norms > 0, sums[:, _AGGRESSIVE] / np.where(norms > 0, norms, 1.0), 0.5
        )
        return StrategyProfile(
            {key: float(aggressive[i]) for i, key in enumerate(game.all_infoset_keys())}
        )


def cfr_train(iterations: int) -> StrategyProfile:
    """Average profile of `iterations` vanilla-CFR sweeps; uniform when
    `iterations` is zero."""
    return CfrTrainer().run(iterations).average_profile()
