"""Exact game values, best responses, equilibrium gap, and CFR training.

Every routine here walks the compiled tree of `game`: node ids in
parent-before-child order, the child tables and root paths, the per-deal
infoset index and the payoff array. None of them touches a history string.

Verification runs in exact rational arithmetic: profile probabilities are
converted to `Fraction` (exact even for floats), expectations are taken
over the 24 equiprobable deals, and a profile is an equilibrium iff its
gap `epsilon` is exactly zero. A seat's payoff is linear in its own
strategy; one pass over the deals (`_card_tables`) sums, per card the
seat may hold, its opponent-weighted reach and terminal values, and every
exact routine reads that table. Two independent routes maximize it:

  * `best_response` backs each card's row up in reverse node order,
    maximizing at the seat's own nodes (ties go to the passive action)
    and, alongside, mixing by the profile to give the seat's value `ev`;
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
                   KEY_INDEX, N_DECISIONS, PASSIVE_CHILD, SEATS, InfoSetKey)
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


def _card_tables(probabilities: list[tuple[Fraction, Fraction]],
                 seat: int) -> list[list[Fraction]]:
    """Per card index of `seat`, a row over the 25 nodes summed over the
    six deals in which the seat holds that card: at a decision node the
    chance- and opponent-weighted reach, at a terminal that reach times the
    seat's payoff. The seat's own actions count as certain."""
    tables = [[_ZERO] * _N_NODES for _ in CARDS]
    for deal, cards in enumerate(DEALS):
        infosets, payoffs = _INFOSET[deal], _PAYOFFS[deal]
        row = tables[CARD_INDEX[cards[seat - 1]] - 1]
        row[0] += _CHANCE
        reach = [_CHANCE]
        for n, path in enumerate(game.PATHS[1:], start=1):
            m, action = path[-1]  # the parent, and the action taken there
            r = reach[m]
            if r and DECISION_SEAT[m] != seat:
                r = r * probabilities[infosets[m]][action]
            reach.append(r)
            if r:
                row[n] += r if n < N_DECISIONS else r * payoffs[n][seat - 1]
    return tables


@dataclass
class BestResponseResult:
    """A seat's best payoff against the other two seats' fixed strategies.

    `br_strategy` maps the seat's 16 infosets to a pure (0 or 1)
    aggressive probability. `infoset_values` holds the pair of
    opponent-reach-weighted action values (passive, aggressive) seen at
    each infoset during the expectimax. `ev` is the seat's own expected
    value under the profile, from the same backup; `evaluations` is set,
    and `ev` left None, only by the brute-force oracle.
    """

    seat: int
    br_value: Fraction
    br_strategy: dict[InfoSetKey, Fraction]
    infoset_values: dict[InfoSetKey, tuple[Fraction, Fraction]] = field(
        default_factory=dict
    )
    evaluations: int | None = None
    ev: Fraction | None = None


def best_response(profile: StrategyProfile, seat: int) -> BestResponseResult:
    """Expectimax best response for `seat` holding the other seats fixed.

    Each card's row of `_card_tables` is backed up in reverse node order,
    two values per node: opponent nodes add their children's values; own
    nodes take the better child (exact ties pick the passive action) and,
    for `ev`, mix the children by the profile. An own infoset enters
    `infoset_values` only when its table entry is nonzero, that is, when
    some deal reaches it with nonzero opponent weight.
    """
    if seat not in SEATS:
        raise ValueError(f"seat must be one of {SEATS}, got {seat}")
    probabilities = _action_probabilities(profile)
    chosen: dict[InfoSetKey, Fraction] = {}
    infoset_values: dict[InfoSetKey, tuple[Fraction, Fraction]] = {}
    total = ev = _ZERO
    for card, row in zip(CARDS, _card_tables(probabilities, seat)):
        value, mixed = row[:], row[:]  # the terminals hold their own values
        for n in reversed(range(N_DECISIONS)):
            passive, aggressive = PASSIVE_CHILD[n], AGGRESSIVE_CHILD[n]
            if DECISION_SEAT[n] != seat:
                value[n] = value[passive] + value[aggressive]
                mixed[n] = mixed[passive] + mixed[aggressive]
                continue
            key = InfoSetKey(seat, card, DECISION_SITUATION[n])
            v_passive, v_aggressive = value[passive], value[aggressive]
            if row[n]:
                infoset_values[key] = (v_passive, v_aggressive)
            take_aggressive = v_aggressive > v_passive
            chosen[key] = Fraction(1) if take_aggressive else Fraction(0)
            value[n] = v_aggressive if take_aggressive else v_passive
            p_passive, p_aggressive = probabilities[KEY_INDEX[key]]
            mixed[n] = p_passive * mixed[passive] + p_aggressive * mixed[aggressive]
        total += value[0]
        ev += mixed[0]
    return BestResponseResult(seat, total, chosen, infoset_values, ev=ev)


def expected_values(profile: StrategyProfile) -> ValueVector:
    """Exact per-seat expected net chips per hand under `profile`,
    over all 24 equiprobable deals: each seat's best-response `ev`.
    Components sum to zero."""
    return tuple(best_response(profile, seat).ev for seat in SEATS)


def pure_strategy_oracle(profile: StrategyProfile, seat: int) -> BestResponseResult:
    """Brute-force best response: evaluate all 65,536 pure strategies.

    A pure strategy is 16 bits, one per (card, situation) of the seat;
    bit set means the aggressive action. The seat's expected value splits
    by its own card into four independent 4-bit tables, each summing the
    card's `_card_tables` terminal row over the terminals a sub-strategy
    can reach, so each candidate is an exact four-term sum over a common
    denominator.
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
    # card index c, summed over consistent terminals.
    tables = []
    for row in _card_tables(_action_probabilities(profile), seat):
        table = [_ZERO] * 16
        for weight, compatible in zip(row[N_DECISIONS:], masks):
            if weight:
                for m in compatible:
                    table[m] += weight
        tables.append(table)

    denom = math.lcm(*(v.denominator for row in tables for v in row))
    t_j, t_q, t_k, t_a = [[int(v * denom) for v in row] for row in tables]
    values = [t_j[m & 15] + t_q[m >> 4 & 15] + t_k[m >> 8 & 15] + t_a[m >> 12]
              for m in range(1 << 16)]
    # max() keeps the first maximizer; ascending masks make that the
    # candidate with aggressive bits only where they are forced.
    best_mask = max(range(1 << 16), key=values.__getitem__)

    br_strategy = {InfoSetKey(seat, card, sit): Fraction(best_mask >> (4 * c + sit - 1) & 1)
                   for c, card in enumerate(CARDS) for sit in (1, 2, 3, 4)}
    return BestResponseResult(seat, Fraction(values[best_mask], denom), br_strategy,
                              evaluations=1 << 16)


def epsilon(profile: StrategyProfile) -> Fraction:
    """Largest unilateral gain any seat can get by deviating; exactly
    zero iff `profile` is a Nash equilibrium."""
    responses = [best_response(profile, seat) for seat in SEATS]
    return max(br.br_value - br.ev for br in responses)


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
            SeatGap(seat, br.ev, br.br_value, br.br_value - br.ev, deviations)
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
