"""Exact game values, best responses, equilibrium gap, and CFR training.

Every routine here walks the compiled tree of `game`: node ids in
parent-before-child order, the child tables and root paths, the per-deal
infoset index and the payoff array. None of them touches a history string.

Verification is exact and runs on integers: a profile's probabilities
become integer numerators over D, the lcm of their denominators (exact
even for floats), and every reach and value over the 24 equiprobable
deals is a numerator over one denominator, 24 * D**5. Only returned
values are `Fraction`s, and a profile is an equilibrium iff its gap
`epsilon` is exactly zero. A seat's payoff is linear in its own strategy;
one pass over the deals (`_card_tables`) sums, per card the seat may
hold, its opponent-weighted reach and terminal values, and every exact
routine reads that table. Two independent routes maximize it:

  * `best_response` backs each card's row up in reverse node order,
    maximizing at the seat's own nodes (ties go to the passive action)
    and, alongside, mixing by the profile to give the seat's value `ev`;
  * `pure_strategy_oracle` enumerates all 2^16 = 65,536 pure strategies
    for the seat over its 16 infosets and evaluates each one exactly.

A seat's verdict is its one `BestResponseResult`: `ev`, `br_value`, their
difference `gap`, and the `deviations` where the best response locally
beats the profile. `epsilon_report` holds the three seats' verdicts, and
`epsilon` is their largest gap.

`CfrTrainer` implements vanilla counterfactual regret minimization:
every iteration enumerates all 24 deals, updates all three seats'
regrets simultaneously under the regret-matching policy, and accumulates
the reach-weighted average strategy. Each sweep reads every decision
node's reaches off its root path in one numpy gather, then backs values
up the tree one depth at a time, deals innermost: each depth is one
multiply and one add into a child-pair array, where a node's two
children sit side by side and each depth's children fill one block. One
ordered reduction applies each infoset's updates in deal order, so
every float is that of a deal-by-deal accumulation. Training is fully
deterministic (there is no sampling).
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

_N_DEALS = len(DEALS)
_INFOSET = game.INFOSET_INDEX.tolist()  # Python ints: numpy integers would overflow
_PAYOFFS = game.PAYOFFS.tolist()
#: The most decisions on any root path (5).
_L = max(len(path) for path in game.PATHS)
#: Per seat - 1: its 16 keys in all_infoset_keys() order. The key of the c-th
#: card in situation sit is number 4 * c + sit - 1, its bit in a pure strategy.
_OWN_KEYS = [game.all_infoset_keys()[16 * i:16 * i + 16] for i in range(len(SEATS))]
_PURE = (Fraction(0), Fraction(1))


def _action_probabilities(profile: StrategyProfile) -> tuple[int, list[tuple[int, int]]]:
    """D, the lcm of the profile's 48 denominators, and per infoset, in
    all_infoset_keys() order, the integer (passive, aggressive) numerators
    over D. Fraction(float) is exact, so floats verify exactly too."""
    aggressive = [Fraction(profile[key]) for key in game.all_infoset_keys()]
    d = math.lcm(*(p.denominator for p in aggressive))
    return d, [(d - a, a) for a in (p.numerator * (d // p.denominator) for p in aggressive)]


def _card_tables(denominator: int, probabilities: list[tuple[int, int]],
                 seat: int) -> list[list[int]]:
    """Per card index of `seat`, a row over the 25 nodes summed over the
    six deals in which the seat holds that card: at a decision node the
    chance- and opponent-weighted reach, at a terminal that reach times the
    seat's payoff. The seat's own actions count as certain, numerator D.
    Entries are integer numerators over 24 * D**L, L the most decisions
    on a root path: each decision contributes one numerator over D, so a
    node j decisions deep is scaled by D**(L - j)."""
    tables = [[0] * len(game.NODES) for _ in CARDS]
    for deal, cards in enumerate(DEALS):
        infosets, payoffs = _INFOSET[deal], _PAYOFFS[deal]
        row = tables[CARD_INDEX[cards[seat - 1]] - 1]
        row[0] += 1
        reach = [1]
        for n, path in enumerate(game.PATHS[1:], start=1):
            m, action = path[-1]  # the parent, and the action taken there
            r = reach[m]
            if r:
                r *= denominator if DECISION_SEAT[m] == seat else probabilities[infosets[m]][action]
            reach.append(r)
            if r:
                row[n] += r if n < N_DECISIONS else r * payoffs[n][seat - 1]
    scale = [denominator ** (_L - len(path)) for path in game.PATHS]
    return [[v * s for v, s in zip(row, scale)] for row in tables]


@dataclass
class BestResponseResult:
    """A seat's best payoff against the other two seats' fixed strategies.

    `br_strategy` maps the seat's 16 infosets to a pure (0 or 1)
    aggressive probability. `ev` is the seat's own expected value under
    the profile, from the same backup, and `gap` is `br_value - ev`.
    `deviations` lists, in `KEY_INDEX` order, the infosets where the
    best response strictly beats the profile's own mixture, with that
    local, opponent-reach-weighted gain. Only the brute-force oracle sets
    `evaluations`; it leaves `ev` and `gap` None and `deviations` empty.
    """

    seat: int
    br_value: Fraction
    br_strategy: dict[InfoSetKey, Fraction]
    evaluations: int | None = None
    ev: Fraction | None = None
    gap: Fraction | None = None
    deviations: list[tuple[InfoSetKey, Fraction]] = field(default_factory=list)


def best_response(profile: StrategyProfile, seat: int) -> BestResponseResult:
    """Expectimax best response for `seat` holding the other seats fixed.

    Each card's row of `_card_tables` is backed up in reverse node order,
    two values per node: opponent nodes add their children's values; own
    nodes take the better child (exact ties pick the passive action) and,
    for `ev`, mix the children by the profile. An own infoset whose table
    entry is nonzero (some deal reaches it with nonzero opponent weight)
    enters `deviations` if its gain, the better child less the profile's
    mixture of the two, is positive.

    Both values are integer numerators over the tables' one denominator,
    so ties are integer ties. The mixture divides by D exactly: each
    child's sum carries the D of the own step into it.
    """
    if seat not in SEATS:
        raise ValueError(f"seat must be one of {SEATS}, got {seat}")
    denominator, probabilities = _action_probabilities(profile)
    value_denominator = _N_DEALS * denominator ** _L
    chosen: dict[InfoSetKey, Fraction] = {}
    gains: list[tuple[InfoSetKey, int]] = []
    total = ev = 0
    for c, row in enumerate(_card_tables(denominator, probabilities, seat)):
        value = row[:]  # the terminals hold their own values
        mixed = row[:]
        for n in reversed(range(N_DECISIONS)):
            passive, aggressive = PASSIVE_CHILD[n], AGGRESSIVE_CHILD[n]
            if DECISION_SEAT[n] != seat:
                value[n] = value[passive] + value[aggressive]
                mixed[n] = mixed[passive] + mixed[aggressive]
                continue
            key = _OWN_KEYS[seat - 1][4 * c + DECISION_SITUATION[n] - 1]
            v_passive, v_aggressive = value[passive], value[aggressive]
            take_aggressive = v_aggressive > v_passive
            chosen[key] = _PURE[take_aggressive]
            value[n] = v_aggressive if take_aggressive else v_passive
            p_passive, p_aggressive = probabilities[KEY_INDEX[key]]
            mixed[n] = (p_passive * mixed[passive] + p_aggressive * mixed[aggressive]) // denominator
            if row[n]:
                # p_passive + p_aggressive == D, so the mixture falls short of
                # the better child by the worse action's share of the gap.
                gain = (p_passive if take_aggressive else p_aggressive) * abs(v_aggressive - v_passive)
                if gain > 0:
                    gains.append((key, gain))
        total += value[0]
        ev += mixed[0]
    deviations = [(key, Fraction(gain, value_denominator * denominator))
                  for key, gain in sorted(gains, key=lambda gain: KEY_INDEX[gain[0]])]
    br_value = Fraction(total, value_denominator)
    ev = Fraction(ev, value_denominator)
    return BestResponseResult(seat, br_value, chosen, ev=ev, gap=br_value - ev,
                              deviations=deviations)


def expected_values(profile: StrategyProfile) -> tuple[Fraction, Fraction, Fraction]:
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

    # masks[t]: the 4-bit sub-strategies (bit sit - 1 set means aggressive in
    # situation sit) that make the seat's own choices on the path to terminal t.
    masks = [{m for m in range(16)
              if all(m >> (DECISION_SITUATION[n] - 1) & 1 == action
                     for n, action in path if DECISION_SEAT[n] == seat)}
             for path in game.PATHS[N_DECISIONS:]]
    # t_c[m]: sub-strategy m's value with card c, summed over consistent terminals.
    denominator, probabilities = _action_probabilities(profile)
    t_j, t_q, t_k, t_a = [[sum(w for w, fits in zip(row[N_DECISIONS:], masks) if m in fits)
                           for m in range(16)]
                          for row in _card_tables(denominator, probabilities, seat)]

    # values[m] for every mask m = a << 12 | k << 8 | q << 4 | j, as two
    # outer sums: the jack's and queen's bits, then the king's and ace's.
    low = [j + q for q in t_q for j in t_j]
    high = [k + a for a in t_a for k in t_k]
    values = [lo + hi for hi in high for lo in low]
    # index() finds the first maximizer; ascending masks make that the
    # candidate with aggressive bits only where they are forced.
    best_mask = values.index(max(values))

    br_strategy = {key: _PURE[best_mask >> bit & 1] for bit, key in enumerate(_OWN_KEYS[seat - 1])}
    return BestResponseResult(seat, Fraction(values[best_mask], _N_DEALS * denominator ** _L),
                              br_strategy, evaluations=len(values))


@dataclass
class EpsilonReport:
    """The three seats' `best_response` verdicts (`ev`, `br_value`, `gap`
    and `deviations`), in seat order, plus the overall gap."""

    seats: list[BestResponseResult]

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
    """Where and by how much each seat could profit by deviating: each
    seat's `best_response`, whose `gap` and `deviations` say so."""
    return EpsilonReport([best_response(profile, seat) for seat in SEATS])


def epsilon(profile: StrategyProfile) -> Fraction:
    """Largest unilateral gain any seat can get by deviating; exactly
    zero iff `profile` is a Nash equilibrium."""
    return epsilon_report(profile).epsilon


# ---------------------------------------------------------------------------
# Counterfactual regret minimization
# ---------------------------------------------------------------------------

_N_KEYS = len(game.all_infoset_keys())
_CHANCE_F = 1.0 / _N_DEALS
#: The trainer's node axis, breadth first from the root: position ->
#: decision node. The node in position j has its children in slots 2j and
#: 2j + 1 of the child-pair array, and the root has the last slot.
_ORDER = sorted(range(N_DECISIONS), key=lambda n: (len(game.PATHS[n]), [a for _, a in game.PATHS[n]]))
_SLOT = [2 * N_DECISIONS] + [2 * _ORDER.index(m) + a for m, a in (path[-1] for path in game.PATHS[1:])]
#: Per depth, its run of positions. A run must fill contiguous slots, for
#: one multiply and one add to back it up.
_DEPTH = [len(game.PATHS[n]) for n in _ORDER]
_LEVELS = [range(_DEPTH.index(d), _DEPTH.index(d) + _DEPTH.count(d)) for d in range(_DEPTH[-1] + 1)]
_GAPS = [d for d, level in enumerate(_LEVELS) if len({_SLOT[_ORDER[j]] - j for j in level}) > 1]
if _GAPS:
    raise ValueError(f"level {_GAPS[0]}: its decision nodes do not fill contiguous slots")
#: (position, deal) -> infoset index.
_NODE_INFOSETS = game.INFOSET_INDEX.T[_ORDER]
#: (action, position, deal) -> index of the infoset's action in the
#: flattened (action, infoset) policy.
_POLICY_INDEX = np.array([_NODE_INFOSETS + action * _N_KEYS for action in (0, 1)])
#: (node, passive child, aggressive child) -> slot, per position.
_VALUE_SLOTS = np.array([[_SLOT[n] for n in _ORDER]] + [range(a, 2 * N_DECISIONS, 2) for a in (0, 1)])
_ACTOR = np.array(DECISION_SEAT)[_ORDER] - 1
#: (position, role, slot) -> row, in the trainer's probability buffer (row
#: 0 ones, then probability[action, position]), of the slot-th action on
#: the node's root path by the acting seat (role 0), the seat before it
#: (role 1) and the seat before that (role 2): 1 + action * 12 + position
#: for an action at a node, or row 0 where the seat has no such action.
_OWN_ACTIONS = np.array([
    [([1 + a * N_DECISIONS + _ORDER.index(m) for m, a in game.PATHS[n] if DECISION_SEAT[m] == seat]
      + [0, 0])[:2] for seat in ((DECISION_SEAT[n] - 1 - role) % 3 + 1 for role in range(3))]
    for n in _ORDER])
#: (k, update row, infoset) -> the index of the infoset's k-th update in the
#: flattened (update row, position, deal) updates. An infoset's six updates
#: lie on one decision node, so a stable sort puts them in deal order.
_INFOSET_ORDER = (np.argsort(_NODE_INFOSETS.ravel(), kind="stable").reshape(_N_KEYS, -1).T[:, None]
                  + np.arange(4)[:, None] * _NODE_INFOSETS.size)
#: (terminal, seat - 1, deal) -> net chips.
_TERMINAL_PAYOFFS = game.PAYOFFS[:, N_DECISIONS:].transpose(1, 2, 0).astype(np.float64)


class CfrTrainer:
    """Vanilla CFR over the full game, one exhaustive sweep per iteration.

    State is the classic regret/average-strategy pair per infoset and
    action: `cumulative_regret` and `cumulative_strategy` are (48, 2) views
    of one (4, 48) array of sums. The current policy is regret matching on
    the positive part of the cumulative regrets, uniform where none are
    positive, and reaches come from root paths. Full deal enumeration
    leaves nothing to sample, so training is deterministic.

    A sweep backs values up one level of `_LEVELS` at a time, deepest
    first, each one multiply by its block of child pairs and one add. Each
    infoset's six updates are stacked in deal order under a copy of the
    sums, and one reduction down the stack adds them row by row.
    """

    def __init__(self) -> None:
        self.iteration_count = 0
        # Rows: regret passive, regret aggressive, strategy passive,
        # strategy aggressive.
        self._sums = np.zeros((4, _N_KEYS))
        self.cumulative_regret = self._sums[:2].T
        self.cumulative_strategy = self._sums[2:].T
        # Row 0 ones, then probability[action, position, deal].
        self._rows = np.ones((1 + 2 * N_DECISIONS, _N_DEALS))
        self._probability = self._rows[1:].reshape(2, N_DECISIONS, _N_DEALS)
        # slots[position, role, slot, deal]: _OWN_ACTIONS' probabilities.
        self._slots = np.empty(_OWN_ACTIONS.shape + (_N_DEALS,))
        # kids[slot, seat - 1, deal]: the expected chips of the node in
        # each slot; the terminals' are fixed.
        self._kids = np.empty((2 * N_DECISIONS + 1, 3, _N_DEALS))
        self._kids[_SLOT[N_DECISIONS:]] = _TERMINAL_PAYOFFS
        # Per level, deepest first, each [action, position, ...]: its probabilities,
        # its children's values, their products, then its own slots' values.
        self._backup = []
        for level in reversed(_LEVELS):
            first, k, slot = level.start, len(level), _SLOT[_ORDER[level.start]]
            product = np.empty((2, k, 3, _N_DEALS))
            children = self._kids[2 * first:2 * (first + k)].reshape(k, 2, 3, _N_DEALS)
            self._backup.append((self._probability[:, first:first + k, None], children.swapaxes(0, 1),
                                 product, *product, self._kids[slot:slot + k]))
        # updates[regret passive, regret aggressive, strategy passive,
        # strategy aggressive][position, deal]
        self._updates = np.empty((4, N_DECISIONS, _N_DEALS))
        # Row 0 the sums, then row k + 1 each infoset's k-th updates.
        self._stack = np.empty((1 + len(_INFOSET_ORDER),) + self._sums.shape)

    def current_policy(self) -> np.ndarray:
        """(48, 2) action distribution per infoset via regret matching."""
        positive = np.maximum(self._sums[:2], 0.0)
        norms = positive[0] + positive[1]
        policy = np.full_like(positive, 0.5)
        np.divide(positive, norms, out=policy, where=norms > 0)
        return policy.T

    def run(self, iterations: int) -> "CfrTrainer":
        if iterations < 0:
            raise ValueError("iterations must be nonnegative")
        for _ in range(iterations):
            self._sweep()
            self.iteration_count += 1
        return self

    def _sweep(self) -> None:
        # The indices are in range, and mode="clip" spares a buffered copy.
        probability = self._probability
        np.take(self.current_policy().T, _POLICY_INDEX, out=probability, mode="clip")
        # reach[position, role, deal]: the product of the seat's own (at
        # most two) action probabilities on the node's root path.
        # 1.0 * p1 * p2 == p1 * p2, so a parents-first walk gives the same.
        slots = np.take(self._rows, _OWN_ACTIONS, axis=0, out=self._slots, mode="clip")
        reach = slots[:, :, 0] * slots[:, :, 1]
        weighted = _CHANCE_F * reach
        own = weighted[:, 0]
        counterfactual = weighted[:, 1] * reach[:, 2]

        for node_probability, children, product, passive, aggressive, value in self._backup:
            np.multiply(node_probability, children, out=product)
            np.add(passive, aggressive, out=value)
        # The acting seat's value at each node, then at its two children.
        values = self._kids[_VALUE_SLOTS, _ACTOR]

        updates, stack = self._updates, self._stack
        np.subtract(values[1:], values[0], out=updates[:2])
        np.multiply(updates[:2], counterfactual, out=updates[:2])
        np.multiply(own, probability, out=updates[2:])
        stack[0] = self._sums
        np.take(updates.ravel(), _INFOSET_ORDER, out=stack[1:], mode="clip")
        # Down axis 0 of a C-contiguous stack, the reduction adds row by row;
        # it starts from -0.0, not add's 0.0, so that a -0.0 sum stays -0.0.
        np.add.reduce(stack, axis=0, out=self._sums, initial=-0.0)

    def average_profile(self) -> StrategyProfile:
        """Normalized average strategy; uniform at never-reached infosets
        (and everywhere after zero iterations)."""
        passive, aggressive = self._sums[2:]
        norms = passive + aggressive
        average = np.divide(aggressive, norms, out=np.full_like(norms, 0.5), where=norms > 0)
        return StrategyProfile(dict(zip(game.all_infoset_keys(), average.tolist())))
