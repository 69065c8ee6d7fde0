"""The exact routines in `Fraction` arithmetic, kept as the reference.

`equilibrium` computes on integer numerators over one common
denominator. These are its earlier `Fraction` versions: a table per
card of chance- and opponent-weighted reaches and terminal values, the
expectimax backup over it, and a plain per-mask loop over all 65,536
pure strategies that keeps the lowest-mask maximizer. The backup and the
loop return `BestResponseResult`s, whose fields the tests compare with
`equilibrium`'s; `action_values` gives the values the backup compares.
"""

from __future__ import annotations

import math
from fractions import Fraction

from kuhn3p import game
from kuhn3p.equilibrium import BestResponseResult
from kuhn3p.game import (AGGRESSIVE_CHILD, CARDS, CARD_INDEX, DEALS, DECISION_SEAT,
                         DECISION_SITUATION, KEY_INDEX, N_DECISIONS, PASSIVE_CHILD, InfoSetKey)

_CHANCE = Fraction(1, len(DEALS))
_INFOSET = game.INFOSET_INDEX.tolist()
_PAYOFFS = game.PAYOFFS.tolist()


def action_probabilities(profile):
    """(passive, aggressive) `Fraction`s per infoset, in all_infoset_keys() order."""
    aggressive = [Fraction(profile[key]) for key in game.all_infoset_keys()]
    return [(1 - p, p) for p in aggressive]


def card_tables(probabilities, seat):
    """Per card index of `seat`, a row over the 25 nodes summed over the
    six deals in which the seat holds that card: at a decision node the
    chance- and opponent-weighted reach, at a terminal that reach times the
    seat's payoff. `probabilities` holds a (passive, aggressive) pair per
    infoset, which need not sum to one."""
    tables = [[Fraction(0)] * len(game.NODES) for _ in CARDS]
    for deal, cards in enumerate(DEALS):
        infosets, payoffs = _INFOSET[deal], _PAYOFFS[deal]
        row = tables[CARD_INDEX[cards[seat - 1]] - 1]
        row[0] += _CHANCE
        reach = [_CHANCE]
        for n, path in enumerate(game.PATHS[1:], start=1):
            m, action = path[-1]
            r = reach[m]
            if r and DECISION_SEAT[m] != seat:
                r = r * probabilities[infosets[m]][action]
            reach.append(r)
            if r:
                row[n] += r if n < N_DECISIONS else r * payoffs[n][seat - 1]
    return tables


def _backup(profile, seat):
    """The expectimax backup in `Fraction`s: the best response, and the
    (passive, aggressive) action values of each own infoset reached with
    nonzero opponent weight."""
    probabilities = action_probabilities(profile)
    chosen, values, deviations = {}, {}, []
    total = ev = Fraction(0)
    for card, row in zip(CARDS, card_tables(probabilities, seat)):
        value, mixed = row[:], row[:]
        for n in reversed(range(N_DECISIONS)):
            passive, aggressive = PASSIVE_CHILD[n], AGGRESSIVE_CHILD[n]
            if DECISION_SEAT[n] != seat:
                value[n] = value[passive] + value[aggressive]
                mixed[n] = mixed[passive] + mixed[aggressive]
                continue
            key = InfoSetKey(seat, card, DECISION_SITUATION[n])
            v_passive, v_aggressive = value[passive], value[aggressive]
            take_aggressive = v_aggressive > v_passive
            chosen[key] = Fraction(int(take_aggressive))
            value[n] = v_aggressive if take_aggressive else v_passive
            p_passive, p_aggressive = probabilities[KEY_INDEX[key]]
            mixed[n] = p_passive * mixed[passive] + p_aggressive * mixed[aggressive]
            if row[n]:
                values[key] = (v_passive, v_aggressive)
                worse = p_passive if take_aggressive else p_aggressive
                gain = worse * abs(v_aggressive - v_passive)
                if gain > 0:
                    deviations.append((key, gain))
        total += value[0]
        ev += mixed[0]
    deviations.sort(key=lambda deviation: KEY_INDEX[deviation[0]])
    return BestResponseResult(seat, total, chosen, ev=ev, gap=total - ev,
                              deviations=deviations), values


def best_response(profile, seat):
    """Expectimax best response, backed up in `Fraction`s."""
    return _backup(profile, seat)[0]


def action_values(profile, seat):
    """Per own infoset of `seat` reached with nonzero opponent weight, its
    opponent-reach-weighted (passive, aggressive) action values."""
    return _backup(profile, seat)[1]


def mask_values(profile, seat):
    """(values, denominator): values[mask] / denominator is the seat's
    value of the pure strategy `mask`, in which bit 4 * c + situation - 1
    set means aggressive with card index c in that situation. The card
    tables are scaled to integers by the lcm of their denominators."""
    # table[c][m]: playing 4-bit sub-strategy m with card index c.
    table = [[sum((weight for weight, path in zip(row[N_DECISIONS:], game.PATHS[N_DECISIONS:])
                   if all(m >> (DECISION_SITUATION[n] - 1) & 1 == action
                          for n, action in path if DECISION_SEAT[n] == seat)), Fraction(0))
              for m in range(16)]
             for row in card_tables(action_probabilities(profile), seat)]
    denominator = math.lcm(*(v.denominator for row in table for v in row))
    t_j, t_q, t_k, t_a = [[int(v * denominator) for v in row] for row in table]
    values = [t_j[mask & 15] + t_q[mask >> 4 & 15] + t_k[mask >> 8 & 15] + t_a[mask >> 12]
              for mask in range(1 << 16)]
    return values, denominator


def pure_strategy(seat, mask):
    """The seat's pure strategy `mask`, as `br_strategy` holds it."""
    return {InfoSetKey(seat, card, sit): Fraction(mask >> (4 * c + sit - 1) & 1)
            for c, card in enumerate(CARDS) for sit in (1, 2, 3, 4)}


def pure_strategy_oracle(profile, seat):
    """Every pure strategy's value, one mask at a time: the lowest mask
    among the maximizers wins."""
    values, denominator = mask_values(profile, seat)
    best_mask = 0
    for mask, value in enumerate(values):
        if value > values[best_mask]:
            best_mask = mask
    return BestResponseResult(seat, Fraction(values[best_mask], denominator),
                              pure_strategy(seat, best_mask), evaluations=len(values))
