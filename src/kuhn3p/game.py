"""Rules engine for three-player Kuhn poker.

One betting round over a four-card deck (J < Q < K < A). Every seat antes
one chip and receives one private card. Seat 1 may check or bet one chip;
checks pass the action along, and once somebody bets the remaining seats
each respond once with call or fold. Hands end at one of 13 terminal
action strings:

    KKK                      three checks, three-way showdown
    B xy / KB xy / KKB xy    a bet by seat 1/2/3 followed by the two
                             responses x, y in {C, F}

The pot is the three antes plus one chip per B or C token. If both
responders fold the bettor takes the pot; otherwise the highest card
among the non-folded seats wins the showdown.

Histories and deals are plain strings ("KKBFC", "QKA") so they serialize
as themselves; the string functions below are the public rules API that
agents see. The same tree is also compiled to integer node ids and
tables, and a finished hand to one outcome index (end of module). Match
play, match logs and their replay, exact verification, CFR and the
opponent modeler walk those tables, so this module is the only one that
knows the tree's shape.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

# Domain aliases: cards, seats, actions, and histories are primitives.
Card = str
Seat = int
Action = str
ActionHistory = str
Deal = str

CARDS = ("J", "Q", "K", "A")

# Card index: J=1, Q=2, K=3, A=4. Doubles as the showdown ordering.
CARD_INDEX = {"J": 1, "Q": 2, "K": 3, "A": 4}

CHECK, BET, CALL, FOLD = "K", "B", "C", "F"

SEATS = (1, 2, 3)
NUM_SEATS = 3
ANTE = 1
BET_SIZE = 1


class IllegalHistoryError(ValueError):
    """Raised for action strings that no legal play sequence produces."""


class InfoSetKey(NamedTuple):
    """Everything the acting seat knows: where it sits, what it holds,
    and which of the four betting situations it faces."""

    seat: int
    card: str
    situation: int

    def sort_index(self) -> tuple[int, int, int]:
        return (self.seat, CARD_INDEX[self.card], self.situation)


# Betting situations, one table per seat: situation number -> the prior
# action string at which that seat acts.
SITUATION_HISTORIES = {
    1: {1: "", 2: "KKB", 3: "KBF", 4: "KBC"},
    2: {1: "K", 2: "B", 3: "KKBF", 4: "KKBC"},
    3: {1: "KK", 2: "KB", 3: "BF", 4: "BC"},
}

# Inverse map: decision history -> (acting seat, situation).
_DECISION_POINTS = {
    h: (seat, sit)
    for seat, table in SITUATION_HISTORIES.items()
    for sit, h in table.items()
}

TERMINAL_HISTORIES = tuple(
    ["KKK"]
    + [p + x + y for p in ("B", "KB", "KKB") for x in "CF" for y in "CF"]
)

_TERMINALS = frozenset(TERMINAL_HISTORIES)

DECISION_HISTORIES = tuple(sorted(_DECISION_POINTS, key=lambda h: (len(h), h)))

ALL_HISTORIES = tuple(sorted(
    DECISION_HISTORIES + TERMINAL_HISTORIES, key=lambda h: (len(h), h)
))


def enumerate_deals() -> tuple[str, ...]:
    """All 24 ordered deals of three distinct cards, as 3-char strings
    in seat order."""
    return tuple("".join(p) for p in itertools.permutations(CARDS, 3))


DEALS = enumerate_deals()


def is_terminal(history: str) -> bool:
    return history in _TERMINALS


def _require_known(history: str) -> None:
    if history not in _DECISION_POINTS and history not in _TERMINALS:
        raise IllegalHistoryError(f"illegal action history {history!r}")


def acting_seat(history: str) -> int | None:
    """Seat (1-3) to act at `history`, or None when the hand is over.

    Turn order is seat 1, 2, 3 while nobody has bet; after a bet the
    remaining seats respond once each, continuing in seat order and
    skipping the bettor.
    """
    _require_known(history)
    if history in _TERMINALS:
        return None
    return _DECISION_POINTS[history][0]


def action_pair(history: str) -> tuple[str, str]:
    """(passive, aggressive) actions at a decision history: (K, B) with
    no bet outstanding, (F, C) facing one."""
    _require_known(history)
    if history in _TERMINALS:
        raise IllegalHistoryError(f"no actions at terminal history {history!r}")
    return (CHECK, BET) if BET not in history else (FOLD, CALL)


def situation_of(seat: int, history: str) -> int:
    """Betting situation number (1-4) for `seat` acting at `history`."""
    _require_known(history)
    point = _DECISION_POINTS.get(history)
    if point is None or point[0] != seat:
        raise IllegalHistoryError(
            f"seat {seat} does not act at history {history!r}"
        )
    return point[1]


def infoset_key(seat: int, card: str, history: str) -> InfoSetKey:
    """Information-set key for `seat` holding `card` at `history`."""
    if card not in CARD_INDEX:
        raise ValueError(f"unknown card {card!r}")
    return InfoSetKey(seat, card, situation_of(seat, history))


def all_infoset_keys() -> tuple[InfoSetKey, ...]:
    """The 48 information sets, sorted by (seat, card index, situation)."""
    return _INFOSET_KEYS


# CARDS is in card-index order, so these are already sorted.
_INFOSET_KEYS = tuple(InfoSetKey(seat, card, sit)
                      for seat in SEATS for card in CARDS for sit in (1, 2, 3, 4))


def showdown_seats(history: str) -> tuple[int, ...]:
    """Seats that reveal at showdown; empty when the bettor wins by folds."""
    if history not in _TERMINALS:
        raise IllegalHistoryError(f"history {history!r} is not terminal")
    if history == "KKK":
        return SEATS
    bettor = history.index(BET) + 1
    responders = [(bettor + i - 1) % NUM_SEATS + 1 for i in (1, 2)]
    callers = [
        s for s, a in zip(responders, history[bettor:]) if a == CALL
    ]
    if not callers:
        return ()
    return tuple(sorted([bettor] + callers))


def contributions(history: str) -> tuple[int, int, int]:
    """Chips put in by each seat (ante plus any bet or call)."""
    if history not in _TERMINALS:
        raise IllegalHistoryError(f"history {history!r} is not terminal")
    paid = [ANTE] * NUM_SEATS
    if BET in history:
        bettor = history.index(BET) + 1
        paid[bettor - 1] += BET_SIZE
        responders = [(bettor + i - 1) % NUM_SEATS + 1 for i in (1, 2)]
        for s, a in zip(responders, history[bettor:]):
            if a == CALL:
                paid[s - 1] += BET_SIZE
    return tuple(paid)


def terminal_payoffs(deal: str, history: str) -> tuple[int, int, int]:
    """Net chips per seat (relative to the pre-ante stack) for a finished
    hand.

    The pot is every seat's contribution; the bettor takes it when both
    responders fold, otherwise the highest card among the non-folded
    seats does.
    """
    if sorted(deal) != sorted(set(deal)) or len(deal) != 3 \
            or any(c not in CARD_INDEX for c in deal):
        raise ValueError(f"invalid deal {deal!r}")
    paid = contributions(history)
    pot = sum(paid)
    live = showdown_seats(history)
    if live:
        winner = max(live, key=lambda s: CARD_INDEX[deal[s - 1]])
    else:
        # Everyone folded to the bet; the bettor never folds, so a
        # no-winner hand cannot occur.
        winner = history.index(BET) + 1
    return tuple(
        (pot if s == winner else 0) - paid[s - 1] for s in SEATS
    )


# deal string -> history -> payoff triple, as shown to observing agents.
PAYOFF_TABLE = {
    deal: {h: terminal_payoffs(deal, h) for h in TERMINAL_HISTORIES}
    for deal in DEALS
}


# --- Compiled tree ----------------------------------------------------------
# The same 25 histories as integer node ids: the 12 decision histories in
# DECISION_HISTORIES order (every parent before its children), then the 13
# terminals in TERMINAL_HISTORIES order.  The DECISION_* and *_CHILD
# tables are indexed by decision node id.

NODES = DECISION_HISTORIES + TERMINAL_HISTORIES
NODE_ID = {h: i for i, h in enumerate(NODES)}
N_DECISIONS = len(DECISION_HISTORIES)
N_TERMINALS = len(TERMINAL_HISTORIES)
#: InfoSetKey -> its index in all_infoset_keys().
KEY_INDEX = {key: i for i, key in enumerate(all_infoset_keys())}

#: (passive, aggressive) actions at each decision node.
DECISION_ACTIONS = tuple(action_pair(h) for h in DECISION_HISTORIES)
#: Per decision node: acting seat (1-3), betting situation (1-4), the node
#: ids after the passive (K or F) and the aggressive (B or C) action, and
#: the slot: how many decisions the acting seat made before it (0 or 1).
#: Python ints, which walks that visit one node at a time index fast and
#: combine exactly with Fraction.
DECISION_SEAT = tuple(_DECISION_POINTS[h][0] for h in DECISION_HISTORIES)
DECISION_SITUATION = tuple(_DECISION_POINTS[h][1] for h in DECISION_HISTORIES)
PASSIVE_CHILD = tuple(NODE_ID[h + p] for h, (p, _) in zip(DECISION_HISTORIES, DECISION_ACTIONS))
AGGRESSIVE_CHILD = tuple(NODE_ID[h + a] for h, (_, a) in zip(DECISION_HISTORIES, DECISION_ACTIONS))


def _root_paths() -> tuple[tuple[tuple[int, int], ...], ...]:
    paths = [()] * len(NODES)
    for n, children in enumerate(zip(PASSIVE_CHILD, AGGRESSIVE_CHILD)):
        for action, child in enumerate(children):
            paths[child] = paths[n] + ((n, action),)
    return tuple(paths)


#: Per node: the (decision node, action) pairs on its path from the root,
#: action 0 for passive and 1 for aggressive.
PATHS = _root_paths()
DECISION_SLOT = tuple(sum(DECISION_SEAT[m] == seat for m, _ in PATHS[n])
                      for n, seat in enumerate(DECISION_SEAT))
#: Per terminal: the seats that reveal at showdown (showdown_seats).
SHOWDOWN_SEATS = tuple(showdown_seats(h) for h in TERMINAL_HISTORIES)
#: (deal, decision node) -> index in all_infoset_keys() of the acting
#: seat's information set.
INFOSET_INDEX = np.array([
    [KEY_INDEX[infoset_key(seat, deal[seat - 1], h)]
     for h, seat in zip(DECISION_HISTORIES, DECISION_SEAT)]
    for deal in DEALS
], dtype=np.intp)
#: (deal, node, seat - 1) -> net chips; zero at decision nodes.
PAYOFFS = np.array([
    [PAYOFF_TABLE[deal].get(h, (0, 0, 0)) for h in NODES] for deal in DEALS
], dtype=np.int64)

# --- Outcomes ---------------------------------------------------------------
# A finished hand is one outcome o = deal index * 13 + terminal index
# (0-311), decoded with divmod(o, 13).  A hand dealt d that ends at
# terminal node n is outcome d * N_TERMINALS + n - N_DECISIONS.
#: (deal, terminal history) of each outcome.
OUTCOMES = tuple(itertools.product(DEALS, TERMINAL_HISTORIES))
#: outcome -> net chips per seat: PAYOFFS at the terminal nodes.
OUTCOME_PAYOFFS = PAYOFFS[:, N_DECISIONS:].reshape(-1, NUM_SEATS)
