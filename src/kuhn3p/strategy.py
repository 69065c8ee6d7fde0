"""Strategy profiles over the 48 information sets.

A profile assigns each information set the probability of its aggressive
action (bet when checking is possible, call when facing a bet). Two
parameter tables ship with the package, named LB and UB for the lower and
upper bounds of the robust range of a known parametric Nash equilibrium
family. LB is an exact equilibrium. UB is the published table transcribed
verbatim, and it is not: its entry for seat 2 calling a lone bet with K is
1, outside the family's interval [1/2, 15/16], which leaves seat 1 an exact
gain of 1/192 for betting A at the root (epsilon 1/192). Each table pins
27 of the 48 probabilities; the other 21, seven per seat, are forced by
strict dominance. `DOMINANCE` holds them, the one place this split is
written: `TABLED_ENTRIES`, `dominance_filled_keys` and `complete_profile`
read it. Situations 2-4 all face a bet, so the choice is call or fold:

  * holding J facing a bet: fold (J never wins a showdown),
  * holding A facing a bet: call (A always wins a showdown),
  * holding Q after a bet and a call: fold (beating both opponents would
    require two lower cards, and there is only one J in the deck).

Values are exact `Fraction`s where the source is exact and may be floats
for numerically trained profiles. The text format is line-oriented,
"seat card situation probability", sorted by (seat, card, situation),
with probabilities as decimals or "n/d" fractions.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

from . import game
from .game import CARD_INDEX, InfoSetKey

Probability = Union[Fraction, float]

_F = Fraction

#: (card, situation) -> the aggressive probability strict dominance forces,
#: for every seat: J folds and A calls a bet, Q folds after a bet and a call.
DOMINANCE = {("J", 2): _F(0), ("J", 3): _F(0), ("J", 4): _F(0), ("Q", 4): _F(0),
             ("A", 2): _F(1), ("A", 3): _F(1), ("A", 4): _F(1)}

#: (seat, card index, situation) triples named by the parameter tables, the
#: entries DOMINANCE leaves: per seat, J in situation 1, Q in 1-3, K in 1-4,
#: A in 1.
TABLED_ENTRIES = tuple((key.seat, CARD_INDEX[key.card], key.situation)
                       for key in game.all_infoset_keys()
                       if (key.card, key.situation) not in DOMINANCE)

# The LB equilibrium table. Seat 1 rarely initiates: its only nonzero
# entry is calling a lone bet with K half the time. Seat 3 bluffs Q half
# the time and always bets A after two checks.
_LB_VALUES = {
    (1, 3, 3): _F(1, 2),
    (2, 3, 3): _F(1, 2),
    (3, 2, 1): _F(1, 2),
    (3, 3, 3): _F(1, 2),
    (3, 4, 1): _F(1),
}

# The UB table, verbatim as published. Seat 2 opens J and Q as bluffs a
# quarter of the time, always bets A, and defends K aggressively; seat 3
# stops calling with K against a lone bet and instead always overcalls.
# Its (2, 3, 2) entry of 1 lies outside the family's interval [1/2, 15/16],
# so the completed profile has epsilon 1/192: seat 1 gains by betting A.
_UB_VALUES = {
    (2, 1, 1): _F(1, 4),
    (2, 2, 1): _F(1, 4),
    (2, 3, 2): _F(1),
    (2, 3, 3): _F(7, 8),
    (2, 4, 1): _F(1),
    (1, 3, 3): _F(1, 2),
    (3, 2, 1): _F(1, 2),
    (3, 3, 4): _F(1),
    (3, 4, 1): _F(1),
}

VARIANTS = ("LB", "UB")


def load_table(variant: str) -> dict[tuple[int, int, int], Fraction]:
    """The 27 tabled probabilities of the chosen equilibrium variant,
    keyed by (seat, card index, situation)."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    values = _LB_VALUES if variant == "LB" else _UB_VALUES
    return {entry: values.get(entry, _F(0)) for entry in TABLED_ENTRIES}


@dataclass(frozen=True)
class StrategyProfile:
    """Probability of the aggressive action at each of the 48 information
    sets. Immutable once built; the passive action gets the complement."""

    aggressive: Mapping[InfoSetKey, Probability]

    def __post_init__(self):
        keys = frozenset(self.aggressive)
        expected = frozenset(game.all_infoset_keys())
        if keys != expected:
            missing = sorted(expected - keys)
            extra = sorted(keys - expected)
            raise ValueError(
                f"profile must cover all 48 infosets exactly "
                f"(missing {missing[:3]}..., extra {extra[:3]}...)"
            )
        for key, p in self.aggressive.items():
            if not 0 <= p <= 1:
                raise ValueError(f"probability {p!r} at {key} outside [0, 1]")

    def __getitem__(self, key: InfoSetKey) -> Probability:
        return self.aggressive[key]

    def replace(self, key: InfoSetKey, p: Probability) -> "StrategyProfile":
        """Copy of this profile with one entry overridden."""
        updated = dict(self.aggressive)
        updated[key] = p
        return StrategyProfile(updated)


def constant_profile(p: Probability) -> StrategyProfile:
    return StrategyProfile({k: p for k in game.all_infoset_keys()})


def complete_profile(table: Mapping[tuple[int, int, int], Fraction]) -> StrategyProfile:
    """Extend a 27-entry parameter table to a full 48-infoset profile.

    Tabled values are copied verbatim; the 21 absent entries take their
    DOMINANCE value.  Raises ValueError for a table without exactly the
    TABLED_ENTRIES, and StrategyProfile does for a value outside [0, 1].
    """
    if set(table) != set(TABLED_ENTRIES):
        raise ValueError(
            "parameter table must contain exactly the 27 tabled entries"
        )
    return StrategyProfile({
        key: DOMINANCE[key.card, key.situation] if (key.card, key.situation) in DOMINANCE
        else _F(table[key.seat, CARD_INDEX[key.card], key.situation])
        for key in game.all_infoset_keys()
    })


def dominance_filled_keys() -> tuple[InfoSetKey, ...]:
    """The 21 infosets whose probabilities come from DOMINANCE, not tables."""
    return tuple(k for k in game.all_infoset_keys() if (k.card, k.situation) in DOMINANCE)


@functools.cache
def nash_profile(variant: str) -> StrategyProfile:
    """Completed profile for the LB or UB table, completed once per process:
    every call for a variant returns the same profile.

    LB is an exact Nash equilibrium. UB is the published table, whose
    (2, 3, 2) entry of 1 lies outside [1/2, 15/16]; its epsilon is 1/192.
    """
    return complete_profile(load_table(variant))


class ProfileFormatError(ValueError):
    """Malformed strategy-profile text; carries the offending line number."""

    def __init__(self, lineno: int | None, message: str):
        self.lineno = lineno
        where = f"line {lineno}: " if lineno is not None else ""
        super().__init__(f"{where}{message}")


def _format_probability(p: Probability) -> str:
    if isinstance(p, Fraction):
        return str(p)  # "0", "1", "1/2", "7/8"
    return repr(float(p))  # shortest decimal that round-trips


def _parse_probability(text: str, lineno: int) -> Probability:
    try:
        if "/" in text:
            value: Probability = Fraction(text)
        elif "." in text or "e" in text or "E" in text:
            value = float(text)
        else:
            value = Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ProfileFormatError(lineno, f"bad probability {text!r}: {exc}")
    if not 0 <= value <= 1:
        raise ProfileFormatError(lineno, f"probability {text} outside [0, 1]")
    return value


def serialize_profile(profile: StrategyProfile, header: str = "") -> str:
    """Render a profile as text, one "seat card situation probability"
    line per infoset, sorted by (seat, card index, situation)."""
    lines = []
    if header:
        lines.extend(f"# {line}" for line in header.splitlines())
    for key in game.all_infoset_keys():
        p = profile.aggressive[key]
        lines.append(f"{key.seat} {key.card} {key.situation} {_format_probability(p)}")
    return "\n".join(lines) + "\n"


def parse_profile(text: str) -> StrategyProfile:
    """Inverse of `serialize_profile`; exact round trip for both fraction
    and float probabilities. Rejects missing, duplicate, or malformed
    entries with the line number."""
    aggressive: dict[InfoSetKey, Probability] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ProfileFormatError(
                lineno, f"expected 'seat card situation probability', got {raw!r}"
            )
        seat_s, card, sit_s, prob_s = parts
        if card not in CARD_INDEX:
            raise ProfileFormatError(lineno, f"unknown card {card!r}")
        try:
            seat, sit = int(seat_s), int(sit_s)
        except ValueError:
            raise ProfileFormatError(lineno, f"non-integer seat/situation in {raw!r}")
        if seat not in game.SEATS or sit not in (1, 2, 3, 4):
            raise ProfileFormatError(lineno, f"seat/situation out of range in {raw!r}")
        key = InfoSetKey(seat, card, sit)
        if key in aggressive:
            raise ProfileFormatError(lineno, f"duplicate entry for {key}")
        aggressive[key] = _parse_probability(prob_s, lineno)
    missing = set(game.all_infoset_keys()) - set(aggressive)
    if missing:
        raise ProfileFormatError(
            None, f"{len(missing)} infosets missing, e.g. {sorted(missing)[0]}"
        )
    return StrategyProfile(aggressive)
