"""Fixed-profile play against the per-decision reference loop.

run_match decides every plain ProfileAgent's seat for all hands up front,
as each hand's decision bits.  A lineup of three plain ProfileAgents reads
each hand's terminal from game.TERMINAL_OF_DECISIONS; every other lineup
takes the per-decision loop, which follows those bits and asks every other
agent at each of its decisions.  A subclass that changes nothing is still
asked, which makes it the reference here: every lineup must give the
records, and the byte-identical logs, of the same lineup of subclasses,
and the log must equal a csv.writer rendering of every hand decoded
through the string API.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from kuhn3p import game, harness, strategy
from kuhn3p.agents import FrequencyModeler, ProfileAgent


class ReferenceProfileAgent(ProfileAgent):
    """Plays exactly like ProfileAgent, through the per-decision loop."""


class CountingProfileAgent(ProfileAgent):
    """Counts the decisions it is asked to make."""

    def __init__(self, profile, name):
        super().__init__(profile, name)
        self.histories = []

    def act(self, obs, rng):
        self.histories.append(obs.history)
        return super().act(obs, rng)


probabilities = st.one_of(
    st.sampled_from([0.0, 1.0, Fraction(0), Fraction(1)]),
    st.floats(min_value=0.0, max_value=1.0),
    st.fractions(min_value=0, max_value=1, max_denominator=1000),
)
profiles = st.lists(probabilities, min_size=48, max_size=48).map(
    lambda ps: strategy.StrategyProfile(dict(zip(game.all_infoset_keys(), ps))))


def lineup(cls, pool, seating):
    agents = [cls(profile, f"P{i}") for i, profile in enumerate(pool)]
    return [agents[i] for i in seating]


def decisions_by_seat(record, seat):
    """Decision histories of seat in every hand of record, in play order."""
    histories = [game.TERMINAL_HISTORIES[o % 13] for o in record.hands]
    return [h[:j] for h in histories for j in range(len(h)) if game.acting_seat(h[:j]) == seat]


def reference_log(record):
    """The match log as csv.writer renders each hand decoded with the
    string API: cards from DEALS, actions from TERMINAL_HISTORIES, chips
    from terminal_payoffs."""
    out = io.StringIO()
    out.write(f"# seats: {','.join(record.agent_names)}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(harness.LOG_COLUMNS)
    for index, o in enumerate(record.hands):
        d, t = divmod(o, 13)
        deal, history = game.DEALS[d], game.TERMINAL_HISTORIES[t]
        writer.writerow([index, *deal, history, *game.terminal_payoffs(deal, history)])
    return out.getvalue()


@given(pool=st.lists(profiles, min_size=1, max_size=3),
       seating=st.tuples(*[st.integers(0, 2)] * 3),
       hands=st.integers(0, 500),
       seed=st.integers(0, 2 ** 64 - 1))
@example(pool=[strategy.nash_profile("LB")], seating=(0, 0, 0), hands=0, seed=0)
def test_batch_path_equals_scalar_reference(pool, seating, hands, seed):
    seating = tuple(i % len(pool) for i in seating)
    cards = harness.deal_sequence(seed, (0,), hands)
    batch = harness.run_match(lineup(ProfileAgent, pool, seating), cards, seed)
    scalar = harness.run_match(lineup(ReferenceProfileAgent, pool, seating), cards, seed)
    assert batch == scalar
    assert [o // 13 for o in batch.hands] == cards.tolist()
    log = harness.match_log(batch)
    assert log == harness.match_log(scalar) == reference_log(batch)
    assert harness.replay_match_log(log) == batch


# A header entry match_log accepts: one line, or none.
header_entries = st.text().filter(lambda line: line.splitlines() in ([], [line]))


@given(hands=st.lists(st.integers(0, len(game.OUTCOMES) - 1), max_size=400),
       header=st.lists(header_entries, max_size=4))
@example(hands=list(range(len(game.OUTCOMES))), header=["set 0"])
def test_log_of_any_outcomes_equals_reference_and_replays(hands, header):
    # The rows start after a varying number of header lines.
    totals = tuple(sum(game.terminal_payoffs(*game.OUTCOMES[o])[s] for o in hands) for s in range(3))
    record = harness.MatchRecord(("a", "b", "c"), totals, hands)
    log = harness.match_log(record, header=header)
    assert log == "".join(f"# {line}\n" for line in header) + reference_log(record)
    replayed = harness.replay_match_log(log)
    assert replayed == record
    assert replayed.seat_totals == totals


def test_plain_profile_lineup_never_calls_act(monkeypatch):
    def refuse(self, obs, rng):
        raise AssertionError("the batch path asked an agent to act")

    monkeypatch.setattr(ProfileAgent, "act", refuse)
    pool = [strategy.nash_profile("LB"), strategy.nash_profile("UB")]
    cards = harness.deal_sequence(1, (0,), 200)
    record = harness.run_match(lineup(ProfileAgent, pool, (0, 1, 0)), cards, 1)
    assert len(record.hands) == 200


def modeler_lineup(cls, pool, seats, smoothing, modelers=1):
    """A fresh FrequencyModeler in each of seats[:modelers], pool's agents
    in the other seats."""
    agents = [None] * 3
    for seat in seats[:modelers]:
        agents[seat] = FrequencyModeler(smoothing)
    for seat, (i, profile) in zip(seats[modelers:], enumerate(pool)):
        agents[seat] = cls(profile, f"P{i}")
    return agents


@given(pool=st.tuples(profiles, profiles),
       seats=st.permutations(range(3)),
       modelers=st.integers(1, 2),
       smoothing=st.floats(0.1, 10),
       hands=st.integers(0, 300),
       seed=st.integers(0, 2 ** 64 - 1))
@example(pool=(strategy.nash_profile("LB"), strategy.nash_profile("UB")), seats=[0, 1, 2],
         modelers=1, smoothing=1.0, hands=0, seed=0)
@example(pool=(strategy.nash_profile("UB"), strategy.nash_profile("LB")), seats=[2, 0, 1],
         modelers=2, smoothing=1.0, hands=300, seed=0)
def test_modeler_lineup_equals_scalar_reference(pool, seats, modelers, smoothing, hands, seed):
    # One or two fixed seats, anywhere, beside one or two modelers.
    cards = harness.deal_sequence(seed, (0,), hands)
    mixed = harness.run_match(modeler_lineup(ProfileAgent, pool, seats, smoothing, modelers),
                              cards, seed)
    scalar = harness.run_match(
        modeler_lineup(ReferenceProfileAgent, pool, seats, smoothing, modelers), cards, seed)
    assert mixed == scalar
    assert [o // 13 for o in mixed.hands] == cards.tolist()
    assert harness.match_log(mixed) == harness.match_log(scalar) == reference_log(mixed)


@pytest.mark.parametrize("modelers", [0, 1])
def test_every_form_of_deals_plays_the_same_match(modelers):
    # Each form reaches the threshold takes as the index array it becomes.
    pool = (strategy.nash_profile("LB"), strategy.nash_profile("UB"))
    cards = harness.deal_sequence(4, (0,), 300)
    doubled = np.repeat(cards, 2)
    assert not doubled[::2].flags.c_contiguous

    def play(deals):
        agents = (modeler_lineup(ProfileAgent, pool, (1, 0, 2), 1.0) if modelers
                  else lineup(ProfileAgent, pool, (0, 1, 0)))
        return harness.run_match(agents, deals, 4)

    expected = play(cards)
    assert [o // 13 for o in expected.hands] == cards.tolist()
    for deals in (cards.tolist(), cards.astype(np.int64), cards.astype(np.int32),
                  cards.astype(np.uint8), doubled[::2]):
        assert play(deals) == expected


def test_modeler_lineup_never_asks_plain_profile_agents(monkeypatch):
    def refuse(self, obs, rng):
        raise AssertionError("a plain ProfileAgent was asked to act")

    monkeypatch.setattr(ProfileAgent, "act", refuse)
    pool = [strategy.nash_profile("LB"), strategy.nash_profile("UB")]
    cards = harness.deal_sequence(3, (0,), 200)
    record = harness.run_match(modeler_lineup(ProfileAgent, pool, (1, 0, 2), 1.0), cards, 3)
    assert len(record.hands) == 200


def test_subclass_overriding_act_is_asked_at_every_decision():
    pool = [strategy.nash_profile("UB"), strategy.constant_profile(Fraction(1, 2))]
    cards = harness.deal_sequence(2, (0,), 300)
    # One overriding agent sends the whole lineup through the per-decision loop.
    agents = lineup(ProfileAgent, pool, (1, 0, 1))
    agents[1] = CountingProfileAgent(pool[0], "P0")
    record = harness.run_match(agents, cards, 2)
    assert agents[1].histories == decisions_by_seat(record, 2)
    assert record == harness.run_match(lineup(ProfileAgent, pool, (1, 0, 1)), cards, 2)

    agents = lineup(CountingProfileAgent, pool, (0, 1, 0))
    record = harness.run_match(agents, cards, 2)
    assert agents[0] is agents[2]
    assert len(agents[0].histories) == len(decisions_by_seat(record, 1)) \
        + len(decisions_by_seat(record, 3))
    assert agents[1].histories == decisions_by_seat(record, 2)
