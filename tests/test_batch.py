"""The batch match path against the per-decision reference loop.

run_match plays a lineup of three plain ProfileAgents on the compiled tree
and every other lineup one decision at a time.  A subclass that changes
nothing still takes the per-decision loop, which makes it the reference
here: both paths must give equal records and byte-identical logs, and
the log must equal a csv.writer rendering of every hand decoded through
the string API.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction

from hypothesis import example, given, strategies as st

from kuhn3p import game, harness, strategy
from kuhn3p.agents import ProfileAgent


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


def test_plain_profile_lineup_never_calls_act(monkeypatch):
    def refuse(self, obs, rng):
        raise AssertionError("the batch path asked an agent to act")

    monkeypatch.setattr(ProfileAgent, "act", refuse)
    pool = [strategy.nash_profile("LB"), strategy.nash_profile("UB")]
    cards = harness.deal_sequence(1, (0,), 200)
    record = harness.run_match(lineup(ProfileAgent, pool, (0, 1, 0)), cards, 1)
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
