"""Match-harness tests: determinism, duplicate-set bookkeeping, seeding
isolation, logs, replay, and the variance study."""

from __future__ import annotations

import re
import statistics

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kuhn3p import game, harness, strategy
from kuhn3p.agents import Agent, AgentSpec, FrequencyModeler, Observation, ProfileAgent, make_agent
from kuhn3p.harness import MatchConfig


TRIPLE = (AgentSpec("NashLB"), AgentSpec("UniformRandom"),
          AgentSpec("AlwaysAggressive"))


def lineup(specs):
    return [make_agent(spec) for spec in specs]


def decode(o):
    """The deal index of outcome o and its net chips, from the string API."""
    d, t = divmod(o, 13)
    return d, game.terminal_payoffs(game.DEALS[d], game.TERMINAL_HISTORIES[t])


def small_config(**overrides):
    base = dict(master_seed=11, hands_per_match=40, matches_per_permutation=2)
    base.update(overrides)
    return MatchConfig(**base)


def test_match_config_validation():
    with pytest.raises(ValueError):
        MatchConfig(master_seed=-1)
    with pytest.raises(ValueError):
        MatchConfig(master_seed=0, hands_per_match=0)
    with pytest.raises(ValueError):
        MatchConfig(master_seed=0, matches_per_permutation=0)
    with pytest.raises(ValueError):
        MatchConfig(master_seed=0, normalization_divisor=0.0)
    with pytest.raises(ValueError, match="hands_per_match"):
        MatchConfig(master_seed=0, hands_per_match=2.5)
    with pytest.raises(ValueError, match="master_seed"):
        MatchConfig(master_seed=True)
    with pytest.raises(ValueError, match="matches_per_permutation"):
        MatchConfig(master_seed=0, matches_per_permutation="2")
    with pytest.raises(ValueError, match="normalization_divisor"):
        MatchConfig(master_seed=0, normalization_divisor="7")
    with pytest.raises(ValueError, match="finite"):  # an int with no float
        MatchConfig(master_seed=0, normalization_divisor=10 ** 400)
    for below_one in (5e-324, 0.5):  # 5e-324 would report infinite normalized totals
        with pytest.raises(ValueError, match=r"^normalization_divisor must be >= 1, got "):
            MatchConfig(master_seed=0, normalization_divisor=below_one)
    assert MatchConfig(master_seed=0, normalization_divisor=1).normalization_divisor == 1.0
    defaults = MatchConfig(master_seed=0)
    assert defaults.hands_per_match == 3000
    assert defaults.matches_per_permutation == 10
    assert defaults.normalization_divisor == 100_000.0
    divisor = MatchConfig(master_seed=0, normalization_divisor=7).normalization_divisor
    assert type(divisor) is float and divisor == 7.0


def test_match_config_bounds_hands_per_match():
    # A match holds every hand at once, so its length has a ceiling.
    assert MatchConfig(master_seed=0, hands_per_match=10 ** 6).hands_per_match == 10 ** 6
    with pytest.raises(ValueError, match=r"^hands_per_match must be <= 1000000, got 1000001$"):
        MatchConfig(master_seed=0, hands_per_match=10 ** 6 + 1)


def test_deal_sequence_is_deterministic_and_valid():
    a = harness.deal_sequence(42, (0, 1), 500)
    b = harness.deal_sequence(42, (0, 1), 500)
    assert np.array_equal(a, b)
    assert set(a.tolist()) <= set(range(len(game.DEALS)))
    assert len(set(a.tolist())) > 1  # not stuck on one deal


def test_deal_sequence_key_isolation():
    a = harness.deal_sequence(42, (0, 1), 200)
    b = harness.deal_sequence(42, (0, 2), 200)
    c = harness.deal_sequence(43, (0, 1), 200)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_run_match_zero_sum_every_hand():
    cards = harness.deal_sequence(3, (0,), 300)
    record = harness.run_match(lineup(TRIPLE), cards, 3)
    assert len(record.hands) == 300
    assert all(0 <= o < len(game.DEALS) * len(game.TERMINAL_HISTORIES) for o in record.hands)
    hands = [decode(o) for o in record.hands]
    for index, (d, payoffs) in enumerate(hands):
        assert sum(payoffs) == 0
        assert d == cards[index]
    assert sum(record.seat_totals) == 0
    recomputed = [sum(payoffs[s] for _, payoffs in hands) for s in range(3)]
    assert tuple(recomputed) == record.seat_totals


def test_run_match_is_deterministic():
    cards = harness.deal_sequence(9, (0,), 100)
    a = harness.run_match(lineup(TRIPLE), cards, 17)
    b = harness.run_match(lineup(TRIPLE), cards, 17)
    assert a.seat_totals == b.seat_totals
    assert a.hands == b.hands


@pytest.mark.parametrize("specs", [TRIPLE, (AgentSpec("FrequencyModeler"), *TRIPLE[1:])],
                         ids=["profiles", "modeler"])
def test_run_match_reads_an_int_seed_as_its_seed_sequence(specs):
    # run_match hands seed to np.random.Philox as given, which reads an int
    # through np.random.SeedSequence itself.
    cards = harness.deal_sequence(9, (0,), 100)
    for seed in (0, 17, 2 ** 70):
        assert harness.run_match(lineup(specs), cards, seed) \
            == harness.run_match(lineup(specs), cards, np.random.SeedSequence(seed))


class _IllegalAgent(Agent):
    name = "Illegal"

    def act(self, observation, rng):
        return "C"  # never legal before a bet


def test_run_match_rejects_illegal_actions():
    cards = [game.DEALS.index("QKA")] * 5
    agents = [_IllegalAgent(), _IllegalAgent(), _IllegalAgent()]
    with pytest.raises(RuntimeError, match="^agent 'Illegal' returned illegal action 'C' "
                                           "at history '' in hand 0$"):
        harness.run_match(agents, cards, 0)


def test_run_match_needs_three_agents():
    with pytest.raises(ValueError, match="^a match needs exactly 3 agents, got 2$"):
        harness.run_match(lineup(TRIPLE[:2]), [0], 0)


class _CountingAgent(Agent):
    name = "Counting"

    def __init__(self):
        self.decisions = 0

    def act(self, observation, rng):
        self.decisions += 1
        return game.action_pair(observation.history)[0]


@pytest.mark.parametrize("deals, bad", [
    ([0, -1, 3], "hand 1: deal -1 "),
    (np.array([5, 23, 24]), "hand 2: deal 24 "),
    ([2, 3.0], "hand 1: deal 3.0 "),
    (["QKA"], "hand 0: deal 'QKA' "),
    ([True, False], "hand 0: deal True "),
    ([0, True], "hand 1: deal True "),
], ids=["negative", "too-large", "float", "string", "bool", "int-then-bool"])
@pytest.mark.parametrize("batch", [True, False], ids=["batch", "scalar"])
def test_run_match_rejects_bad_deal_indices(deals, bad, batch):
    agents = lineup([AgentSpec("NashLB")] * 3) if batch else [_CountingAgent() for _ in range(3)]
    with pytest.raises(ValueError, match=f"^{bad}is not a game.DEALS index$"):
        harness.run_match(agents, deals, 0)
    assert batch or all(agent.decisions == 0 for agent in agents)


class _RecordingProfileAgent(ProfileAgent):
    """A ProfileAgent that keeps the arguments of every observe_result call."""

    def __init__(self, profile, name):
        super().__init__(profile, name)
        self.results = []

    def observe_result(self, revealed, history, payoffs):
        self.results.append((revealed, history, payoffs))


@given(seats=st.permutations(range(3)), hands=st.integers(0, 200), seed=st.integers(0, 2 ** 64 - 1))
def test_observers_see_exactly_what_the_rules_reveal(seats, hands, seed):
    # Through the string API: each hand's showdown cards, never a mucked one.
    pool = [_RecordingProfileAgent(strategy.constant_profile(0.5), "Recorder"),
            FrequencyModeler(), make_agent(AgentSpec("NashLB"))]
    cards = harness.deal_sequence(seed, (0,), hands)
    record = harness.run_match([pool[i] for i in seats], cards, seed)
    expected = []
    for o in record.hands:
        d, t = divmod(o, 13)
        deal, h = game.DEALS[d], game.TERMINAL_HISTORIES[t]
        expected.append(({s: deal[s - 1] for s in game.showdown_seats(h)}, h,
                         game.terminal_payoffs(deal, h)))
    assert pool[0].results == expected


class _RecordingAgent(Agent):
    """A plain Agent, asked at every decision, that takes the aggressive
    action below a uniform of one half.  It keeps every Observation and
    result it is shown, and tries to write to each revealed mapping."""

    def __init__(self):
        self.observations, self.results = [], []

    def act(self, obs, rng):
        self.observations.append(obs)
        passive, aggressive = game.action_pair(obs.history)
        return aggressive if rng.uniform() < 0.5 else passive

    def observe_result(self, revealed, history, payoffs):
        with pytest.raises(TypeError):
            revealed[1] = "J"
        self.results.append((revealed, history, payoffs))


@given(seats=st.permutations(range(3)), modelers=st.integers(1, 2),
       profile=st.sampled_from([strategy.nash_profile("LB"), strategy.constant_profile(0.5)]),
       hands=st.integers(0, 200), seed=st.integers(0, 2 ** 64 - 1))
def test_agents_see_observations_and_read_only_results_from_the_string_api(
        seats, modelers, profile, hands, seed):
    # One or two modelers, the recorder, and with one modeler a fixed seat.
    agents = [None] * 3
    for seat in seats[:modelers]:
        agents[seat] = FrequencyModeler()
    recorder = agents[seats[modelers]] = _RecordingAgent()
    if modelers == 1:
        agents[seats[2]] = ProfileAgent(profile, "fixed")
    record = harness.run_match(agents, harness.deal_sequence(seed, (0,), hands), seed)
    seat = seats[modelers] + 1
    observations, results = [], []
    for o in record.hands:
        d, t = divmod(o, 13)
        deal, h = game.DEALS[d], game.TERMINAL_HISTORIES[t]
        observations += [Observation(seat, deal[seat - 1], h[:j]) for j in range(len(h))
                         if game.acting_seat(h[:j]) == seat]
        results.append(({s: deal[s - 1] for s in game.showdown_seats(h)}, h,
                         game.terminal_payoffs(deal, h)))
    assert recorder.observations == observations
    assert all(type(obs) is Observation for obs in recorder.observations)
    # Every view, those of hands after a refused write included, still reads as the rules say.
    assert recorder.results == results


def test_duplicate_set_shares_cards_and_rotates_seats():
    config = small_config()
    ds = harness.run_duplicate_set(lineup(TRIPLE), config, (0,))
    assert len(ds.matches) == 6
    sequences = {tuple(o // 13 for o in m.hands) for m in ds.matches}
    assert len(sequences) == 1  # all six matches replay the same cards
    cards = harness.deal_sequence(config.master_seed, (0, 0), config.hands_per_match)
    assert sequences == {tuple(cards.tolist())}
    seatings = {m.agent_names for m in ds.matches}
    assert len(seatings) == 6  # every permutation appears once
    # Each agent occupies every seat exactly twice across the set.
    for name in ("NashLB", "UniformRandom", "AlwaysAggressive"):
        for seat in range(3):
            count = sum(m.agent_names[seat] == name for m in ds.matches)
            assert count == 2


def test_duplicate_set_slot_totals():
    ds = harness.run_duplicate_set(lineup(TRIPLE), small_config(), (0,))
    assert ds.slot_totals == (58, -91, 33)
    assert sum(ds.slot_totals) == 0
    # Slot totals re-derive from the per-match seat totals.
    recomputed = [0, 0, 0]
    for perm, match in zip(harness.PERMUTATIONS, ds.matches):
        for seat in range(3):
            recomputed[perm[seat]] += match.seat_totals[seat]
    assert tuple(recomputed) == ds.slot_totals


def test_tournament_shape_and_aggregates():
    config = small_config()
    report = harness.run_tournament(list(TRIPLE), config)
    assert [r.label for r in report.agents] == ["NashLB", "UniformRandom", "AlwaysAggressive"]
    assert len(report.groupings) == 1
    grouping = report.groupings[0]
    assert grouping.pool_indices == (0, 1, 2)
    assert len(grouping.sets) == config.matches_per_permutation
    assert grouping.set_totals == [(89, -131, 42), (41, -106, 65)]
    assert grouping.slot_totals == (130, -237, 107)

    by_label = {r.label: r for r in report.agents}
    lb = by_label["NashLB"]
    hands = 6 * config.matches_per_permutation * config.hands_per_match
    assert lb.hands == hands
    assert lb.total_chips == 130
    assert lb.chips_per_hand == pytest.approx(130 / hands)
    assert lb.normalized_total == pytest.approx(130 / config.normalization_divisor)
    assert sum(r.total_chips for r in report.agents) == 0

    # Standard error over duplicate-set means, recomputed by hand.
    per_set = 6 * config.hands_per_match
    samples = [t[0] / per_set for t in grouping.set_totals]
    expected_se = statistics.stdev(samples) / len(samples) ** 0.5
    assert lb.std_error == pytest.approx(expected_se)


def test_tournament_reruns_identically():
    config = small_config()
    a = harness.run_tournament(list(TRIPLE), config)
    b = harness.run_tournament(list(TRIPLE), config)
    assert harness.report_csv(a) == harness.report_csv(b)
    assert harness.report_json(a) == harness.report_json(b)


def test_tournament_groupings_are_seed_stable_under_pool_growth():
    config = small_config()
    small = harness.run_tournament(list(TRIPLE), config)
    grown = harness.run_tournament(list(TRIPLE) + [AgentSpec("AlwaysPassive")],
                                   config)
    assert len(grown.groupings) == 4
    first = next(g for g in grown.groupings if g.pool_indices == (0, 1, 2))
    assert first.slot_totals == small.groupings[0].slot_totals


def test_default_labels_disambiguate_repeats():
    specs = [AgentSpec("NashLB"), AgentSpec("UniformRandom"),
             AgentSpec("NashLB"), AgentSpec("NashLB", name="lb")]
    assert harness.pool_labels(specs) == ["NashLB#1", "UniformRandom",
                                          "NashLB#2", "lb"]


def test_tournament_rejects_small_pools_and_bad_labels():
    with pytest.raises(ValueError, match="pool"):
        harness.run_tournament(list(TRIPLE[:2]), small_config())
    named = [AgentSpec(spec.kind, name=name) for spec, name in zip(TRIPLE, "aab")]
    with pytest.raises(ValueError, match="label 'a'"):
        harness.run_tournament(named, small_config())


@pytest.mark.parametrize("play", [
    lambda pool: harness.run_tournament(pool, small_config()),
    lambda pool: harness.variance_study(pool, small_config(), 30),
], ids=["tournament", "variance-study"])
def test_pool_errors_name_the_bad_entry(play):
    pool = list(TRIPLE)
    pool[1] = AgentSpec("NashLB", {"king_bet": 0.5})
    with pytest.raises(ValueError, match=r"^agents\[1\]: NashLB does not accept parameter 'king_bet'$"):
        play(pool)
    pool[2] = AgentSpec("Nobody")
    with pytest.raises(ValueError, match=r"^agents\[1\]: "):
        play(pool)
    # Every spec is built before the labels are checked.
    named = [AgentSpec("NashLB", name="x"), AgentSpec("UniformRandom", name="x"), AgentSpec("Nobody")]
    with pytest.raises(ValueError, match=r"^agents\[2\]: unknown agent kind 'Nobody'"):
        play(named)


def test_match_log_round_trip():
    cards = harness.deal_sequence(21, (0,), 50)
    record = harness.run_match(lineup(TRIPLE), cards, 21)
    text = harness.match_log(record, header=["grouping 0-1-2", "set 0"])
    assert text.startswith("# grouping 0-1-2\n# set 0\n")
    assert "# seats: NashLB,UniformRandom,AlwaysAggressive" in text
    assert harness.replay_match_log(text) == record


@pytest.mark.parametrize("entry", ["note\nsecond line", "note\n", "\r", "a\u2028b"])
def test_match_log_rejects_a_header_line_break(entry):
    record = harness.run_match(lineup(TRIPLE), harness.deal_sequence(21, (0,), 5), 21)
    with pytest.raises(ValueError, match="header entry"):
        harness.match_log(record, header=["set 0", entry])
    assert harness.replay_match_log(harness.match_log(record, header=["", "set 0"])) == record


@pytest.mark.parametrize("outcome", [-1, len(game.OUTCOMES)])
def test_match_log_rejects_an_outcome_outside_the_table(outcome):
    # -1 would index the last row text of a list; the row table misses it.
    record = harness.MatchRecord(("a", "b", "c"), (0, 0, 0), [0, outcome])
    with pytest.raises(ValueError, match=f"^hand 1: outcome {outcome} is not a game.OUTCOMES index$"):
        harness.match_log(record)
    # The last hand of a full-size match, its rows after a 4-line header.
    record = harness.MatchRecord(("a", "b", "c"), (0, 0, 0), [7] * 2999 + [outcome])
    with pytest.raises(ValueError, match=f"^hand 2999: outcome {outcome} is not a game.OUTCOMES index$"):
        harness.match_log(record, header=["grouping 0-1-2", "set 0", "seating 0", ""])


@pytest.mark.parametrize("outcome", [5.0, np.float64(5.0), -313, "5", None])
def test_match_log_rejects_an_outcome_that_is_no_index(outcome):
    # 5.0 equals outcome 5, and a dict keyed by the outcomes would write 5's row for it.
    record = harness.MatchRecord(("a", "b", "c"), (0, 0, 0), [0, outcome])
    with pytest.raises(ValueError, match=f"^hand 1: outcome {re.escape(repr(outcome))} "
                                         f"is not a game.OUTCOMES index$"):
        harness.match_log(record)


def test_match_log_writes_numpy_integer_outcomes():
    hands = [0, 5, 255, len(game.OUTCOMES) - 1]
    expected = harness.match_log(harness.MatchRecord(("a", "b", "c"), (0, 0, 0), hands))
    for dtype in (np.int64, np.int32, np.int16, np.uint16, np.uint64):
        record = harness.MatchRecord(("a", "b", "c"), (0, 0, 0), [dtype(o) for o in hands])
        assert harness.match_log(record) == expected, dtype


@pytest.mark.parametrize("names", [("a,b", "c", "d"), ("a", "b\nc", "d"), ("a", "b", "c\r"),
                                   ("a", "b\u2028", "c"), ("a", "", "c")])
def test_match_log_rejects_names_replay_could_not_read(names):
    record = harness.MatchRecord(names, (0, 0, 0), [0])
    with pytest.raises(ValueError, match=r"^agent names \("):
        harness.match_log(record)


def test_label_table_grows_to_every_row(monkeypatch):
    # Reading a table shorter than the match would drop rows from the log
    # and let replay check only a prefix.
    record = harness.run_match(lineup(TRIPLE), harness.deal_sequence(21, (0,), 5), 21)
    monkeypatch.setattr(harness, "_LABELS", ["0", "1"])
    text = harness.match_log(record)
    assert [row.split(",")[0] for row in text.splitlines()[2:]] == ["0", "1", "2", "3", "4"]
    monkeypatch.setattr(harness, "_LABELS", ["0", "1"])
    assert harness.replay_match_log(text) == record
    empty = harness.MatchRecord(("a", "b", "c"), (0, 0, 0), [])
    assert harness.replay_match_log(harness.match_log(empty)) == empty


def test_label_table_stays_within_the_match_cap(monkeypatch):
    # A log longer than any match builds its labels for itself alone, so
    # a long or hostile log leaves no labels behind.
    monkeypatch.setattr(harness, "MAX_HANDS_PER_MATCH", 3)
    monkeypatch.setattr(harness, "_LABELS", [])
    for hands, kept in (2, 2), (5, 2), (3, 3), (4, 3):
        record = harness.run_match(lineup(TRIPLE), harness.deal_sequence(22, (0,), hands), 22)
        text = harness.match_log(record)
        assert [row.split(",")[0] for row in text.splitlines()[2:]] == [str(k) for k in range(hands)]
        assert harness.replay_match_log(text) == record
        assert len(harness._LABELS) == kept


def test_replay_detects_tampered_chips():
    cards = harness.deal_sequence(21, (0,), 5)
    record = harness.run_match(lineup(TRIPLE), cards, 21)
    text = harness.match_log(record)
    lines = text.splitlines()
    row = lines[-1].split(",")
    chips = int(row[-1])
    row[-1] = str(chips + 3)
    lines[-1] = ",".join(row)
    with pytest.raises(harness.ReplayError,
                       match=f"^hand 4: chips3 expected {chips}, found {chips + 3}$"):
        harness.replay_match_log("\n".join(lines) + "\n")


def test_replay_rejects_rows_appended_twice():
    record = harness.run_match(lineup(TRIPLE), harness.deal_sequence(21, (0,), 5), 21)
    text = harness.match_log(record)
    rows = text.splitlines(keepends=True)[-5:]
    with pytest.raises(harness.ReplayError, match="^hand 5: hand expected 5, found '0'$"):
        harness.replay_match_log(text + "".join(rows))


def test_replay_of_a_log_without_hands():
    # The column header makes a 0-hand log; the seats line alone is no log.
    empty = harness.MatchRecord(("a", "b", "c"), (0, 0, 0), [])
    assert harness.replay_match_log(harness.match_log(empty)) == empty
    with pytest.raises(harness.ReplayError, match="^log contains no hands$"):
        harness.replay_match_log("# seats: a,b,c\n")


def test_replay_detects_malformed_rows():
    with pytest.raises(harness.ReplayError):
        harness.replay_match_log("hand,card1\n0,J\n")


def test_tournament_builds_each_stateless_agent_once(monkeypatch):
    run_match = harness.run_match
    built = []
    seated = []

    def recording_make_agent(spec):
        built.append(make_agent(spec))
        return built[-1]

    def recording_run_match(agents, deals, seed):
        modelers = [agent for agent in agents if isinstance(agent, FrequencyModeler)]
        seated.append([(agent, sum(map(sum, agent._counts))) for agent in modelers])
        return run_match(agents, deals, seed)

    monkeypatch.setattr(harness, "make_agent", recording_make_agent)
    monkeypatch.setattr(harness, "run_match", recording_run_match)
    pool = [AgentSpec("FrequencyModeler"), AgentSpec("NashLB"), AgentSpec("UniformRandom")]
    config = small_config()
    report = harness.run_tournament(pool, config)
    assert [agent.name for agent in built] == ["FrequencyModeler", "NashLB", "UniformRandom"]
    assert len(seated) == 6 * config.matches_per_permutation
    # Every match seats its own modeler, unplayed, never the pool's instance.
    assert all(len(modelers) == 1 and modelers[0][1] == 0 for modelers in seated)
    instances = [built[0]] + [modelers[0][0] for modelers in seated]
    assert len({id(agent) for agent in instances}) == len(instances)
    assert sum(r.total_chips for r in report.agents) == 0


def test_tournament_without_hands_reports_the_same():
    pool = list(TRIPLE) + [AgentSpec("FrequencyModeler")]
    kept = harness.run_tournament(pool, small_config())
    dropped = harness.run_tournament(pool, small_config(), keep_hands=False)
    assert harness.report_csv(dropped) == harness.report_csv(kept)
    assert harness.report_json(dropped) == harness.report_json(kept)
    sets = [dup for grouping in dropped.groupings for dup in grouping.sets]
    assert all(match.hands == [] for dup in sets for match in dup.matches)


def test_variance_study_values():
    config = MatchConfig(master_seed=5, hands_per_match=60)
    study = harness.variance_study(TRIPLE, config, replications=30)
    assert study.replications == 30
    assert study.ratio == pytest.approx(study.duplicate_variance
                                        / study.independent_variance)
    assert study.duplicate_variance == pytest.approx(0.004763064069816944)
    assert study.independent_variance == pytest.approx(0.015647580530722294)
    assert study.ratio < 1.0


def test_variance_study_ratio_when_both_variances_vanish():
    # AlwaysAggressive bets first and both AlwaysPassive seats fold, so
    # every hand wins it exactly 2 chips in either arm.
    triple = (AgentSpec("AlwaysAggressive"),) + (AgentSpec("AlwaysPassive"),) * 2
    study = harness.variance_study(triple, MatchConfig(master_seed=3, hands_per_match=10), 30)
    assert study.duplicate_mean == study.independent_mean == 2.0
    assert study.duplicate_variance == study.independent_variance == 0.0
    assert study.ratio == 1.0


def test_variance_study_rejects_few_replications():
    with pytest.raises(ValueError, match="replications"):
        harness.variance_study(TRIPLE, small_config(), replications=29)


def test_duplicate_aggregate_cancels_for_card_driven_agents():
    # A deterministic, card-independent lineup earns exactly the card luck,
    # and duplicate seating sums that luck over all six seat rotations, so
    # every duplicate-set aggregate vanishes and so does its variance.
    passive = (AgentSpec("AlwaysPassive"),) * 3
    config = MatchConfig(master_seed=7, hands_per_match=50)
    study = harness.variance_study(passive, config, replications=30)
    assert study.duplicate_variance == 0.0
    assert study.independent_variance > 0.0
    assert study.ratio == 0.0
