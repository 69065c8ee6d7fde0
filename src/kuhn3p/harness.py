"""Duplicate-match tournament harness.

Protocol: agents meet in matches of a fixed number of hands.  For every
3-subset of the pool the harness runs a number of duplicate sets; each set
draws one card sequence and replays it across all 6 seating permutations
of the triple, so that every agent experiences the identical cards from
every seat and card luck cancels out of the set aggregate.  Reported
standard errors are computed over duplicate-set aggregates, since hands
within a set are correlated by construction.

All randomness is derived from a single master seed through hierarchical
keying (master -> grouping -> set -> permutation -> hand -> seat) using
counter-based generators, so results are independent of execution order
and adding groupings to a tournament never perturbs existing ones.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
import statistics
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from . import game
from .agents import Agent, AgentSpec, Observation, ProfileAgent, make_agent

# Seat permutations in a fixed order: permutation p assigns triple slot
# PERMUTATIONS[p][s-1] to seat s.
PERMUTATIONS = tuple(itertools.permutations((0, 1, 2)))

# Spawn-key domain tags keep every consumer of the master seed on a
# disjoint stream.
_DOMAIN_CARDS = 0
_DOMAIN_DECISIONS = 1
_DOMAIN_STUDY_CARDS = 2
_DOMAIN_STUDY_INDEP_CARDS = 4
_DOMAIN_STUDY_INDEP_DECISIONS = 5


@dataclass(frozen=True)
class MatchConfig:
    """Protocol parameters shared by every match of a tournament."""

    master_seed: int
    hands_per_match: int = 3000
    matches_per_permutation: int = 10
    normalization_divisor: float = 100_000.0

    def __post_init__(self) -> None:
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.hands_per_match < 1:
            raise ValueError(f"hands_per_match must be >= 1, got {self.hands_per_match}")
        if self.matches_per_permutation < 1:
            raise ValueError(
                f"matches_per_permutation must be >= 1, got {self.matches_per_permutation}")
        if not (math.isfinite(self.normalization_divisor) and self.normalization_divisor > 0):
            raise ValueError(
                f"normalization_divisor must be finite and > 0, got {self.normalization_divisor}")


class HandRecord(NamedTuple):
    """One completed hand: cards by seat, the action string, net chips."""

    index: int
    deal: str
    history: str
    payoffs: tuple[int, int, int]


# HandRecord._make without its per-call length check, for building many at once.
_new_hand = functools.partial(tuple.__new__, HandRecord)


@dataclass
class MatchRecord:
    """One match: per-seat agent names, totals, and the full hand log."""

    agent_names: tuple[str, str, str]
    seat_totals: tuple[int, int, int]
    hands: list[HandRecord]


@dataclass
class DuplicateSet:
    """Six matches, one per seating permutation, sharing one card sequence."""

    agent_names: tuple[str, str, str]
    card_sequence: list[str]
    matches: list[MatchRecord]
    slot_totals: tuple[int, int, int]  # aggregated per triple slot, not per seat


def _generator(master_seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(master_seed, spawn_key=key)))


def deal_sequence(master_seed: int, key: Sequence[int], hands: int) -> list[str]:
    """Uniform i.i.d. deals from the 24 card arrangements, keyed by (master, key)."""
    gen = _generator(master_seed, *key)
    return [game.DEALS[i] for i in gen.integers(0, len(game.DEALS), size=hands)]


class _SlotRng:
    """Single pre-drawn uniform handed to an agent for one decision.

    Each decision point owns one independent uniform regardless of whether
    the agent consumes it, so agent internals never shift another agent's
    stream."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def uniform(self) -> float:
        return self.value


def run_match(agents: Sequence[Agent], cards: Sequence[str],
              seed: int | np.random.SeedSequence) -> MatchRecord:
    """Play one match: agents[s-1] occupies seat s for every hand of cards.

    Decision uniforms are drawn up front as an array indexed by
    (hand, seat, nth decision of that seat), making every decision's
    randomness a pure function of the seed and its position.  The agents
    are played as given, state included; build them with make_agent.

    A lineup of three plain ProfileAgents plays every hand at once on the
    compiled tree (`_play_profiles`); any other lineup, subclasses
    included, takes the per-decision loop below.  Both give identical
    records for the same inputs.
    """
    if len(agents) != 3:
        raise ValueError(f"a match needs exactly 3 agents, got {len(agents)}")
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    gen = np.random.Generator(np.random.Philox(seq))
    # Seats 1 and 2 act at most twice per hand, seat 3 at most once.
    uniforms = gen.random((len(cards), 3, 2))
    if all(type(agent) is ProfileAgent for agent in agents):
        return _play_profiles(agents, cards, uniforms)

    observers = [a for a in agents if type(a).observe_result is not Agent.observe_result]
    acting = game.acting_seat
    action_pair = game.action_pair
    payoff_table = game.PAYOFF_TABLE
    rng = _SlotRng()

    totals = [0, 0, 0]
    hands: list[HandRecord] = []
    for index, deal in enumerate(cards):
        row = uniforms[index]
        taken = [0, 0, 0]
        h = ""
        payoffs_by_history = payoff_table[deal]
        while h not in payoffs_by_history:
            seat = acting(h)
            i = seat - 1
            rng.value = row[i, taken[i]]
            taken[i] += 1
            obs = Observation(seat, deal[i], h, index)
            action = agents[i].act(obs, rng)
            if action not in action_pair(h):
                raise RuntimeError(
                    f"agent {agents[i].name!r} returned illegal action {action!r} "
                    f"at history {h!r} in hand {index}")
            h += action
        payoffs = payoffs_by_history[h]
        totals[0] += payoffs[0]
        totals[1] += payoffs[1]
        totals[2] += payoffs[2]
        hands.append(HandRecord(index, deal, h, payoffs))
        if observers:
            revealed = {s: deal[s - 1] for s in game.showdown_seats(h)}
            for agent in observers:
                agent.observe_result(revealed, h, payoffs)
    names = tuple(agent.name for agent in agents)
    return MatchRecord(names, (totals[0], totals[1], totals[2]), hands)


def _play_profiles(agents: Sequence[ProfileAgent], cards: Sequence[str],
                   uniforms: np.ndarray) -> MatchRecord:
    """The match loop for three stateless ProfileAgents, over every hand at
    once: each decision node in parent-before-child order moves the hands
    standing on it to a child, making the same `uniform < probability`
    comparison as ProfileAgent.act with the same pre-drawn uniform."""
    deals = np.array([game.DEAL_INDEX[deal] for deal in cards], dtype=np.intp)
    probabilities = np.stack([agent.probabilities for agent in agents])
    node = np.zeros(len(cards), dtype=np.intp)  # every hand starts at the root
    for n in range(len(game.DECISION_HISTORIES)):
        here = np.flatnonzero(node == n)
        i = game.DECISION_SEAT[n] - 1
        aggressive = (uniforms[here, i, game.DECISION_SLOT[n]]
                      < probabilities[i, game.INFOSET_INDEX[deals[here], n]])
        node[here] = np.where(aggressive, game.AGGRESSIVE_CHILD[n], game.PASSIVE_CHILD[n])
    histories = [game.NODES[n] for n in node.tolist()]
    # Hands share the payoff tuples of PAYOFF_TABLE, as the scalar loop's do.
    payoffs = [game.PAYOFF_TABLE[deal][h] for deal, h in zip(cards, histories)]
    hands = list(map(_new_hand, zip(range(len(cards)), cards, histories, payoffs)))
    totals = tuple(int(total) for total in game.PAYOFFS[deals, node].sum(axis=0))
    return MatchRecord(tuple(agent.name for agent in agents), totals, hands)


def _play_seatings(triple: Sequence[AgentSpec], built: Sequence[Agent], master_seed: int,
                   cards: Sequence[Sequence[str]],
                   decision_key: tuple[int, ...]) -> tuple[list[MatchRecord], tuple[int, int, int]]:
    """The six matches of a triple, one per seating permutation, and their
    chips per triple slot.  Permutation p plays cards[p] with decisions
    keyed by decision_key + (p,).  built holds one agent per slot, made by
    make_agent: stateless ProfileAgents are shared read-only, and any other
    agent is built afresh from its spec, so that it starts every match
    with a clean slate."""
    matches = []
    slot_totals = [0, 0, 0]
    for p, perm in enumerate(PERMUTATIONS):
        seated = [built[slot] if type(built[slot]) is ProfileAgent else make_agent(triple[slot])
                  for slot in perm]
        seed = np.random.SeedSequence(master_seed, spawn_key=decision_key + (p,))
        record = run_match(seated, cards[p], seed)
        for s in range(3):
            slot_totals[perm[s]] += record.seat_totals[s]
        matches.append(record)
    return matches, tuple(slot_totals)


def _duplicate_set(triple: Sequence[AgentSpec], built: Sequence[Agent], config: MatchConfig,
                   set_key: Sequence[int]) -> DuplicateSet:
    if len(triple) != 3:
        raise ValueError(f"a duplicate set needs exactly 3 agents, got {len(triple)}")
    key = tuple(int(k) for k in set_key)
    cards = deal_sequence(config.master_seed, (_DOMAIN_CARDS,) + key, config.hands_per_match)
    matches, slot_totals = _play_seatings(triple, built, config.master_seed, [cards] * 6,
                                          (_DOMAIN_DECISIONS,) + key)
    return DuplicateSet(tuple(spec.kind for spec in triple), cards, matches, slot_totals)


def run_duplicate_set(triple: Sequence[AgentSpec], config: MatchConfig,
                      set_key: Sequence[int]) -> DuplicateSet:
    """One duplicate set: a fresh card sequence replayed over all 6 seatings.

    set_key identifies the set within the tournament (grouping indices plus
    set index); it keys both the card stream and the per-permutation
    decision streams.  Each spec is built once by make_agent; stateful
    agents are rebuilt for every match.
    """
    return _duplicate_set(triple, [make_agent(spec) for spec in triple], config, set_key)


@dataclass
class AgentResult:
    """Aggregate line for one pool agent across a whole tournament."""

    label: str
    groupings: int
    hands: int
    total_chips: int
    chips_per_hand: float
    normalized_total: float
    std_error: float


@dataclass
class GroupingResult:
    """Per-grouping detail: pool indices, per-slot set aggregates, and the
    underlying duplicate sets (hand logs emptied when keep_hands is off)."""

    pool_indices: tuple[int, int, int]
    labels: tuple[str, str, str]
    set_totals: list[tuple[int, int, int]]  # one triple of slot totals per set
    slot_totals: tuple[int, int, int]
    sets: list[DuplicateSet]


@dataclass
class TournamentReport:
    """Full tournament outcome plus the configuration that produced it.

    Deliberately carries no wall-clock metadata: identical inputs must
    serialize to byte-identical reports.
    """

    config: MatchConfig
    labels: list[str]
    specs: list[AgentSpec]
    agents: list[AgentResult]
    groupings: list[GroupingResult]


def default_labels(specs: Sequence[AgentSpec]) -> list[str]:
    """Stable display labels: the kind, suffixed when the pool repeats it."""
    labels = []
    seen: dict[str, int] = {}
    for spec in specs:
        seen[spec.kind] = seen.get(spec.kind, 0) + 1
    counters: dict[str, int] = {}
    for spec in specs:
        if seen[spec.kind] == 1:
            labels.append(spec.kind)
        else:
            counters[spec.kind] = counters.get(spec.kind, 0) + 1
            labels.append(f"{spec.kind}#{counters[spec.kind]}")
    return labels


def run_tournament(pool: Sequence[AgentSpec], config: MatchConfig,
                   labels: Optional[Sequence[str]] = None,
                   keep_hands: bool = True) -> TournamentReport:
    """Run every 3-subset of the pool through the duplicate-match protocol.

    Each grouping plays matches_per_permutation duplicate sets (6 matches
    each).  Set seeds derive from (grouping indices, set index) so the pool
    may grow without disturbing existing groupings.  keep_hands=False drops
    per-hand logs after aggregation to bound memory on large tournaments.
    Each pool agent is built once by make_agent, which validates its spec;
    stateful ones are rebuilt for every match.
    """
    if len(pool) < 3:
        raise ValueError(f"a tournament needs a pool of >= 3 agents, got {len(pool)}")
    built = [make_agent(spec) for spec in pool]
    labels = list(labels) if labels is not None else default_labels(pool)
    if len(labels) != len(pool):
        raise ValueError(f"got {len(labels)} labels for a pool of {len(pool)}")
    if len(set(labels)) != len(labels):
        raise ValueError("agent labels must be unique")

    grouping_results: list[GroupingResult] = []
    # Per-agent accumulators across all groupings.
    totals = [0] * len(pool)
    hands_played = [0] * len(pool)
    grouping_counts = [0] * len(pool)
    set_means: list[list[float]] = [[] for _ in pool]  # per-set chips/hand samples
    hands_per_set = 6 * config.hands_per_match

    for indices in itertools.combinations(range(len(pool)), 3):
        triple = [pool[i] for i in indices]
        set_totals = []
        slot_totals = [0, 0, 0]
        sets = []
        for set_idx in range(config.matches_per_permutation):
            dup = _duplicate_set(triple, [built[i] for i in indices], config,
                                 indices + (set_idx,))
            set_totals.append(dup.slot_totals)
            for slot in range(3):
                slot_totals[slot] += dup.slot_totals[slot]
                set_means[indices[slot]].append(dup.slot_totals[slot] / hands_per_set)
            if not keep_hands:
                for match in dup.matches:
                    match.hands.clear()
            sets.append(dup)
        for slot in range(3):
            totals[indices[slot]] += slot_totals[slot]
            hands_played[indices[slot]] += hands_per_set * config.matches_per_permutation
            grouping_counts[indices[slot]] += 1
        grouping_results.append(GroupingResult(
            indices, tuple(labels[i] for i in indices), set_totals, tuple(slot_totals), sets))

    agents = []
    for i, label in enumerate(labels):
        samples = set_means[i]
        if len(samples) >= 2:
            std_error = statistics.stdev(samples) / math.sqrt(len(samples))
        else:
            std_error = 0.0
        chips_per_hand = totals[i] / hands_played[i] if hands_played[i] else 0.0
        agents.append(AgentResult(
            label=label,
            groupings=grouping_counts[i],
            hands=hands_played[i],
            total_chips=totals[i],
            chips_per_hand=chips_per_hand,
            normalized_total=totals[i] / config.normalization_divisor,
            std_error=std_error,
        ))
    return TournamentReport(config, labels, list(pool), agents, grouping_results)


REPORT_COLUMNS = ("agent", "groupings", "total_chips", "chips_per_hand",
                  "normalized_total", "std_error")


def report_csv(report: TournamentReport) -> str:
    """Summary table, one row per pool agent, highest total first."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(REPORT_COLUMNS)
    for result in sorted(report.agents, key=lambda r: (-r.total_chips, r.label)):
        writer.writerow([
            result.label,
            result.groupings,
            result.total_chips,
            f"{result.chips_per_hand:.6f}",
            f"{result.normalized_total:.6f}",
            f"{result.std_error:.6f}",
        ])
    return out.getvalue()


def report_json(report: TournamentReport) -> str:
    """Structured report with full per-grouping detail."""
    payload = {
        "config": {
            "master_seed": report.config.master_seed,
            "hands_per_match": report.config.hands_per_match,
            "matches_per_permutation": report.config.matches_per_permutation,
            "normalization_divisor": report.config.normalization_divisor,
        },
        "agents": [
            {
                "agent": r.label,
                "groupings": r.groupings,
                "hands": r.hands,
                "total_chips": r.total_chips,
                "chips_per_hand": r.chips_per_hand,
                "normalized_total": r.normalized_total,
                "std_error": r.std_error,
            }
            for r in report.agents
        ],
        "groupings": [
            {
                "pool_indices": list(g.pool_indices),
                "agents": list(g.labels),
                "set_totals": [list(t) for t in g.set_totals],
                "slot_totals": list(g.slot_totals),
            }
            for g in report.groupings
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# --- Match logs -----------------------------------------------------------

LOG_COLUMNS = ("hand", "card1", "card2", "card3", "actions", "chips1", "chips2", "chips3")


def match_log(record: MatchRecord, header: Iterable[str] = ()) -> str:
    """Serialize a match to text: comment header, then one CSV row per hand
    (index, per-seat cards, action string, per-seat net chips)."""
    out = io.StringIO()
    for line in header:
        out.write(f"# {line}\n")
    out.write(f"# seats: {','.join(record.agent_names)}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(LOG_COLUMNS)
    for hand in record.hands:
        writer.writerow([hand.index, *hand.deal, hand.history, *hand.payoffs])
    return out.getvalue()


class ReplayError(ValueError):
    """A match log disagrees with the rules engine."""


def replay_match_log(text: str) -> tuple[int, int, int]:
    """Look up every hand's payoffs from its cards and action string in the
    rules engine's payoff table and check them against the logged chips;
    returns the per-seat totals.

    Raises ReplayError naming the hand and the field for a log that lacks
    the '# seats:' line naming three agents, a row without exactly one
    value per column, an invalid deal, an action string that does not end
    the hand, a chip count that is not an integer, or chips that disagree
    with the rules."""
    lines = text.splitlines()
    seats = [line[len("# seats:"):].strip().split(",")
             for line in lines if line.startswith("# seats:")]
    if len(seats) != 1 or len(seats[0]) != 3 or not all(seats[0]):
        raise ReplayError("log has no '# seats:' line naming three agents")
    rows = [line for line in lines if line and not line.startswith("#")]
    if not rows:
        raise ReplayError("log contains no hands")
    reader = csv.reader(io.StringIO("\n".join(rows)))
    header = next(reader)
    if tuple(header) != LOG_COLUMNS:
        raise ReplayError(f"unrecognized log header: {header!r}")
    totals = [0, 0, 0]
    for row in reader:
        index = row[0]
        if len(row) != len(LOG_COLUMNS):
            raise ReplayError(f"hand {index}: expected {len(LOG_COLUMNS)} fields, got {len(row)}")
        deal = row[1] + row[2] + row[3]
        actions = row[4]
        try:
            derived = game.PAYOFF_TABLE[deal][actions]
        except KeyError:
            problem = (f"invalid deal {deal!r}" if deal not in game.PAYOFF_TABLE
                       else f"history {actions!r} is not terminal")
            raise ReplayError(f"hand {index}: {problem}") from None
        try:
            logged = tuple(map(int, row[5:]))
        except ValueError:
            column, chips = next((column, chips) for column, chips in zip(LOG_COLUMNS[5:], row[5:])
                                 if not chips.removeprefix("-").isdecimal())
            raise ReplayError(f"hand {index}: {column} is not an integer: {chips!r}") from None
        if logged != derived:
            raise ReplayError(
                f"hand {index}: logged chips {logged} disagree with derived {derived}")
        for s in range(3):
            totals[s] += derived[s]
    return (totals[0], totals[1], totals[2])


# --- Variance study -------------------------------------------------------

@dataclass
class VarianceStudy:
    """Duplicate aggregation versus independent-card matches at equal hand
    budget, for the agent in triple slot 0."""

    replications: int
    hands_per_match: int
    duplicate_mean: float
    independent_mean: float
    duplicate_variance: float
    independent_variance: float
    ratio: float


def variance_study(triple: Sequence[AgentSpec], config: MatchConfig,
                   replications: int) -> VarianceStudy:
    """Estimate Var(per-hand payoff of triple[0]) under the duplicate
    protocol and under independent-card matches of equal total hand count.

    Each replication runs 6 matches in both arms: arm (a) is a duplicate
    set (one card sequence, 6 seating permutations); arm (b) uses the same
    6 seatings but a fresh card sequence per match.  Both arms consume
    6 * hands_per_match hands per replication, and the studied statistic is
    the slot-0 agent's aggregate chips per hand.  The ratio is 1.0 when
    both variances vanish.  Each spec is built once by make_agent;
    stateful agents are rebuilt for every match.
    """
    if replications < 30:
        raise ValueError(f"replications must be >= 30, got {replications}")
    built = [make_agent(spec) for spec in triple]
    hands_per_rep = 6 * config.hands_per_match
    duplicate_samples = []
    independent_samples = []
    for r in range(replications):
        dup = _duplicate_set(triple, built, config, (_DOMAIN_STUDY_CARDS, r))
        duplicate_samples.append(dup.slot_totals[0] / hands_per_rep)

        cards = [deal_sequence(config.master_seed, (_DOMAIN_STUDY_INDEP_CARDS, r, p),
                               config.hands_per_match) for p in range(len(PERMUTATIONS))]
        _, slot_totals = _play_seatings(triple, built, config.master_seed, cards,
                                        (_DOMAIN_STUDY_INDEP_DECISIONS, r))
        independent_samples.append(slot_totals[0] / hands_per_rep)

    var_dup = statistics.variance(duplicate_samples)
    var_ind = statistics.variance(independent_samples)
    if var_ind == 0.0:
        ratio = 1.0 if var_dup == 0.0 else math.inf
    else:
        ratio = var_dup / var_ind
    return VarianceStudy(
        replications=replications,
        hands_per_match=config.hands_per_match,
        duplicate_mean=statistics.fmean(duplicate_samples),
        independent_mean=statistics.fmean(independent_samples),
        duplicate_variance=var_dup,
        independent_variance=var_ind,
        ratio=ratio,
    )
