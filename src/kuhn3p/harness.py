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

import copy
import csv
import io
import itertools
import json
import math
import statistics
from dataclasses import asdict, dataclass
from types import MappingProxyType
from typing import Iterable, Sequence

import numpy as np

from . import game
from .agents import Agent, AgentSpec, Observation, ProfileAgent, finite_positive, make_agent
from .game import (AGGRESSIVE_CHILD, DECISION_ACTIONS, DECISION_SEAT, DECISION_SLOT, N_DECISIONS,
                   NODES, PASSIVE_CHILD)

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

# A match holds all its hands at once, about 130 bytes each.
MAX_HANDS_PER_MATCH = 10 ** 6

# Row n: node n's infoset index for each of the 24 deals, contiguous for take.
_NODE_INFOSETS = np.ascontiguousarray(game.INFOSET_INDEX.T)


@dataclass(frozen=True)
class MatchConfig:
    """Protocol parameters shared by every match of a tournament.  Raises
    ValueError naming the field for a seed or count that is not an int in
    its bounds (a bool is no int) and for a divisor below 1 or that
    agents.finite_positive rejects.  normalization_divisor is stored as a float."""

    master_seed: int
    hands_per_match: int = 3000
    matches_per_permutation: int = 10
    normalization_divisor: float = 100_000.0

    def __post_init__(self) -> None:
        for key, low in ("master_seed", 0), ("hands_per_match", 1), ("matches_per_permutation", 1):
            value = getattr(self, key)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{key} must be an integer, got {value!r}")
            if value < low:
                raise ValueError(f"{key} must be >= {low}, got {value}")
        if self.hands_per_match > MAX_HANDS_PER_MATCH:
            raise ValueError(f"hands_per_match must be <= {MAX_HANDS_PER_MATCH}, "
                             f"got {self.hands_per_match}")
        divisor = finite_positive(self.normalization_divisor, "normalization_divisor")
        if divisor < 1:  # it would inflate the totals it normalizes
            raise ValueError(f"normalization_divisor must be >= 1, got {self.normalization_divisor!r}")
        object.__setattr__(self, "normalization_divisor", divisor)


@dataclass
class MatchRecord:
    """One match: per-seat agent names, totals, and every hand's outcome in
    play order (an index of game.OUTCOMES; divmod(o, 13) gives the indices
    of its deal in game.DEALS and its terminal in game.TERMINAL_HISTORIES).
    replay_match_log reads match_log's text of it back to an equal record."""

    agent_names: tuple[str, str, str]
    seat_totals: tuple[int, int, int]
    hands: list[int]


@dataclass
class DuplicateSet:
    """Six matches, one per seating permutation in PERMUTATIONS order, and
    their chips per triple slot.  Those of a duplicate set share one card
    sequence: each match's deals are its hands' outcomes // 13."""

    matches: list[MatchRecord]
    slot_totals: tuple[int, int, int]  # aggregated per triple slot, not per seat


def deal_sequence(master_seed: int, key: Sequence[int], hands: int) -> np.ndarray:
    """Uniform i.i.d. deals, keyed by (master, key), as indices into the
    24 card arrangements of game.DEALS."""
    seq = np.random.SeedSequence(master_seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.Philox(seq)).integers(0, len(game.DEALS), size=hands)


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


def _deal_indices(deals: Sequence[int]) -> np.ndarray:
    """deals as an index array; ValueError names the first hand whose deal
    is not an integer index of game.DEALS (a bool is no integer).  A valid
    integer array is checked whole; any other input deal by deal, as
    given, since np.asarray would read [0, True] as integers."""
    if isinstance(deals, np.ndarray) and deals.dtype.kind in "iu" \
            and ((0 <= deals) & (deals < len(game.DEALS))).all():
        return deals.astype(np.intp, copy=False)
    deals = deals.tolist() if isinstance(deals, np.ndarray) else list(deals)
    for hand, deal in enumerate(deals):
        if isinstance(deal, bool) or not isinstance(deal, (int, np.integer)) \
                or not 0 <= deal < len(game.DEALS):
            raise ValueError(f"hand {hand}: deal {deal!r} is not a game.DEALS index")
    return np.array(deals, dtype=np.intp)


def run_match(agents: Sequence[Agent], deals: Sequence[int],
              seed: int | np.random.SeedSequence) -> MatchRecord:
    """Play one match: agents[s-1] occupies seat s for every hand, one hand
    per deal index (into game.DEALS) of deals, its seat totals by _totals.

    Decision uniforms are drawn up front as an array indexed by
    (hand, seat, nth decision of that seat), making every decision's
    randomness a pure function of the seed and its position.  The agents
    are played as given, state included; build them with make_agent.

    Each plain ProfileAgent (exact type) is decided for every hand up
    front by ProfileAgent.act's comparison on the same uniforms, into bit
    n of the hand's decisions at each node n it acts at (its probability
    taken by node from the agent's table, then by deal).  Three plain
    ProfileAgents end each hand at game.TERMINAL_OF_DECISIONS; any other
    lineup takes the per-decision loop (`_play_each`), which asks every
    other agent, ProfileAgent subclasses included.  Raises ValueError,
    before any hand is played, for a deal that does not index game.DEALS.
    """
    if len(agents) != 3:
        raise ValueError(f"a match needs exactly 3 agents, got {len(agents)}")
    deals = _deal_indices(deals)
    gen = np.random.Generator(np.random.Philox(seed))
    # Seats 1 and 2 act at most twice per hand, seat 3 at most once.
    uniforms = gen.random((len(deals), 3, 2))
    fixed = []  # per decision node: its bit where a plain ProfileAgent acts, else 0
    decisions = np.zeros(len(deals), dtype=np.intp)
    for n, seat in enumerate(DECISION_SEAT):
        fixed.append(1 << n if type(agents[seat - 1]) is ProfileAgent else 0)
        if fixed[n]:
            thresholds = agents[seat - 1].probabilities.take(_NODE_INFOSETS[n]).take(deals)
            decisions |= np.left_shift(uniforms[:, seat - 1, DECISION_SLOT[n]] < thresholds,
                                       n, dtype=np.intp)
    node = (game.TERMINAL_OF_DECISIONS[decisions] if all(fixed)
            else _play_each(agents, deals, uniforms, fixed, decisions))
    hands = deals * game.N_TERMINALS + node - N_DECISIONS
    return MatchRecord(tuple(agent.name for agent in agents), _totals(hands), hands.tolist())


def _totals(hands: Sequence[int]) -> tuple[int, int, int]:
    """Each seat's net chips over hands: each outcome's count times its payoffs."""
    counts = np.bincount(np.asarray(hands, dtype=np.intp), minlength=len(game.OUTCOMES))
    return tuple((counts @ game.OUTCOME_PAYOFFS).tolist())


def _play_each(agents: Sequence[Agent], deals: np.ndarray, uniforms: np.ndarray,
               fixed: Sequence[int], decisions: np.ndarray) -> np.ndarray:
    """The per-decision match loop, returning each hand's terminal node id.
    A hand goes from one node n with fixed[n] unset, where an agent is asked,
    to the next: stops[c] holds the first such node or terminal at or below c,
    following the hand's decisions (run_match).  Hands share the match's one
    Observation per (deal, node), one uniform list per asked (seat, slot) and
    one (revealed, history, payoffs) view per outcome, revealed read-only."""
    observers = [a.observe_result for a in agents if type(a).observe_result is not Agent.observe_result]
    rng = _SlotRng()
    asked = [n for n, bit in enumerate(fixed) if not bit]
    stops = list(range(len(NODES)))  # node c's stop for every hand, or one stop for them all
    for n in reversed(range(N_DECISIONS)):
        if fixed[n]:
            stops[n] = np.where(decisions & fixed[n], stops[AGGRESSIVE_CHILD[n]], stops[PASSIVE_CHILD[n]])
    stops = {c: np.broadcast_to(stops[c], deals.shape).tolist()
             for c in [0, *(c for n in asked for c in (PASSIVE_CHILD[n], AGGRESSIVE_CHILD[n]))]}
    columns = {(seat, slot): uniforms[:, seat - 1, slot].tolist()
               for seat, slot in {(DECISION_SEAT[n], DECISION_SLOT[n]) for n in asked}}
    asks = [None if fixed[n] else (
        agents[seat - 1].act, columns[seat, DECISION_SLOT[n]], *DECISION_ACTIONS[n], stops[PASSIVE_CHILD[n]],
        stops[AGGRESSIVE_CHILD[n]], [Observation(seat, d[seat - 1], NODES[n]) for d in game.DEALS])
        for n, seat in enumerate(DECISION_SEAT)]
    views = [None] * len(game.OUTCOMES)  # each outcome's, built when a hand first ends there
    terminals = []
    for index, (d, n) in enumerate(zip(deals.tolist(), stops[0])):
        while n < N_DECISIONS:
            act, column, passive, aggressive, passive_stops, aggressive_stops, observations = asks[n]
            rng.value = column[index]
            action = act(observations[d], rng)
            if action == passive:
                n = passive_stops[index]
            elif action == aggressive:
                n = aggressive_stops[index]
            else:
                raise RuntimeError(
                    f"agent {agents[DECISION_SEAT[n] - 1].name!r} returned illegal action {action!r} "
                    f"at history {NODES[n]!r} in hand {index}")
        terminals.append(n)
        if observers:
            view = views[o := d * game.N_TERMINALS + n - N_DECISIONS]
            if view is None:
                deal, h = game.OUTCOMES[o]
                revealed = MappingProxyType({s: deal[s - 1] for s in game.SHOWDOWN_SEATS[n - N_DECISIONS]})
                view = views[o] = revealed, h, game.PAYOFF_TABLE[deal][h]
            for observe in observers:
                observe(*view)
    return np.array(terminals, dtype=np.intp)


def _play_seatings(agents: Sequence[Agent], master_seed: int, cards: Sequence[np.ndarray],
                   decision_key: tuple[int, ...]) -> DuplicateSet:
    """The six matches of a triple, permutation p playing cards[p] with
    decisions keyed by decision_key + (p,), tallied per triple slot as they
    are played.  agents holds one unplayed agent per slot: a plain
    ProfileAgent is shared read-only, and any other agent is seated as a
    deep copy, so that it starts every match afresh."""
    matches, totals = [], [0, 0, 0]
    for p, perm in enumerate(PERMUTATIONS):
        seated = [agents[slot] if type(agents[slot]) is ProfileAgent else copy.deepcopy(agents[slot])
                  for slot in perm]
        seed = np.random.SeedSequence(master_seed, spawn_key=decision_key + (p,))
        matches.append(run_match(seated, cards[p], seed))
        for slot, chips in zip(perm, matches[-1].seat_totals):
            totals[slot] += chips
    return DuplicateSet(matches, tuple(totals))


def run_duplicate_set(agents: Sequence[Agent], config: MatchConfig,
                      set_key: Sequence[int]) -> DuplicateSet:
    """One duplicate set of three built agents: a fresh card sequence
    replayed over all 6 seatings, as _play_seatings plays them.

    set_key identifies the set within the tournament (grouping indices plus
    set index); it keys both the card stream and the per-permutation
    decision streams.
    """
    if len(agents) != 3:
        raise ValueError(f"agents: a duplicate set needs exactly 3 agents, got {len(agents)}")
    key = tuple(int(k) for k in set_key)
    cards = deal_sequence(config.master_seed, (_DOMAIN_CARDS,) + key, config.hands_per_match)
    return _play_seatings(agents, config.master_seed, [cards] * 6, (_DOMAIN_DECISIONS,) + key)


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
    underlying duplicate sets (every match's hands emptied when keep_hands
    is off).  set_totals is the tournament's one tally:
    slot_totals and every AgentResult are derived from it."""

    pool_indices: tuple[int, int, int]
    labels: tuple[str, str, str]
    set_totals: list[tuple[int, int, int]]  # one triple of slot totals per set
    slot_totals: tuple[int, int, int]
    sets: list[DuplicateSet]


@dataclass
class TournamentReport:
    """Full tournament outcome: the protocol configuration, one
    AgentResult per pool agent, in pool order, and the per-grouping detail.

    Deliberately carries no wall-clock metadata: identical inputs must
    serialize to byte-identical reports.
    """

    config: MatchConfig
    agents: list[AgentResult]
    groupings: list[GroupingResult]


def pool_labels(pool: Sequence[AgentSpec]) -> list[str]:
    """Each pool entry's label: its name, or else its kind, suffixed #1,
    #2, ... when the pool repeats that kind (named entries included in the
    count).  A label names its agent in a match log's '# seats:' line, so
    ValueError names the entry agents[i] whose label is not a non-empty
    string free of ',', line breaks and surrogates, or repeats an earlier one."""
    kinds = [spec.kind for spec in pool]
    labels: list[str] = []
    for i, (spec, kind) in enumerate(zip(pool, kinds)):
        numbered = kind if kinds.count(kind) == 1 else f"{kind}#{kinds[:i + 1].count(kind)}"
        label = numbered if spec.name is None else spec.name
        if not isinstance(label, str) or "," in label or label.splitlines() != [label] \
                or any("\ud800" <= c <= "\udfff" for c in label):  # UTF-8 cannot write these
            raise ValueError(f"agents[{i}]: label {label!r} must be a non-empty string "
                             f"without ',', a line break or a lone surrogate")
        if label in labels:
            raise ValueError(f"agents[{i}]: label {label!r} names more than one agent; "
                             f"give each a distinct name")
        labels.append(label)
    return labels


def _pool_agents(pool: Sequence[AgentSpec]) -> list[Agent]:
    """One agent per pool entry, built in order by make_agent, which checks
    its spec, and then named by its pool_labels label, so that match records
    and logs carry the labels.  The only code that turns specs into agents:
    ValueError for the first bad spec reads 'agents[i]: ' and make_agent's
    message, and a label error comes only after every spec is built."""
    agents = []
    for i, spec in enumerate(pool):
        try:
            agents.append(make_agent(spec))
        except ValueError as exc:
            raise ValueError(f"agents[{i}]: {exc}") from exc
    for agent, label in zip(agents, pool_labels(pool)):
        agent.name = label
    return agents


def run_tournament(pool: Sequence[AgentSpec], config: MatchConfig,
                   keep_hands: bool = True) -> TournamentReport:
    """Run every 3-subset of the pool through the duplicate-match protocol.

    Each grouping plays matches_per_permutation duplicate sets (6 matches
    each).  Set seeds derive from (grouping indices, set index) so the pool
    may grow without disturbing existing groupings.  keep_hands=False drops
    the hands of each set's matches once it is tallied, to bound memory
    on large tournaments.  Each pool agent is built once (_pool_agents);
    a stateful one is copied from that unplayed instance for every match.
    The agents are reported, and seated, under their pool_labels.  Raises
    ValueError, before any hand is played, for a pool of fewer than 3
    agents and for what _pool_agents rejects.
    """
    if len(pool) < 3:
        raise ValueError(f"agents: a tournament needs a pool of >= 3 agents, got {len(pool)}")
    built = _pool_agents(pool)
    labels = [agent.name for agent in built]

    grouping_results: list[GroupingResult] = []
    for indices in itertools.combinations(range(len(pool)), 3):
        sets = []
        for set_idx in range(config.matches_per_permutation):
            dup = run_duplicate_set([built[i] for i in indices], config, indices + (set_idx,))
            if not keep_hands:
                for match in dup.matches:
                    match.hands.clear()
            sets.append(dup)
        set_totals = [dup.slot_totals for dup in sets]
        grouping_results.append(GroupingResult(
            indices, tuple(labels[i] for i in indices), set_totals,
            tuple(sum(chips) for chips in zip(*set_totals)), sets))

    hands_per_set = 6 * config.hands_per_match
    agents = []
    for i, label in enumerate(labels):
        # The chips of every set the agent played, grouping by grouping.
        chips = [totals[g.pool_indices.index(i)] for g in grouping_results if i in g.pool_indices
                 for totals in g.set_totals]
        samples = [c / hands_per_set for c in chips]
        std_error = statistics.stdev(samples) / math.sqrt(len(samples)) if len(samples) >= 2 else 0.0
        total, hands = sum(chips), len(chips) * hands_per_set
        agents.append(AgentResult(label, len(chips) // config.matches_per_permutation, hands, total,
                                  total / hands, total / config.normalization_divisor, std_error))
    return TournamentReport(config, agents, grouping_results)


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
        "config": asdict(report.config),
        # Every AgentResult field, its label under the key "agent".
        "agents": [{"agent" if key == "label" else key: value for key, value in asdict(r).items()}
                   for r in report.agents],
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

#: Each outcome's log row after the hand index, ",cards,actions,chips\n", at its index.
_ROW_ENDS = [f",{','.join(deal)},{history},{a},{b},{c}\n" for (deal, history), (a, b, c)
             in zip(game.OUTCOMES, game.OUTCOME_PAYOFFS.tolist())]
_TAIL_OUTCOME = {end[1:-1]: o for o, end in enumerate(_ROW_ENDS)}
_LABELS: list[str] = []  # hand k's label, str(k), for the longest log yet of <= MAX_HANDS_PER_MATCH hands


def _labels(n: int) -> list[str]:
    """The label table, first replaced (never extended in place) if shorter than n."""
    global _LABELS
    if len(labels := _LABELS) < n:
        labels = labels + list(map(str, range(len(labels), n)))
        if n <= MAX_HANDS_PER_MATCH:  # a longer log's labels are its own
            _LABELS = labels
    return labels


def match_log(record: MatchRecord, header: Iterable[str] = ()) -> str:
    """Serialize a match to text: comment header, then one CSV row per hand
    (index, per-seat cards, action string, per-seat net chips).  Hand k's
    label and its outcome's row end fill two slots of one list after the
    header lines, which is joined once.  Raises ValueError
    naming what replay_match_log could not read (a header entry with a
    line break, an agent name that is empty or holds ',' or a line break)
    and the first hand whose outcome is not an index of game.OUTCOMES."""
    head = []
    for line in header:
        if line.splitlines() not in ([], [line]):
            raise ValueError(f"header entry {line!r} contains a line break")
        head.append(f"# {line}\n")
    if any("," in name or name.splitlines() != [name] for name in record.agent_names):
        raise ValueError(f"agent names {record.agent_names!r}: one is empty or has ',' or a line break")
    head.append(f"# seats: {','.join(record.agent_names)}\n{','.join(LOG_COLUMNS)}\n")
    start, n = len(head), len(record.hands)
    lines = [""] * (start + 2 * n)  # the header lines, then hand k's label and its row end
    lines[:start] = head
    lines[start::2] = _labels(n)[:n]
    try:  # a list index rejects a float, and min a negative index it would wrap
        if min(record.hands, default=0) >= 0:
            lines[start + 1::2] = map(_ROW_ENDS.__getitem__, record.hands)
            return "".join(lines)
    except (IndexError, TypeError):
        pass
    k, o = next((k, o) for k, o in enumerate(record.hands)
                if not isinstance(o, (int, np.integer)) or not 0 <= o < len(game.OUTCOMES))
    raise ValueError(f"hand {k}: outcome {o!r} is not a game.OUTCOMES index")


class ReplayError(ValueError):
    """A match log disagrees with the rules engine."""


def _row_error(k: int, row: str) -> ReplayError:
    """The first field of row k, in column order, that match_log would not write."""
    fields = row.split(",")
    if fields[0] != str(k):
        return ReplayError(f"hand {k}: hand expected {k}, found {fields[0]!r}")
    if len(fields) != len(LOG_COLUMNS):
        return ReplayError(f"hand {k}: expected {len(LOG_COLUMNS)} fields, got {len(fields)}")
    for column, card in zip(LOG_COLUMNS[1:4], fields[1:4]):
        if card not in game.CARDS:
            return ReplayError(f"hand {k}: {column} is not a card: {card!r}")
    deal = "".join(fields[1:4])
    if deal not in game.PAYOFF_TABLE:
        return ReplayError(f"hand {k}: invalid deal {deal!r}")
    if fields[4] not in game.PAYOFF_TABLE[deal]:
        return ReplayError(f"hand {k}: history {fields[4]!r} is not terminal")
    for column, expected, found in zip(LOG_COLUMNS[5:], game.PAYOFF_TABLE[deal][fields[4]], fields[5:]):
        if not found.removeprefix("-").isdecimal():
            return ReplayError(f"hand {k}: {column} is not an integer: {found!r}")
        if found != str(expected):
            return ReplayError(f"hand {k}: {column} expected {expected}, found {found}")
    raise AssertionError(f"row {k} is one that match_log writes: {row!r}")


def replay_match_log(text: str) -> MatchRecord:
    """The MatchRecord that match_log wrote text from: names from the
    '# seats:' line, outcomes from row k of each hand k (its hand field
    match_log's label for k, the rest looked up whole among the 312 row
    texts) and their _totals.  A log must hold exactly the lines match_log
    writes, and no line is read twice.

    Raises ReplayError if the last comment is not a '# seats:' line naming
    three agents or the next line is not the column header, and otherwise
    names the hand and its first field that differs: a row numbered out of
    turn ("hand 5: hand expected 5, found '0'"), a wrong field count, a
    card, deal or action string the rules do not know, or chips not spelled
    as an integer or disagreeing with the rules ("hand 29: chips2 expected
    -2, found -1")."""
    lines = text.splitlines()
    h = next((i for i, line in enumerate(lines) if not line.startswith("#")), len(lines))
    seats = lines[h - 1] if h else ""
    names = tuple(seats[len("# seats: "):].split(","))
    if not (seats.startswith("# seats: ") and len(names) == 3 and all(names)):
        raise ReplayError("log has no '# seats:' line naming three agents")
    if h == len(lines):
        raise ReplayError("log contains no hands")
    if lines[h] != ",".join(LOG_COLUMNS):
        raise ReplayError(f"unrecognized log header: {lines[h].split(',')!r}")
    outcomes = []  # while row k is read, k == len(outcomes)
    for label, row in zip(_labels(len(lines) - h - 1), itertools.islice(lines, h + 1, None)):
        hand, _, tail = row.partition(",")
        o = _TAIL_OUTCOME.get(tail)
        if o is None or hand != label:
            raise _row_error(len(outcomes), row)
        outcomes.append(o)
    return MatchRecord(names, _totals(outcomes), outcomes)


# --- Variance study -------------------------------------------------------

@dataclass
class VarianceStudy:
    """Duplicate aggregation versus independent-card matches at equal hand
    budget, for the agent in triple slot 0.  agents holds the triple's
    pool_labels, slot 0 first."""

    agents: list[str]
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
    both variances vanish.  Each spec is built once (_pool_agents); a
    stateful agent is copied from that unplayed instance for every match.
    Raises ValueError, before any hand is played, for fewer than 30
    replications, for what _pool_agents rejects and for a triple that is
    not 3 agents (run_duplicate_set).
    """
    if replications < 30:
        raise ValueError(f"replications must be >= 30, got {replications}")
    built = _pool_agents(triple)
    hands_per_rep = 6 * config.hands_per_match
    duplicate_samples = []
    independent_samples = []
    for r in range(replications):
        dup = run_duplicate_set(built, config, (_DOMAIN_STUDY_CARDS, r))
        duplicate_samples.append(dup.slot_totals[0] / hands_per_rep)

        cards = [deal_sequence(config.master_seed, (_DOMAIN_STUDY_INDEP_CARDS, r, p),
                               config.hands_per_match) for p in range(len(PERMUTATIONS))]
        independent = _play_seatings(built, config.master_seed, cards,
                                     (_DOMAIN_STUDY_INDEP_DECISIONS, r))
        independent_samples.append(independent.slot_totals[0] / hands_per_rep)

    var_dup = statistics.variance(duplicate_samples)
    var_ind = statistics.variance(independent_samples)
    if var_ind == 0.0:
        ratio = 1.0 if var_dup == 0.0 else math.inf
    else:
        ratio = var_dup / var_ind
    return VarianceStudy(
        agents=[agent.name for agent in built],
        replications=replications,
        hands_per_match=config.hands_per_match,
        duplicate_mean=statistics.fmean(duplicate_samples),
        independent_mean=statistics.fmean(independent_samples),
        duplicate_variance=var_dup,
        independent_variance=var_ind,
        ratio=ratio,
    )
