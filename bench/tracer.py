"""Call tracing for the benchmark's traced runs.

The tracer patches module and class attributes of an imported ``kuhn3p``
and restores them afterwards; nothing under ``src/`` changes.  Every
wrapped call pushes a frame on one stack, so each wrapped function gets a
call count and a self time (its duration minus the time its wrapped
children took).  Coarse calls also record a span (name, start, end,
parent, self time) that stays in memory until the run writes it out.
Per-decision functions, which run millions of times, record only counts
and summed time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

# (owner, attribute, traced name, records spans).  The owner is a path
# inside the kuhn3p package; the first part of the traced name is the
# layer the call's self time belongs to.
TARGETS = (
    ("game", "acting_seat", "game.acting_seat", False),
    ("game", "action_pair", "game.action_pair", False),
    ("game", "situation_of", "game.situation_of", False),
    ("game", "infoset_key", "game.infoset_key", False),
    ("game", "is_terminal", "game.is_terminal", False),
    ("game", "terminal_payoffs", "game.terminal_payoffs", False),
    ("strategy", "parse_profile", "strategy.parse_profile", True),
    ("strategy", "nash_profile", "strategy.nash_profile", True),
    # harness imports make_agent by name, so both bindings are wrapped.
    ("agents", "make_agent", "agents.make_agent", True),
    ("harness", "make_agent", "agents.make_agent", True),
    ("agents.ProfileAgent", "act", "agents.ProfileAgent.act", False),
    ("agents.FrequencyModeler", "act", "agents.FrequencyModeler.act", True),
    ("agents.FrequencyModeler", "observe_result", "agents.FrequencyModeler.observe_result", True),
    ("harness", "run_tournament", "harness.run_tournament", True),
    ("harness", "run_duplicate_set", "harness.run_duplicate_set", True),
    ("harness", "run_match", "harness.run_match", True),
    ("harness", "deal_sequence", "harness.deal_sequence", True),
    ("harness", "match_log", "harness.match_log", True),
    ("harness", "replay_match_log", "harness.replay_match_log", True),
    ("cli", "main", "cli.main", True),
    ("cli", "cmd_tournament", "cli.tournament", True),
    ("cli", "cmd_replay", "cli.replay", True),
    ("equilibrium.CfrTrainer", "run", "equilibrium.CfrTrainer.run", True),
    ("equilibrium.CfrTrainer", "average_profile", "equilibrium.CfrTrainer.average_profile", True),
    ("equilibrium", "epsilon", "equilibrium.epsilon", True),
    ("equilibrium", "expected_values", "equilibrium.expected_values", True),
    ("equilibrium", "best_response", "equilibrium.best_response", True),
    ("equilibrium", "epsilon_report", "equilibrium.epsilon_report", True),
    ("equilibrium", "pure_strategy_oracle", "equilibrium.pure_strategy_oracle", True),
)

LAYERS = ("game", "strategy", "agents", "harness", "equilibrium", "cli")
NAMES = tuple(dict.fromkeys(name for _, _, name, _ in TARGETS))


def _iterations(args, kwargs, result):
    return args[1] if len(args) > 1 else kwargs.get("iterations", 0)


# traced name -> (counter name, amount taken from one call's arguments and result)
COUNTERS = {
    "harness.match_log": ("harness.match_log.bytes",
                          lambda args, kwargs, result: len(result.encode("utf-8"))),
    "equilibrium.CfrTrainer.run": ("equilibrium.cfr.iterations", _iterations),
    "equilibrium.pure_strategy_oracle": ("equilibrium.pure_strategy_oracle.evaluations",
                                         lambda args, kwargs, result: result.evaluations or 0),
}


class Tracer:
    """Wraps the TARGETS of one imported kuhn3p; one instance per run."""

    def __init__(self) -> None:
        self.stats = {name: [0, 0.0] for name in NAMES}  # name -> [calls, self seconds]
        self.counters = {counter: 0 for counter, _ in COUNTERS.values()}
        # (name, start, end, parent span index or -1, self seconds)
        self.spans: list[tuple[str, float, float, int, float]] = []
        self.missing: list[str] = []
        self._stack: list[list] = []  # per open call: [child seconds, index of its span or enclosing span]
        self._patches: list[tuple[object, str, object]] = []

    def install(self, package) -> None:
        for owner_path, attr, name, span in TARGETS:
            owner = package
            for part in owner_path.split("."):
                owner = getattr(owner, part, None)
            if owner is None or attr not in vars(owner):
                self.missing.append(f"{owner_path}.{attr}")
                continue
            original = vars(owner)[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, span))
        if self.missing:
            print(f"trace: not found, left untraced: {', '.join(self.missing)}", file=sys.stderr)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take_round(self) -> dict:
        """Counts and self times since the last call, then reset them."""
        snapshot = {
            "calls": {name: stat[0] for name, stat in self.stats.items()},
            "self_s": {name: stat[1] for name, stat in self.stats.items()},
            "counters": dict(self.counters),
        }
        for stat in self.stats.values():
            stat[0], stat[1] = 0, 0.0
        for counter in self.counters:
            self.counters[counter] = 0
        return snapshot

    def _wrap(self, original, name: str, span: bool):
        stat = self.stats[name]
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        counter, amount = COUNTERS.get(name, (None, None))
        counters = self.counters

        if not span:
            @functools.wraps(original)
            def counted(*args, **kwargs):
                frame = [0.0, stack[-1][1] if stack else -1]  # spans inside nest under the enclosing span
                stack.append(frame)
                start = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    stat[0] += 1
                    stat[1] += elapsed - frame[0]
                    if stack:
                        stack[-1][0] += elapsed
            return counted

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            frame = [0.0, len(spans)]
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                own = (end - start) - frame[0]
                stat[0] += 1
                stat[1] += own
                if stack:
                    stack[-1][0] += end - start
                spans[frame[1]] = (name, start, end, parent, own)
            if counter is not None:
                counters[counter] += amount(args, kwargs, result)
            return result
        return spanned

    def check_spans(self) -> list[str]:
        """Problems with the span tree: a self time outside [0, duration],
        or a child that lasts longer than its parent."""
        problems = []
        for i, (name, start, end, parent, own) in enumerate(self.spans):
            duration = end - start
            if not -1e-9 <= own <= duration + 1e-9:
                problems.append(f"span {i} ({name}): self time {own} outside [0, {duration}]")
            if parent >= 0:
                p_name, p_start, p_end, _, _ = self.spans[parent]
                if duration > (p_end - p_start) + 1e-9:
                    problems.append(f"span {i} ({name}) outlasts its parent {parent} ({p_name})")
        return problems

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def write(self, path: Path, meta: dict) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [[name, start - origin, end - origin, parent, own]
                for name, start, end, parent, own in self.spans]
        path.write_text(json.dumps({**meta, "fields": ["name", "start", "end", "parent", "self"],
                                    "spans": rows}) + "\n")
