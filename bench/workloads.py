"""The benchmark's workloads: inputs made from the seed, the timed job,
and the checks on its outputs.

Each workload is built from an imported ``kuhn3p`` package and calls it
through module attributes at call time, so the tracer's patches apply.
``run`` does the fixed job once and returns its timings and outputs;
``check`` examines them outside the timed region and records every
failure in a ``Gate``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import shutil
import time
from fractions import Fraction
from pathlib import Path

clock = time.perf_counter

# Seat permutations in the order the harness plays them: permutation p
# seats triple slot PERMUTATIONS[p][s] at seat s + 1.
PERMUTATIONS = tuple(itertools.permutations((0, 1, 2)))

# Job sizes.  "full" is what the benchmark measures; "tiny" keeps the
# benchmark's own tests fast.
SIZES = {
    "full": {
        "tournament-profile": {"hands": 3000, "sets": 1},
        "tournament-modeler": {"hands": 3000, "sets": 1},
        "solve": {"every": 1000, "target": Fraction(1, 1000), "cap": 40_000, "profiles": 4},
    },
    "tiny": {
        "tournament-profile": {"hands": 40, "sets": 1},
        "tournament-modeler": {"hands": 40, "sets": 1},
        "solve": {"every": 100, "target": Fraction(1, 100), "cap": 4000, "profiles": 1},
    },
}


class Gate:
    """Operations attempted and the ones some check failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: set[int] = set()
        self.messages: dict[str, int] = {}  # message -> times it occurred

    def attempt(self, count: int) -> range:
        ops = range(self.attempted, self.attempted + count)
        self.attempted += count
        return ops

    def require(self, ok: bool, ops, message: str) -> None:
        if not ok:
            self.failed.update(ops)
            self.messages[message] = self.messages.get(message, 0) + 1


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _check_digest(gate: Gate, ops, label: str, got: str, want: str | None) -> None:
    gate.require(got == want, ops, f"{label} sha256 {got} differs from golden {want}")


def _first_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[0] if lines else ""


class TournamentProfile:
    """`kuhn3p tournament` on four stateless profile agents, one of them
    reading a float-valued CFRTrained profile file, then `kuhn3p replay`
    on every log it wrote."""

    name = "tournament-profile"

    def __init__(self, kuhn3p, seed: int, size: str, workdir: Path, golden: dict,
                 reference: bool) -> None:
        self.cli = kuhn3p.cli
        self.hands = SIZES[size][self.name]["hands"]
        self.sets = SIZES[size][self.name]["sets"]
        self.golden = golden if reference else None
        rng = random.Random(seed)
        profile = kuhn3p.strategy.StrategyProfile(
            {key: rng.random() for key in kuhn3p.game.all_infoset_keys()})
        profile_path = workdir / "cfr_trained.profile"
        profile_path.write_text(kuhn3p.strategy.serialize_profile(
            profile, header=f"random float profile, benchmark seed {seed}"))
        self.pool = [
            {"kind": "NashLB"},
            {"kind": "NashUB"},
            {"kind": "HonestNoBluff", "parameters": {"king_bet": "1/3"}},
            {"kind": "CFRTrained", "parameters": {"profile": str(profile_path.resolve())}},
        ]
        master_seed = rng.randrange(2 ** 31)
        self.config = self._write_config(workdir / "tournament.json", master_seed, self.hands, self.sets)
        self.out = workdir / "out"
        self.warm_config = self._write_config(workdir / "warm.json", master_seed, 10, 1)
        self.warm_out = workdir / "warm"
        self.groupings = list(itertools.combinations(range(len(self.pool)), 3))

    def _write_config(self, path: Path, master_seed: int, hands: int, sets: int) -> Path:
        path.write_text(json.dumps({"agents": self.pool, "master_seed": master_seed,
                                    "hands_per_match": hands, "matches_per_permutation": sets}))
        return path

    def warm_up(self) -> None:
        self._play(self.warm_config, self.warm_out)

    def run(self) -> dict:
        result = self._play(self.config, self.out)
        hands = len(self.groupings) * self.sets * 6 * self.hands
        result.update(work_rates=[hands / result["main_s"]], hands=hands)
        return result

    def _play(self, config: Path, out: Path) -> dict:
        shutil.rmtree(out, ignore_errors=True)
        console, errors = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(console), contextlib.redirect_stderr(errors):
            start = clock()
            rc = self.cli.main(["tournament", "--config", str(config), "--out", str(out)])
            played = clock()
            logs = sorted(name for name in os.listdir(out) if name.endswith(".log")) if rc == 0 else []
            replay_rc = {name: self.cli.main(["replay", "--log", str(out / name)]) for name in logs}
            end = clock()
        return {"wall_s": end - start, "main_s": played - start, "replay_s": end - played,
                "rc": rc, "replay_rc": replay_rc, "errors": errors.getvalue()}

    def check(self, result: dict, gate: Gate) -> None:
        matches = [(g, s, p) for g in range(len(self.groupings))
                   for s in range(self.sets) for p in range(len(PERMUTATIONS))]
        match_ops = gate.attempt(len(matches))
        replay_ops = gate.attempt(len(matches))
        every = list(match_ops) + list(replay_ops)
        gate.require(result["rc"] == 0, every,
                     f"tournament exited {result['rc']}: {_first_line(result['errors'])}")
        if result["rc"] != 0:
            return

        names = []
        for g, s, p in matches:
            a, b, c = self.groupings[g]
            names.append(f"match_g{a}-{b}-{c}_s{s}_p{p}.log")
        present = set(os.listdir(self.out))
        extra = present - set(names) - {"report.csv", "report.json"}
        gate.require(not extra, match_ops, f"unexpected files in the output: {sorted(extra)[:3]}")
        gate.require({"report.csv", "report.json"} <= present, every, "report.csv or report.json missing")
        if not {"report.csv", "report.json"} <= present:
            return
        result["files_written"] = len(present)
        result["bytes_written"] = sum((self.out / name).stat().st_size for name in present)

        slot_sums: dict[tuple[int, int], list[int]] = {}
        logs_digest = hashlib.sha256()
        for (g, s, p), name, m_op, r_op in zip(matches, names, match_ops, replay_ops):
            gate.require(name in present, [m_op, r_op], f"missing log {name}")
            if name not in present:
                continue
            text = (self.out / name).read_text(encoding="utf-8")
            logs_digest.update(text.encode("utf-8"))
            rows = [line for line in text.splitlines() if line and not line.startswith("#")]
            gate.require(len(rows) - 1 == self.hands, [m_op],
                         f"{name}: {len(rows) - 1} hands, protocol says {self.hands}")
            gate.require(result["replay_rc"].get(name) == 0, [r_op],
                         f"replay of {name} exited {result['replay_rc'].get(name)}")
            totals = [0, 0, 0]
            for row in rows[1:]:
                chips = row.rsplit(",", 3)[1:]
                for seat in range(3):
                    totals[seat] += int(chips[seat])
            slots = slot_sums.setdefault((g, s), [0, 0, 0])
            for seat in range(3):
                slots[PERMUTATIONS[p][seat]] += totals[seat]
        if result["errors"]:
            gate.require(False, [], f"replay said: {_first_line(result['errors'])}")

        report = json.loads((self.out / "report.json").read_text(encoding="utf-8"))
        gate.require(sum(agent["total_chips"] for agent in report["agents"]) == 0, match_ops,
                     "agent totals in report.json do not sum to zero")
        for i, agent in enumerate(report["agents"]):
            expected = sum(i in grouping for grouping in self.groupings) * self.sets * 6 * self.hands
            gate.require(agent["hands"] == expected, match_ops,
                         f"report.json: {agent['agent']} played {agent['hands']} hands, protocol says {expected}")
        gate.require(len(report["groupings"]) == len(self.groupings), match_ops,
                     f"report.json has {len(report['groupings'])} groupings, protocol says {len(self.groupings)}")
        for g, grouping in enumerate(report["groupings"]):
            for s in range(self.sets):
                ops = [op for (mg, ms, _), op in zip(matches, match_ops) if (mg, ms) == (g, s)]
                logged = slot_sums.get((g, s))
                gate.require(grouping["set_totals"][s] == logged, ops,
                             f"grouping {g} set {s}: report set totals {grouping['set_totals'][s]} "
                             f"but the logs sum to {logged}")
        if self.golden is not None:
            for label in ("report.csv", "report.json"):
                _check_digest(gate, match_ops, label,
                              _sha256((self.out / label).read_bytes()), self.golden.get(label))
            _check_digest(gate, match_ops, "concatenated logs", logs_digest.hexdigest(),
                          self.golden.get("logs"))


class TournamentModeler:
    """`harness.run_tournament` in process, without hand logs, on a pool
    led by the stateful FrequencyModeler."""

    name = "tournament-modeler"

    def __init__(self, kuhn3p, seed: int, size: str, workdir: Path, golden: dict,
                 reference: bool) -> None:
        self.harness = kuhn3p.harness
        self.hands = SIZES[size][self.name]["hands"]
        self.sets = SIZES[size][self.name]["sets"]
        self.golden = golden if reference else None
        rng = random.Random(seed)
        spec = kuhn3p.agents.AgentSpec
        self.pool = [spec("FrequencyModeler"), spec("NashLB"),
                     spec("HonestNoBluff", {"king_bet": "1/3"})]
        master_seed = rng.randrange(2 ** 31)
        self.config = self.harness.MatchConfig(master_seed=master_seed, hands_per_match=self.hands,
                                               matches_per_permutation=self.sets)
        self.warm_config = self.harness.MatchConfig(master_seed=master_seed, hands_per_match=10,
                                                    matches_per_permutation=1)

    def warm_up(self) -> None:
        self.harness.run_tournament(self.pool, self.warm_config, keep_hands=False)

    def run(self) -> dict:
        start = clock()
        report = self.harness.run_tournament(self.pool, self.config, keep_hands=False)
        elapsed = clock() - start
        hands = self.sets * 6 * self.hands
        return {"wall_s": elapsed, "main_s": elapsed, "work_rates": [hands / elapsed],
                "hands": hands, "report": report}

    def check(self, result: dict, gate: Gate) -> None:
        report = result["report"]
        matches = gate.attempt(self.sets * 6)
        gate.require(len(report.groupings) == 1 and len(report.groupings[0].sets) == self.sets,
                     matches, "the report does not hold one grouping of the protocol's sets")
        if len(report.groupings) != 1:
            return
        grouping = report.groupings[0]
        for s, dup in enumerate(grouping.sets):
            ops = matches[6 * s:6 * s + 6]
            gate.require(len(dup.matches) == 6, ops, f"set {s}: {len(dup.matches)} matches, protocol says 6")
            slots = [0, 0, 0]
            for p, (match, op) in enumerate(zip(dup.matches, ops)):
                gate.require(sum(match.seat_totals) == 0, [op],
                             f"set {s} permutation {p}: seat totals {match.seat_totals} do not sum to zero")
                gate.require(not match.hands, [op], f"set {s} permutation {p}: hands kept with keep_hands=False")
                for seat in range(3):
                    slots[PERMUTATIONS[p][seat]] += match.seat_totals[seat]
            gate.require(tuple(slots) == tuple(dup.slot_totals) == tuple(grouping.set_totals[s]), ops,
                         f"set {s}: slot totals {dup.slot_totals} disagree with its matches {slots}")
        gate.require(sum(agent.total_chips for agent in report.agents) == 0, matches,
                     "agent totals do not sum to zero")
        for agent in report.agents:
            gate.require(agent.hands == self.sets * 6 * self.hands, matches,
                         f"{agent.label} played {agent.hands} hands, protocol says {self.sets * 6 * self.hands}")
        if self.golden is not None:
            for label, text in (("report.csv", self.harness.report_csv(report)),
                                ("report.json", self.harness.report_json(report))):
                _check_digest(gate, matches, label, _sha256(text.encode("utf-8")), self.golden.get(label))


def _random_rational(rng: random.Random) -> Fraction:
    denominator = rng.randint(1, 8)
    return Fraction(rng.randint(0, denominator), denominator)


class Solve:
    """Vanilla CFR with an exact epsilon at every checkpoint until the
    first one at or below the target, then exact epsilon reports on LB,
    UB and random rational profiles, each cross-checked with the
    brute-force oracle for all three seats."""

    name = "solve"

    def __init__(self, kuhn3p, seed: int, size: str, workdir: Path, golden: dict,
                 reference: bool) -> None:
        self.equilibrium = kuhn3p.equilibrium
        params = SIZES[size][self.name]
        self.every, self.target, self.cap = params["every"], params["target"], params["cap"]
        # CFR is deterministic, so its trace is checked on every seed; the
        # seed only picks the random profiles.
        self.golden = golden
        rng = random.Random(seed)
        keys = kuhn3p.game.all_infoset_keys()
        self.profiles = [("LB", kuhn3p.strategy.nash_profile("LB")),
                         ("UB", kuhn3p.strategy.nash_profile("UB"))]
        for i in range(params["profiles"]):
            self.profiles.append((f"random profile {i}", kuhn3p.strategy.StrategyProfile(
                {key: _random_rational(rng) for key in keys})))

    def warm_up(self) -> None:
        trainer = self.equilibrium.CfrTrainer()
        trainer.run(10)
        self.equilibrium.epsilon(trainer.average_profile())
        self.equilibrium.epsilon_report(self.profiles[0][1])

    def run(self) -> dict:
        eq = self.equilibrium
        start = clock()
        trainer = eq.CfrTrainer()
        checkpoints = []
        rates = []
        done = 0
        while True:
            t = clock()
            trainer.run(self.every)
            rates.append(self.every / (clock() - t))
            done += self.every
            eps = eq.epsilon(trainer.average_profile())
            checkpoints.append((done, eps))
            if eps <= self.target or done >= self.cap:
                break
        trained = clock()
        verified = []
        for name, profile in self.profiles:
            report = eq.epsilon_report(profile)
            oracles = [eq.pure_strategy_oracle(profile, seat) for seat in (1, 2, 3)]
            verified.append((name, report, oracles))
        end = clock()
        return {"wall_s": end - start, "main_s": trained - start, "work_rates": rates, "hands": 0, "verify_s": end - trained, "checkpoints": checkpoints,
                "iters_to_eps": done, "verified": verified}

    def check(self, result: dict, gate: Gate) -> None:
        checkpoints = result["checkpoints"]
        ops = gate.attempt(len(checkpoints))
        for op, (iteration, eps) in zip(ops, checkpoints):
            gate.require(isinstance(eps, Fraction) and eps >= 0, [op],
                         f"checkpoint {iteration}: epsilon {eps!r} is not an exact nonnegative rational")
        gate.require(checkpoints[-1][1] <= self.target, ops,
                     f"no checkpoint reached epsilon <= {self.target} within {self.cap} iterations")
        trace = "iteration,epsilon\n" + "".join(f"{i},{float(e)!r}\n" for i, e in checkpoints)
        _check_digest(gate, ops, "CFR checkpoint trace", _sha256(trace.encode("utf-8")),
                      self.golden.get("trace"))
        gate.require(result["iters_to_eps"] == self.golden.get("iters_to_eps"), ops,
                     f"epsilon <= {self.target} first at {result['iters_to_eps']} iterations, "
                     f"golden {self.golden.get('iters_to_eps')}")

        for op, (name, report, oracles) in zip(gate.attempt(len(result["verified"])), result["verified"]):
            for seat, oracle in zip((1, 2, 3), oracles):
                gate.require(report.seats[seat - 1].br_value == oracle.br_value, [op],
                             f"{name} seat {seat}: best response {report.seats[seat - 1].br_value} "
                             f"but the oracle finds {oracle.br_value}")
            want = {"LB": Fraction(0), "UB": Fraction(1, 192)}.get(name)
            if want is not None:
                gate.require(report.epsilon == want, [op], f"{name}: epsilon {report.epsilon}, expected {want}")


WORKLOADS = {cls.name: cls for cls in (TournamentProfile, TournamentModeler, Solve)}
