"""Command-line interface.

Subcommands:

    solve           write a completed LB or UB profile to a file
    verify          exact-best-response check of a profile file
    train-cfr       train vanilla CFR, write the average profile + gap trace
    tournament      run the duplicate-match protocol from a JSON config
    variance-study  duplicate vs independent-card variance comparison
    replay          re-derive chips from a match log and check agreement

Exit status: 0 on success/verified, 1 on verification failure or replay
mismatch, 2 on a usage or input error, printed as one line.  Every command is
deterministic given its flags; nothing reads the clock.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict, fields
from typing import NoReturn, Optional, Sequence

from . import equilibrium, harness, strategy
from .agents import AgentSpec
from .strategy import ProfileFormatError, StrategyProfile


def _read_text(path: str, failure: Optional[str] = None) -> str:
    """The text of a UTF-8 file.  A file that cannot be opened or decoded,
    or a path open rejects, is a ValueError reading '<failure>: <reason>',
    where failure defaults to 'cannot read <path!r>'."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:  # ValueError: undecodable, or a NUL in path
        raise ValueError(f"{failure or f'cannot read {path!r}'}: {exc}") from exc


def _read_profile(path: str, where: str) -> StrategyProfile:
    text = _read_text(path, f"{where}: CFRTrained profile {path!r} is unreadable")
    try:
        return strategy.parse_profile(text)
    except ProfileFormatError as exc:
        raise ValueError(f"{where}: CFRTrained profile {path!r} is malformed: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    """Write text to a path that _check_out has accepted."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _check_out(path: str, directory: bool) -> None:
    """Before a command runs, a ValueError for an --out path that its writes
    would fail on: an empty one, one holding a NUL or a lone surrogate, a
    directory whose nearest existing ancestor (or itself) is not a directory,
    or a file naming an existing directory or in a missing directory."""
    try:
        encoded = os.fsencode(path)
    except ValueError as exc:  # a lone surrogate
        raise ValueError(f"cannot write {path!r}: {exc}") from exc
    _require(encoded != b"", f"cannot write {path!r}: empty path")
    _require(b"\0" not in encoded, f"cannot write {path!r}: embedded null byte")
    if directory:  # os.makedirs creates the missing part
        where = path
        while where and not os.path.lexists(where):
            where = os.path.dirname(where)
    else:
        _require(not os.path.isdir(path), f"cannot write {path!r}: {path!r} is a directory")
        where = os.path.dirname(path)
    where = where or "."
    _require(os.path.isdir(where), f"cannot write {path!r}: {where!r} is not a directory")


def cmd_solve(args: argparse.Namespace) -> int:
    _check_out(args.out, directory=False)
    profile = strategy.nash_profile(args.variant)
    header = f"{args.variant} parameter table, completed by strict dominance"
    _write_text(args.out, strategy.serialize_profile(profile, header=header))
    print(f"wrote {args.variant} profile: {args.out}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if not (math.isfinite(args.threshold) and args.threshold >= 0):
        print(f"--threshold must be a finite number >= 0, got {args.threshold:g}", file=sys.stderr)
        return 2
    text = _read_text(args.profile)
    try:
        profile = strategy.parse_profile(text)
    except ProfileFormatError as exc:
        print(f"{args.profile!r}: {exc}", file=sys.stderr)
        return 2
    report = equilibrium.epsilon_report(profile)
    print(report.render())
    if report.epsilon <= args.threshold:
        print(f"verified: epsilon <= {args.threshold:g}")
        return 0
    print(f"not verified: epsilon exceeds {args.threshold:g}")
    return 1


def _checkpoints(iterations: int) -> list[int]:
    return sorted({10 ** k for k in range(2, 12) if 10 ** k < iterations} | {iterations})


def cmd_train_cfr(args: argparse.Namespace) -> int:
    if args.iters < 0:
        print(f"--iters must be >= 0, got {args.iters}", file=sys.stderr)
        return 2
    trace_path = f"{args.out}.trace.csv"
    _check_out(args.out, directory=False)
    _check_out(trace_path, directory=False)
    trainer = equilibrium.CfrTrainer()
    rows = []  # iteration, then epsilon and each seat's gap as floats
    for checkpoint in _checkpoints(args.iters):  # the last one is args.iters
        trainer.run(checkpoint - trainer.iteration_count)
        profile = trainer.average_profile()
        report = equilibrium.epsilon_report(profile)
        rows.append((checkpoint, *map(float, [report.epsilon, *(s.gap for s in report.seats)])))
    header = f"CFR average strategy, iterations={args.iters}"
    _write_text(args.out, strategy.serialize_profile(profile, header=header))
    trace = "iteration,epsilon,gap1,gap2,gap3\n" + "".join(
        ",".join(map(repr, row)) + "\n" for row in rows)
    _write_text(trace_path, trace)
    print(f"wrote profile: {args.out}")
    print(f"wrote trace:   {trace_path}")
    print(f"final epsilon: {rows[-1][1]!r} after {args.iters} iterations")
    return 0


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _parse_agent(entry: object, where: str, directory: str) -> AgentSpec:
    _require(isinstance(entry, dict), f"{where}: expected an object")
    unknown = set(entry) - {f.name for f in fields(AgentSpec)}
    _require(not unknown, f"{where}: unknown keys {sorted(unknown)}")
    _require("kind" in entry, f"{where}: missing required key 'kind'")
    parameters = entry.get("parameters", {})
    _require(isinstance(parameters, dict), f"{where}.parameters: expected an object")
    if entry["kind"] == "CFRTrained" and "profile" in parameters:
        path = parameters["profile"]
        _require(isinstance(path, str), f"{where}: CFRTrained parameter 'profile' must be a path string")
        path = os.path.join(directory, path)
        parameters = {**parameters, "profile": _read_profile(path, where)}
    return AgentSpec(entry["kind"], parameters, entry.get("name"))


def load_config(path: str) -> tuple[list[AgentSpec], harness.MatchConfig]:
    """Parse a tournament or variance-study config file into a list of
    agent specs, each CFRTrained profile file (a path relative to the
    config's directory) read into its spec, and a MatchConfig.  A bad
    file, entry or value is a ValueError naming it; harness.MatchConfig
    owns its own rules.  The specs are checked, counted and labelled by
    the harness when it builds the pool."""
    text = _read_text(path)
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, an int too long, too deep
        raise ValueError(f"{path!r}: invalid JSON: {exc}") from exc
    _require(isinstance(raw, dict), f"{path!r}: top level must be an object")
    unknown = set(raw) - {"agents"} - {f.name for f in fields(harness.MatchConfig)}
    _require(not unknown, f"{path!r}: unknown keys {sorted(unknown)}")
    _require("agents" in raw, f"{path!r}: missing required key 'agents'")
    _require("master_seed" in raw, f"{path!r}: missing required key 'master_seed'")
    entries = raw.pop("agents")
    _require(isinstance(entries, list), "agents: expected a list")
    pool = [_parse_agent(e, f"agents[{i}]", os.path.dirname(path)) for i, e in enumerate(entries)]
    return pool, harness.MatchConfig(**raw)


def cmd_tournament(args: argparse.Namespace) -> int:
    pool, config = load_config(args.config)
    _check_out(args.out, directory=True)
    report = harness.run_tournament(pool, config)
    os.makedirs(args.out, exist_ok=True)
    for grouping in report.groupings:
        a, b, c = grouping.pool_indices
        for set_idx, dup in enumerate(grouping.sets):
            for perm_idx, match in enumerate(dup.matches):
                log = harness.match_log(match, header=[
                    f"grouping: {a}-{b}-{c} ({','.join(grouping.labels)})",
                    f"set: {set_idx}",
                    f"permutation: {perm_idx} seating: {','.join(match.agent_names)}",
                    f"master_seed: {config.master_seed}",
                ])
                path = os.path.join(args.out, f"match_g{a}-{b}-{c}_s{set_idx}_p{perm_idx}.log")
                _write_text(path, log)
    csv_text = harness.report_csv(report)
    _write_text(os.path.join(args.out, "report.csv"), csv_text)
    _write_text(os.path.join(args.out, "report.json"), harness.report_json(report))
    print(csv_text, end="")
    print(f"report written to {args.out}")
    return 0


def cmd_variance_study(args: argparse.Namespace) -> int:
    triple, config = load_config(args.config)
    if args.out is not None:
        _check_out(args.out, directory=False)
    study = harness.variance_study(triple, config, args.replications)
    record = {"studied_agent": study.agents[0], **asdict(study)}
    if args.out is not None:
        _write_text(args.out, json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    print(f"duplicate variance:   {study.duplicate_variance!r}")
    print(f"independent variance: {study.independent_variance!r}")
    print(f"ratio: {study.ratio!r}")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    """Replay a match log through harness.replay_match_log and print the
    hand count and per-seat totals of the record it returns."""
    try:
        record = harness.replay_match_log(_read_text(args.log))
    except harness.ReplayError as exc:
        print(f"replay mismatch: {exc}", file=sys.stderr)
        return 1
    print(f"replayed {len(record.hands)} hands; per-seat totals", *record.seat_totals)
    return 0


class _Parser(argparse.ArgumentParser):
    """A parser, and through add_subparsers each subparser, whose usage error is one line."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process. `main` looks up cmd_<command>,
    '-' as '_', on the module when it runs, so a replacement takes effect."""
    parser = _Parser(
        prog="kuhn3p",
        description="Three-player Kuhn poker: exact solving, verification, "
                    "CFR training, and duplicate-match tournaments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="write a completed LB or UB profile")
    p.add_argument("--variant", required=True, choices=strategy.VARIANTS)
    p.add_argument("--out", required=True, help="output profile path")

    p = sub.add_parser("verify", help="exact best-response verification of a profile")
    p.add_argument("--profile", required=True, help="profile file to verify")
    p.add_argument("--threshold", type=float, default=1e-9,
                   help="accept epsilon at or below this value (default 1e-9)")

    p = sub.add_parser("train-cfr", help="train vanilla CFR and write the average profile")
    p.add_argument("--iters", type=int, required=True, help="number of iterations")
    p.add_argument("--out", required=True, help="output profile path; trace goes to <out>.trace.csv")

    p = sub.add_parser("tournament", help="run the duplicate-match tournament protocol")
    p.add_argument("--config", required=True, help="JSON configuration file")
    p.add_argument("--out", required=True, help="output directory for logs and reports")

    p = sub.add_parser("variance-study", help="duplicate vs independent-card variance comparison")
    p.add_argument("--config", required=True, help="JSON configuration file (exactly 3 agents)")
    p.add_argument("--replications", type=int, default=100, help="replications per arm (>= 30)")
    p.add_argument("--out", default=None, help="optional JSON output path")

    p = sub.add_parser("replay", help="re-derive chips from a match log and check agreement")
    p.add_argument("--log", required=True, help="match log file")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command; the one place an input error becomes exit 2 and one
    line.  A ValueError escaping any command, such as each input rule's, prints
    as 'configuration error: <message>', and an OSError as 'i/o error: ...'."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
