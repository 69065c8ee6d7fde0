"""End-to-end CLI tests driven through cli.main with in-process capture."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import fields
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from kuhn3p import agents, cli, harness, strategy


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, **overrides):
    config = {
        "agents": [{"kind": "NashLB"}, {"kind": "UniformRandom"},
                   {"kind": "AlwaysAggressive"}],
        "hands_per_match": 30,
        "matches_per_permutation": 1,
        "master_seed": 4,
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


def test_solve_writes_complete_profile(tmp_path, capsys):
    out = tmp_path / "lb.txt"
    code, stdout, _ = run(capsys, ["solve", "--variant", "LB",
                                   "--out", str(out)])
    assert code == 0
    assert str(out) in stdout
    text = out.read_text(encoding="utf-8")
    lines = text.splitlines()
    assert lines[0] == "# LB parameter table, completed by strict dominance"
    assert len(lines) == 49  # header + 48 infosets
    assert "3 A 1 1" in lines  # dominance: A always calls a bet... and c41=1
    assert "1 J 2 0" in lines  # dominance: J always folds to a bet
    profile = strategy.parse_profile(text)
    assert profile == strategy.nash_profile("LB")


def test_solve_ub_matches_table(tmp_path, capsys):
    out = tmp_path / "ub.txt"
    code, _, _ = run(capsys, ["solve", "--variant", "UB", "--out", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert "2 K 3 7/8" in lines  # b33
    assert "2 J 1 1/4" in lines  # b11


def test_module_entry_point_solves_and_verifies(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    profile = str(tmp_path / "lb.profile")
    for argv in (["solve", "--variant", "LB", "--out", profile], ["verify", "--profile", profile]):
        done = subprocess.run([sys.executable, "-m", "kuhn3p", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines()[-1].startswith("verified: ")


def test_verify_accepts_lb(tmp_path, capsys):
    out = tmp_path / "lb.txt"
    run(capsys, ["solve", "--variant", "LB", "--out", str(out)])
    code, stdout, _ = run(capsys, ["verify", "--profile", str(out)])
    assert code == 0
    assert "epsilon = 0" in stdout
    assert "verified: epsilon <= 1e-09" in stdout


def test_verify_reports_ub_gap(tmp_path, capsys):
    out = tmp_path / "ub.txt"
    run(capsys, ["solve", "--variant", "UB", "--out", str(out)])
    code, stdout, _ = run(capsys, ["verify", "--profile", str(out)])
    assert code == 1
    assert "seat 1 card A situation 1" in stdout
    assert "1/192" in stdout
    assert "not verified" in stdout


def test_verify_threshold_is_adjustable(tmp_path, capsys):
    out = tmp_path / "ub.txt"
    run(capsys, ["solve", "--variant", "UB", "--out", str(out)])
    code, stdout, _ = run(capsys, ["verify", "--profile", str(out),
                                   "--threshold", "0.01"])
    assert code == 0
    assert "verified" in stdout


@pytest.mark.parametrize("threshold", ["nan", "-1", "inf"])
def test_verify_threshold_must_be_finite_and_nonnegative(tmp_path, capsys, threshold):
    out = tmp_path / "lb.txt"
    run(capsys, ["solve", "--variant", "LB", "--out", str(out)])
    code, stdout, stderr = run(capsys, ["verify", "--profile", str(out), "--threshold", threshold])
    assert (code, stdout) == (2, "")
    assert stderr.startswith("--threshold must be a finite number >= 0") and len(stderr.splitlines()) == 1


def test_verify_rejects_uniform(tmp_path, capsys):
    path = tmp_path / "uniform.txt"
    path.write_text(strategy.serialize_profile(strategy.constant_profile(F(1, 2))),
                    encoding="utf-8")
    code, stdout, _ = run(capsys, ["verify", "--profile", str(path)])
    assert code == 1


def test_verify_malformed_profile(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("1 J 1 not-a-number\n", encoding="utf-8")
    code, _, stderr = run(capsys, ["verify", "--profile", str(path)])
    assert code == 2
    assert "line 1" in stderr


def test_verify_missing_file(tmp_path, capsys):
    code, _, stderr = run(capsys, ["verify", "--profile",
                                   str(tmp_path / "nope.txt")])
    assert code == 2


def test_train_cfr_zero_iterations_is_uniform(tmp_path, capsys):
    out = tmp_path / "cfr.txt"
    code, stdout, _ = run(capsys, ["train-cfr", "--iters", "0",
                                   "--out", str(out)])
    assert code == 0
    profile = strategy.parse_profile(out.read_text(encoding="utf-8"))
    assert profile == strategy.constant_profile(F(1, 2))
    # The uniform profile's gaps: 35/64, 133/192 and 79/96, the largest.
    trace = (tmp_path / "cfr.txt.trace.csv").read_text(encoding="utf-8")
    assert trace == ("iteration,epsilon,gap1,gap2,gap3\n"
                     f"0,{79 / 96!r},{35 / 64!r},{133 / 192!r},{79 / 96!r}\n")


def test_train_cfr_rejects_a_directory_at_the_trace_path(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli.equilibrium, "CfrTrainer", refuse)
    monkeypatch.chdir(tmp_path)
    Path("p.trace.csv").mkdir()
    code, stdout, stderr = run(capsys, ["train-cfr", "--iters", "3", "--out", "p"])
    assert (code, stdout) == (2, "")
    assert stderr == ("configuration error: cannot write 'p.trace.csv': "
                      "'p.trace.csv' is a directory\n")
    assert os.listdir(tmp_path) == ["p.trace.csv"]
    assert os.listdir("p.trace.csv") == []


def test_train_cfr_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    run(capsys, ["train-cfr", "--iters", "200", "--out", str(a)])
    run(capsys, ["train-cfr", "--iters", "200", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.txt.trace.csv").read_bytes() == \
        (tmp_path / "b.txt.trace.csv").read_bytes()


def test_train_cfr_rejects_negative_iters(tmp_path, capsys):
    code, _, stderr = run(capsys, ["train-cfr", "--iters", "-1",
                                   "--out", str(tmp_path / "x.txt")])
    assert code == 2


def test_tournament_outputs(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "tourn"
    code, stdout, _ = run(capsys, ["tournament", "--config", config,
                                   "--out", str(out)])
    assert code == 0
    logs = sorted(p.name for p in out.glob("match_*.log"))
    assert logs == [f"match_g0-1-2_s0_p{p}.log" for p in range(6)]
    assert (out / "report.csv").exists()
    assert (out / "report.json").exists()
    csv_text = (out / "report.csv").read_text(encoding="utf-8")
    assert csv_text.splitlines()[0] == \
        "agent,groupings,total_chips,chips_per_hand,normalized_total,std_error"
    assert csv_text in stdout
    data = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert {a["agent"] for a in data["agents"]} == \
        {"NashLB", "UniformRandom", "AlwaysAggressive"}


def test_tournament_reruns_byte_identical(tmp_path, capsys):
    config = write_config(tmp_path)
    first, second = tmp_path / "t1", tmp_path / "t2"
    run(capsys, ["tournament", "--config", config, "--out", str(first)])
    run(capsys, ["tournament", "--config", config, "--out", str(second)])
    for name in ["report.csv", "report.json", "match_g0-1-2_s0_p3.log"]:
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_modeler_tournament_is_pinned(tmp_path, capsys):
    # Two modelers, one named and one smoothed, beside NashLB and UniformRandom: every
    # grouping plays modelers, one or two per match.  sha256 digests of the reports and
    # of the logs concatenated in name order, recorded from the per-node modeler loop.
    config = write_config(tmp_path, agents=[
        {"kind": "FrequencyModeler", "name": "modeler"},
        {"kind": "FrequencyModeler", "parameters": {"smoothing": 0.5}},
        {"kind": "NashLB"}, {"kind": "UniformRandom"}],
        hands_per_match=200, matches_per_permutation=2, master_seed=30)
    out = tmp_path / "tourn"
    assert run(capsys, ["tournament", "--config", config, "--out", str(out)])[0] == 0
    logs = sorted(out.glob("match_*.log"))
    assert len(logs) == 4 * 2 * 6
    digests = [hashlib.sha256(data).hexdigest() for data in (
        (out / "report.csv").read_bytes(), (out / "report.json").read_bytes(),
        b"".join(log.read_bytes() for log in logs))]
    assert digests == ["32b31735042d87d0461b0225000aa2390535e8cfcccb573bdccc43eca2e4a887",
                       "9de65a10d2b786db2377325c7c8ddb6f5044d81210a859c284a5d27b4cd533f4",
                       "1c340eebc1d739fb050eaefdf67d620378bdb5e4692425d6d22686f1a9529e51"]


def test_tournament_logs_name_seats_by_label(tmp_path, capsys):
    config = write_config(tmp_path, agents=[
        {"kind": "FrequencyModeler"}, {"kind": "FrequencyModeler", "name": "smooth"},
        {"kind": "NashLB", "name": "lb"}])
    out = tmp_path / "tourn"
    assert run(capsys, ["tournament", "--config", config, "--out", str(out)])[0] == 0
    logs = sorted(out.glob("match_*.log"))
    assert len(logs) == 6
    for log in logs:
        text = log.read_text(encoding="utf-8")
        seating = next(line for line in text.splitlines() if line.startswith("# permutation:"))
        labels = seating.split(" seating: ")[1]
        assert f"\n# seats: {labels}\n" in text
        assert harness.replay_match_log(text).agent_names == tuple(labels.split(","))
    assert "# seats: FrequencyModeler#1,lb,smooth\n" in (out / "match_g0-1-2_s0_p1.log").read_text(
        encoding="utf-8")


def test_replay_round_trip(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "tourn"
    run(capsys, ["tournament", "--config", config, "--out", str(out)])
    log = out / "match_g0-1-2_s0_p0.log"
    code, stdout, _ = run(capsys, ["replay", "--log", str(log)])
    assert code == 0
    assert "replayed 30 hands" in stdout


def test_parser_is_built_once(tmp_path, capsys):
    cli._build_parser.cache_clear()
    profile = tmp_path / "lb.profile"
    assert run(capsys, ["solve", "--variant", "LB", "--out", str(profile)])[0] == 0
    assert run(capsys, ["verify", "--profile", str(profile)])[0] == 0
    assert cli._build_parser.cache_info().misses == 1


def test_handler_is_looked_up_when_it_runs(tmp_path, capsys, monkeypatch):
    # The parser outlives a replaced handler, as in the benchmark's tracer.
    profile = tmp_path / "lb.profile"
    assert run(capsys, ["solve", "--variant", "LB", "--out", str(profile)])[0] == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_replay", lambda args: seen.append(args.log) or 7)
    assert run(capsys, ["replay", "--log", "some.log"]) == (7, "", "")
    assert seen == ["some.log"]


def test_replay_rejects_tampered_log(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "tourn"
    run(capsys, ["tournament", "--config", config, "--out", str(out)])
    log = out / "match_g0-1-2_s0_p0.log"
    lines = log.read_text(encoding="utf-8").splitlines()
    row = lines[-1].split(",")
    row[-1] = str(int(row[-1]) + 1)
    lines[-1] = ",".join(row)
    log.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, _, stderr = run(capsys, ["replay", "--log", str(log)])
    assert code == 1
    assert "replay mismatch" in stderr


def test_variance_study_runs(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "study.json"
    code, stdout, _ = run(capsys, ["variance-study", "--config", config,
                                   "--replications", "30",
                                   "--out", str(out)])
    assert code == 0
    assert "ratio:" in stdout
    data = json.loads(out.read_text(encoding="utf-8"))
    assert data["replications"] == 30
    assert data["ratio"] == pytest.approx(data["duplicate_variance"]
                                          / data["independent_variance"])


def test_variance_study_rejects_few_replications(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "study.json"
    code, _, stderr = run(capsys, ["variance-study", "--config", config,
                                   "--replications", "10", "--out", str(out)])
    assert code == 2
    assert stderr == "configuration error: replications must be >= 30, got 10\n"
    assert not out.exists()


def test_variance_study_requires_exactly_three_agents(tmp_path, capsys):
    config = write_config(tmp_path, agents=[
        {"kind": "NashLB"}, {"kind": "UniformRandom"},
        {"kind": "AlwaysAggressive"}, {"kind": "AlwaysPassive"}])
    out = tmp_path / "study.json"
    code, _, stderr = run(capsys, ["variance-study", "--config", config,
                                   "--replications", "30", "--out", str(out)])
    assert code == 2
    assert stderr == "configuration error: agents: a duplicate set needs exactly 3 agents, got 4\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["tournament", "--out", "tourn"],
    ["variance-study", "--replications", "30"],
])
def test_cli_builds_each_pool_entry_once(tmp_path, capsys, monkeypatch, argv):
    built = []
    make_agent = agents.make_agent

    def counting(spec):
        built.append(spec.name)
        return make_agent(spec)

    monkeypatch.setattr(agents, "make_agent", counting)
    monkeypatch.setattr(harness, "make_agent", counting)
    pool = [{"kind": "FrequencyModeler", "name": "a"}, {"kind": "NashLB", "name": "b"},
            {"kind": "UniformRandom", "name": "c"}]
    config = write_config(tmp_path, agents=pool)
    monkeypatch.chdir(tmp_path)
    assert run(capsys, [argv[0], "--config", config, *argv[1:]])[0] == 0
    assert built == ["a", "b", "c"]


@pytest.mark.parametrize("mutation", [
    {"master_seed": None},              # dropped below
    {"bogus_key": 1},
    {"agents": [{"kind": "NashLB"}, {"kind": "UniformRandom"}]},
    {"agents": [{"kind": "NashLB", "name": "x"},
                {"kind": "UniformRandom", "name": "x"},
                {"kind": "AlwaysAggressive"}]},
    {"agents": [{"kind": "NashLB", "king_bet": 0.5},
                {"kind": "UniformRandom"},
                {"kind": "AlwaysAggressive"}]},
    {"normalization_divisor": float("inf")},
    {"agents": [{"kind": "FrequencyModeler", "parameters": {"smoothing": float("inf")}},
                {"kind": "UniformRandom"},
                {"kind": "AlwaysAggressive"}]},
    {"master_seed": -1},
    {"agents": [{"kind": "NashLB", "name": "Nash\nLB"},
                {"kind": "UniformRandom"},
                {"kind": "AlwaysAggressive"}]},
    {"hands_per_match": 2.5},
    {"master_seed": True},
    {"normalization_divisor": "7"},
    {"agents": [{"kind": "NashLB", "name": "a,b"},
                {"kind": "UniformRandom"},
                {"kind": "AlwaysAggressive"}]},
    {"agents": [{"kind": 5}, {"kind": "UniformRandom"}, {"kind": "AlwaysAggressive"}]},
    {"hands_per_match": 10 ** 30},
    {"agents": [{"kind": "FrequencyModeler", "parameters": {"smoothing": 10 ** 400}},
                {"kind": "UniformRandom"},
                {"kind": "AlwaysAggressive"}]},
    # A lone surrogate, which no UTF-8 log or report can hold.
    {"agents": [{"kind": "NashLB", "name": "\ud800"},
                {"kind": "UniformRandom"},
                {"kind": "AlwaysAggressive"}]},
    # Below 1, which would write inf to report.csv and Infinity to report.json.
    {"normalization_divisor": 5e-324},
])
def test_tournament_config_errors(tmp_path, capsys, mutation):
    config = {
        "agents": [{"kind": "NashLB"}, {"kind": "UniformRandom"},
                   {"kind": "AlwaysAggressive"}],
        "master_seed": 4,
    }
    config.update(mutation)
    config = {k: v for k, v in config.items() if v is not None}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, _, stderr = run(capsys, ["tournament", "--config", str(path),
                                   "--out", str(tmp_path / "t")])
    assert code == 2
    assert len(stderr.splitlines()) == 1 and stderr.startswith("configuration error: ")
    # A bad top-level field is named, whatever rejects it.
    assert all(key in stderr for key in set(mutation) - {"agents"})
    assert not (tmp_path / "t").exists()


def test_overlong_integer_in_config_is_a_config_error(tmp_path, capsys):
    # json.dumps cannot write an int past Python's conversion limit, and
    # json.loads raises a plain ValueError on reading one.
    path = tmp_path / "config.json"
    path.write_text('{"agents": [{"kind": "NashLB"}, {"kind": "UniformRandom"}, '
                    '{"kind": "AlwaysAggressive"}], "master_seed": ' + "9" * 5000 + "}",
                    encoding="utf-8")
    code, _, stderr = run(capsys, ["tournament", "--config", str(path),
                                   "--out", str(tmp_path / "t")])
    assert code == 2
    assert len(stderr.splitlines()) == 1 and stderr.startswith("configuration error: ")


def test_unknown_subcommand_and_flags_exit_2(tmp_path, capsys):
    out = str(tmp_path / "x")
    for argv, prog in ((["frobnicate"], "kuhn3p"),
                       (["solve", "--variant", "XX", "--out", out], "kuhn3p solve"),
                       (["train-cfr", "--iters", "abc", "--out", out], "kuhn3p train-cfr"),
                       (["train-cfr", "--iters", "3"], "kuhn3p train-cfr")):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert len(stderr.splitlines()) == 1 and stderr.startswith(f"{prog}: error: "), stderr
    assert list(tmp_path.iterdir()) == []


def test_os_error_after_the_checks_is_one_line(tmp_path, capsys, monkeypatch):
    def fail(path, text):
        raise OSError(28, "No space left on device", path)

    monkeypatch.setattr(cli, "_write_text", fail)
    out = str(tmp_path / "lb.profile")
    code, stdout, stderr = run(capsys, ["solve", "--variant", "LB", "--out", out])
    assert code == 2 and stdout == ""
    assert stderr == f"i/o error: [Errno 28] No space left on device: {out!r}\n"


def cfr_trained_argv(tmp_path, command, profile_path):
    """argv for tournament or variance-study on a pool with a CFRTrained
    agent at agents[2] reading profile_path."""
    config = write_config(tmp_path, agents=[
        {"kind": "NashLB"}, {"kind": "UniformRandom"},
        {"kind": "CFRTrained", "parameters": {"profile": str(profile_path)}}])
    extra = (["--out", str(tmp_path / "t")] if command == "tournament"
             else ["--replications", "30"])
    return [command, "--config", config, *extra]


@pytest.mark.parametrize("command", ["tournament", "variance-study"])
def test_missing_cfr_profile_is_a_config_error(tmp_path, capsys, command):
    argv = cfr_trained_argv(tmp_path, command, tmp_path / "nope.profile")
    code, _, stderr = run(capsys, argv)
    assert code == 2
    assert stderr.startswith("configuration error: agents[2]: CFRTrained profile")
    assert "unreadable" in stderr
    assert len(stderr.splitlines()) == 1
    assert not (tmp_path / "t").exists()


@pytest.mark.parametrize("command", ["tournament", "variance-study"])
def test_malformed_cfr_profile_is_a_config_error(tmp_path, capsys, command):
    profile = tmp_path / "bad.profile"
    profile.write_text("1 J 1 not-a-number\n", encoding="utf-8")
    code, _, stderr = run(capsys, cfr_trained_argv(tmp_path, command, profile))
    assert code == 2
    assert stderr.startswith("configuration error: agents[2]: CFRTrained profile")
    assert "malformed: line 1: bad probability" in stderr
    assert len(stderr.splitlines()) == 1


@pytest.mark.parametrize("command", ["tournament", "variance-study"])
def test_relative_cfr_profile_is_read_next_to_the_config(tmp_path, capsys, monkeypatch, command):
    configs = tmp_path / "configs"
    configs.mkdir()
    (configs / "trained.profile").write_text(
        strategy.serialize_profile(strategy.nash_profile("LB")), encoding="utf-8")
    argv = cfr_trained_argv(configs, command, "trained.profile")
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "elsewhere")
    code, _, stderr = run(capsys, argv)
    assert (code, stderr) == (0, "")


INPUT_FLAGS = [("verify", "--profile"), ("replay", "--log"),
               ("tournament", "--config"), ("variance-study", "--config")]


@pytest.mark.parametrize("command, flag", INPUT_FLAGS)
def test_non_utf8_input_is_a_config_error(tmp_path, capsys, command, flag):
    path = tmp_path / "input"
    path.write_bytes(b"\xff\xfe")
    extra = ["--out", str(tmp_path / "t")] if command == "tournament" else []
    code, _, stderr = run(capsys, [command, flag, str(path), *extra])
    assert code == 2
    assert stderr.startswith(f"configuration error: cannot read {str(path)!r}: ")
    assert len(stderr.splitlines()) == 1


@pytest.mark.parametrize("command, flag", INPUT_FLAGS)
def test_path_with_nul_is_a_config_error(tmp_path, capsys, command, flag):
    # open rejects the path with a ValueError, before any file system call.
    path = str(tmp_path / "a\x00b")
    extra = ["--out", str(tmp_path / "t")] if command == "tournament" else []
    code, _, stderr = run(capsys, [command, flag, path, *extra])
    assert code == 2
    assert stderr.startswith(f"configuration error: cannot read {path!r}: embedded null byte")
    assert len(stderr.splitlines()) == 1
    assert not (tmp_path / "t").exists()


@pytest.mark.parametrize("command", ["solve", "train-cfr", "tournament", "variance-study"])
def test_out_path_with_nul_is_a_config_error(tmp_path, capsys, command):
    # open and os.makedirs reject the path with a ValueError; nothing is written.
    config = write_config(tmp_path, hands_per_match=3)
    flags = {"solve": ["--variant", "LB"], "train-cfr": ["--iters", "3"],
             "tournament": ["--config", config],
             "variance-study": ["--config", config, "--replications", "30"]}[command]
    out = str(tmp_path / "a\x00b")
    code, stdout, stderr = run(capsys, [command, *flags, "--out", out])
    assert (code, stdout) == (2, "")
    assert stderr == f"configuration error: cannot write {out!r}: embedded null byte\n"
    assert os.listdir(tmp_path) == ["config.json"]


@pytest.mark.parametrize("command, out, reason", [
    ("tournament", "a\x00b", "embedded null byte"),
    ("variance-study", "a\x00b", "embedded null byte"),
    ("tournament", "\ud800", "'utf-8' codec can't encode character '\\ud800' in position 0: "
                             "surrogates not allowed"),
    ("variance-study", "\ud800", "'utf-8' codec can't encode character '\\ud800' in position 0: "
                                 "surrogates not allowed"),
    ("tournament", "afile", "'afile' is not a directory"),
    ("tournament", "afile/sub", "'afile' is not a directory"),
    ("variance-study", "new/out", "'new' is not a directory"),
    ("variance-study", "adir", "'adir' is a directory"),
    ("train-cfr", "new/out", "'new' is not a directory"),
    ("solve", "", "empty path"),
    ("train-cfr", "", "empty path"),
    ("tournament", "", "empty path"),
    ("variance-study", "", "empty path"),
], ids=["tournament-nul", "variance-study-nul", "tournament-surrogate",
        "variance-study-surrogate", "tournament-existing-file", "tournament-below-a-file",
        "variance-study-missing-parent", "variance-study-existing-directory",
        "train-cfr-missing-parent", "solve-empty", "train-cfr-empty", "tournament-empty",
        "variance-study-empty"])
def test_unwritable_out_is_rejected_before_the_run(tmp_path, capsys, monkeypatch, command, out,
                                                   reason):
    def refuse(*args):
        raise AssertionError("the run started")

    for owner, name in ((harness, "run_tournament"), (harness, "variance_study"),
                        (cli.equilibrium, "CfrTrainer"), (cli.strategy, "nash_profile")):
        monkeypatch.setattr(owner, name, refuse)
    monkeypatch.chdir(tmp_path)
    config = write_config(tmp_path, hands_per_match=3)
    Path("afile").write_text("kept\n", encoding="utf-8")
    Path("adir").mkdir()
    flags = {"tournament": ["--config", config], "train-cfr": ["--iters", "3"],
             "variance-study": ["--config", config, "--replications", "30"],
             "solve": ["--variant", "LB"]}[command]
    code, stdout, stderr = run(capsys, [command, *flags, "--out", out])
    assert (code, stdout) == (2, "")
    assert stderr == f"configuration error: cannot write {out!r}: {reason}\n"
    assert sorted(os.listdir(tmp_path)) == ["adir", "afile", "config.json"]
    assert os.listdir("adir") == []
    assert Path("afile").read_text(encoding="utf-8") == "kept\n"


@pytest.mark.parametrize("command", ["tournament", "variance-study"])
def test_cfr_profile_path_with_nul_is_a_config_error(tmp_path, capsys, command):
    code, _, stderr = run(capsys, cfr_trained_argv(tmp_path, command, "a\u0000b"))
    assert code == 2
    assert stderr.startswith("configuration error: agents[2]: CFRTrained profile")
    assert "unreadable: embedded null byte" in stderr
    assert len(stderr.splitlines()) == 1
    assert not (tmp_path / "t").exists()


@pytest.mark.parametrize("command, text, message", [
    ("verify", "1 J 1 not-a-number\n", ": line 1: bad probability"),
    ("tournament", "[]", ": top level must be an object"),
], ids=["verify", "tournament"])
def test_path_with_line_break_is_named_on_one_line(tmp_path, capsys, command, text, message):
    path = tmp_path / "in\nput"
    path.write_text(text, encoding="utf-8")
    flag, extra = ("--profile", []) if command == "verify" else \
        ("--config", ["--out", str(tmp_path / "t")])
    code, _, stderr = run(capsys, [command, flag, str(path), *extra])
    assert code == 2
    assert f"{str(path)!r}{message}" in stderr
    assert len(stderr.splitlines()) == 1
    assert not (tmp_path / "t").exists()


@pytest.mark.parametrize("agents, depth", [
    ("@", 100_000),
    ([{"kind": "HonestNoBluff", "parameters": {"king_bet": "@"}},
      {"kind": "NashLB"}, {"kind": "UniformRandom"}], 50_000),
], ids=["agents", "king_bet"])
def test_deeply_nested_config_is_a_config_error(tmp_path, capsys, agents, depth):
    # json.loads raises RecursionError, not ValueError, about 990 levels down.
    path = tmp_path / "config.json"
    nested = "[" * depth + "]" * depth
    path.write_text(json.dumps({"agents": agents, "master_seed": 0}).replace('"@"', nested),
                    encoding="utf-8")
    code, _, stderr = run(capsys, ["tournament", "--config", str(path),
                                   "--out", str(tmp_path / "t")])
    assert code == 2
    assert stderr.startswith(f"configuration error: {str(path)!r}: invalid JSON: ")
    assert len(stderr.splitlines()) == 1
    assert not (tmp_path / "t").exists()


def _edit_last_row(log, edit):
    lines = log.read_text(encoding="utf-8").splitlines()
    row = lines[-1].split(",")
    lines[-1] = ",".join(edit(row))
    log.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("edit, message", [
    (lambda row: row[:7] + ["x"], "hand 29: chips3 is not an integer: 'x'"),
    (lambda row: row[:5], "hand 29: expected 8 fields, got 5"),
    (lambda row: row + ["0"], "hand 29: expected 8 fields, got 9"),
    (lambda row: row[:1] + ["Q", "K", "Q"] + row[4:], "hand 29: invalid deal 'QKQ'"),
    (lambda row: row[:4] + ["KK"] + row[5:], "hand 29: history 'KK' is not terminal"),
    (lambda row: row[:6] + ["-1", "-3"], "hand 29: chips2 expected -2, found -1"),
    (lambda row: ["7"] + row[1:], "hand 29: hand expected 29, found '7'"),
    (lambda row: row[:1] + [f'"{row[1]}"'] + row[2:], """hand 29: card1 is not a card: '"A"'"""),
    (lambda row: row[:1] + [row[1] + row[2], row[3], ""] + row[4:],
     "hand 29: card1 is not a card: 'AQ'"),
    (lambda row: row[:5] + ["+" + row[5]] + row[6:], "hand 29: chips1 is not an integer: '+4'"),
    (lambda row: row[:6] + ["-0" + row[6][1:], row[7]], "hand 29: chips2 expected -2, found -02"),
    (lambda row: row[:7] + [" " + row[7]], "hand 29: chips3 is not an integer: ' -2'"),
], ids=["non-integer-chips", "short-row", "long-row", "invalid-deal", "non-terminal-history",
        "wrong-chips", "renumbered-hand", "quoted-card", "merged-cards", "plus-signed-chips",
        "zero-padded-chips", "space-padded-chips"])
def test_replay_rejects_malformed_rows(tmp_path, capsys, edit, message):
    config = write_config(tmp_path)
    out = tmp_path / "tourn"
    run(capsys, ["tournament", "--config", config, "--out", str(out)])
    log = out / "match_g0-1-2_s0_p0.log"
    _edit_last_row(log, edit)
    code, _, stderr = run(capsys, ["replay", "--log", str(log)])
    assert code == 1
    assert stderr == f"replay mismatch: {message}\n"


def test_replay_requires_seats_header(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "tourn"
    run(capsys, ["tournament", "--config", config, "--out", str(out)])
    log = out / "match_g0-1-2_s0_p0.log"
    text = log.read_text(encoding="utf-8")
    log.write_text("".join(line for line in text.splitlines(keepends=True)
                           if not line.startswith("# seats:")), encoding="utf-8")
    code, _, stderr = run(capsys, ["replay", "--log", str(log)])
    assert code == 1
    assert stderr == "replay mismatch: log has no '# seats:' line naming three agents\n"


# --- The CLI contract, as one property --------------------------------------
# Whatever the config and the numeric flags, cli.main returns: 0, or 2 with
# one stderr line, nothing on stdout and no --out path, or 1 from verify
# (a profile that misses its threshold).  A configuration error's line
# names its subject first (_ERROR_SUBJECTS).  The caps keep every run small.

def _main(argv):
    """cli.main(argv) and what it printed, for tests that cannot take capsys.
    Both outputs must encode, so that a terminal can show them."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    stdout, stderr = stdout.getvalue(), stderr.getvalue()
    stdout.encode("utf-8"), stderr.encode("utf-8")
    return code, stdout, stderr


_ODD_TEXT = st.one_of(st.text(max_size=6), st.sampled_from(
    ["", ",", "a,b", "a\nb", "\r", "\x00", "\ud800", "\udcff", "NashLB", "../x", "é", " "]))
_ODD = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), _ODD_TEXT,
              st.sampled_from([10 ** 400, -10 ** 400, 2 ** 64])),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(_ODD_TEXT, inner, max_size=3)),
    max_leaves=6)


def _below(low):
    """_ODD without the ints >= low, which a count field would accept."""
    return _ODD.filter(lambda v: not isinstance(v, int) or isinstance(v, bool) or v < low)


_PATHS = st.sampled_from(["lb.profile", "bad.profile", "missing.profile", ".", "a\x00b", "\ud800"])
_KEYS = ("agents", "master_seed", "hands_per_match", "matches_per_permutation",
         "normalization_divisor", "kind", "name", "parameters", "profile", "king_bet",
         "smoothing", "bogus")


@st.composite
def _configs(draw):
    """JSON text of a valid config of 3 or 4 agents with up to three fields,
    at any depth, removed or set to odd values; one in ten is odd throughout."""
    if draw(st.integers(0, 9)) == 0:
        return json.dumps(draw(_ODD))
    kinds = draw(st.lists(st.sampled_from(agents.AGENT_KINDS), min_size=3, max_size=4))
    entries = [{"kind": kind, "parameters": {"profile": "lb.profile"} if kind == "CFRTrained" else {}}
               for kind in kinds]
    config = {"agents": entries, "master_seed": draw(st.integers(min_value=0)),
              "hands_per_match": draw(st.integers(1, 12)),
              "matches_per_permutation": draw(st.integers(1, 2))}
    for _ in range(draw(st.integers(0, 3))):
        objects = [config, *entries, *(entry.get("parameters") for entry in entries)]
        target = draw(st.sampled_from([o for o in objects if isinstance(o, dict)]))
        key = draw(st.sampled_from(_KEYS))
        if draw(st.booleans()):
            target.pop(key, None)
        elif key in ("hands_per_match", "matches_per_permutation"):
            target[key] = draw(st.one_of(_below(1), st.just(harness.MAX_HANDS_PER_MATCH + 1)))
        else:
            target[key] = draw(st.one_of(_ODD, _PATHS, st.floats(0, 10)))
    return json.dumps(config)


_NESTED = '{"agents": ' + "[" * 100_000 + "]" * 100_000 + ', "master_seed": 0}'
_VALID = json.dumps({"agents": [{"kind": "FrequencyModeler"}, {"kind": "NashLB"},
                                {"kind": "CFRTrained", "parameters": {"profile": "lb.profile"}}],
                     "hands_per_match": 12, "matches_per_permutation": 1, "master_seed": 0})
#: What a 'configuration error: ' line may name first: the agents, a
#: MatchConfig field, the replications, or a quoted path.
_ERROR_SUBJECTS = ("agents", *(f.name for f in fields(harness.MatchConfig)), "replications",
                   "cannot read '", "cannot write '", "'")


@settings(max_examples=400)
@given(command=st.sampled_from(["tournament", "variance-study", "verify", "train-cfr"]),
       config=_configs(), threshold=st.floats(), iters=st.integers(max_value=200),
       replications=st.one_of(st.just(30), st.integers(max_value=30)),
       out=st.sampled_from(["out", "new/out", "a\x00b", "\ud800"]))
@example(command="tournament", config=_NESTED, threshold=0.0, iters=0, replications=30,
         out="out")
@example(command="variance-study", config=_VALID.replace("lb.profile", "a\\u0000b"),
         threshold=0.0, iters=0, replications=30, out="out")
@example(command="tournament", config=_VALID, threshold=0.0, iters=0, replications=30,
         out="a\x00b")
@example(command="variance-study", config=json.dumps({"agents": [{"kind": "NashLB"}] * 4,
                                                      "hands_per_match": 1, "master_seed": 0}),
         threshold=0.0, iters=0, replications=30, out="out")
@example(command="tournament", config=json.dumps({"agents": [{"kind": "NashLB"}] * 2,
                                                  "master_seed": 0}),
         threshold=0.0, iters=0, replications=30, out="out")
def test_cli_contract(command, config, threshold, iters, replications, out):
    with tempfile.TemporaryDirectory() as tmp:
        config_path, out = os.path.join(tmp, "config.json"), os.path.join(tmp, out)
        Path(config_path).write_text(config, encoding="utf-8")
        Path(tmp, "lb.profile").write_text(
            strategy.serialize_profile(strategy.nash_profile("LB")), encoding="utf-8")
        Path(tmp, "bad.profile").write_text("1 J 1 2\n", encoding="utf-8")
        ub = os.path.join(tmp, "ub.profile")
        Path(ub).write_text(strategy.serialize_profile(strategy.nash_profile("UB")),
                            encoding="utf-8")
        argv = {"tournament": ["--config", config_path, "--out", out],
                "variance-study": ["--config", config_path, f"--replications={replications}",
                                   "--out", out],
                "verify": ["--profile", ub, f"--threshold={threshold!r}"],
                "train-cfr": [f"--iters={iters}", "--out", out]}[command]
        code, stdout, stderr = _main([command, *argv])
        assert code in ((0, 1, 2) if command == "verify" else (0, 2))
        if code == 2:
            assert stdout == ""
            assert len(stderr.splitlines()) == 1, stderr
            assert not os.path.lexists(out)
            message = stderr.removeprefix("configuration error: ")
            assert message == stderr or message.startswith(_ERROR_SUBJECTS), stderr
        else:
            assert stderr == ""


# The same contract for the two commands that read a file the CLI wrote:
# verify on a mutated `solve` profile text, replay on a mutated match log.

_SOLVED = [strategy.serialize_profile(
    strategy.nash_profile(variant), header=f"{variant} parameter table, completed by strict dominance")
    for variant in ("LB", "UB")]
_LOGGED = harness.match_log(
    harness.run_match([agents.make_agent(agents.AgentSpec(kind))
                       for kind in ("FrequencyModeler", "NashLB", "UniformRandom")],
                      harness.deal_sequence(0, (0,), 12), 0),
    header=["grouping: 0-1-2 (FrequencyModeler,NashLB,UniformRandom)", "set: 0"])
_PROFILE_FIELDS = st.sampled_from(["nan", "inf", "1/0", "1e400", "9" * 5000, "\u0661",
                                   "\u0660.\u0665", "1/\u0663", "0", "1", "1e-400"])
_LOG_FIELDS = st.sampled_from(["", " ", "\u2028", "x", "J", "A", "KKK", "BFF", "0", "-1", "3",
                               "-0", "+2", "\u0662", "# seats: a,b,c", "hand", "2" * 5000])


@st.composite
def _mutated(draw, texts, separator, fields):
    """One of texts, its lines dropped, duplicated, swapped, a field
    replaced or a space, a separator or a U+2028 put inside one, up to
    three times, UTF-8 encoded, with non-UTF-8 bytes added to one in ten."""
    lines = draw(st.sampled_from(texts)).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        if not lines:
            break
        i, j = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["drop", "duplicate", "swap", "field", "field", "insert"]))
        if edit == "drop":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(j, lines[i])
        elif edit == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif edit == "field":
            split = lines[i].split(separator)
            split[draw(st.integers(0, len(split) - 1))] = draw(fields)
            lines[i] = separator.join(split)
        else:
            at = draw(st.integers(0, len(lines[i])))
            inserted = draw(st.sampled_from([" ", separator, "\u2028"]))
            lines[i] = lines[i][:at] + inserted + lines[i][at:]
    data = "".join(line + "\n" for line in lines).encode("utf-8")
    if draw(st.integers(0, 9)) == 9:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + data[at:]
    return data


@settings(max_examples=300)
@given(st.one_of(st.tuples(st.just("verify"), _mutated(_SOLVED, " ", _PROFILE_FIELDS)),
                 st.tuples(st.just("replay"), _mutated([_LOGGED], ",", _LOG_FIELDS))))
@example(("verify", _SOLVED[0].replace("1 K 3 1/2", "1 K 3 1/0").encode("utf-8")))
@example(("verify", _SOLVED[1].encode("utf-8")))
@example(("verify", _SOLVED[0].replace("1 J 1 0", "\u0661 J \u0661 \u0660").encode("utf-8")))
@example(("verify", _SOLVED[0].replace("1 K 3 1/2", "1 K 3 1_0/2_0").encode("utf-8")))
@example(("replay", _LOGGED.replace("# seats: ", "# seats:\u2028").encode("utf-8")))
@example(("replay", _LOGGED.replace(",KKK,", ", KKK,").encode("utf-8")))
def test_cli_read_contract(command_data):
    command, data = command_data
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        Path(path).write_bytes(data)
        flag = "--profile" if command == "verify" else "--log"
        code, stdout, stderr = _main([command, flag, path])
    assert code in (0, 1, 2)
    if code == 0:
        assert stderr == ""
    elif command == "verify" and code == 1:  # the report, on stdout
        assert stderr == "" and stdout.splitlines()[-1].startswith("not verified: ")
    else:
        assert stdout == ""
        assert len(stderr.splitlines()) == 1, stderr
