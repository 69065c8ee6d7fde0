"""End-to-end CLI tests driven through cli.main with in-process capture."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

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
    trace = (tmp_path / "cfr.txt.trace.csv").read_text(encoding="utf-8")
    assert trace.splitlines()[0] == "iteration,epsilon"


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
    assert stderr == "configuration error: a duplicate set needs exactly 3 agents, got 4\n"
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


def test_unknown_subcommand_and_flags_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--variant", "XX", "--out", "x"])
    assert exc.value.code == 2


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


@pytest.mark.parametrize("command, flag", [
    ("verify", "--profile"), ("replay", "--log"),
    ("tournament", "--config"), ("variance-study", "--config"),
])
def test_non_utf8_input_is_a_config_error(tmp_path, capsys, command, flag):
    path = tmp_path / "input"
    path.write_bytes(b"\xff\xfe")
    extra = ["--out", str(tmp_path / "t")] if command == "tournament" else []
    code, _, stderr = run(capsys, [command, flag, str(path), *extra])
    assert code == 2
    assert stderr.startswith(f"configuration error: cannot read {path}: ")
    assert len(stderr.splitlines()) == 1


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
