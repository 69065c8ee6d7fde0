"""Tests of the benchmark itself, at the tiny job size.

Run from the repository root:

    python3 -m pytest bench -q

The tier-1 suite under tests/ does not collect these.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_UNITS = {"count", "B", "calls/hand"}

# Appended to a copy of harness.py: flips one chip in the first hand of
# one log, as a fast but wrong log writer would.
TAMPER = '''

_untampered_match_log = match_log


def match_log(record, header=()):
    text = _untampered_match_log(record, header)
    header = list(header)
    if ("set: 0" in header and any(h.startswith("grouping: 0-1-2 ") for h in header)
            and any(h.startswith("permutation: 0 ") for h in header)):
        head, sep, rest = text.partition("\\n0,")
        row, newline, tail = rest.partition("\\n")
        fields = row.split(",")
        fields[-1] = str(int(fields[-1]) + 1)
        text = head + sep + ",".join(fields) + newline + tail
    return text
'''


def bench(root: Path, workload: str, trace: int = 0, seed: int = 0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=300)


def result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def units(declared: list[dict]) -> dict:
    return {m["name"]: m["unit"] for m in declared}


def copy_checkout(tmp_path: Path) -> Path:
    root = tmp_path / "checkout"
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    shutil.copytree(ROOT / "src", root / "src", ignore=ignore)
    shutil.copytree(BENCH, root / "bench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", root)
    return root


def assert_failed_cleanly(proc: subprocess.CompletedProcess) -> None:
    assert proc.returncode == 1, proc.stderr
    out = result(proc)
    assert out["correct"] is False
    assert 0 < out["failed"] <= out["attempted"]
    assert "check failed" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_emitted_with_their_units(workload):
    proc = bench(ROOT, workload)
    assert proc.returncode == 0, proc.stderr
    out = result(proc)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    assert {name: m["unit"] for name, m in out["metrics"].items()} == units(SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_metrics_are_emitted_and_counts_repeat(workload):
    counts = []
    for _ in range(2):
        proc = bench(ROOT, workload, trace=1)
        assert proc.returncode == 0, proc.stderr
        out = result(proc)
        assert out["correct"] is True and out["failed"] == 0
        metrics = out["metrics"]
        assert {name: m["unit"] for name, m in metrics.items()} == units(SPEC["per_layer"])
        counts.append({name: m["value"] for name, m in metrics.items() if m["unit"] in COUNT_UNITS})
    assert counts[0] == counts[1]
    assert any(value > 0 for value in counts[0].values())


def test_a_tampered_log_fails_the_gate(tmp_path):
    root = copy_checkout(tmp_path)
    with open(root / "src" / "kuhn3p" / "harness.py", "a", encoding="utf-8") as fh:
        fh.write(TAMPER)
    # A seed without golden digests: the replay and the set totals catch it.
    proc = bench(root, "tournament-profile", seed=1)
    assert_failed_cleanly(proc)
    assert "replay of match_g0-1-2_s0_p0.log exited 1" in proc.stderr


def test_a_wrong_golden_digest_fails_the_reference_seed_only(tmp_path):
    root = copy_checkout(tmp_path)
    golden_path = root / "bench" / "golden.json"
    golden = json.loads(golden_path.read_text())
    golden["tiny"]["tournament-modeler"]["report.csv"] = "0" * 64
    golden_path.write_text(json.dumps(golden))
    assert_failed_cleanly(bench(root, "tournament-modeler", seed=0))
    assert bench(root, "tournament-modeler", seed=1).returncode == 0


def test_without_the_source_it_fails_without_a_result(tmp_path):
    root = tmp_path / "checkout"
    shutil.copytree(BENCH, root / "bench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", root)
    proc = bench(root, "solve")
    assert proc.returncode == 2
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
    assert "Traceback" not in proc.stderr
