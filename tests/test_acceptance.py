"""Acceptance gate: nine end-to-end criteria, one printed verdict line each.

Each test prints "ACCEPTANCE n: PASS|FAIL description [detail]" outside of
pytest's capture so every verdict reaches the terminal, then asserts the
outcome.  Runtime budgets are enforced inside the criteria they belong to.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction as F

import numpy as np

from kuhn3p import agents, equilibrium, game, harness, strategy
from kuhn3p.agents import AgentSpec, make_agent

MASTER_SEED = 20260815


def _criterion(capsys, number: int, description: str, ok: bool,
               detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number}: {status} {description}"
    if detail:
        line = f"{line} [{detail}]"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_1_worked_example(capsys):
    payoffs = game.terminal_payoffs("QKA", "KKBFC")
    ok = payoffs == (-1, -2, 3)
    _criterion(capsys, 1, "deal QKA with history KKBFC pays (-1, -2, +3)", ok,
               f"got {payoffs}")


def test_criterion_2_zero_sum_everywhere(capsys):
    outcomes = [(deal, h, game.terminal_payoffs(deal, h))
                for deal in game.DEALS for h in game.TERMINAL_HISTORIES]
    bad = [(d, h, p) for d, h, p in outcomes if sum(p) != 0]
    ok = len(outcomes) == 312 and not bad
    _criterion(capsys, 2, "all 312 deal/terminal payoff vectors sum to zero", ok,
               f"{len(outcomes)} outcomes, {len(bad)} violations")


def _ub_family_end() -> strategy.StrategyProfile:
    # The published UB table with its one entry outside the family's
    # interval, seat 2 calling a lone bet with K, moved to that interval's
    # top end, 15/16.
    table = strategy.load_table("UB")
    table[(2, 3, 2)] = F(15, 16)
    return strategy.complete_profile(table)


def _format_deviations(deviations) -> str:
    if not deviations:
        return "none"
    return ", ".join(f"seat {key.seat} {key.card} situation {key.situation} "
                     f"gains {gain}" for key, gain in deviations)


def test_criterion_3_tabled_equilibria_verify_exactly(capsys):
    # The UB table ships verbatim as published, and its (2, K, 2) entry of
    # 1 leaves seat 1 an exact 1/192 gain for betting A at the root, so the
    # published table is pinned at that gap with that one deviation, and
    # the UB end of the equilibrium family is checked at epsilon 0.
    cases = (
        ("LB", lambda: strategy.nash_profile("LB"), F(0), []),
        ("UB end (2, K, 2) = 15/16", _ub_family_end, F(0), []),
        ("UB as published", lambda: strategy.nash_profile("UB"), F(1, 192),
         [(game.InfoSetKey(1, "A", 1), F(1, 192))]),
    )
    details = []
    ok = True
    for name, build, expected_epsilon, expected_deviations in cases:
        start = time.perf_counter()
        report = equilibrium.epsilon_report(build())
        elapsed = time.perf_counter() - start
        deviations = [dev for s in report.seats for dev in s.deviations]
        found = (f"epsilon {report.epsilon}, deviations "
                 f"{_format_deviations(deviations)}")
        if (report.epsilon == expected_epsilon
                and deviations == expected_deviations and elapsed < 1.0):
            details.append(f"{name}: {found} in {elapsed:.2f}s")
        else:
            ok = False
            details.append(
                f"{name}: expected epsilon {expected_epsilon}, deviations "
                f"{_format_deviations(expected_deviations)} in under 1s; "
                f"found {found} in {elapsed:.2f}s")
    _criterion(capsys, 3, "tabled equilibria verify exactly in under 1s each: "
                  "LB and the UB end of the family at epsilon 0, the published "
                  "UB table at its 1/192 gap", ok, "; ".join(details))


def test_criterion_4_best_response_matches_pure_oracle(capsys):
    gen = np.random.default_rng(MASTER_SEED)
    start = time.perf_counter()
    mismatches = 0
    profiles = 20
    for _ in range(profiles):
        values = {key: F(int(gen.integers(0, 33)), 32)
                  for key in game.all_infoset_keys()}
        profile = strategy.StrategyProfile(values)
        for seat in game.SEATS:
            fast = equilibrium.best_response(profile, seat).br_value
            oracle = equilibrium.pure_strategy_oracle(profile, seat)
            if fast != oracle.br_value:
                mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 60.0
    _criterion(capsys, 4, f"tree best response equals 2^16 pure-strategy oracle on "
                  f"{profiles} random profiles x 3 seats", ok,
               f"{mismatches} mismatches in {elapsed:.1f}s")


def test_criterion_5_cfr_converges(capsys):
    start = time.perf_counter()
    trainer = equilibrium.CfrTrainer()
    checkpoints = [100, 1_000, 10_000, 100_000]
    trace = []
    done = 0
    for point in checkpoints:
        trainer.run(point - done)
        done = point
        trace.append(float(equilibrium.epsilon(trainer.average_profile())))
    elapsed = time.perf_counter() - start
    decreasing = all(b < a for a, b in zip(trace, trace[1:]))
    ok = trace[-1] <= 0.01 and decreasing and elapsed < 300.0
    detail = ", ".join(f"{p}: {e:.6f}" for p, e in zip(checkpoints, trace))
    _criterion(capsys, 5, "vanilla CFR reaches epsilon <= 0.01 by 1e5 iterations "
                  "with a decreasing trace", ok,
               f"{detail}; {elapsed:.1f}s")


def test_criterion_6_self_play_matches_exact_values(capsys):
    lineup = [make_agent(AgentSpec("NashLB"))] * 3
    matches, hands = 1000, 3000
    exact = (F(-1, 48), F(-1, 48), F(1, 24))
    start = time.perf_counter()
    totals = [0, 0, 0]
    match_means = [[], [], []]
    for m in range(matches):
        cards = harness.deal_sequence(MASTER_SEED, (0, m), hands)
        record = harness.run_match(
            lineup, cards, np.random.SeedSequence(MASTER_SEED, spawn_key=(1, m)))
        for s in range(3):
            totals[s] += record.seat_totals[s]
            match_means[s].append(record.seat_totals[s] / hands)
    elapsed = time.perf_counter() - start
    details = []
    ok = elapsed < 120.0
    for s in range(3):
        mean = totals[s] / (matches * hands)
        se = statistics.stdev(match_means[s]) / matches ** 0.5
        z = (mean - float(exact[s])) / se
        details.append(f"seat {s + 1} z {z:+.2f}")
        if abs(z) > 3.0:
            ok = False
    _criterion(capsys, 6, f"NashLB self-play over {matches * hands} hands lands "
                  f"within 3 SE of the exact seat values", ok,
               f"{', '.join(details)}; {elapsed:.1f}s")


def test_criterion_7_tournament_protocol_is_reproducible(capsys):
    pool = [AgentSpec("NashLB"), AgentSpec("UniformRandom"),
            AgentSpec("AlwaysAggressive")]
    config = harness.MatchConfig(master_seed=MASTER_SEED)
    start = time.perf_counter()
    first = harness.run_tournament(pool, config)
    second = harness.run_tournament(pool, config)
    elapsed = time.perf_counter() - start
    grouping = first.groupings[0]
    shape_ok = (
        len(grouping.sets) == 10
        and all(len(ds.matches) == 6 for ds in grouping.sets)
        and all(len(m.hands) == 3000
                for ds in grouping.sets for m in ds.matches)
    )
    logs_match = all(
        harness.match_log(a) == harness.match_log(b)
        for da, db in zip(first.groupings[0].sets, second.groupings[0].sets)
        for a, b in zip(da.matches, db.matches))
    identical = (harness.report_csv(first) == harness.report_csv(second)
                 and harness.report_json(first) == harness.report_json(second)
                 and logs_match)
    ok = shape_ok and identical and elapsed < 60.0
    _criterion(capsys, 7, "protocol runs 10 sets x 6 permutations x 3000 hands and "
                  "reruns byte-identically", ok,
               f"shape {shape_ok}, identical {identical}, {elapsed:.1f}s")


def test_criterion_8_duplicate_seating_reduces_variance(capsys):
    triple = (AgentSpec("NashLB"), AgentSpec("HonestNoBluff"),
              AgentSpec("NashUB"))
    config = harness.MatchConfig(master_seed=MASTER_SEED, hands_per_match=500)
    start = time.perf_counter()
    study = harness.variance_study(triple, config, replications=100)
    elapsed = time.perf_counter() - start
    ok = study.ratio < 1.0 and study.replications >= 100 and elapsed < 300.0
    _criterion(capsys, 8, "duplicate-set variance undercuts independent-match "
                  "variance over 100 replications", ok,
               f"ratio {study.ratio:.4f}, {elapsed:.1f}s")


def test_criterion_9_honest_lineup_is_exploitable(capsys):
    profile = agents.build_honest_profile(F(1, 2))
    values = [equilibrium.best_response(profile, seat).br_value
              for seat in game.SEATS]
    ok = all(v > 0 for v in values)
    _criterion(capsys, 9, "best response against two HonestNoBluff agents earns "
                  "strictly positive value from every seat", ok,
               "values " + ", ".join(str(v) for v in values))
