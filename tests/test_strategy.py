"""Parameter-table and profile tests.

The tabled values asserted here are transcribed independently of the
implementation; the dominance-completion values are forced by the rules
(J never wins a showdown, A always does, Q at situation 4 cannot win).
"""

from __future__ import annotations

from fractions import Fraction as F

import pytest

from kuhn3p import game, strategy
from kuhn3p.game import InfoSetKey


def test_tabled_entries_shape():
    # Per seat: j=1 k=1; j=2 k=1-3; j=3 k=1-4; j=4 k=1.
    assert len(strategy.TABLED_ENTRIES) == 27
    per_seat = {1: [], 2: [], 3: []}
    for seat, j, k in strategy.TABLED_ENTRIES:
        per_seat[seat].append((j, k))
    expected = {(1, 1), (2, 1), (2, 2), (2, 3),
                (3, 1), (3, 2), (3, 3), (3, 4), (4, 1)}
    for seat in (1, 2, 3):
        assert set(per_seat[seat]) == expected


def test_load_table_lb_values():
    t = strategy.load_table("LB")
    assert set(t) == set(strategy.TABLED_ENTRIES)
    assert t[(3, 4, 1)] == 1            # c41
    assert t[(3, 2, 1)] == F(1, 2)      # c21
    assert t[(1, 3, 3)] == F(1, 2)      # a33
    assert t[(2, 4, 1)] == 0            # b41
    assert t[(1, 1, 1)] == 0            # a11
    assert t[(3, 3, 3)] == F(1, 2)      # c33
    nonzero = {e: v for e, v in t.items() if v != 0}
    assert nonzero == {
        (1, 3, 3): F(1, 2),
        (2, 3, 3): F(1, 2),
        (3, 2, 1): F(1, 2),
        (3, 3, 3): F(1, 2),
        (3, 4, 1): F(1),
    }


def test_load_table_ub_values():
    t = strategy.load_table("UB")
    assert t[(2, 1, 1)] == F(1, 4)      # b11
    assert t[(2, 3, 3)] == F(7, 8)      # b33
    assert t[(3, 3, 3)] == 0            # c33
    assert t[(3, 3, 4)] == 1            # c34
    nonzero = {e: v for e, v in t.items() if v != 0}
    assert nonzero == {
        (1, 3, 3): F(1, 2),
        (2, 1, 1): F(1, 4),
        (2, 2, 1): F(1, 4),
        (2, 3, 2): F(1),
        (2, 3, 3): F(7, 8),
        (2, 4, 1): F(1),
        (3, 2, 1): F(1, 2),
        (3, 3, 4): F(1),
        (3, 4, 1): F(1),
    }


def test_load_table_rejects_unknown_variant():
    with pytest.raises(ValueError):
        strategy.load_table("XX")


def test_profile_validation():
    aggressive = {key: F(0) for key in game.all_infoset_keys()}
    strategy.StrategyProfile(aggressive)  # 48 keys accepted

    missing = dict(aggressive)
    del missing[InfoSetKey(1, "J", 1)]
    with pytest.raises(ValueError):
        strategy.StrategyProfile(missing)

    bad_range = dict(aggressive)
    bad_range[InfoSetKey(1, "J", 1)] = F(3, 2)
    with pytest.raises(ValueError):
        strategy.StrategyProfile(bad_range)


def test_complete_profile_copies_and_fills():
    profile = strategy.complete_profile(strategy.load_table("LB"))
    assert len(profile.aggressive) == 48
    # 27 tabled values are copied verbatim.
    assert profile[InfoSetKey(3, "A", 1)] == 1
    assert profile[InfoSetKey(1, "K", 3)] == F(1, 2)
    # The 21 absent entries follow strict dominance.
    filled = [k for k in game.all_infoset_keys() if (k.card, k.situation) in strategy.DOMINANCE]
    assert len(filled) == 21
    for key in filled:
        if key.card == "J":
            assert profile[key] == 0
        elif key.card == "A":
            assert profile[key] == 1
        else:
            assert key.card == "Q" and key.situation == 4
            assert profile[key] == 0
    # J faces a bet at situations 2-4 for every seat; Q only at 4.
    assert {(k.card, k.situation) for k in filled} == {
        ("J", 2), ("J", 3), ("J", 4), ("Q", 4), ("A", 2), ("A", 3), ("A", 4),
    }


def test_complete_profile_rejects_bad_tables():
    table = strategy.load_table("LB")
    extra = dict(table)
    extra[(1, 1, 2)] = F(0)  # entry that must come from dominance
    with pytest.raises(ValueError):
        strategy.complete_profile(extra)
    short = dict(table)
    del short[(1, 1, 1)]
    with pytest.raises(ValueError):
        strategy.complete_profile(short)
    bad = dict(table)
    bad[(1, 1, 1)] = F(2)
    with pytest.raises(ValueError):
        strategy.complete_profile(bad)


def test_uniform_and_constant_profiles():
    uniform = strategy.constant_profile(F(1, 2))
    assert all(p == F(1, 2) for p in uniform.aggressive.values())
    zero = strategy.constant_profile(F(0))
    assert all(p == 0 for p in zero.aggressive.values())
    with pytest.raises(ValueError):
        strategy.constant_profile(F(5, 4))


def test_profile_replace():
    profile = strategy.constant_profile(F(1, 2))
    key = InfoSetKey(2, "K", 2)
    changed = profile.replace(key, F(1))
    assert changed[key] == 1
    assert profile[key] == F(1, 2)  # original untouched


def test_serialize_parse_round_trip():
    for variant in ("LB", "UB"):
        profile = strategy.nash_profile(variant)
        text = strategy.serialize_profile(profile, header=f"{variant} test")
        parsed = strategy.parse_profile(text)
        assert parsed.aggressive == profile.aggressive
        lines = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert len(lines) == 48


def test_serialize_formats_fractions_exactly():
    text = strategy.serialize_profile(strategy.nash_profile("UB"))
    assert "2 K 3 7/8" in text.splitlines()
    assert "3 A 1 1" in text.splitlines()


def test_parse_profile_float_round_trip():
    profile = strategy.constant_profile(0.125)
    parsed = strategy.parse_profile(strategy.serialize_profile(profile))
    assert all(p == 0.125 for p in parsed.aggressive.values())


def test_parse_profile_errors_carry_line_numbers():
    good = strategy.serialize_profile(strategy.constant_profile(F(1, 2)))
    lines = good.splitlines()

    with pytest.raises(strategy.ProfileFormatError) as err:
        strategy.parse_profile("\n".join(lines + [lines[-1]]))  # duplicate
    assert "duplicate" in str(err.value)

    with pytest.raises(strategy.ProfileFormatError) as err:
        strategy.parse_profile("1 J 1\n")  # missing probability column
    assert err.value.lineno == 1

    with pytest.raises(strategy.ProfileFormatError) as err:
        strategy.parse_profile("1 X 1 0\n")
    assert "card" in str(err.value)

    with pytest.raises(strategy.ProfileFormatError) as err:
        strategy.parse_profile("1 J 1 7/4\n")
    assert "outside" in str(err.value)

    with pytest.raises(strategy.ProfileFormatError):
        strategy.parse_profile("")  # no entries at all

    # 47 entries: missing keys must be reported.
    with pytest.raises(strategy.ProfileFormatError) as err:
        strategy.parse_profile("\n".join(lines[:-1]))
    assert "missing" in str(err.value)


def test_parse_profile_rejects_non_ascii_fields():
    # int and float read any Unicode decimal; serialize_profile writes ASCII.
    lb = strategy.serialize_profile(strategy.nash_profile("LB")).splitlines()
    at = lb.index("1 J 1 0")
    for line in ("\u0661 J \u0661 \u0660", "1 J 1 \u0660", "1 J \u0661 0", "1 J 1 \uff10"):
        lines = lb[:at] + [line] + lb[at + 1:]
        with pytest.raises(strategy.ProfileFormatError) as err:
            strategy.parse_profile("\n".join(lines))
        assert err.value.lineno == at + 1
        assert "non-ASCII" in str(err.value)


def test_parse_profile_rejects_digit_separators():
    # int, float and Fraction read '_' between digits; serialize_profile never writes it.
    lb = strategy.serialize_profile(strategy.nash_profile("LB")).splitlines()
    at = lb.index("1 K 3 1/2")
    for line in ("1 K 3 1_0/2_0", "1 K 3 0_1", "1 K 3 0.5_0", "0_1 K 3 1/2", "1 K 0_3 1/2"):
        lines = lb[:at] + [line] + lb[at + 1:]
        with pytest.raises(strategy.ProfileFormatError) as err:
            strategy.parse_profile("\n".join(lines))
        assert err.value.lineno == at + 1
        assert "'_'" in str(err.value)


def test_nash_profile_equals_completed_table():
    for variant in ("LB", "UB"):
        direct = strategy.nash_profile(variant)
        completed = strategy.complete_profile(strategy.load_table(variant))
        assert direct.aggressive == completed.aggressive
