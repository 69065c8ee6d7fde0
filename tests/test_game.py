"""Rules-engine tests.

The payoff checks are backed by an independent scorer written here from
the rules text: walk the action string moving chips explicitly, then
settle by fold-out or showdown.  The engine's table-driven results must
match it on every (deal, terminal history) pair.
"""

from __future__ import annotations

import itertools

import pytest

from kuhn3p import game


def naive_payoffs(deal: str, history: str) -> tuple[int, int, int]:
    """Second implementation of the settlement rules, kept deliberately
    step-by-step: simulate chip movements token by token."""
    paid = [1, 1, 1]  # antes
    folded = [False, False, False]
    bettor = None
    h = ""
    for token in history:
        seat = game.acting_seat(h)
        if token == "B":
            paid[seat - 1] += 1
            bettor = seat
        elif token == "C":
            paid[seat - 1] += 1
        elif token == "F":
            folded[seat - 1] = True
        h += token
    pot = sum(paid)
    if bettor is None:
        live = [1, 2, 3]
    else:
        live = [s for s in (1, 2, 3) if s == bettor or not folded[s - 1]]
    winner = max(live, key=lambda s: game.CARD_INDEX[deal[s - 1]])
    return tuple(pot * (s == winner) - paid[s - 1] for s in (1, 2, 3))


def test_deck_and_deal_enumeration():
    assert game.CARDS == ("J", "Q", "K", "A")
    deals = game.DEALS
    assert len(deals) == 24
    assert len(set(deals)) == 24
    for deal in deals:
        assert len(deal) == 3
        assert len(set(deal)) == 3
        assert set(deal) <= set(game.CARDS)


def test_history_counts():
    assert len(game.TERMINAL_HISTORIES) == 13
    assert len(game.DECISION_HISTORIES) == 12
    assert len(game.NODES) == 25
    assert set(game.TERMINAL_HISTORIES).isdisjoint(game.DECISION_HISTORIES)


def test_terminal_identification():
    assert game.is_terminal("KKK")
    assert game.is_terminal("BFF")
    assert game.is_terminal("KKBCC")
    assert not game.is_terminal("")
    assert not game.is_terminal("KK")
    assert not game.is_terminal("KKB")


def test_acting_seat_rotation():
    assert game.acting_seat("") == 1
    assert game.acting_seat("K") == 2
    assert game.acting_seat("KK") == 3
    assert game.acting_seat("B") == 2
    assert game.acting_seat("BC") == 3
    assert game.acting_seat("KB") == 3
    assert game.acting_seat("KBF") == 1
    assert game.acting_seat("KKB") == 1
    assert game.acting_seat("KKBC") == 2
    assert game.acting_seat("KKK") is None


def test_legal_actions_by_phase():
    # No outstanding bet: check or bet; facing a bet: call or fold.
    assert game.action_pair("") == ("K", "B")
    assert game.action_pair("K") == ("K", "B")
    assert game.action_pair("KK") == ("K", "B")
    assert game.action_pair("B") == ("F", "C")
    assert game.action_pair("KKBF") == ("F", "C")
    assert game.action_pair("KB") == ("F", "C")


def test_illegal_histories_rejected():
    for bad in ("X", "KKKK", "BB", "KKBFFX", "F", "C", "KF"):
        with pytest.raises(game.IllegalHistoryError):
            game.action_pair(bad)
    with pytest.raises(game.IllegalHistoryError, match="no actions at terminal history 'KKK'"):
        game.action_pair("KKK")
    with pytest.raises(game.IllegalHistoryError, match="history 'KB' is not terminal"):
        game.showdown_seats("KB")
    with pytest.raises(game.IllegalHistoryError):
        game.terminal_payoffs("QKA", "KK")  # not terminal
    with pytest.raises(ValueError):
        game.terminal_payoffs("QKQ", "KKK")  # repeated card
    with pytest.raises(ValueError):
        game.terminal_payoffs("QK", "KKK")  # short deal


def test_situation_table():
    # Situation number -> prior action string, per seat.
    expected = {
        1: {1: "", 2: "KKB", 3: "KBF", 4: "KBC"},
        2: {1: "K", 2: "B", 3: "KKBF", 4: "KKBC"},
        3: {1: "KK", 2: "KB", 3: "BF", 4: "BC"},
    }
    for seat, table in expected.items():
        for situation, history in table.items():
            assert game.situation_of(seat, history) == situation
    with pytest.raises(game.IllegalHistoryError):
        game.situation_of(1, "K")  # seat 1 never acts at "K"


def test_infoset_keys():
    keys = game.all_infoset_keys()
    assert len(keys) == 48
    assert len(set(keys)) == 48
    assert game.infoset_key(3, "A", "KK") == game.InfoSetKey(3, "A", 1)
    assert game.infoset_key(1, "Q", "KBC") == game.InfoSetKey(1, "Q", 4)
    with pytest.raises(ValueError, match="unknown card 'X'"):
        game.infoset_key(1, "X", "")
    # 4 situations x 4 cards per seat.
    for seat in (1, 2, 3):
        seat_keys = [k for k in keys if k.seat == seat]
        assert len(seat_keys) == 16


def test_worked_example():
    # Deal (Q, K, A), actions: check, check, bet, fold, call.  Seat 3 wins
    # a pot of 5 having put in 2, for a profit of 3.
    assert game.terminal_payoffs("QKA", "KKBFC") == (-1, -2, 3)


def test_showdown_seats():
    assert game.showdown_seats("KKK") == (1, 2, 3)
    assert game.showdown_seats("BFF") == ()  # bettor takes it unseen
    assert game.showdown_seats("BCF") == (1, 2)
    # Responders act in seat order after the bettor: "KBFC" is seat 3
    # folding and seat 1 calling seat 2's bet.
    assert game.showdown_seats("KBFC") == (1, 2)
    assert game.showdown_seats("KBCF") == (2, 3)
    assert game.showdown_seats("KKBCC") == (1, 2, 3)


def test_contributions():
    assert game.contributions("KKK") == (1, 1, 1)
    assert game.contributions("BCC") == (2, 2, 2)
    assert game.contributions("KKBFF") == (1, 1, 2)
    assert game.contributions("KBCF") == (1, 2, 2)


def test_fold_out_winner_without_showdown():
    # Both responders fold: the bettor collects 2 (the antes of the others).
    assert game.terminal_payoffs("JQK", "BFF") == (2, -1, -1)
    assert game.terminal_payoffs("JQK", "KBFF") == (-1, 2, -1)
    assert game.terminal_payoffs("JQK", "KKBFF") == (-1, -1, 2)


def test_folded_high_card_does_not_win():
    # Seat 3 folds the ace; showdown is between seats 1 and 2.
    assert game.terminal_payoffs("QKA", "BCF") == (-2, 3, -1)


def test_exhaustive_payoffs_match_naive_scorer():
    count = 0
    for deal in game.DEALS:
        for history in game.TERMINAL_HISTORIES:
            expected = naive_payoffs(deal, history)
            assert game.terminal_payoffs(deal, history) == expected
            assert sum(expected) == 0
            count += 1
    assert count == 312  # 24 deals x 13 terminal histories


def test_payoff_table_matches_function():
    for deal in game.DEALS:
        for history in game.TERMINAL_HISTORIES:
            assert game.PAYOFF_TABLE[deal][history] == game.terminal_payoffs(deal, history)


def test_pot_conservation():
    # Winner's gain equals the losers' contributions.
    for deal in game.DEALS:
        for history in game.TERMINAL_HISTORIES:
            paid = game.contributions(history)
            payoffs = game.terminal_payoffs(deal, history)
            assert len([p for p in payoffs if p > 0]) == 1
            winner = payoffs.index(max(payoffs))
            assert payoffs[winner] == sum(paid) - paid[winner]


def test_every_decision_history_reachable_and_extendable():
    # Every decision history extends to a terminal one with legal tokens.
    for h in game.DECISION_HISTORIES:
        passive, aggressive = game.action_pair(h)
        for token in (passive, aggressive):
            nxt = h + token
            assert game.is_terminal(nxt) or nxt in game.DECISION_HISTORIES


def test_terminal_of_decisions_matches_string_walk():
    # Bit n of the index is the action at decision node n, 1 for aggressive.
    assert len(game.TERMINAL_OF_DECISIONS) == 1 << game.N_DECISIONS
    for bits in range(1 << game.N_DECISIONS):
        h = ""
        while not game.is_terminal(h):
            h += game.action_pair(h)[bits >> game.NODE_ID[h] & 1]
        assert game.TERMINAL_OF_DECISIONS[bits] == game.NODE_ID[h]


def test_compiled_tables_match_string_api():
    assert game.NODES == game.DECISION_HISTORIES + game.TERMINAL_HISTORIES
    assert all(game.NODES[game.NODE_ID[h]] == h for h in game.NODES)
    keys = game.all_infoset_keys()
    for n, h in enumerate(game.DECISION_HISTORIES):
        seat = game.acting_seat(h)
        assert game.DECISION_SEAT[n] == seat
        assert game.DECISION_SITUATION[n] == game.situation_of(seat, h)
        assert game.DECISION_SLOT[n] == sum(game.acting_seat(h[:j]) == seat for j in range(len(h)))
        passive, aggressive = game.action_pair(h)
        assert game.PASSIVE_CHILD[n] == game.NODE_ID[h + passive]
        assert game.AGGRESSIVE_CHILD[n] == game.NODE_ID[h + aggressive]
        for d, deal in enumerate(game.DEALS):
            assert keys[game.INFOSET_INDEX[d, n]] == game.infoset_key(seat, deal[seat - 1], h)
    for d, deal in enumerate(game.DEALS):
        for n, h in enumerate(game.NODES):
            expected = game.terminal_payoffs(deal, h) if game.is_terminal(h) else (0, 0, 0)
            assert tuple(game.PAYOFFS[d, n]) == expected
    assert game.DECISION_ACTIONS == tuple(map(game.action_pair, game.DECISION_HISTORIES))
    for m, h in enumerate(game.NODES):
        assert "".join(game.DECISION_ACTIONS[n][action] for n, action in game.PATHS[m]) == h
    assert game.SHOWDOWN_SEATS == tuple(map(game.showdown_seats, game.TERMINAL_HISTORIES))
    assert len(game.OUTCOMES) == len(game.OUTCOME_PAYOFFS) == 24 * 13
    for o, (deal, history) in enumerate(game.OUTCOMES):
        assert divmod(o, 13) == (game.DEALS.index(deal), game.TERMINAL_HISTORIES.index(history))
        assert tuple(game.OUTCOME_PAYOFFS[o]) == game.terminal_payoffs(deal, history)
