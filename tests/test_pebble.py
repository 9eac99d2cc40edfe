"""Pebble game on atom structures: partial isomorphisms and strategies."""

import pytest

from relalg import Rainbow
from relalg.pebble import (
    AtomRelStructure,
    Cor33Strategy,
    MirrorPebbleStrategy,
    PebbleStrategyFailure,
    partial_iso,
    verify_pebble_strategy,
)

RB22 = Rainbow.make(2, 2)
RB32 = Rainbow.make(3, 2)
L22 = AtomRelStructure.from_atom_structure(RB22.structure)
L32 = AtomRelStructure.from_atom_structure(RB32.structure)


# ---------------------------------------------------------------------------
# the relational view


def test_from_atom_structure_shape():
    assert L22.size == RB22.structure.n_atoms
    assert L22.id_rel == frozenset({0})
    # converse relation covers every atom exactly once in the first slot
    assert {a for a, _ in L22.cv_rel} == set(range(L22.size))
    assert L22.cs_rel == frozenset(RB22.structure.consistent)


def test_green_green_red_fact_in_both_structures():
    # (g_i, g_i', r_{j,j'}) is consistent exactly when i != i' and j != j'
    for rb, rel in ((RB22, L22), (RB32, L32)):
        for i in range(rb.s):
            for i2 in range(rb.s):
                for j in range(rb.t):
                    for j2 in range(rb.t):
                        triple = (rb.green(i), rb.green(i2), rb.red(j, j2))
                        want = i != i2 and j != j2
                        assert (triple in rel.cs_rel) == want, triple


# ---------------------------------------------------------------------------
# partial isomorphisms


def test_partial_iso_empty_and_identity():
    ok, _ = partial_iso(L22, L22, {})
    assert ok
    ok, _ = partial_iso(L22, L22, {0: (0, 0), 1: (3, 3)})
    assert ok


def test_partial_iso_rejects_id_mismatch():
    ok, reason = partial_iso(L22, L22, {0: (0, 1)})  # 1' vs b
    assert not ok and "Id" in reason


def test_partial_iso_rejects_cs_mismatch():
    # yellow composes with itself differently from black:
    # (y,y,y) is forbidden while (b,b,b) is consistent
    ok, reason = partial_iso(L22, L22, {0: (3, 1)})
    assert not ok and "Cs" in reason


def test_partial_iso_rejects_cv_mismatch():
    r01, r10 = RB22.red(0, 1), RB22.red(1, 0)
    g0 = RB22.green(0)  # self-converse
    ok, reason = partial_iso(L22, L22, {0: (r01, g0), 1: (r10, g0)})
    assert not ok


def test_partial_iso_rejects_non_function():
    g0, g1 = RB22.green(0), RB22.green(1)
    ok, reason = partial_iso(L22, L22, {0: (g0, g0), 1: (g0, g1)})
    assert not ok and "sent to two atoms" in reason
    ok, reason = partial_iso(L22, L22, {0: (g0, g0), 1: (g1, g0)})
    assert not ok and "two atoms sent" in reason


def test_green_swap_is_a_partial_iso():
    g0, g1 = RB22.green(0), RB22.green(1)
    ok, _ = partial_iso(L22, L22, {0: (g0, g1), 1: (g1, g0)})
    assert ok


# ---------------------------------------------------------------------------
# strategies


def test_mirror_strategy_verified_on_self():
    res = verify_pebble_strategy(L22, L22, MirrorPebbleStrategy(), pebbles=2, rounds=2)
    assert res.verified


def test_cor33_requires_same_reds():
    with pytest.raises(ValueError):
        Cor33Strategy(RB22, Rainbow.make(2, 3))


def test_cor33_nongreen_by_index_shift():
    strat = Cor33Strategy(RB22, RB32)
    # low atoms keep their index, reds shift by the green-count difference
    assert strat.respond({}, "L", 0, 3) == 3
    assert strat.respond({}, "L", 0, RB22.red(0, 1)) == RB32.red(0, 1)
    assert strat.respond({}, "R", 0, RB32.red(1, 0)) == RB22.red(1, 0)


def test_cor33_covering_reuses_partner():
    strat = Cor33Strategy(RB22, RB32)
    g0_l, g1_r = RB22.green(0), RB32.green(1)
    pos = {0: (g0_l, g1_r)}
    assert strat.respond(pos, "L", 1, g0_l) == g1_r
    assert strat.respond(pos, "R", 1, g1_r) == g0_l


def test_cor33_least_free_green():
    strat = Cor33Strategy(RB22, RB32)
    assert strat.respond({}, "L", 0, RB22.green(1)) == RB32.green(0)
    pos = {0: (RB22.green(0), RB32.green(0))}
    assert strat.respond(pos, "L", 1, RB22.green(1)) == RB32.green(1)
    # moving pebble 0 itself frees its old green
    assert strat.respond(pos, "R", 0, RB32.green(2)) == RB22.green(0)


def test_cor33_runs_out_with_more_pebbles_than_greens():
    strat = Cor33Strategy(RB32, RB22)  # right side has only 2 greens
    pos = {
        0: (RB32.green(0), RB22.green(0)),
        1: (RB32.green(1), RB22.green(1)),
    }
    with pytest.raises(PebbleStrategyFailure):
        strat.respond(pos, "L", 2, RB32.green(2))


def test_two_pebbles_verified():
    res = verify_pebble_strategy(
        L22, L32, Cor33Strategy(RB22, RB32), pebbles=2, rounds=4
    )
    assert res.verified, res.transcript


def test_three_pebbles_lose_quickly():
    res = verify_pebble_strategy(
        L22, L32, Cor33Strategy(RB22, RB32), pebbles=3, rounds=3
    )
    assert res.status == "counterexample"
    assert len(res.transcript) <= 3
    assert any("breach" in line or "failed" in line for line in res.transcript)


def test_state_budget_gives_inconclusive():
    res = verify_pebble_strategy(
        L22, L32, Cor33Strategy(RB22, RB32), pebbles=2, rounds=4, max_states=10
    )
    assert res.status == "inconclusive"
    assert res.reason == "state budget"
    assert not res.verified
