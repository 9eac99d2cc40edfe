"""Colouring game: positions, exact values, and the balancing strategy."""

from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from relalg.seurat import (
    SeuratPosition,
    SeuratSession,
    SeuratStrategyFailure,
    _transcript_line,
    apply_round,
    brute_force_winner,
    dagger_holds,
    forall_wins,
    lemma43_strategy,
    verify_seurat_strategy,
)
from relalg.verdict import Verdict


# ---------------------------------------------------------------------------
# positions


def test_apply_round_partitions_both_sets():
    pos = SeuratPosition.initial(2, range(4), range(5))
    nxt = apply_round(pos, {0, 1}, {0})
    # every palette cell splits into disjoint in/out parts
    for palette in range(4):
        a, b = nxt.cells[palette]
        a2, b2 = nxt.cells[palette ^ 1]  # flip the round-0 bit
        if palette & 1:
            assert a <= {0, 1} and b <= {0}
        assert not (a & a2) and not (b & b2)
    # total sizes are preserved
    assert sum(len(a) for a, _ in nxt.cells.values()) == 2 * 4
    assert sum(len(b) for _, b in nxt.cells.values()) == 2 * 5


def test_apply_round_overflow():
    pos = SeuratPosition.initial(0, range(2), range(2))
    with pytest.raises(ValueError):
        apply_round(pos, set(), set())


def test_forall_wins_detects_small_unbalanced_cell():
    pos = SeuratPosition.initial(1, range(2), range(2))
    nxt = apply_round(pos, {0}, set())
    # palette {round 0} has cells of sizes 1 and 0
    assert forall_wins(nxt) is not None
    balanced = apply_round(pos, {0}, {0})
    assert forall_wins(balanced) is None


def test_forall_wins_ignores_large_unbalanced_cells():
    pos = SeuratPosition.initial(0, range(5), range(7))
    assert forall_wins(pos) is None  # both sizes >= 2


def test_dagger_holds_threshold():
    # at r=0, n=1 the bound is 2^2 = 4: size-(3,4) cells break it
    pos = SeuratPosition(n=1, r=0, cells={0: (frozenset(range(3)), frozenset(range(4)))})
    assert not dagger_holds(pos)
    pos = SeuratPosition(n=1, r=0, cells={0: (frozenset(range(4)), frozenset(range(5)))})
    assert dagger_holds(pos)


# ---------------------------------------------------------------------------
# exact values (independent oracle for the threshold pattern)


def test_brute_force_unbalanced_small_sets():
    assert brute_force_winner(2, 3, 1) == "forall"
    assert brute_force_winner(3, 2, 1) == "forall"


def test_brute_force_balanced_sets():
    assert brute_force_winner(4, 4, 1) == "exists"
    assert brute_force_winner(2, 2, 1) == "exists"


def test_brute_force_zero_rounds_closed_form():
    # with no rounds the initial cell alone decides: first player wins
    # iff the sizes differ and one is below 2
    for p in range(7):
        for q in range(7):
            want = "forall" if p != q and (p < 2 or q < 2) else "exists"
            assert brute_force_winner(p, q, 0) == want, (p, q)


def test_brute_force_more_rounds_need_more_points():
    # equal sizes always survive (mirroring); unequal sizes need both
    # at least 2^(n+1), so each extra round doubles the requirement
    assert brute_force_winner(4, 4, 2) == "exists"
    assert brute_force_winner(3, 4, 1) == "forall"
    assert brute_force_winner(4, 5, 1) == "exists"
    assert brute_force_winner(4, 5, 2) == "forall"


# ---------------------------------------------------------------------------
# the balancing strategy


def test_lemma43_reply_balances_cells():
    pos = SeuratPosition.initial(1, range(4), range(4))
    reply = lemma43_strategy(pos, {0, 1}, "T")
    nxt = apply_round(pos, {0, 1}, reply)
    assert forall_wins(nxt) is None
    assert dagger_holds(nxt)


def test_lemma43_side_symmetry():
    pos = SeuratPosition.initial(1, range(4), range(4))
    reply = lemma43_strategy(pos, {1, 2, 3}, "T2")
    nxt = apply_round(pos, reply, {1, 2, 3})
    assert forall_wins(nxt) is None


def test_lemma43_small_case_copies_size():
    # a pick below the threshold 2^(n-r) is matched exactly in size
    pos = SeuratPosition.initial(2, range(8), range(8))
    reply = lemma43_strategy(pos, {5}, "T")
    assert len(reply) == 1


def test_lemma43_exhausted_rounds():
    pos = SeuratPosition.initial(0, range(2), range(2))
    with pytest.raises(SeuratStrategyFailure):
        lemma43_strategy(pos, set(), "T")


def test_session_drives_full_game():
    sess = SeuratSession(2, range(8), range(8))
    assert sess.rounds_left == 2
    sess.play("T", {0, 1, 2})
    sess.play("T2", {4, 5})
    assert sess.rounds_left == 0
    assert forall_wins(sess.pos) is None
    with pytest.raises(SeuratStrategyFailure):
        sess.play("T", {0})


def test_verify_exhaustive_one_round():
    res = verify_seurat_strategy(4, 4, 1)
    assert res.status == "verified"
    assert res.plays == 2 * 2**4


def test_verify_detects_losing_start():
    # with unequal sizes and one side below 2 the opening is already lost
    res = verify_seurat_strategy(1, 3, 1)
    assert res.status == "counterexample"


def test_verify_sampled_requires_seed():
    with pytest.raises(ValueError):
        verify_seurat_strategy(8, 8, 2, mode="sampled", samples=10)


def test_verify_sampled_mode():
    res = verify_seurat_strategy(8, 8, 2, mode="sampled", samples=200, seed=7)
    assert res.status == "verified-sampled"
    assert res.plays == 200


def test_verify_unknown_mode():
    with pytest.raises(ValueError):
        verify_seurat_strategy(4, 4, 1, mode="monte")


@settings(max_examples=60, deadline=None)
@given(
    picks=hs.lists(
        hs.tuples(hs.sampled_from(["T", "T2"]), hs.sets(hs.integers(0, 7))),
        min_size=2,
        max_size=2,
    )
)
def test_strategy_survives_random_two_round_attacks(picks):
    sess = SeuratSession(2, range(8), range(8))
    for side, chosen in picks:
        sess.play(side, chosen)
        assert forall_wins(sess.pos) is None
        assert dagger_holds(sess.pos)


# ---------------------------------------------------------------------------
# the per-cell recursion against the plain searches it replaced


def reference_winner(t_size, t2_size, n):
    """Exact game value by search over multisets of cell sizes, with a
    product over every count vector of the first player and the reply."""

    @lru_cache(maxsize=None)
    def survives(cells, rounds_left):
        if any(p != q and (p < 2 or q < 2) for p, q in cells):
            return False
        if rounds_left == 0:
            return True
        for side in (0, 1):
            mover = [c[side] for c in cells]
            other = [c[1 - side] for c in cells]
            for picks in product(*(range(sz + 1) for sz in mover)):
                for resp in product(*(range(sz + 1) for sz in other)):
                    nxt = []
                    for (p, q), i, j in zip(cells, picks, resp):
                        pi, qi = (i, j) if side == 0 else (j, i)
                        nxt += [(pi, qi), (p - pi, q - qi)]
                    if survives(tuple(sorted(nxt)), rounds_left - 1):
                        break
                else:
                    return False
        return True

    return "exists" if survives(((t_size, t2_size),), n) else "forall"


def reference_verify(t_size, t2_size, n, strategy):
    """Exhaustive strategy check with no cut: every subset of both point
    sets, every round, in the move order of verify_seurat_strategy."""
    start = SeuratPosition.initial(n, range(t_size), range(t2_size))
    if forall_wins(start) is not None:
        return Verdict("counterexample", ["initial position lost"],
                       "the initial position is lost")
    moves = [
        (side, frozenset(g for g in range(size) if mask >> g & 1))
        for side, size in (("T", t_size), ("T2", t2_size))
        for mask in range(1 << size)
    ]
    plays = 0

    def dfs(pos):
        nonlocal plays
        if pos.r == pos.n:
            plays += 1
            return None
        for side, chosen in moves:
            try:
                reply = strategy(pos, chosen, side)
            except SeuratStrategyFailure as exc:
                return [f"round {pos.r} | strategy failure: {exc}"]
            nxt = (apply_round(pos, chosen, reply) if side == "T"
                   else apply_round(pos, reply, chosen))
            line = _transcript_line(nxt, side, chosen, reply)
            pal = forall_wins(nxt)
            if pal is not None or not dagger_holds(nxt):
                return [line, "survival invariant broken" if pal is None
                        else f"forall wins with palette {pal:b}"]
            bad = dfs(nxt)
            if bad is not None:
                return [line] + bad
        return None

    bad = dfs(start)
    if bad is not None:
        return Verdict("counterexample", bad,
                       f"strategy reached a losing position in play {plays + 1}",
                       plays=plays)
    return Verdict("verified", plays=plays)


def _fails_in_round_1(pos, chosen, side):
    if pos.r == 1:
        raise SeuratStrategyFailure("fake failure at round 1")
    return lemma43_strategy(pos, chosen, side)


SWEEP = [
    (p, q, n)
    for n in range(3)
    for p in range(9)
    for q in range(9)
    if n < 2 or p + q <= 12
]


@pytest.mark.parametrize("strategy", [lemma43_strategy, _fails_in_round_1])
def test_exhaustive_check_matches_plain_search(strategy):
    for p, q, n in SWEEP:
        assert verify_seurat_strategy(p, q, n, strategy=strategy) == (
            reference_verify(p, q, n, strategy)), (p, q, n)


def test_exact_values_match_multiset_search():
    for n in range(3):
        for p in range(7):
            for q in range(7):
                assert brute_force_winner(p, q, n) == reference_winner(p, q, n), (p, q, n)


def test_exhaustive_three_rounds_over_sixteen_points():
    res = verify_seurat_strategy(16, 16, 3)
    assert res.status == "verified"
    assert res.plays == (2**16 + 2**16) ** 3
