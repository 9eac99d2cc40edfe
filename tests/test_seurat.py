"""Colouring game: positions, exact values, and the balancing strategy.

Point sets are int masks (bit i = point i).  The last sections check the
mask game against the set-based game on all 2^n palettes that it
replaced, kept in ``tests/reference.py``.
"""

import re
import time
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import reference as ref
from relalg.seurat import (
    EXHAUSTIVE_MAX_ROUNDS,
    SeuratPosition,
    SeuratSession,
    SeuratStrategyFailure,
    _outward,
    _play_one_round,
    _transcript_line,
    apply_round,
    brute_force_winner,
    dagger_holds,
    forall_wins,
    lemma43_strategy,
    verify_seurat_strategy,
)
from relalg.verdict import Verdict


def points(mask):
    return {i for i in range(mask.bit_length()) if mask >> i & 1}


def full(size):
    return (1 << size) - 1


# ---------------------------------------------------------------------------
# positions


def test_apply_round_partitions_both_sets():
    pos = SeuratPosition.initial(2, full(4), full(5))
    nxt = apply_round(pos, 0b11, 0b1)
    # one cell per palette of the one round played: out (0) and in (1)
    assert list(nxt.cells) == [0, 1]
    for palette, (a, b) in nxt.cells.items():
        a2, b2 = nxt.cells[palette ^ 1]  # flip the round-0 bit
        if palette & 1:
            assert a & ~0b11 == 0 and b & ~0b1 == 0
        assert not (a & a2) and not (b & b2)
    # every point lies in exactly one cell
    assert sum(a.bit_count() for a, _ in nxt.cells.values()) == 4
    assert sum(b.bit_count() for _, b in nxt.cells.values()) == 5
    assert nxt.cells[0][0] | nxt.cells[1][0] == full(4)
    assert nxt.cells[0][1] | nxt.cells[1][1] == full(5)


def test_apply_round_drops_empty_cells_in_ascending_order():
    pos = apply_round(SeuratPosition.initial(2, full(4), full(5)), 0b11, 0b1)
    nxt = apply_round(pos, 0b100, 0b10)
    # palette 1's "in" part is empty on both sides, so palette 3 is not
    # stored; the "in" child of palette 0 comes after palette 1
    assert list(nxt.cells.items()) == [
        (0, (0b1000, 0b11100)), (1, (0b11, 0b1)), (2, (0b100, 0b10))]
    assert SeuratPosition.initial(3, 0, 0).cells == {}
    # a one-sided cell is kept
    one_sided = apply_round(SeuratPosition.initial(1, 0b11, 0b11), 0b1, 0)
    assert one_sided.cells == {0: (0b10, 0b11), 1: (0b1, 0)}


def test_apply_round_overflow():
    pos = SeuratPosition.initial(0, full(2), full(2))
    with pytest.raises(ValueError):
        apply_round(pos, 0, 0)


def test_forall_wins_detects_small_unbalanced_cell():
    pos = SeuratPosition.initial(1, full(2), full(2))
    nxt = apply_round(pos, 0b1, 0)
    # palette {round 0} has cells of sizes 1 and 0, palette {} of sizes
    # 1 and 2; the lower palette is named
    assert forall_wins(nxt) == 0
    balanced = apply_round(pos, 0b1, 0b1)
    assert forall_wins(balanced) is None


def test_forall_wins_ignores_large_unbalanced_cells():
    pos = SeuratPosition.initial(0, full(5), full(7))
    assert forall_wins(pos) is None  # both sizes >= 2


def test_dagger_holds_threshold():
    # at r=0, n=1 the bound is 2^2 = 4: size-(3,4) cells break it
    pos = SeuratPosition(n=1, r=0, cells={0: (full(3), full(4))})
    assert not dagger_holds(pos)
    pos = SeuratPosition(n=1, r=0, cells={0: (full(4), full(5))})
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


def test_replies_are_tried_from_the_proportional_count_outward():
    assert list(_outward(2, 6)) == [2, 1, 3, 0, 4, 5, 6]
    assert list(_outward(0, 3)) == [0, 1, 2, 3]
    assert list(_outward(3, 3)) == [3, 2, 1, 0]
    assert list(_outward(0, 0)) == [0]
    for hi in range(7):
        for j in range(hi + 1):
            assert sorted(_outward(j, hi)) == list(range(hi + 1))


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
    pos = SeuratPosition.initial(1, full(4), full(4))
    reply = lemma43_strategy(pos, 0b11, "T")
    nxt = apply_round(pos, 0b11, reply)
    assert forall_wins(nxt) is None
    assert dagger_holds(nxt)


def test_lemma43_side_symmetry():
    pos = SeuratPosition.initial(1, full(4), full(4))
    reply = lemma43_strategy(pos, 0b1110, "T2")
    nxt = apply_round(pos, reply, 0b1110)
    assert forall_wins(nxt) is None


def test_lemma43_small_case_copies_size():
    # a pick below the threshold 2^(n-r) is matched exactly in size
    pos = SeuratPosition.initial(2, full(8), full(8))
    reply = lemma43_strategy(pos, 1 << 5, "T")
    assert reply.bit_count() == 1


def test_lemma43_takes_the_lowest_points():
    # "any subset" of a cell is its lowest points: here the pick of 5 of
    # 8 leaves 3 < 2^2 out, so the reply is the cell's 8 - 3 lowest
    pos = SeuratPosition.initial(2, full(8), 0b1111_1111_0000)
    assert lemma43_strategy(pos, 0b1_1111, "T") == 0b1111_1000_0
    # below the threshold the reply copies the pick's size from the bottom
    assert lemma43_strategy(pos, 0b100_0000, "T") == 0b1_0000


def test_lemma43_exhausted_rounds():
    pos = SeuratPosition.initial(0, full(2), full(2))
    with pytest.raises(SeuratStrategyFailure):
        lemma43_strategy(pos, 0, "T")


def test_session_drives_full_game():
    sess = SeuratSession(2, full(8), full(8))
    assert sess.rounds_left == 2
    sess.play("T", 0b111)
    sess.play("T2", 0b110000)
    assert sess.rounds_left == 0
    assert forall_wins(sess.pos) is None
    with pytest.raises(SeuratStrategyFailure):
        sess.play("T", 0b1)


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


@settings(max_examples=400, deadline=None)
@given(
    n=hs.integers(1, 4),
    t=hs.integers(0, 10),
    t2=hs.integers(0, 10),
    rounds=hs.lists(hs.tuples(hs.sampled_from(["T", "T2"]), hs.integers(0, 2**10 - 1),
                              hs.integers(0, 2**10 - 1)),
                    min_size=1, max_size=4),
)
def test_one_pass_check_matches_both_rules(n, t, t2, rounds):
    """The round check agrees with forall_wins and dagger_holds on random
    positions, the last round (bound 2) included, and names the same
    palette when both rules fail."""
    pos = SeuratPosition.initial(n, full(t), full(t2))
    rounds = rounds[:n]
    for i, (side, pick, answer) in enumerate(rounds):
        mover, other = (full(t), full(t2)) if side == "T" else (full(t2), full(t))
        chosen, reply = pick & mover, answer & other
        nxt = (apply_round(pos, chosen, reply) if side == "T"
               else apply_round(pos, reply, chosen))
        if i + 1 < len(rounds):  # earlier rounds only build the position
            pos = nxt
            continue
        got = _play_one_round(pos, side, chosen, lambda *_: reply)
        pal = forall_wins(nxt)
        if pal is None and dagger_holds(nxt):
            assert got == (nxt, reply, None)
        else:
            assert got == (None, None, [
                _transcript_line(nxt, side, chosen, reply),
                "survival invariant broken" if pal is None
                else f"forall wins with palette {pal:b}"])


def test_verify_unknown_mode():
    with pytest.raises(ValueError):
        verify_seurat_strategy(4, 4, 1, mode="monte")


@settings(max_examples=60, deadline=None)
@given(
    picks=hs.lists(
        hs.tuples(hs.sampled_from(["T", "T2"]), hs.integers(0, 0xFF)),
        min_size=2,
        max_size=2,
    )
)
def test_strategy_survives_random_two_round_attacks(picks):
    sess = SeuratSession(2, full(8), full(8))
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
    start = SeuratPosition.initial(n, full(t_size), full(t2_size))
    if forall_wins(start) is not None:
        return Verdict("counterexample", ["initial position lost"],
                       "the initial position is lost")
    moves = [
        (side, mask)
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


# ---------------------------------------------------------------------------
# the mask game against the set-based game on all 2^n palettes


def _answer(strategy, pos, chosen, side):
    try:
        return strategy(pos, chosen, side), None
    except SeuratStrategyFailure as exc:
        return None, str(exc)


def _assert_same_cells(pos, ref_pos):
    """Each stored cell equals the reference cell of every palette that
    extends it, and every other reference cell is empty."""
    low = (1 << pos.r) - 1
    assert list(pos.cells) == sorted(pos.cells)
    assert all(palette <= low and (a or b) for palette, (a, b) in pos.cells.items())
    for palette, (a, b) in ref_pos.cells.items():
        got = pos.cells.get(palette & low, (0, 0))
        assert (points(got[0]), points(got[1])) == (a, b), palette


@settings(max_examples=300, deadline=None)
@given(
    n=hs.integers(0, 4),
    t=hs.integers(0, 10),
    t2=hs.integers(0, 10),
    picks=hs.lists(hs.tuples(hs.sampled_from(["T", "T2"]), hs.integers(0, 2**10 - 1)),
                   max_size=4),
)
def test_sessions_match_the_set_based_game(n, t, t2, picks):
    pos = SeuratPosition.initial(n, full(t), full(t2))
    ref_pos = ref.SeuratPosition.initial(n, range(t), range(t2))
    _assert_same_cells(pos, ref_pos)
    for side, pick in picks[:n]:
        chosen = pick & full(t if side == "T" else t2)
        reply, error = _answer(lemma43_strategy, pos, chosen, side)
        ref_reply, ref_error = _answer(ref.lemma43_strategy, ref_pos, points(chosen), side)
        assert error == ref_error
        if error is not None:
            return
        assert points(reply) == ref_reply
        if side == "T":
            pos = apply_round(pos, chosen, reply)
            ref_pos = ref.apply_round(ref_pos, points(chosen), ref_reply)
        else:
            pos = apply_round(pos, reply, chosen)
            ref_pos = ref.apply_round(ref_pos, ref_reply, points(chosen))
        _assert_same_cells(pos, ref_pos)
        assert forall_wins(pos) == ref.forall_wins(ref_pos)
        assert dagger_holds(pos) == ref.dagger_holds(ref_pos)
    if pos.r == pos.n:
        assert _answer(lemma43_strategy, pos, 0, "T")[1] == "no rounds left"


CELLS = re.compile(r"(\d+)->\((\d+),(\d+)\)")


def _assert_same_transcript(lines, ref_lines):
    """Lines equal but for the cells listing, which lists the non-empty
    cells over the rounds played where the reference lists all 2^n."""
    assert len(lines) == len(ref_lines)
    for line, ref_line in zip(lines, ref_lines):
        if "| cells: " not in ref_line:
            assert line == ref_line
            continue
        head, cells = line.split("| cells: ")
        ref_head, ref_cells = ref_line.split("| cells: ")
        assert head == ref_head
        r = int(head.split()[1]) + 1
        want = {}
        for bits, a, b in CELLS.findall(ref_cells):
            sizes = (int(a), int(b))
            assert want.setdefault(int(bits, 2) % (1 << r), sizes) == sizes
        want = {p: sizes for p, sizes in sorted(want.items()) if sizes != (0, 0)}
        assert cells == ", ".join(
            f"{p:0{r}b}->({a},{b})" for p, (a, b) in want.items())


def _assert_same_verdict(got, want):
    assert (got.status, got.reason, got.plays, got.states) == (
        want.status, want.reason, want.plays, want.states)
    _assert_same_transcript(got.transcript, want.transcript)


def test_exhaustive_verdicts_match_the_set_based_game():
    for n in range(3):
        for p in range(9):
            for q in range(9):
                _assert_same_verdict(verify_seurat_strategy(p, q, n),
                                     ref.verify_seurat_strategy(p, q, n))


def _spied(strategy, log, to_points):
    def spy(pos, chosen, side):
        reply = strategy(pos, chosen, side)
        log.append((pos.r, side, to_points(chosen), to_points(reply)))
        return reply

    return spy


@pytest.mark.parametrize("p,q,n,samples", [
    (16, 16, 3, 1000), (16, 17, 3, 1000), (4, 5, 2, 300), (6, 9, 2, 300)])
def test_sampled_verdicts_match_the_set_based_game(p, q, n, samples):
    for seed in range(10):
        log, ref_log = [], []
        got = verify_seurat_strategy(p, q, n, mode="sampled", samples=samples, seed=seed,
                                     strategy=_spied(lemma43_strategy, log, points))
        want = ref.verify_seurat_strategy(p, q, n, mode="sampled", samples=samples,
                                          seed=seed,
                                          strategy=_spied(ref.lemma43_strategy,
                                                          ref_log, set))
        _assert_same_verdict(got, want)
        # the same moves drawn, and the same replies, in every round
        assert log == ref_log


def test_many_rounds_hold_few_cells():
    # one cell per non-empty palette: 64 rounds cost no more than 2
    t0 = time.perf_counter()
    res = verify_seurat_strategy(2, 3, 64)
    assert (res.status, res.plays) == ("counterexample", 0)
    assert res.transcript == [
        "round 0 | forall side=T set=[] | exists set=[] | cells: 0->(2,3)",
        "survival invariant broken",
    ]
    res = verify_seurat_strategy(40, 40, 64, mode="sampled", samples=20, seed=0)
    assert res.status == "verified-sampled"
    assert time.perf_counter() - t0 < 1


def test_sampled_plays_take_any_number_of_rounds():
    # a flat loop: 2000 rounds would overflow a recursion of one frame a round
    res = verify_seurat_strategy(4, 4, 2000, mode="sampled", samples=3, seed=1)
    assert (res.status, res.plays) == ("verified-sampled", 3)


def test_exact_searches_take_at_most_the_round_limit():
    n = EXHAUSTIVE_MAX_ROUNDS
    assert verify_seurat_strategy(4, 4, n) == Verdict("verified", plays=(2**4 + 2**4) ** n)
    assert brute_force_winner(4, 4, n) == "exists"
    assert brute_force_winner(4, 5, n) == "forall"
    with pytest.raises(ValueError, match=f"exhaustive mode supports n <= {n}; use sampled"):
        verify_seurat_strategy(4, 4, n + 1)
    with pytest.raises(ValueError, match=f"the exact solver supports n <= {n}"):
        brute_force_winner(4, 4, n + 1)
