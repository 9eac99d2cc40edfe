"""Pebble game on atom structures: partial isomorphisms and strategies."""

import random
from typing import Optional

import pytest

from relalg import Rainbow
from relalg.pebble import (
    AtomRelStructure,
    Cor33Strategy,
    PebbleStrategyFailure,
    _move_line,
    atom_types,
    closure_line,
    partial_iso,
    verify_pebble_strategy,
)
from relalg.verdict import Verdict

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
# atom types: a one-pair extension is decided by comparing two ints


def _rel(s, t):
    return AtomRelStructure.from_atom_structure(Rainbow.make(s, t).structure)


def _random_partial_iso(left, right, rng) -> dict:
    """A partial isomorphism of 0-3 pebbled pairs, grown one pair at a
    time: either a pebbled pair again or an atom of a random side with a
    random partner that :func:`partial_iso` accepts."""
    pos: dict = {}
    for pebble in range(rng.randrange(4)):
        if pos and rng.random() < 0.25:
            pos[pebble] = rng.choice(list(pos.values()))
            continue
        side = rng.randrange(2)
        atom = rng.randrange((left, right)[side].size)
        fits = [
            pair for other in range((right, left)[side].size)
            for pair in [(atom, other) if side == 0 else (other, atom)]
            if partial_iso(left, right, {**pos, pebble: pair})[0]
        ]
        if not fits:
            break
        pos[pebble] = rng.choice(fits)
    return pos


# (s_left, t_left, s_right, t_right); B(1,1) has t = 1, where w and
# r0_0 are twins
TYPE_PAIRS = [(2, 2, 3, 2), (3, 3, 4, 3), (1, 1, 2, 1), (3, 3, 3, 2)]


@pytest.mark.parametrize("pair", TYPE_PAIRS)
def test_equal_types_iff_the_extension_is_a_partial_iso(pair):
    s_l, t_l, s_r, t_r = pair
    left, right = _rel(s_l, t_l), _rel(s_r, t_r)
    rng = random.Random(f"types:{pair}")
    sizes = set()
    for _ in range(150):
        pos = _random_partial_iso(left, right, rng)
        sizes.add(len(pos))
        others = sorted(pos.values())
        lt = atom_types(left, tuple(a for a, _ in others))
        rt = atom_types(right, tuple(b for _, b in others))
        for a in range(left.size):
            for b in range(right.size):
                ok, _ = partial_iso(left, right, {**pos, len(pos): (a, b)})
                assert (lt[a] == rt[b]) == ok, (pos, a, b)
    assert sizes == {0, 1, 2, 3}


# ---------------------------------------------------------------------------
# strategies


class MirrorPebbleStrategy:
    """Answer with the identical atom; for a structure against itself."""

    def respond(self, pos, side: str, pebble: int, atom: int) -> int:
        return atom

    def replies(self, pos, side: str, pebble: int) -> list:
        return list(range(L22.size))


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


def _expanded_classes(left, right, strategy, pebbles, rounds) -> list:
    """Every position the engine expands, recorded through the
    strategy's reply table."""
    seen: list = []

    class Recording:
        def replies(self, pos, side, pebble):
            if not seen or seen[-1] is not pos:
                seen.append(pos)
            return strategy.replies(pos, side, pebble)

        respond = strategy.respond

    verify_pebble_strategy(left, right, Recording(), pebbles, rounds)
    return seen


def _scanned_reply(strategy, pos, side, pebble, atom):
    """The green-matching reply to one atom read literally: a covering
    pebble's partner, else the same-named partner, else the least green
    of the other side not under another pebble, else None."""
    mine, theirs = (0, 1) if side == "L" else (1, 0)
    for k, pair in pos.items():
        if k != pebble and pair[mine] == atom:
            return pair[theirs]
    partner = strategy.partner[side][atom]
    if partner is not None:
        return partner
    dst = strategy.rb["R" if side == "L" else "L"]
    taken = {pair[theirs] for k, pair in pos.items() if k != pebble}
    return next((g for g in dst.greens if g not in taken), None)


# (s, t, rounds, classes): with 3 pebbles B(2,2)/B(3,2) is lost at
# round 2, where the right side runs out of greens; B(3,3)/B(4,3)
# closes at round 5, and none of its classes runs out
@pytest.mark.parametrize("s, t, rounds, classes", [(2, 2, 3, 57), (3, 3, 7, 2552)])
def test_reply_table_matches_respond(s, t, rounds, classes):
    rb_l, rb_r = Rainbow.make(s, t), Rainbow.make(s + 1, t)
    left = AtomRelStructure.from_atom_structure(rb_l.structure)
    right = AtomRelStructure.from_atom_structure(rb_r.structure)
    strat = Cor33Strategy(rb_l, rb_r)
    expanded = _expanded_classes(left, right, strat, 3, rounds)
    failures = 0
    for pos in expanded:
        for side, struct in (("L", left), ("R", right)):
            for pebble in range(3):
                table = strat.replies(pos, side, pebble)
                assert len(table) == struct.size
                for atom, reply in enumerate(table):
                    assert reply == _scanned_reply(strat, pos, side, pebble, atom)
                    if reply is None:
                        failures += 1
                        with pytest.raises(PebbleStrategyFailure):
                            strat.respond(pos, side, pebble, atom)
                    else:
                        assert strat.respond(pos, side, pebble, atom) == reply
    assert len(expanded) == classes and (failures > 0) == (s == 2)


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


def test_two_pebbles_reach_their_closure_within_five_rounds():
    # 109 position classes are all that 2 pebbles can reach; past the
    # closure more rounds expand nothing new
    for rounds in (5, 50):
        res = verify_pebble_strategy(
            L22, L32, Cor33Strategy(RB22, RB32), pebbles=2, rounds=rounds
        )
        assert (res.status, res.states) == ("verified", 109)


def test_closure_is_reported_only_from_a_keyed_layer():
    strat = Cor33Strategy(RB22, RB32)
    for rounds in (5, 50):  # round 3's children are keyed from rounds 5 on
        closed = verify_pebble_strategy(L22, L32, strat, pebbles=2, rounds=rounds)
        assert (closed.status, closed.states) == ("verified", 109)
        assert closed.transcript == [closure_line(3, 109)]
    # round 3 is checked at rounds 4 but its children are not keyed, so
    # nothing shows that it reaches no new class
    short = verify_pebble_strategy(L22, L32, strat, pebbles=2, rounds=4)
    assert (short.status, short.states, short.transcript) == ("verified", 109, [])


def test_budget_stops_at_the_position_it_would_expand():
    strat = Cor33Strategy(RB22, RB32)
    full = verify_pebble_strategy(L22, L32, strat, pebbles=2, rounds=5)
    res = verify_pebble_strategy(
        L22, L32, strat, pebbles=2, rounds=5, max_states=full.states - 1
    )
    assert (res.status, res.states) == ("inconclusive", full.states)
    assert res.transcript and all(line.endswith("| ok") for line in res.transcript)
    same = verify_pebble_strategy(
        L22, L32, strat, pebbles=2, rounds=5, max_states=full.states
    )
    assert (same.status, same.states) == ("verified", full.states)


def _counting_full_checks(monkeypatch) -> list:
    """Replace the engine's full check by one that records each call."""
    calls: list = []

    def counted(left, right, pos):
        calls.append(dict(pos))
        return partial_iso(left, right, pos)

    monkeypatch.setattr("relalg.pebble.partial_iso", counted)
    return calls


@pytest.mark.parametrize("s, t, pebbles, rounds, classes", [
    (3, 3, 3, 6, 2552),
    (3, 3, 3, 7, 2552),  # the closure: a seventh round expands nothing new
    (4, 4, 4, 4, 4857),
])
def test_engine_reach_by_types_alone(monkeypatch, s, t, pebbles, rounds, classes):
    # every child is accepted on equal types, so the full check never runs
    calls = _counting_full_checks(monkeypatch)
    rb_l, rb_r = Rainbow.make(s, t), Rainbow.make(s + 1, t)
    res = verify_pebble_strategy(
        AtomRelStructure.from_atom_structure(rb_l.structure),
        AtomRelStructure.from_atom_structure(rb_r.structure),
        Cor33Strategy(rb_l, rb_r), pebbles=pebbles, rounds=rounds)
    assert (res.status, res.states, calls) == ("verified", classes, [])


def test_full_check_runs_once_for_the_breach(monkeypatch):
    calls = _counting_full_checks(monkeypatch)
    res = verify_pebble_strategy(
        L22, L32, Cor33Strategy(RB22, RB32), pebbles=3, rounds=3)
    assert res.status == "counterexample"
    assert len(calls) == ("| breach: " in res.transcript[-1])


# ---------------------------------------------------------------------------
# the breadth-first search against the depth-first one it replaced


def _dfs_reference(left, right, strategy, pebbles, rounds, max_states):
    """Depth-first search memoized on (pebbled pairs, depth), which
    expands a position again at every depth where it is reached."""
    states = 0
    seen: set = set()

    class Spent(Exception):
        pass

    def dfs(pos, depth) -> Optional[list]:
        nonlocal states
        if depth == rounds:
            return None
        key = (tuple(sorted(pos.values())), depth)
        if key in seen:
            return None
        seen.add(key)
        states += 1
        if states > max_states:
            raise Spent
        for side, struct in (("L", left), ("R", right)):
            mine = 0 if side == "L" else 1
            for pebble in range(pebbles):
                for atom in range(struct.size):
                    old = pos.get(pebble)
                    if old is not None and old[mine] == atom:
                        continue
                    try:
                        reply = strategy.respond(pos, side, pebble, atom)
                    except PebbleStrategyFailure as exc:
                        return [_move_line(depth, side, pebble, left, right,
                                           atom, None, f"strategy failed: {exc}")]
                    pair = (atom, reply) if side == "L" else (reply, atom)
                    pos[pebble] = pair
                    ok, reason = partial_iso(left, right, pos)
                    bad = dfs(pos, depth + 1) if ok else []
                    if old is None:
                        del pos[pebble]
                    else:
                        pos[pebble] = old
                    if bad is not None:
                        bad.insert(0, _move_line(
                            depth, side, pebble, left, right, atom,
                            pair[1 - mine], "ok" if ok else f"breach: {reason}"))
                        return bad
        return None

    try:
        losing = dfs({}, 0)
    except Spent:
        return Verdict("inconclusive", reason="state budget", states=states)
    if losing is None:
        return Verdict("verified", states=states)
    return Verdict("counterexample", losing,
                   "first player forces a non-isomorphic position", states=states)


# (s_left, s_right, t, most pebbles + rounds): the bound keeps the sweep
# near a second per engine
SWEEP_PAIRS = [(2, 3, 2, 7), (3, 2, 2, 7), (2, 2, 2, 6), (1, 2, 2, 7),
               (2, 3, 3, 5), (3, 2, 3, 5)]
SWEEP = [
    (pair, pebbles, rounds, budget)
    for pair in SWEEP_PAIRS
    for pebbles in range(5)
    for rounds in range(min(5, pair[3] - pebbles) + 1)
    for budget in (10**6, 3)
]


def test_breadth_first_search_matches_the_depth_first_reference():
    rels = {}
    for (s_l, s_r, t, _), pebbles, rounds, budget in SWEEP:
        for s in (s_l, s_r):
            if (s, t) not in rels:
                rb = Rainbow.make(s, t)
                rels[s, t] = rb, AtomRelStructure.from_atom_structure(rb.structure)
        (rb_l, left), (rb_r, right) = rels[s_l, t], rels[s_r, t]
        case = (s_l, s_r, t, pebbles, rounds, budget)
        got = verify_pebble_strategy(left, right, Cor33Strategy(rb_l, rb_r),
                                     pebbles, rounds, max_states=budget)
        ref = _dfs_reference(left, right, Cor33Strategy(rb_l, rb_r),
                             pebbles, rounds, budget)
        assert (got.status, got.reason) == (ref.status, ref.reason), case
        if got.status == "verified":
            assert got.states <= ref.states, case
        if got.status == "counterexample":
            *kept, last = got.transcript
            assert len(got.transcript) <= len(ref.transcript), case
            assert all(line.endswith("| ok") for line in kept), case
            assert "| breach: " in last or "| strategy failed: " in last, case
