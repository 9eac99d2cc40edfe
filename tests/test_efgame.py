"""Element-pairing equivalence game: position checks and strategies."""

import random

import pytest

from relalg import Algebra, Rainbow
from relalg.efgame import (
    EFPosition,
    MirrorStrategy,
    Prop44Strategy,
    _nongreen_map,
    brute_force_winner,
    pair_closure,
    position_winner,
    prop44_strategy,
    verify_ef_strategy,
)
from relalg.seurat import SeuratSession, SeuratStrategyFailure

RB22 = Rainbow.make(2, 2)
RB32 = Rainbow.make(3, 2)
ALG22 = Algebra(RB22.structure)
ALG32 = Algebra(RB32.structure)


def mask(rb, *atoms):
    out = 0
    for a in atoms:
        out |= 1 << a
    return out


# ---------------------------------------------------------------------------
# position checks


def test_pairing_top_with_bottom_is_a_clash():
    pos = EFPosition(ALG22, ALG32, ((ALG22.one, 0),))
    clo = pair_closure(pos)
    assert not clo.is_isomorphism
    assert not position_winner(pos).exists_ok


def test_pairing_green_with_black_clashes():
    # a green atom composes with itself differently from the black atom
    pos = EFPosition(ALG22, ALG32, ((1 << RB22.green(0), 1 << 1),))
    assert not position_winner(pos).exists_ok


def test_empty_position_between_isomorphic_copies():
    pos = EFPosition(ALG22, Algebra(RB22.structure))
    v = position_winner(pos)
    assert v.exists_ok
    # cells pair the two atom partitions completely
    assert sum(bin(a).count("1") for a, _ in v.cells) == RB22.structure.n_atoms


def test_single_atom_pairings_between_same_shape():
    b = Algebra(Rainbow.make(2, 2).structure)
    good = EFPosition(ALG22, b, ((1 << RB22.green(0), 1 << RB22.green(1)),))
    assert position_winner(good).exists_ok
    # the identity atom can only pair with an identity-behaved element
    bad = EFPosition(ALG22, b, ((1 << 0, 1 << 1),))  # 1' vs black
    assert not position_winner(bad).exists_ok


def test_refinement_agrees_with_pair_closure_on_random_positions():
    rng = random.Random(2024)
    b = Algebra(RB22.structure)
    for _ in range(150):
        pairs = tuple(
            (rng.randrange(ALG22.size), rng.randrange(b.size))
            for _ in range(rng.randrange(1, 3))
        )
        pos = EFPosition(ALG22, b, pairs)
        assert position_winner(pos).exists_ok == pair_closure(pos).is_isomorphism


def test_appending_pairs_never_helps_exists():
    # if a position is already lost, any extension stays lost
    rng = random.Random(99)
    b = Algebra(RB32.structure)
    for _ in range(80):
        pos = EFPosition(ALG22, b, ((rng.randrange(ALG22.size), rng.randrange(b.size)),))
        if position_winner(pos).exists_ok:
            continue
        ext = pos.extended(rng.randrange(ALG22.size), rng.randrange(b.size))
        assert not position_winner(ext).exists_ok


def _tuple_signature_winner(pos):
    """The tuple-of-bits refinement that position_winner replaced: one
    compose call per ordered cell pair, no dedup of product columns."""
    alg_a, alg_b = pos.alg_a, pos.alg_b
    ka, kb = alg_a.n_atoms, alg_b.n_atoms
    elems = list(pos.pairs) + [(alg_a.identity_mask, alg_b.identity_mask)]
    sig_a = [tuple((a >> i) & 1 for a, _ in elems) for i in range(ka)]
    sig_b = [tuple((b >> i) & 1 for _, b in elems) for i in range(kb)]
    while True:
        groups = {}
        for i in range(ka):
            groups.setdefault(sig_a[i], [0, 0])[0] |= 1 << i
        for i in range(kb):
            groups.setdefault(sig_b[i], [0, 0])[1] |= 1 << i
        for ma, mb in groups.values():
            if (ma == 0) != (mb == 0):
                return "forall", [], (ma, mb)
        cells = sorted(groups.values())
        index = {}
        for ci, (ma, mb) in enumerate(cells):
            for i in range(ka):
                if ma >> i & 1:
                    index[("A", i)] = ci
            for i in range(kb):
                if mb >> i & 1:
                    index[("B", i)] = ci
        comps = [
            (alg_a.compose(ma, ma2), alg_b.compose(mb, mb2))
            for ma, mb in cells
            for ma2, mb2 in cells
        ]
        new_a = [
            (index[("A", i)], index[("A", alg_a.conv_atom[i])])
            + tuple((ca >> i) & 1 for ca, _ in comps)
            for i in range(ka)
        ]
        new_b = [
            (index[("B", i)], index[("B", alg_b.conv_atom[i])])
            + tuple((cb >> i) & 1 for _, cb in comps)
            for i in range(kb)
        ]
        if len(set(new_a) | set(new_b)) == len(cells):
            return "exists", [(ma, mb) for ma, mb in cells], None
        sig_a, sig_b = new_a, new_b


def _sampled_positions(rb_a, rb_b, alg_a, alg_b, count, rng):
    """Seeded one- to three-pair positions: half with uniform random
    pairs, half with the colouring-game strategy's answers, so both
    verdicts are well represented."""
    positions = []
    for k in range(count):
        n = rng.randrange(1, 4)
        if k % 2:
            pairs = tuple(
                (rng.randrange(alg_a.size), rng.randrange(alg_b.size))
                for _ in range(n)
            )
        else:
            strat = Prop44Strategy(rb_a, rb_b)
            session = strat.start(n)
            pairs = ()
            for _ in range(n):
                side = rng.choice("AB")
                elem = rng.randrange(alg_a.size if side == "A" else alg_b.size)
                try:
                    resp = strat.respond(session, side, elem)
                except SeuratStrategyFailure:
                    other = alg_b if side == "A" else alg_a
                    resp = rng.randrange(other.size)
                pairs += ((elem, resp) if side == "A" else (resp, elem),)
        positions.append(EFPosition(alg_a, alg_b, pairs))
    return positions


@pytest.mark.parametrize(
    "s_a, s_b, t, count",
    [(2, 3, 2, 150), (3, 4, 2, 150), (8, 9, 2, 80), (8, 9, 7, 40)],
)
def test_position_winner_matches_tuple_signature_winner(s_a, s_b, t, count):
    rb_a, rb_b = Rainbow.make(s_a, t), Rainbow.make(s_b, t)
    alg_a, alg_b = Algebra(rb_a.structure), Algebra(rb_b.structure)
    rng = random.Random(1000 * s_a + t)
    winners = set()
    for pos in _sampled_positions(rb_a, rb_b, alg_a, alg_b, count, rng):
        v = position_winner(pos)
        assert (v.winner, v.cells, v.witness) == _tuple_signature_winner(pos)
        winners.add(v.winner)
    assert winners == {"exists", "forall"}


def test_refinement_agrees_with_pair_closure_on_unequal_pair():
    # B(2,1) and B(3,1) differ, so "forall" verdicts are cross-checked too
    rb_a, rb_b = Rainbow.make(2, 1), Rainbow.make(3, 1)
    alg_a, alg_b = Algebra(rb_a.structure), Algebra(rb_b.structure)
    rng = random.Random(31)
    winners = set()
    for pos in _sampled_positions(rb_a, rb_b, alg_a, alg_b, 200, rng):
        v = position_winner(pos)
        assert v.exists_ok == pair_closure(pos).is_isomorphism
        winners.add(v.winner)
    assert winners == {"exists", "forall"}


def test_compose_all_matches_compose():
    rng = random.Random(5)
    for alg in (ALG22, Algebra(Rainbow.make(8, 7).structure)):
        masks = [0, alg.one, alg.identity_mask] + [
            rng.randrange(alg.size) for _ in range(6)
        ] + [1 << rng.randrange(alg.n_atoms) for _ in range(6)]
        table = alg.compose_all(masks)
        assert table == [[alg.compose(x, y) for y in masks] for x in masks]
    assert ALG22.compose_all([]) == []
    x = 1 << RB22.green(0)
    assert ALG22.compose_all([x]) == [[ALG22.compose(x, x)]]


# ---------------------------------------------------------------------------
# exact game values on small instances


def test_brute_force_identical_algebras_always_exists():
    from relalg.atoms import make_structure

    st = make_structure(["1'", "d"], ["1'"], [], [("1'", "1'", "d")])
    pos = EFPosition(Algebra(st), Algebra(st))
    assert brute_force_winner(pos, 2) == "exists"


def test_brute_force_zero_rounds_matches_position_winner():
    pos = EFPosition(ALG22, ALG32)
    assert brute_force_winner(pos, 0) == position_winner(pos).winner


def test_brute_force_budget_exhaustion():
    pos = EFPosition(ALG22, ALG32)
    assert brute_force_winner(pos, 1, max_states=2) == "inconclusive"


# ---------------------------------------------------------------------------
# strategies


def test_mirror_strategy_verified_on_identical_algebras():
    res = verify_ef_strategy(ALG22, Algebra(RB22.structure), MirrorStrategy(), n=1)
    assert res.status == "verified"
    assert res.plays == 2 * ALG22.size


def test_nongreen_map_bit_shuffle():
    transfer = _nongreen_map(RB22, RB32)
    # low atoms keep their positions
    assert transfer(0b1011) == 0b1011
    # a red atom shifts by the green-count difference
    r_src = 1 << RB22.red(1, 0)
    assert transfer(r_src) == 1 << RB32.red(1, 0)
    # green atoms are dropped (the session names the green part)
    assert transfer(1 << RB22.green(0)) == 0
    with pytest.raises(ValueError):
        transfer(1 << 60)


def test_nongreen_map_requires_same_reds():
    with pytest.raises(ValueError):
        _nongreen_map(RB22, Rainbow.make(2, 3))


def test_prop44_reply_preserves_nongreen_part():
    transfer = _nongreen_map(RB22, RB32)
    session = SeuratSession(1, range(2), range(3))
    elem = (1 << RB22.green(0)) | (1 << 3) | (1 << RB22.red(0, 1))
    out = prop44_strategy(RB22, RB32, elem, session, "T")
    assert out & ~RB32.green_mask == transfer(elem)
    # one green chosen -> exactly one green answered (small-case copy)
    assert bin(out & RB32.green_mask).count("1") == 1


def test_prop44_strategy_one_round_small_pair():
    # structures with 4 and 5 greens over the same reds agree to depth 1
    rb_a, rb_b = Rainbow.make(4, 2), Rainbow.make(5, 2)
    res = verify_ef_strategy(
        Algebra(rb_a.structure),
        Algebra(rb_b.structure),
        Prop44Strategy(rb_a, rb_b),
        n=1,
        mode="sampled",
        samples=300,
        seed=11,
    )
    assert res.status == "verified-sampled"


def test_prop44_strategy_fails_where_forall_wins():
    # 2 vs 3 greens: the colouring game value is a first-player win,
    # and the verifier finds a losing line
    res = verify_ef_strategy(ALG22, ALG32, Prop44Strategy(RB22, RB32), n=1)
    assert res.status == "counterexample"
    assert res.transcript


def test_verify_exhaustive_guards():
    rb_a, rb_b = Rainbow.make(4, 2), Rainbow.make(5, 2)
    a, b = Algebra(rb_a.structure), Algebra(rb_b.structure)
    strat = Prop44Strategy(rb_a, rb_b)
    with pytest.raises(ValueError):
        verify_ef_strategy(a, b, strat, n=2)  # exhaustive depth cap
    with pytest.raises(ValueError):
        verify_ef_strategy(a, b, strat, n=1, mode="sampled")  # seed required
    with pytest.raises(ValueError):
        verify_ef_strategy(a, b, strat, n=1, mode="census")


def test_cells_match_generated_subalgebra():
    from relalg import generate_subalgebra

    elem = (1 << RB22.green(0)) | (1 << 3)
    pos = EFPosition(ALG22, Algebra(RB22.structure), ((elem, elem),))
    v = position_winner(pos)
    assert v.exists_ok
    atoms = sorted(a for a, _ in v.cells)
    sub = generate_subalgebra(ALG22, [elem])
    assert sorted(min_nonzero for min_nonzero in _subalgebra_atoms(sub)) == atoms


def _subalgebra_atoms(elements):
    """Minimal nonzero elements of a subalgebra given as a set of masks."""
    elems = sorted(e for e in elements if e)
    return [
        e
        for e in elems
        if not any(x and x != e and x & e == x for x in elems)
    ]
