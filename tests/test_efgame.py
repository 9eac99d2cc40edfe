"""Element-pairing equivalence game: position checks and strategies."""

import itertools
import random
import time

import pytest

from reference import from_triples
from relalg import Algebra, Rainbow, efgame
from relalg.algebra import bits
from relalg.efgame import (
    EFPosition,
    PositionVerdict,
    Prop44Strategy,
    pair_closure,
    position_winner,
    verify_ef_strategy,
)
from relalg.rainbow import YELLOW
from relalg.seurat import SeuratStrategyFailure
from relalg.verdict import Verdict

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
        v = position_winner(pos)
        assert v.exists_ok == pair_closure(pos).is_isomorphism
        if v.exists_ok:
            assert set(v.cells) == _closure_cells(pos)


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


@pytest.mark.parametrize(
    "s_a, s_b, t, count",
    [(2, 3, 2, 150), (3, 4, 2, 150), (4, 5, 1, 150), (8, 9, 2, 60)],
)
def test_every_prefix_of_an_exists_position_is_exists(s_a, s_b, t, count):
    # the winner is monotone along a play, which lets the play loop
    # decide only a play's last position
    rb_a, rb_b, alg_a, alg_b = _pair_algebras(s_a, s_b, t)
    rng = random.Random(500 * s_a + t)
    winners = set()
    for pos in _sampled_positions(rb_a, rb_b, alg_a, alg_b, count, rng):
        if len(pos.pairs) < 2:
            continue
        v = position_winner(pos)
        if v.exists_ok:
            for i in range(len(pos.pairs)):
                assert position_winner(EFPosition(alg_a, alg_b, pos.pairs[:i])).exists_ok
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
        if v.exists_ok:
            assert set(v.cells) == _closure_cells(pos)
        winners.add(v.winner)
    assert winners == {"exists", "forall"}


def test_compose_all_matches_compose():
    rng = random.Random(5)
    for alg in (ALG22, Algebra(Rainbow.make(8, 7).structure)):
        masks = [0, alg.one, alg.identity_mask] + [
            rng.randrange(alg.size) for _ in range(6)
        ] + [1 << rng.randrange(alg.n_atoms) for _ in range(6)]
        table = alg.compose_all([list(bits(x)) for x in masks])
        assert table == [[alg.compose(x, y) for y in masks] for x in masks]
    assert ALG22.compose_all([]) == []
    x = 1 << RB22.green(0)
    assert ALG22.compose_all([[RB22.green(0)]]) == [[ALG22.compose(x, x)]]
    assert ALG22.compose_all([[]]) == [[0]]


# ---------------------------------------------------------------------------
# strategies


class MirrorStrategy:
    """Answer every move with the identical element; needs A = B."""

    def start(self, n: int):
        return None

    def respond(self, ctx, side: str, elem: int) -> int:
        return elem


def test_mirror_strategy_verified_on_identical_algebras():
    res = verify_ef_strategy(ALG22, Algebra(RB22.structure), MirrorStrategy(), n=1)
    assert res.status == "verified"
    assert res.plays == 2 * ALG22.size


def test_nongreen_map_bit_shuffle():
    def transfer(x):
        return RB22.rename_nongreens(RB32, x)

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
        Prop44Strategy(RB22, Rainbow.make(2, 3))


def test_prop44_reply_preserves_nongreen_part():
    strategy = Prop44Strategy(RB22, RB32)
    session = strategy.start(1)
    elem = (1 << RB22.green(0)) | (1 << YELLOW) | (1 << RB22.red(0, 1))
    out = strategy.respond(session, "A", elem)
    assert out & ~RB32.green_mask == RB22.rename_nongreens(RB32, elem)
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
    # the A side of the pair closure is the subalgebra elem generates
    elem = (1 << RB22.green(0)) | (1 << 3)
    pos = EFPosition(ALG22, Algebra(RB22.structure), ((elem, elem),))
    v = position_winner(pos)
    assert v.exists_ok
    atoms = sorted(a for a, _ in v.cells)
    sub = {a for a, _ in pair_closure(pos).pairs}
    assert _subalgebra_atoms(sub) == atoms


def _subalgebra_atoms(elements):
    """Minimal nonzero elements of a subalgebra given as a set of masks."""
    elems = sorted(e for e in elements if e)
    return [
        e
        for e in elems
        if not any(x and x != e and x & e == x for x in elems)
    ]


def _closure_cells(pos):
    """The pairs of the pair closure whose A side is an atom of the
    generated A-side subalgebra: the atom cells an "exists" verdict names."""
    pairs = pair_closure(pos).pairs
    atoms = set(_subalgebra_atoms({a for a, _ in pairs}))
    return {(a, b) for a, b in pairs if a in atoms}


def _generated_blocks(pos):
    """The atoms of the subalgebra of A x B that the pairs and the
    constants generate, as (mask in A, mask in B) pairs.

    Unlike :func:`pair_closure` this does not stop at a clash.  The
    blocks start as the Venn regions of the generators and are split by
    the converse of each block and the product of each pair of blocks,
    until none splits.  Each element of the generated subalgebra is a
    union of blocks.
    """
    alg_a, alg_b = pos.alg_a, pos.alg_b
    blocks = {(alg_a.one, alg_b.one)}

    def split(by):
        ea, eb = by
        return {
            part
            for ma, mb in blocks
            for part in ((ma & ea, mb & eb), (ma & ~ea, mb & ~eb))
            if part != (0, 0)
        }

    for pair in list(pos.pairs) + [(alg_a.identity_mask, alg_b.identity_mask)]:
        blocks = split(pair)
    while True:
        before = sorted(blocks)
        for ma, mb in before:
            blocks = split((alg_a.converse(ma), alg_b.converse(mb)))
            for ma2, mb2 in before:
                blocks = split((alg_a.compose(ma, ma2), alg_b.compose(mb, mb2)))
        if sorted(blocks) == before:
            return blocks


def _in_closure(pair, blocks):
    """Whether a (mask in A, mask in B) pair is a union of blocks."""
    wa, wb = pair
    return all((ma & wa, mb & wb) in ((0, 0), (ma, mb)) for ma, mb in blocks)


@pytest.mark.parametrize("s_a, s_b, t", [(2, 3, 2), (2, 3, 1)])
def test_witness_and_cells_lie_in_the_generated_subalgebra(s_a, s_b, t):
    # An algebra with one identity atom is simple: 1;x;1 = 1 for x != 0.
    # So once a pairing fails to extend, its closure holds (1, 0) and
    # (0, 1), and with them every pair of generated elements; a "forall"
    # witness is then right exactly when it is one-sided, non-zero and
    # generated, which is what this can check.
    rb_a, rb_b = Rainbow.make(s_a, t), Rainbow.make(s_b, t)
    alg_a, alg_b = Algebra(rb_a.structure), Algebra(rb_b.structure)
    rng = random.Random(77 + t)
    winners = set()
    for pos in _sampled_positions(rb_a, rb_b, alg_a, alg_b, 150, rng):
        v = position_winner(pos)
        blocks = _generated_blocks(pos)
        if v.exists_ok:
            assert set(v.cells) == blocks  # the isomorphism's graph
        else:
            assert 0 in v.witness and v.witness != (0, 0)
            assert _in_closure(v.witness, blocks)
            assert all(0 in block for block in blocks)
        winners.add(v.winner)
    assert winners == {"exists", "forall"}


# ---------------------------------------------------------------------------
# position classes: starting joint partitions up to twin permutations


def _memo_free_verdict(alg_a, alg_b, strategy, n, mode="exhaustive",
                       samples=10_000, seed=None):
    """The play loop before position classes: every position of every
    play is decided by its own position_winner call."""
    if mode == "exhaustive":
        move_lists = [[(side, elem)] for side, alg in (("A", alg_a), ("B", alg_b))
                      for elem in range(alg.size)]
    else:
        move_lists = efgame._sampled_moves(alg_a, alg_b, n, samples,
                                           random.Random(seed))
    plays = 0
    for moves in move_lists:
        plays += 1
        ctx = strategy.start(n)
        pos = EFPosition(alg_a, alg_b)
        for i, (side, elem) in enumerate(moves):
            try:
                resp = strategy.respond(ctx, side, elem)
            except SeuratStrategyFailure as exc:
                failed = (f"round {i} | forall: side={side} elem={elem:#x}"
                          f" | exists: strategy failure: {exc}")
            else:
                failed = None
                pos = pos.extended(*((elem, resp) if side == "A" else (resp, elem)))
            if failed or not position_winner(pos).exists_ok:
                lost = [
                    efgame._round_line(j, s, e, b if s == "A" else a,
                                       "ok" if j < i else "forall wins")
                    for j, ((s, e), (a, b)) in enumerate(zip(moves, pos.pairs))
                ] + [failed] * bool(failed)
                return Verdict("counterexample", lost, plays=plays,
                               reason=f"strategy reached a losing position in play {plays}")
    return Verdict("verified" if mode == "exhaustive" else "verified-sampled",
                   plays=plays)


SWEEP = [
    (1, 2, 1, 1, {}),
    (2, 3, 1, 1, {}),
    (3, 4, 1, 1, {}),
    (4, 5, 1, 1, {}),
    (2, 2, 2, 1, {}),
    (2, 3, 2, 1, {}),
    (3, 4, 2, 1, {}),
    (1, 2, 2, 1, {}),
    (4, 5, 2, 1, {"mode": "sampled", "samples": 400, "seed": 5}),
    (3, 4, 2, 1, {"mode": "sampled", "samples": 400, "seed": 6}),
    (4, 5, 1, 2, {"mode": "sampled", "samples": 300, "seed": 7}),
    (8, 9, 2, 2, {"mode": "sampled", "samples": 300, "seed": 8}),
    *[(2, 3, 2, 2, {"mode": "sampled", "samples": 200, "seed": seed})
      for seed in range(4)],
    # three rounds: plays lost at round 1 (found by the scan from round
    # 0) and at round 2, a reply failure after two won rounds, and a win
    (4, 5, 1, 3, {"mode": "sampled", "samples": 200, "seed": 2}),
    (3, 4, 2, 3, {"mode": "sampled", "samples": 200, "seed": 0}),
    (8, 9, 1, 3, {"mode": "sampled", "samples": 100, "seed": 0}),
    (8, 9, 2, 3, {"mode": "sampled", "samples": 100, "seed": 0}),
    (2, 3, 2, 3, {"mode": "sampled", "samples": 200, "seed": 0}),
    (16, 17, 1, 3, {"mode": "sampled", "samples": 100, "seed": 0}),
]


@pytest.mark.parametrize("s_a, s_b, t, n, kw", SWEEP)
def test_position_classes_change_no_verdict(monkeypatch, s_a, s_b, t, n, kw):
    rb_a, rb_b = Rainbow.make(s_a, t), Rainbow.make(s_b, t)
    alg_a, alg_b = Algebra(rb_a.structure), Algebra(rb_b.structure)
    calls = []

    def counted(pos):
        calls.append(pos)
        return position_winner(pos)

    def outcome(verify):
        v = verify(alg_a, alg_b, Prop44Strategy(rb_a, rb_b), n, **kw)
        return v.status, v.reason, v.plays, v.transcript, v

    want = outcome(_memo_free_verdict)
    monkeypatch.setattr(efgame, "position_winner", counted)
    got = outcome(verify_ef_strategy)
    assert got[:4] == want[:4]
    assert got[4].states == len(calls) <= n * got[4].plays
    failures = [line for line in got[3] if "strategy failure" in line]
    # B(2,2)/B(3,2): at n = 2 the reply at seed 0 (round 0) and seed 2
    # (round 1) of play 2, and at n = 3 the reply at seed 0 (round 2) of
    # play 1, needs more greens than the cell has
    failure = {
        (2, 0): (2, "palette 0: need 3 of 2 points"),
        (2, 2): (2, "palette 0: need 1 of 0 points"),
        (3, 0): (1, "palette 0: need 1 of 0 points"),
    }
    if (s_a, s_b, t) == (2, 3, 2) and (n, kw.get("seed")) in failure:
        play, message = failure[n, kw["seed"]]
        assert got[:3:2] == ("counterexample", play)
        assert failures == got[3][-1:]
        assert failures[0].endswith(f"| exists: strategy failure: {message}")
    else:
        assert failures == []


class LoseThenFailStrategy:
    """Answer round 0 with an element that loses at once, and fail to
    answer round 1."""

    def __init__(self, alg_a, alg_b):
        self.one = {"A": alg_b.one, "B": alg_a.one}

    def start(self, n: int) -> list:
        return [0]

    def respond(self, rounds: list, side: str, elem: int) -> int:
        rounds[0] += 1
        if rounds[0] > 1:
            raise SeuratStrategyFailure("no reply in round 1")
        return 0 if elem else self.one[side]


def test_failure_after_a_lost_round_reports_the_lost_round():
    _, _, alg_a, alg_b = _pair_algebras(2, 3, 2)
    kw = {"mode": "sampled", "samples": 20, "seed": 4}
    strat = LoseThenFailStrategy(alg_a, alg_b)
    want = _memo_free_verdict(alg_a, alg_b, strat, 2, **kw)
    got = verify_ef_strategy(alg_a, alg_b, strat, 2, **kw)
    assert (got.status, got.reason, got.plays, got.transcript) == (
        want.status, want.reason, want.plays, want.transcript)
    assert (got.status, got.plays, got.states) == ("counterexample", 1, 1)
    assert len(got.transcript) == 1
    assert got.transcript[0].endswith("| forall wins")


def test_position_class_counts():
    counts = {}
    for s_a, s_b, t in [(4, 5, 1), (3, 4, 2), (4, 5, 2)]:
        rb_a, rb_b = Rainbow.make(s_a, t), Rainbow.make(s_b, t)
        v = verify_ef_strategy(Algebra(rb_a.structure), Algebra(rb_b.structure),
                               Prop44Strategy(rb_a, rb_b), 1)
        counts[s_a, s_b, t] = v.status, v.plays, v.states
    assert counts == {
        (4, 5, 1): ("verified", 1536, 36),
        (3, 4, 2): ("counterexample", 2097, 257),
        (4, 5, 2): ("verified", 12288, 384),
    }


# ---------------------------------------------------------------------------
# zero rounds: the root is the one position a play reaches


def _one_point_and_two_point_group():
    """The algebra of the one-element group, and that of the two-element
    group, whose constants 1 and 1' differ."""
    trivial = from_triples(["1'"], [0], [0], {(0, 0, 0)})
    z2 = from_triples(["1'", "d"], [0], [0, 1],
                      {(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)})
    return Algebra(trivial), Algebra(z2)


class UnaskedStrategy:
    """A strategy for zero rounds: it is never asked for a reply."""

    def start(self, n: int):
        return None

    def respond(self, ctx, side: str, elem: int) -> int:
        raise AssertionError("no move is played in zero rounds")


def test_zero_rounds_lost_root_is_a_counterexample():
    trivial, z2 = _one_point_and_two_point_group()
    assert position_winner(EFPosition(trivial, z2)).winner == "forall"
    lost = Verdict("counterexample", ["initial position lost"],
                   "the initial position is lost", states=1, plays=1)
    assert verify_ef_strategy(trivial, z2, UnaskedStrategy(), 0) == lost
    v = verify_ef_strategy(z2, trivial, UnaskedStrategy(), 0, mode="sampled",
                           samples=5, seed=0)
    assert v == lost


def test_zero_rounds_decide_the_root_once():
    _, z2 = _one_point_and_two_point_group()
    v = verify_ef_strategy(z2, Algebra(z2.structure), UnaskedStrategy(), 0)
    assert (v.status, v.states, v.plays, v.transcript) == ("verified", 1, 1, [])
    rb_a, rb_b, alg_a, alg_b = _pair_algebras(2, 3, 2)
    v = verify_ef_strategy(alg_a, alg_b, Prop44Strategy(rb_a, rb_b), 0,
                           mode="sampled", samples=5, seed=0)
    assert (v.status, v.states, v.plays) == ("verified-sampled", 1, 5)


def test_zero_rounds_skip_the_exhaustive_size_guard():
    rb_a, rb_b, alg_a, alg_b = _pair_algebras(8, 9, 7)
    strat = Prop44Strategy(rb_a, rb_b)
    v = verify_ef_strategy(alg_a, alg_b, strat, 0)
    assert (v.status, v.states, v.plays) == ("verified", 1, 1)
    with pytest.raises(ValueError, match="algebra too large for exhaustive mode"):
        verify_ef_strategy(alg_a, alg_b, strat, 1)


def _permuted(mask, perm):
    return sum(1 << perm[x] for x in bits(mask))


def _random_twin_perm(alg, rng):
    """An atom permutation that shuffles each twin class at random."""
    perm = list(range(alg.n_atoms))
    for cls in alg.twin_classes:
        for x, y in zip(cls, rng.sample(cls, len(cls))):
            perm[x] = y
    return perm


def _pair_algebras(s_a, s_b, t):
    rb_a, rb_b = Rainbow.make(s_a, t), Rainbow.make(s_b, t)
    return rb_a, rb_b, Algebra(rb_a.structure), Algebra(rb_b.structure)


def _assert_key_and_winner_kept(s_a, s_b, t, count, seed, moved_pairs):
    """Sampled positions and their images under ``moved_pairs(pairs,
    alg_a, alg_b, rng)`` (then a random twin permutation per side) have
    equal partition keys and equal winners, and both winners occur."""
    rb_a, rb_b, alg_a, alg_b = _pair_algebras(s_a, s_b, t)
    key = efgame._partition_key(alg_a, alg_b)
    rng = random.Random(seed)
    winners = set()
    for pos in _sampled_positions(rb_a, rb_b, alg_a, alg_b, count, rng):
        pairs = moved_pairs(list(pos.pairs), alg_a, alg_b, rng)
        perm_a, perm_b = _random_twin_perm(alg_a, rng), _random_twin_perm(alg_b, rng)
        moved = EFPosition(alg_a, alg_b, tuple(
            (_permuted(a, perm_a), _permuted(b, perm_b)) for a, b in pairs
        ))
        winner = position_winner(pos).winner
        assert position_winner(moved).winner == winner
        assert key(pos.pairs) == key(moved.pairs)
        winners.add(winner)
    assert winners == {"exists", "forall"}


KEY_CASES = [(2, 3, 1, 150), (4, 5, 1, 150), (3, 4, 2, 150), (8, 9, 2, 60)]


@pytest.mark.parametrize("s_a, s_b, t, count", KEY_CASES)
def test_twin_permutations_keep_key_and_winner(s_a, s_b, t, count):
    _assert_key_and_winner_kept(s_a, s_b, t, count, 10 * s_a + t,
                                lambda pairs, alg_a, alg_b, rng: pairs)


def _complement_or_flip_then_shuffle(pairs, alg_a, alg_b, rng):
    """Replace one pair by its complement or by its symmetric difference
    with the identity pair, then reorder the pairs."""
    i = rng.randrange(len(pairs))
    a, b = pairs[i]
    if rng.random() < 0.5:
        pairs[i] = alg_a.complement(a), alg_b.complement(b)
    else:
        pairs[i] = a ^ alg_a.identity_mask, b ^ alg_b.identity_mask
    rng.shuffle(pairs)
    return pairs


@pytest.mark.parametrize("s_a, s_b, t, count", KEY_CASES)
def test_partition_key_ignores_what_does_not_split_the_atoms(s_a, s_b, t, count):
    _assert_key_and_winner_kept(s_a, s_b, t, count, 100 * s_a + t,
                                _complement_or_flip_then_shuffle)


def test_equal_keys_give_equal_winners():
    # every two-pair position over B(3,2) twice whose pairs share one
    # non-green part, the greens of all four masks ranging freely
    rb = Rainbow.make(3, 2)
    alg_a, alg_b = Algebra(rb.structure), Algebra(rb.structure)
    key = efgame._partition_key(alg_a, alg_b)
    rng = random.Random(3)
    greens = [sum(1 << rb.green(i) for i in range(3) if g >> i & 1) for g in range(8)]
    base = [rng.randrange(alg_a.size) & ~rb.green_mask for _ in range(2)]
    by_key = {}
    for g1, g2, h1, h2 in itertools.product(greens, repeat=4):
        pos = EFPosition(alg_a, alg_b, ((base[0] | g1, base[0] | h1),
                                        (base[1] | g2, base[1] | h2)))
        by_key.setdefault(key(pos.pairs), set()).add(position_winner(pos).winner)
    assert all(len(w) == 1 for w in by_key.values())
    assert {w for ws in by_key.values() for w in ws} == {"exists", "forall"}
    assert len(by_key) < 8 ** 4 // 10


def test_equal_keys_give_equal_winners_over_all_one_pair_positions():
    _, _, alg_a, alg_b = _pair_algebras(2, 3, 1)
    key = efgame._partition_key(alg_a, alg_b)
    by_key = {}
    for a, b in itertools.product(range(alg_a.size), range(alg_b.size)):
        pos = EFPosition(alg_a, alg_b, ((a, b),))
        by_key.setdefault(key(pos.pairs), set()).add(position_winner(pos).winner)
    assert all(len(w) == 1 for w in by_key.values())
    assert {w for ws in by_key.values() for w in ws} == {"exists", "forall"}
    assert len(by_key) < alg_a.size * alg_b.size


def test_sampled_mode_refuses_more_rounds_than_elements():
    rb_a, rb_b, alg_a, alg_b = _pair_algebras(1, 2, 1)
    strat = Prop44Strategy(rb_a, rb_b)
    assert (alg_a.size, alg_b.size) == (64, 128)
    with pytest.raises(ValueError, match="n = 65 exceeds the 64 elements of side A"):
        verify_ef_strategy(alg_a, alg_b, strat, 65, mode="sampled", samples=1, seed=0)
    with pytest.raises(ValueError, match="n = 100 exceeds the 64 elements of side B"):
        verify_ef_strategy(alg_b, alg_a, strat, 100, mode="sampled", samples=1, seed=0)


def test_sampled_play_over_64_rounds_returns_at_once():
    # each play's colouring session holds one cell per non-empty palette,
    # at most 1 + 2 here, not one per each of the 2^64 palettes
    rb_a, rb_b, alg_a, alg_b = _pair_algebras(1, 2, 1)
    strat = Prop44Strategy(rb_a, rb_b)
    t0 = time.perf_counter()
    v = verify_ef_strategy(alg_a, alg_b, strat, 64, mode="sampled", seed=0)
    assert time.perf_counter() - t0 < 1
    assert (v.status, v.reason) == (
        "counterexample", "strategy reached a losing position in play 1")
    session = strat.start(64)
    assert session.pos.cells == {0: (0b1, 0b11)}


def test_state_budget_gives_inconclusive():
    rb_a, rb_b, alg_a, alg_b = _pair_algebras(4, 5, 1)
    strat = Prop44Strategy(rb_a, rb_b)
    full = verify_ef_strategy(alg_a, alg_b, strat, 1)
    assert (full.status, full.states) == ("verified", 36)
    assert verify_ef_strategy(alg_a, alg_b, strat, 1, max_states=36) == full
    v = verify_ef_strategy(alg_a, alg_b, strat, 1, max_states=35)
    assert (v.status, v.reason, v.states, v.transcript) == (
        "inconclusive", "state budget", 36, [])
    assert 0 < v.plays < full.plays
    v = verify_ef_strategy(alg_a, alg_b, strat, 2, mode="sampled", samples=50,
                           seed=1, max_states=0)
    assert (v.status, v.states, v.plays) == ("inconclusive", 1, 1)
    with pytest.raises(ValueError, match="max_states"):
        verify_ef_strategy(alg_a, alg_b, strat, 1, max_states=-1)
