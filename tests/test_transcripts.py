"""Every Verdict field of the four game searches, pinned to recorded literals.

A search formats only the reported line, the one lost or the one a budget
ran out on; a test checks that won lines are never formatted.  The last test
checks that every library entry point refuses a bad count before any
search.
"""

import pytest

from relalg import Algebra, Rainbow, efgame, networks, pebble, seurat
from relalg.efgame import Prop44Strategy, verify_ef_strategy
from relalg.networks import verify_exists_strategy, verify_forall_refutation
from relalg.pebble import AtomRelStructure, Cor33Strategy, verify_pebble_strategy
from relalg.seurat import SeuratStrategyFailure, lemma43_strategy, verify_seurat_strategy


def _pebble(s_left, s_right, t, pebbles, rounds, **kw):
    rb_l, rb_r = Rainbow.make(s_left, t), Rainbow.make(s_right, t)
    left = AtomRelStructure.from_atom_structure(rb_l.structure)
    right = AtomRelStructure.from_atom_structure(rb_r.structure)
    return verify_pebble_strategy(left, right, Cor33Strategy(rb_l, rb_r),
                                  pebbles, rounds, **kw)


def _ef(s_a, s_b, t, n, **kw):
    rb_a, rb_b = Rainbow.make(s_a, t), Rainbow.make(s_b, t)
    return verify_ef_strategy(Algebra(rb_a.structure), Algebra(rb_b.structure),
                              Prop44Strategy(rb_a, rb_b), n, **kw)


def _fails_in_round_1(pos, chosen, side):
    """The balancing strategy, except that it gives up in round 1."""
    if pos.r == 1:
        raise SeuratStrategyFailure("fake failure at round 1")
    return lemma43_strategy(pos, chosen, side)


# each case: (status, reason, states, plays, transcript)
CASES = {
    "exists B(3,2) rounds 4": (
        lambda: verify_exists_strategy(Rainbow.make(3, 2), 4),
        ("counterexample", "the witness strategy has no reply", 2286, 0, [
            "round 0 | forall: atom 1'",
            "round 1 | forall: (0,0,b,b) | exists: +node 1, edges {(0,1)=b}",
            "round 2 | forall: (0,1,y,g0) | exists: +node 2, edges {(0,2)=y, (1,2)=g0}",
            "round 3 | forall: (0,1,y,g1) | exists: strategy failure: "
            "no injection from 3 greens into 2 red indices",
        ]),
    ),
    "exists B(2,2) rounds 4 budget 3": (
        lambda: verify_exists_strategy(Rainbow.make(2, 2), 4, max_states=3),
        ("inconclusive", "state budget", 4, 0, [
            "round 0 | forall: atom 1'",
            "round 1 | forall: (0,0,b,b) | exists: +node 1, edges {(0,1)=b}",
            "round 2 | forall: (0,0,w,w) | exists: +node 2, edges {(0,2)=w, (1,2)=w}",
            "round 3 | forall: (0,0,g0,g0) | exists: +node 3, "
            "edges {(0,3)=g0, (1,3)=w, (2,3)=w}",
        ]),
    ),
    "refute B(2,2) max_rounds 4": (
        lambda: verify_forall_refutation(Rainbow.make(2, 2), 4),
        ("counterexample", "a reply line outlasts every refuter move", 3, 0, [
            "round 0 | forall: atom w",
            "round 1 | forall: (0,1,g0,y) | exists: +node 2, edges {(0,2)=g0, (1,2)=y}",
            "round 2 | forall: (0,1,g1,y) | exists: +node 3, "
            "edges {(0,3)=g1, (1,3)=y, (2,3)=r0_1}",
        ]),
    ),
    "refute B(5,4) max_rounds 7 budget 20": (
        lambda: verify_forall_refutation(Rainbow.make(5, 4), 7, max_states=20),
        ("inconclusive", "state budget", 21, 0, [
            "round 0 | forall: atom w",
            "round 1 | forall: (0,1,g0,y) | exists: +node 2, edges {(0,2)=g0, (1,2)=y}",
            "round 2 | forall: (0,1,g1,y) | exists: +node 3, "
            "edges {(0,3)=g1, (1,3)=y, (2,3)=r1_0}",
            "round 3 | forall: (0,1,g2,y) | exists: +node 4, "
            "edges {(0,4)=g2, (1,4)=y, (2,4)=r1_3, (3,4)=r0_3}",
        ]),
    ),
    "colouring 2+3 points n=1": (
        lambda: verify_seurat_strategy(2, 3, 1),
        ("counterexample", "strategy reached a losing position in play 2", 0, 1, [
            "round 0 | forall side=T set=[0] | exists set=[0] "
            "| cells: 0->(1,2), 1->(1,1)",
            "forall wins with palette 0",
        ]),
    ),
    "colouring 4+5 points n=2 sampled": (
        lambda: verify_seurat_strategy(4, 5, 2, mode="sampled", samples=300, seed=1),
        ("counterexample", "strategy reached a losing position in play 1", 0, 0, [
            "round 0 | forall side=T set=[2, 3] | exists set=[0, 1] "
            "| cells: 0->(2,3), 1->(2,2)",
            "survival invariant broken",
        ]),
    ),
    "colouring strategy failing in round 1": (
        lambda: verify_seurat_strategy(2, 2, 2, strategy=_fails_in_round_1),
        ("counterexample", "strategy reached a losing position in play 1", 0, 0, [
            "round 0 | forall side=T set=[] | exists set=[] "
            "| cells: 0->(2,2)",
            "round 1 | strategy failure: fake failure at round 1",
        ]),
    ),
    "colouring strategy failing in round 1 sampled": (
        lambda: verify_seurat_strategy(2, 2, 2, mode="sampled", samples=10, seed=1,
                                       strategy=_fails_in_round_1),
        ("counterexample", "strategy reached a losing position in play 1", 0, 0, [
            "round 0 | forall side=T set=[] | exists set=[] "
            "| cells: 0->(2,2)",
            "round 1 | strategy failure: fake failure at round 1",
        ]),
    ),
    "pebble B(2,2)/B(3,2) 3 pebbles 3 rounds": (
        lambda: _pebble(2, 3, 2, 3, 3),
        ("counterexample", "first player forces a non-isomorphic position", 57, 0, [
            "round 0 | forall: struct=L pebble=0 atom=g0 | exists: atom=g0 | ok",
            "round 1 | forall: struct=L pebble=1 atom=g1 | exists: atom=g1 | ok",
            "round 2 | forall: struct=R pebble=2 atom=g2 | exists: atom=- "
            "| strategy failed: no free green atom",
        ]),
    ),
    "pebble B(2,2)/B(3,2) 2 pebbles 5 rounds budget 30": (
        lambda: _pebble(2, 3, 2, 2, 5, max_states=30),
        ("inconclusive", "state budget", 31, 0, [
            "round 0 | forall: struct=L pebble=0 atom=b | exists: atom=b | ok",
            "round 1 | forall: struct=L pebble=1 atom=r0_0 | exists: atom=r0_0 | ok",
        ]),
    ),
    "equivalence B(2,2)/B(3,2) n=1": (
        lambda: _ef(2, 3, 2, 1),
        ("counterexample", "strategy reached a losing position in play 145", 57, 145, [
            "round 0 | forall: side=A elem=0x90 | exists: elem=0x110 | forall wins",
        ]),
    ),
    "equivalence B(2,2)/B(3,2) n=2 sampled": (
        lambda: _ef(2, 3, 2, 2, mode="sampled", samples=200, seed=3),
        ("counterexample", "strategy reached a losing position in play 1", 2, 1, [
            "round 0 | forall: side=A elem=0x10b | exists: elem=0x20b | ok",
            "round 1 | forall: side=B elem=0x795 | exists: elem=0x3d5 | forall wins",
        ]),
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_verdict_fields_pinned(case):
    run, want = CASES[case]
    v = run()
    assert (v.status, v.reason, v.states, v.plays, v.transcript) == want


def test_won_lines_are_never_formatted(monkeypatch):
    def formatter(*args):
        raise AssertionError("a line of a won play was formatted")

    monkeypatch.setattr(seurat, "_transcript_line", formatter)
    monkeypatch.setattr(networks, "_move_line", formatter)
    monkeypatch.setattr(pebble, "_move_line", formatter)
    monkeypatch.setattr(efgame, "_round_line", formatter)
    assert verify_seurat_strategy(6, 6, 2).status == "verified"
    assert verify_exists_strategy(Rainbow.make(2, 2), 3).status == "verified"
    assert _pebble(2, 3, 2, 2, 4).status == "verified"
    assert _ef(4, 5, 1, 1).status == "verified"


B22 = Rainbow.make(2, 2)


BAD_COUNTS = {
    "exists rounds": ("rounds", lambda: verify_exists_strategy(B22, -1)),
    "exists max_states": ("max_states",
                          lambda: verify_exists_strategy(B22, 2, max_states=-1)),
    "refutation max_rounds": ("max_rounds",
                              lambda: verify_forall_refutation(Rainbow.make(3, 2), -1)),
    "pebble pebbles": ("pebbles", lambda: _pebble(2, 3, 2, -1, 3)),
    "pebble rounds": ("rounds", lambda: _pebble(2, 3, 2, 2, -1)),
    "colouring t_size": ("t_size", lambda: verify_seurat_strategy(-2, 4, 1)),
    "colouring n": ("n", lambda: verify_seurat_strategy(4, 4, -1)),
    "colouring default samples": (
        "samples", lambda: verify_seurat_strategy(4, 4, 1, mode="sampled", seed=1)),
    "colouring solver n": ("n", lambda: seurat.brute_force_winner(4, 4, -1)),
    "efgame n": ("n", lambda: _ef(2, 3, 2, -1)),
    "efgame samples": ("samples",
                       lambda: _ef(4, 5, 1, 1, mode="sampled", samples=0, seed=1)),
}


@pytest.mark.parametrize("case", list(BAD_COUNTS))
def test_bad_counts_are_refused(case):
    name, call = BAD_COUNTS[case]
    with pytest.raises(ValueError, match=f"^{name} must be at least"):
        call()
