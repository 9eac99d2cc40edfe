"""Atomic network game: moves, the witness strategy, and the refutation."""

import pytest

from relalg import Algebra, Rainbow, verify_exists_strategy, verify_forall_refutation
from relalg.networks import (
    ForallMove,
    Network,
    StrategyFailure,
    assert_strategy_invariants,
    canonical_state,
    coherent,
    initial_response,
    least_injection,
    legal_moves,
    rainbow_exists_strategy,
    rainbow_refuter_moves,
    red_clique,
)
from relalg.rainbow import YELLOW

RB22 = Rainbow.make(2, 2)
ALG22 = Algebra(RB22.structure)
RB32 = Rainbow.make(3, 2)
ALG32 = Algebra(RB32.structure)


# ---------------------------------------------------------------------------
# basic machinery


def test_initial_response_identity_atom():
    net = initial_response(ALG22, 0)  # 1'
    assert net.n == 1
    assert coherent(net, ALG22) is None


def test_initial_response_ordinary_atom():
    a = RB22.green(0)
    net = initial_response(ALG22, a)
    assert net.n == 2
    assert net.label(0, 1) == a
    assert net.label(1, 0) == RB22.structure.conv[a]
    assert net.label(0, 0) in RB22.structure.identity
    assert coherent(net, ALG22) is None


def test_coherent_flags_bad_triangle():
    # y;y never contains y in a rainbow structure
    y = 3
    e = 0
    lab = (e, y, y, y, e, y, y, y, e)
    net = Network(3, lab)
    assert coherent(net, ALG22) is not None


def test_coherent_flags_broken_converse():
    r01 = RB22.red(0, 1)  # converse is red(1, 0), not itself
    net = Network(2, (0, r01, r01, 0))
    assert coherent(net, ALG22) is not None


def test_legal_moves_skip_witnessed_and_identity():
    net = initial_response(ALG22, 2)  # white opening
    moves = legal_moves(net, ALG22)
    assert moves, "a two-node network admits demands"
    for mv in moves:
        # never an identity atom component
        assert mv.a not in RB22.structure.identity
        assert mv.b not in RB22.structure.identity
        # never already witnessed
        for z in range(net.n):
            assert not (net.label(mv.x, z) == mv.a and net.label(z, mv.y) == mv.b)


def test_red_clique_members():
    g0, g1 = RB22.green(0), RB22.green(1)
    st = RB22.structure
    net = initial_response(ALG22, 2)
    net, book = rainbow_exists_strategy(RB22, net, {}, ForallMove(0, 1, g0, YELLOW))
    assert red_clique(net, RB22, 0, 1) == [2]
    net, book = rainbow_exists_strategy(RB22, net, book, ForallMove(0, 1, g1, YELLOW))
    assert red_clique(net, RB22, 0, 1) == [2, 3]
    # the clique edge is red and matches the recorded injection
    h = book[(0, 1)]
    assert net.label(2, 3) == RB22.red(h[0], h[1])
    assert coherent(net, ALG22) is None


def test_least_injection_basic():
    assert least_injection(2, 3, {}) == (0, 1)
    assert least_injection(2, 3, {0: 2}) == (2, 0)
    assert least_injection(3, 3, {1: 0}) == (1, 0, 2)


def test_least_injection_failures():
    with pytest.raises(StrategyFailure):
        least_injection(3, 2, {})
    with pytest.raises(StrategyFailure):
        least_injection(2, 3, {0: 1, 1: 1})


# ---------------------------------------------------------------------------
# the witness strategy


def attack(rb, moves):
    alg = Algebra(rb.structure)
    net = initial_response(alg, 2)
    book = {}
    for mv in moves:
        prev = net
        net, book = rainbow_exists_strategy(rb, net, book, mv)
        assert coherent(net, alg) is None
        assert_strategy_invariants(rb, prev, net, book, mv)
    return net, book


def test_strategy_survives_refuter_attack_when_enough_reds():
    # the pigeonhole attack fizzles on B(2,2): criterion for survival
    net, book = attack(RB22, rainbow_refuter_moves(RB22))
    assert net.n == 4
    assert (0, 1) in book


def test_strategy_fails_under_refuter_attack_when_too_few_reds():
    with pytest.raises(StrategyFailure):
        attack(RB32, rainbow_refuter_moves(RB32))


def test_strategy_reflexive_move_requires_converse_pair():
    r01 = RB22.red(0, 1)  # not self-converse
    net = initial_response(ALG22, 2)
    with pytest.raises(StrategyFailure):
        rainbow_exists_strategy(RB22, net, {}, ForallMove(0, 0, r01, r01))


def test_canonical_state_identifies_renamings():
    g0, g1 = RB22.green(0), RB22.green(1)
    # attach g0 then g1 versus g1 then g0: same state up to renaming
    n1, b1 = attack(RB22, [ForallMove(0, 1, g0, YELLOW), ForallMove(0, 1, g1, YELLOW)])
    n2, b2 = attack(RB22, [ForallMove(0, 1, g1, YELLOW), ForallMove(0, 1, g0, YELLOW)])
    assert n1.lab != n2.lab
    assert canonical_state(n1, b1) == canonical_state(n2, b2)


def test_canonical_state_separates_distinct_networks():
    g0 = RB22.green(0)
    n1, b1 = attack(RB22, [ForallMove(0, 1, g0, YELLOW)])
    n2, b2 = attack(RB22, [ForallMove(0, 1, YELLOW, YELLOW)])
    assert canonical_state(n1, b1) != canonical_state(n2, b2)


def test_verify_exists_strategy_short_run_with_invariants():
    # the invariants also hold the per-child checks to the full ones
    for s, t, rounds in [(2, 2, 3), (2, 3, 2), (3, 2, 4)]:
        rb = Rainbow.make(s, t)
        res = verify_exists_strategy(rb, rounds=rounds, check_invariants=True)
        assert res == verify_exists_strategy(rb, rounds=rounds)
        assert res.verified == (s <= t)
        assert res.states > 0


def test_verify_exists_strategy_inconclusive_on_tiny_budget():
    res = verify_exists_strategy(RB22, rounds=4, max_states=3)
    assert res.status == "inconclusive"
    assert res.reason == "state budget"


# ---------------------------------------------------------------------------
# the refutation


def test_refuter_moves_shape():
    moves = rainbow_refuter_moves(RB32)
    assert len(moves) == 3
    for i, mv in enumerate(moves):
        assert (mv.x, mv.y) == (0, 1)
        assert mv.a == RB32.green(i)
        assert mv.b == 3


def test_verify_forall_refutation_three_greens_two_reds():
    res = verify_forall_refutation(RB32, max_rounds=5)
    assert res.verified
    assert "pigeonhole" in res.transcript[-1]


def test_verify_forall_refutation_fails_when_enough_reds():
    # on B(2,2) the witness has coherent replies throughout the attack
    res = verify_forall_refutation(RB22, max_rounds=5)
    assert res.status == "counterexample"


@pytest.mark.parametrize("max_rounds", [0, 1])
def test_verify_forall_refutation_no_moves_within_one_round(max_rounds):
    # the opening is round 0; no refuter move fits in a single round
    res = verify_forall_refutation(RB32, max_rounds=max_rounds)
    assert res.status == "counterexample"
    assert res.transcript == ["round 0 | forall: atom w"]


def test_verify_forall_refutation_two_rounds_play_one_move():
    res = verify_forall_refutation(RB32, max_rounds=2)
    assert res.status == "counterexample"
    rounds = [line.split(" |")[0] for line in res.transcript]
    assert rounds == ["round 0", "round 1"]


def test_searches_share_the_rainbow_algebra(monkeypatch):
    # the algebra and its lazily built tables are made once per Rainbow
    rb = Rainbow.make(2, 2)
    verify_exists_strategy(rb, 2)
    verify_forall_refutation(rb, 3)
    assert "moves_by_third" in vars(rb.algebra)
    built = []
    init = Algebra.__init__
    monkeypatch.setattr(Algebra, "__init__",
                        lambda self, st: built.append(st) or init(self, st))
    verify_exists_strategy(rb, 2)
    verify_forall_refutation(rb, 3)
    assert built == []
