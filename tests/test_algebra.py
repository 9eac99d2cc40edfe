import random

import pytest
from hypothesis import given, settings, strategies as st

from relalg.algebra import (
    Algebra,
    Element,
    ProperAlgebra,
    Representation,
    bits,
    check_axioms,
    check_representation,
)
from relalg.atoms import AtomStructure, make_structure
from relalg.networks import (
    initial_response,
    legal_moves,
    rainbow_exists_strategy,
    representation_from_network,
)
from relalg.rainbow import Rainbow, build_rainbow


@pytest.fixture(scope="module")
def rb():
    return Rainbow.make(2, 2)


@pytest.fixture(scope="module")
def alg(rb):
    return Algebra(rb.structure)


elements = st.integers(min_value=0, max_value=(1 << 10) - 1)
_ALG = Algebra(build_rainbow(2, 2))


def test_boolean_basics(alg, rb):
    assert alg.complement(alg.zero_elem()) == alg.one_elem()
    g01 = alg.join(1 << rb.green(0), 1 << rb.green(1))
    assert set(bits(g01)) == {rb.green(0), rb.green(1)}


@given(elements)
def test_meet_with_complement_is_zero(x):
    alg = _ALG
    assert alg.meet(x, alg.complement(x)) == 0


def test_converse_frozen_example(alg, rb):
    x = (1 << rb.red(0, 1)) | (1 << 1)  # {r0_1, b}
    assert alg.converse(x) == (1 << rb.red(1, 0)) | (1 << 1)
    assert alg.converse(alg.one_elem()) == alg.one_elem()


@given(elements)
def test_converse_involutive_and_additive(x):
    alg = _ALG
    assert alg.converse(alg.converse(x)) == x
    y = x ^ 0b1010101010
    assert alg.converse(x | y) == alg.converse(x) | alg.converse(y)


def test_compose_identity_and_zero(alg):
    for x in random.Random(1).sample(range(alg.size), 100):
        assert alg.compose(alg.identity_mask, x) == x
        assert alg.compose(x, alg.identity_mask) == x
    assert alg.compose(0, alg.one_elem()) == 0


@settings(max_examples=200)
@given(elements, elements, elements)
def test_compose_additive_and_monotone(x, x2, y):
    alg = _ALG
    assert alg.compose(x | x2, y) == alg.compose(x, y) | alg.compose(x2, y)
    assert alg.compose(y, x | x2) == alg.compose(y, x) | alg.compose(y, x2)
    small = alg.compose(x & x2, y)
    assert small & alg.compose(x, y) == small


@settings(max_examples=200)
@given(elements, elements)
def test_peircean_law_elementwise(a, b):
    # conv(a) ; -(a;b) is disjoint from b
    alg = _ALG
    lhs = alg.compose(alg.converse(a), alg.complement(alg.compose(a, b)))
    assert lhs & b == 0


def test_check_axioms_pass():
    for s, t in ((2, 2), (3, 3), (4, 2)):
        assert check_axioms(build_rainbow(s, t)) == []


def test_check_axioms_flags_broken_closure():
    base = build_rainbow(2, 2)
    rbw = Rainbow(2, 2, base)
    victim = (rbw.green(0), rbw.green(1), 1)  # (g0, g1, b), transforms kept
    broken = AtomStructure(
        names=base.names,
        identity=base.identity,
        conv=base.conv,
        consistent=base.consistent - {victim},
    )
    problems = check_axioms(broken)
    assert any("peircean" in p.lower() or "closure" in p.lower() for p in problems)


def test_element_type_guards(alg):
    other = Algebra(build_rainbow(3, 2))
    with pytest.raises(ValueError):
        Element(alg, 1) | Element(other, 1)
    e = Element(alg, 0b11)
    assert (e & ~e).mask == 0
    assert (e | ~e).mask == alg.one


# --- representations ---------------------------------------------------------


def one_atom_structure():
    return make_structure(["1'"], ["1'"], [], [])


def test_trivial_representation_ok():
    s = one_atom_structure()
    pa = ProperAlgebra(base=frozenset([0]), e=frozenset([(0, 0)]))
    rep = Representation(target=pa, atom_images={0: frozenset([(0, 0)])})
    assert check_representation(s, rep) == []


def test_empty_image_flagged():
    s = one_atom_structure()
    pa = ProperAlgebra(base=frozenset([0]), e=frozenset())
    rep = Representation(target=pa, atom_images={0: frozenset()})
    assert any("empty" in p for p in check_representation(s, rep))


def test_proper_algebra_must_be_equivalence():
    with pytest.raises(ValueError):
        ProperAlgebra(base=frozenset([0, 1]), e=frozenset([(0, 1)]))


def test_network_play_sound_but_unsaturated(rb, alg):
    """A finite play yields a coherent edge labelling: re-read as atom
    images it passes every soundness check but is not saturated."""
    net = initial_response(alg, rb.green(0))
    book = {}
    for _ in range(4):
        move = legal_moves(net, alg)[0]
        net, book = rainbow_exists_strategy(rb, net, book, move)
    rep = representation_from_network(rb.structure, net)
    problems = check_representation(rb.structure, rep)
    assert problems, "a 6-node square cannot saturate every triple"
    for p in problems:
        assert "unsound" not in p and "converse breach" not in p
        assert "overlap" not in p and "diagonal" not in p
        assert "differs" not in p
