import random
import time
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from relalg.algebra import Algebra, Element, bits, check_axioms
from relalg.atoms import make_structure, peircean_transforms
from relalg.rainbow import Rainbow, build_rainbow
from reference import with_consistent
from test_atoms import six_transform_validate
from test_logic import S3, TINY


@pytest.fixture(scope="module")
def rb():
    return Rainbow.make(2, 2)


@pytest.fixture(scope="module")
def alg(rb):
    return Algebra(rb.structure)


elements = st.integers(min_value=0, max_value=(1 << 10) - 1)
_ALG = Algebra(build_rainbow(2, 2))


def test_boolean_basics(alg, rb):
    assert alg.complement(0) == alg.one
    g01 = (1 << rb.green(0)) | (1 << rb.green(1))
    assert set(bits(g01)) == {rb.green(0), rb.green(1)}


@given(elements)
def test_meet_with_complement_is_zero(x):
    alg = _ALG
    assert x & alg.complement(x) == 0


def test_converse_frozen_example(alg, rb):
    x = (1 << rb.red(0, 1)) | (1 << 1)  # {r0_1, b}
    assert alg.converse(x) == (1 << rb.red(1, 0)) | (1 << 1)
    assert alg.converse(alg.one) == alg.one


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
    assert alg.compose(0, alg.one) == 0


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
    broken = with_consistent(base, base.consistent - {victim})
    problems = check_axioms(broken)
    assert any("peircean" in p.lower() or "closure" in p.lower() for p in problems)


def triple_loop_check_axioms(structure):
    """check_axioms as two compose calls per atom triple, after the
    six-transform validate."""
    alg = Algebra(structure)
    k = alg.n_atoms
    names = structure.names
    bad = six_transform_validate(structure)
    ident = alg.identity_mask
    for a in range(k):
        if alg.compose(ident, 1 << a) != 1 << a:
            bad.append(f"identity law fails: 1';{names[a]} != {names[a]}")
            break
        if alg.compose(1 << a, ident) != 1 << a:
            bad.append(f"identity law fails: {names[a]};1' != {names[a]}")
            break
    for a in range(k):
        for b in range(k):
            lhs = alg.converse(alg.comp[a][b])
            rhs = alg.compose(1 << alg.conv_atom[b], 1 << alg.conv_atom[a])
            if lhs != rhs:
                bad.append(
                    f"converse of composition fails at ({names[a]}, {names[b]})"
                )
                break
        else:
            continue
        break
    for a in range(k):
        for b in range(k):
            ab = alg.comp[a][b]
            for c in range(k):
                if alg.compose(ab, 1 << c) != alg.compose(1 << a, alg.comp[b][c]):
                    bad.append(
                        "associativity fails at "
                        f"({names[a]}, {names[b]}, {names[c]})"
                    )
                    return bad
    return bad


def orbit_mutants(base, rng, n):
    """base, n copies of it that each remove one Peircean orbit from the
    consistent set or add one to it, and one copy with a single triple
    removed, which breaks the closure."""
    k = base.n_atoms
    consistent = sorted(base.consistent)
    forbidden = sorted(set(product(range(k), repeat=3)) - base.consistent)
    out = [base]
    for i in range(n):
        t = rng.choice(consistent if i % 2 else forbidden)
        orbit = set(peircean_transforms(t, base.conv))
        out.append(with_consistent(base, base.consistent ^ orbit))
    out.append(with_consistent(base, base.consistent - {rng.choice(consistent)}))
    return out


def test_check_axioms_matches_triple_loop():
    rng = random.Random(7)
    bases = [build_rainbow(2, 2), build_rainbow(3, 2), build_rainbow(2, 3),
             S3.structure]
    cases = [st_ for base in bases for st_ in orbit_mutants(base, rng, 24)]
    kinds = set()
    for st_ in cases:
        problems = check_axioms(st_)
        assert problems == triple_loop_check_axioms(st_)
        kinds.update({p.split()[0] for p in problems} or {"pass"})
    assert len(cases) == 104
    assert {"associativity", "Peircean", "pass"} <= kinds, kinds

    # both sides of the gate on the converse-of-composition loop: conv
    # not an involution, and a closed table that breaks identity
    # coherence only; then a 17-atom base with repeated cell masks
    b22 = build_rainbow(2, 2)
    g0, g1, w, y = (b22.atom(x) for x in ("g0", "g1", "w", "y"))
    conv = list(b22.conv)
    conv[g0], conv[g1], conv[w] = g1, w, g0
    not_involutive = replace(b22, conv=tuple(conv))
    coherence_only = with_consistent(
        b22, b22.consistent | set(peircean_transforms((0, w, y), b22.conv)))
    assert {p.split(":")[0] for p in coherence_only.validate()} == {
        "identity coherence"}
    b43 = build_rainbow(4, 3)
    assert len({m for row in b43.comp for m in row}) < b43.n_atoms ** 2
    extra = [not_involutive, coherence_only, *orbit_mutants(b43, rng, 6)]
    kinds = set()
    for st_ in extra:
        problems = check_axioms(st_)
        assert problems == triple_loop_check_axioms(st_)
        kinds.update({p.split()[0] for p in problems} or {"pass"})
    assert {"involution:", "identity", "converse", "associativity", "pass"} <= kinds, kinds


def test_check_axioms_fast_on_61_atoms():
    st_ = build_rainbow(8, 7)
    t0 = time.perf_counter()
    assert check_axioms(st_) == []
    assert time.perf_counter() - t0 < 2.0


def test_element_type_guards(alg):
    other = Algebra(build_rainbow(3, 2))
    with pytest.raises(ValueError):
        Element(alg, 1) | Element(other, 1)
    e = Element(alg, 0b11)
    assert (e & ~e).mask == 0
    assert (e | ~e).mask == alg.one


# ---------------------------------------------------------------------------
# twin atoms


def is_automorphism(alg, perm):
    """Whether the atom permutation ``perm`` keeps the identity, the
    converse and every entry of the composition table."""
    k = alg.n_atoms

    def image(m):
        return sum(1 << perm[x] for x in bits(m))

    return (
        image(alg.identity_mask) == alg.identity_mask
        and all(alg.conv_atom[perm[a]] == perm[alg.conv_atom[a]] for a in range(k))
        and all(alg.comp[perm[a]][perm[b]] == image(alg.comp[a][b])
                for a in range(k) for b in range(k))
    )


def swap(k, i, j):
    perm = list(range(k))
    perm[i], perm[j] = j, i
    return perm


def brute_force_twin_classes(alg):
    """Every atom pair tried with the full automorphism check; the classes
    of two or more atoms, in atom order.  Asserts that twinship is an
    equivalence on the way."""
    k = alg.n_atoms
    twin = {(i, j) for i in range(k) for j in range(k)
            if i == j or is_automorphism(alg, swap(k, i, j))}
    classes = {tuple(j for j in range(k) if (i, j) in twin) for i in range(k)}
    assert twin == {(i, j) for cls in classes for i in cls for j in cls}
    return tuple(sorted(cls for cls in classes if len(cls) > 1))


# 1', a, b, all self-converse, with (a, a, a) the only forbidden triple
# past the identity ones: a and b differ only on triples among
# themselves, which the table rows of other atoms do not show
SWAP_ONLY_IN_OWN_ROWS = Algebra(make_structure(
    ["1'", "a", "b"], ["1'"], [],
    [("1'", x, y) for x in ("1'", "a", "b") for y in ("1'", "a", "b") if x != y]
    + [("a", "a", "a")],
))


def converse_moved(structure):
    """B(3,2) with g0 and w made each other's converse: the table still
    treats g0 like the other greens, the converse does not."""
    conv = list(structure.conv)
    g0, w = structure.atom("g0"), structure.atom("w")
    conv[g0], conv[w] = w, g0
    return Algebra(replace(structure, conv=tuple(conv)))


TWIN_CASES = {
    "TINY": TINY,
    "S3": S3,
    "3 atoms": SWAP_ONLY_IN_OWN_ROWS,
    "B(3,2) converse moved": converse_moved(build_rainbow(3, 2)),
    **{f"B({s},{t})": Algebra(build_rainbow(s, t))
       for s in (1, 2, 3) for t in (1, 2, 3)},
}


@pytest.mark.parametrize("case", list(TWIN_CASES))
def test_twin_classes_match_brute_force(case):
    alg = TWIN_CASES[case]
    assert alg.twin_classes == brute_force_twin_classes(alg)
    for cls in alg.twin_classes:
        for j in cls[1:]:
            assert is_automorphism(alg, swap(alg.n_atoms, cls[0], j))


def test_twin_classes_of_rainbows():
    assert check_axioms(SWAP_ONLY_IN_OWN_ROWS.structure) == []
    assert SWAP_ONLY_IN_OWN_ROWS.twin_classes == ()
    assert converse_moved(build_rainbow(3, 2)).twin_classes == ((5, 6),)
    for s, t in product((1, 2, 3, 4), (1, 2, 3)):
        st_ = build_rainbow(s, t)
        greens = tuple(st_.atom(f"g{i}") for i in range(s))
        want = [greens] if s > 1 else []
        if t == 1:
            want.insert(0, (st_.atom("w"), st_.atom("r0_0")))
        assert Algebra(st_).twin_classes == tuple(want), (s, t)


def test_twin_classes_are_lazy():
    alg = Algebra(build_rainbow(3, 2))
    assert "twin_classes" not in vars(alg)
    classes = alg.twin_classes
    assert vars(alg)["twin_classes"] is classes
