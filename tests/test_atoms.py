import random
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from relalg.atoms import (
    MAX_ATOMS,
    UnknownAtomError,
    converse_images,
    make_structure,
    peircean_transforms,
    transposes,
)
from relalg.rainbow import Rainbow, build_rainbow
from reference import comp_table, from_triples, six_transform_closure, with_consistent


def tiny():
    """Identity plus one self-converse diversity atom, nothing forbidden."""
    return make_structure(["1'", "d"], ["1'"], [], [("1'", "1'", "d")])


def asym():
    """Identity plus a converse pair (a, a~)."""
    return make_structure(
        ["1'", "a", "a~"],
        ["1'"],
        [("a", "a~")],
        [("1'", "1'", "a"), ("1'", "a", "a~")],
    )


# --- transforms -------------------------------------------------------------


def test_transform_order_fixed():
    conv = (0, 2, 1)  # 1 and 2 are converses
    assert peircean_transforms((1, 2, 0), conv) == [
        (1, 2, 0),
        (2, 0, 2),
        (0, 1, 1),
        (2, 0, 2),
        (0, 1, 1),
        (1, 2, 0),
    ]


@st.composite
def involution_and_triple(draw):
    k = draw(st.integers(min_value=1, max_value=6))
    conv = list(range(k))
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        if conv[i] == i and conv[j] == j and i != j:
            conv[i], conv[j] = j, i
    t = tuple(draw(st.integers(0, k - 1)) for _ in range(3))
    return tuple(conv), t


@settings(max_examples=50)
@given(involution_and_triple())
def test_transforms_idempotent_as_set(data):
    conv, t = data
    once = set(peircean_transforms(t, conv))
    twice = {u for s in once for u in peircean_transforms(s, conv)}
    assert once == twice


def structure_on(conv, identity, triples):
    """make_structure over atoms a0.. with the given converse, identity
    atoms and forbidden generators, all as atom ids."""
    names = [f"a{i}" for i in range(len(conv))]
    return make_structure(
        names, [names[e] for e in identity],
        [(names[a], names[conv[a]]) for a in range(len(conv)) if a < conv[a]],
        [tuple(names[x] for x in t) for t in triples],
    )


def forbidden_of(st_):
    return set(product(range(st_.n_atoms), repeat=3)) - st_.consistent


@settings(max_examples=50)
@given(involution_and_triple())
def test_closure_is_union_of_orbits(data):
    """One generator forbids exactly its orbit, and closing the orbit
    again forbids nothing more."""
    conv, t = data
    closed = forbidden_of(structure_on(conv, [], [t]))
    assert closed == set(peircean_transforms(t, conv))
    assert forbidden_of(structure_on(conv, [], sorted(closed))) == closed


def random_involution(rng, k):
    atoms = list(range(k))
    rng.shuffle(atoms)
    conv = list(range(k))
    for i in range(0, rng.randrange(k + 1) // 2 * 2, 2):
        a, b = atoms[i], atoms[i + 1]
        conv[a], conv[b] = b, a
    return tuple(conv)


def test_closure_matches_six_transform_closure():
    rng = random.Random(9)
    swapped = 0
    for _ in range(300):
        k = rng.randint(1, 7)
        conv = random_involution(rng, k)
        swapped += conv != tuple(range(k))
        triples = [tuple(rng.randrange(k) for _ in range(3))
                   for _ in range(rng.randrange(3 * k))]
        assert forbidden_of(structure_on(conv, [], triples)) == six_transform_closure(
            triples, conv)
    assert swapped > 100


@st.composite
def small_structures(draw):
    """A converse involution, identity atoms and forbidden generators on
    up to 6 atoms."""
    conv, _ = draw(involution_and_triple())
    k = len(conv)
    identity = draw(st.sets(st.integers(0, k - 1), max_size=2))
    atom = st.integers(0, k - 1)
    triples = draw(st.lists(st.tuples(atom, atom, atom), max_size=4 * k))
    return conv, sorted(identity), triples


@settings(max_examples=100, deadline=None)
@given(small_structures())
def test_table_is_complement_of_six_transform_closure(data):
    """The table make_structure builds is, cell by cell, the complement
    of the generators' closure under all six transforms."""
    conv, identity, triples = data
    st_ = structure_on(conv, identity, triples)
    k = len(conv)
    consistent = set(product(range(k), repeat=3)) - six_transform_closure(triples, conv)
    assert st_.comp == comp_table(consistent, k)
    assert st_.consistent == consistent
    assert st_.conv == conv and st_.identity == frozenset(identity)
    assert all(st_.is_consistent(t) == (t in consistent)
               for t in product(range(k), repeat=3))


# --- packed mask helpers -----------------------------------------------------


@pytest.mark.parametrize("k", [0, 1, 2, 7, 8, 9, 16, 17, 31, 32, 33, 62, 64])
def test_packed_helpers_match_bit_loops(k):
    """transposes and converse_images agree with bit-by-bit loops at each
    slot width and at its edges."""
    rng = random.Random(k)
    for n in (0, 1, 3):
        table = [[rng.getrandbits(k) for _ in range(k)] for _ in range(n)]
        assert transposes(table, k) == [
            tuple(sum((rows[b] >> c & 1) << b for b in range(k)) for c in range(k))
            for rows in table]
    conv = random_involution(rng, k)
    masks = [rng.getrandbits(k) for _ in range(20)]
    assert converse_images(masks, conv) == [
        sum(1 << conv[c] for c in range(k) if m >> c & 1) for m in masks]


# --- structure construction --------------------------------------------------


def test_make_structure_complements_forbidden():
    st_ = tiny()
    assert not st_.is_consistent((0, 0, 1))
    # transforms of the generator are forbidden too
    assert not st_.is_consistent((1, 0, 0)) or (1, 0, 0) not in st_.consistent
    # everything else is consistent
    assert st_.is_consistent((1, 1, 0))
    assert st_.is_consistent((1, 1, 1))


def test_converse_pairs_applied():
    st_ = asym()
    assert st_.converse_of(st_.atom("a")) == st_.atom("a~")
    assert st_.converse_of(st_.atom("1'")) == st_.atom("1'")


def test_validate_ok_structures():
    assert tiny().validate() == []
    assert asym().validate() == []


def test_validate_catches_broken_involution():
    st_ = from_triples(("1'", "a", "b"), [0], (0, 2, 0), [])  # not an involution
    assert any("involution" in p for p in st_.validate())


def test_validate_catches_transform_leak():
    base = tiny()
    # drop one triple but keep its transforms: closure is broken
    victim = (1, 1, 0)
    leaky = with_consistent(base, base.consistent - {victim})
    assert leaky.validate() != []


def six_transform_validate(st_):
    """AtomStructure.validate as a per-triple loop over all six
    transforms, with no shortcut."""
    k = len(st_.names)
    bad = []
    if len(st_.conv) != k:
        return [f"converse table has {len(st_.conv)} entries for {k} atoms"]
    for a in range(k):
        if not 0 <= st_.conv[a] < k:
            bad.append(f"involution: converse of {st_.names[a]} out of range")
        elif st_.conv[st_.conv[a]] != a:
            bad.append(
                f"involution: conv(conv({st_.names[a]})) = "
                f"{st_.names[st_.conv[st_.conv[a]]]}"
            )
    for e in st_.identity:
        if st_.conv[e] not in st_.identity:
            bad.append(f"identity not closed under converse at {st_.names[e]}")
    for t in st_.consistent:
        for u in peircean_transforms(t, st_.conv):
            if u not in st_.consistent:
                bad.append(
                    f"Peircean closure: {st_._fmt(t)} consistent "
                    f"but transform {st_._fmt(u)} is not"
                )
                break
    for e in st_.identity:
        for a in range(k):
            for b in range(k):
                if ((e, a, b) in st_.consistent) != (a == b):
                    bad.append(
                        f"identity coherence: {st_._fmt((e, a, b))} "
                        f"{'consistent' if a != b else 'inconsistent'}"
                    )
    return bad


def generator_closed_leak():
    """conv is not an involution, and the consistent set is closed under
    (a,b,c) -> (a~,c,b) and (a,b,c) -> (b~,a~,c~) but not under all six
    transforms: (a, 1', 1') is consistent and its transform
    (c, b~, a) = (1', 1', a) is not."""
    return from_triples(("1'", "a", "b"), [0], (0, 2, 2),
                        [(0, 0, 2), (0, 2, 0), (1, 0, 0), (2, 0, 0)])


def unclosed_structures():
    """The victim of test_check_axioms_flags_broken_closure, seeded
    single-triple edits of four structures, and structures whose conv is
    not an involution."""
    b22 = build_rainbow(2, 2)
    rb = Rainbow(2, 2, b22)
    victim = (rb.green(0), rb.green(1), 1)  # (g0, g1, b), transforms kept
    out = [with_consistent(b22, b22.consistent - {victim})]
    rng = random.Random(4)
    for base in (tiny(), asym(), b22, build_rainbow(3, 2)):
        k = base.n_atoms
        for _ in range(6):
            t = tuple(rng.randrange(k) for _ in range(3))
            out.append(with_consistent(base, base.consistent ^ {t}))
    out.append(replace(asym(), conv=(0, 2, 2)))
    out.append(replace(b22, conv=(1,) + b22.conv[1:]))
    out.append(generator_closed_leak())
    return out


def test_validate_matches_six_transform_loop():
    cases = unclosed_structures()
    for st_ in cases:
        assert st_.validate() == six_transform_validate(st_)
    leaks = [st_ for st_ in cases
             if any(p.startswith("Peircean") for p in st_.validate())]
    assert len(leaks) >= 20 and cases[0] in leaks and cases[-1] in leaks


def test_validate_rejects_malformed_tables():
    base = tiny()
    for comp in ((base.comp[0],), (base.comp[0], base.comp[1][:1]),
                 (base.comp[0], (base.comp[1][0], 4))):
        assert replace(base, comp=comp).validate() == [
            "composition table is not 2 x 2 masks of 2 bits"]


def test_unknown_atom_errors():
    st_ = tiny()
    with pytest.raises(UnknownAtomError):
        st_.atom("nope")
    with pytest.raises(UnknownAtomError):
        st_.converse_of(17)
    with pytest.raises(UnknownAtomError):
        st_.is_consistent((0, 0, 99))


def test_renamed_copy_has_its_own_index():
    a = tiny()
    b = replace(a, names=("1'", "e"))
    assert b.atom("e") == 1
    with pytest.raises(UnknownAtomError):
        a.atom("e")
    assert a.atom("d") == 1


def test_atom_cap_enforced():
    names = [f"a{i}" for i in range(MAX_ATOMS + 1)]
    with pytest.raises(ValueError):
        from_triples(names, [0], range(len(names)), [])


def test_identity_coherence_flagged():
    # (1', a, b) consistent with a != b must be rejected
    st_ = make_structure(["1'", "a", "b"], ["1'"], [], [])
    # fully-consistent structure: (0, 1, 2) is consistent, so invalid
    assert any("identity" in p for p in st_.validate())
