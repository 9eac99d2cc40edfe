"""Text serialization of atom structures."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from relalg import build_rainbow
from relalg.atoms import make_structure, peircean_transforms
from relalg.rainbow import atom_names
from relalg.rasfile import RasFormatError, dump, dumps, load, loads
from reference import comp_table, forbidden_generators, triple_dumps, triple_make_structure


def test_round_trip_rainbows():
    for s, t in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        st = build_rainbow(s, t)
        assert loads(dumps(st)) == st


def test_file_round_trip(tmp_path):
    st = build_rainbow(2, 2)
    path = tmp_path / "rainbow.ras"
    dump(st, path)
    assert load(path) == st


def test_generator_closure_on_load():
    # a single generator triple expands to its whole transform orbit
    text = """
    [atoms]
    1' a b
    [identity]
    1'
    [converse]
    a b
    [forbidden]
    1' 1' a
    1' a b   # identity coherence partner
    a a a
    """
    st = loads(text)
    a, b = st.names.index("a"), st.names.index("b")
    assert (a, a, a) not in st.consistent
    # the orbit of (a,a,a) under the transforms includes (b,b,b)
    assert (b, b, b) not in st.consistent


def test_comments_and_blank_lines_ignored():
    text = "# header\n[atoms]\n1' d # trailing\n\n[identity]\n1'\n[converse]\n[forbidden]\n1' 1' d\n"
    st = loads(text)
    assert st.names == ("1'", "d")


def test_unlisted_atoms_self_converse():
    st = loads("[atoms]\n1' d\n[identity]\n1'\n[converse]\n[forbidden]\n1' 1' d\n")
    assert st.conv == (0, 1)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("x y z\n[atoms]\nx\n", "content before any section"),
        ("[atoms]\n[identity]\n[converse]\n[forbidden]\n", "no atoms"),
        ("[atoms]\na a\n[identity]\na\n", "duplicate"),
        ("[bogus]\n", "unknown section"),
        ("[atoms]\n1' d\n[identity]\n1'\n[converse]\nd\n[forbidden]\n1' 1' d\n", "expected 2"),
        ("[atoms]\n1' d\n[identity]\n1'\n[converse]\n[forbidden]\n1' 1' q\n", "unknown atom"),
        ("[atoms]\n1' d\n[converse]\n[forbidden]\n1' 1' d\n", "no identity"),
    ],
)
def test_format_errors(text, fragment):
    with pytest.raises(RasFormatError, match=fragment):
        loads(text)


def test_invalid_structure_rejected():
    # missing the identity-coherence triple (1',1',d)
    text = "[atoms]\n1' d\n[identity]\n1'\n[converse]\n[forbidden]\n"
    st_ok = loads("[atoms]\n1' d\n[identity]\n1'\n[converse]\n[forbidden]\n1' 1' d\n")
    assert st_ok.validate() == []
    with pytest.raises(RasFormatError, match="invalid structure"):
        loads(text)


def test_dumps_lists_full_forbidden_set():
    """The section stands for every forbidden triple, one line per orbit:
    the orbits of the lines written are exactly the forbidden triples,
    each line is the first of its orbit in (a, b, c) order, and the
    structure reads back equal."""
    for s, t in [(2, 2), (3, 2)]:
        st = build_rainbow(s, t)
        text = dumps(st)
        index = {name: i for i, name in enumerate(st.names)}
        written = [tuple(index[nm] for nm in line.split())
                   for line in text.split("[forbidden]")[1].strip().splitlines()]
        orbits = [set(peircean_transforms(u, st.conv)) for u in written]
        forbidden = set(product(range(st.n_atoms), repeat=3)) - st.consistent
        assert set().union(*orbits) == forbidden
        assert len(written) == len({frozenset(o) for o in orbits})
        assert all(u == min(o) for u, o in zip(written, orbits))
        assert loads(text) == st


@pytest.mark.parametrize(
    "s,t", [(s, t) for s in range(1, 5) for t in range(1, 5)] + [(8, 7)])
def test_mask_pipeline_matches_triple_sets(s, t):
    """build_rainbow and dumps give the table and the text that the
    triple-set pipeline gives, byte for byte, and the text reads back
    as the same structure."""
    names, identity, conv, consistent = triple_make_structure(
        atom_names(s, t), ["1'"],
        [(f"r{j}_{j2}", f"r{j2}_{j}") for j in range(t) for j2 in range(j + 1, t)],
        forbidden_generators(s, t))
    st = build_rainbow(s, t)
    assert (st.names, st.identity, st.conv) == (names, identity, conv)
    assert st.comp == comp_table(consistent, len(names))
    text = dumps(st)
    assert text == triple_dumps(names, identity, conv, consistent)
    assert loads(text) == st


@settings(max_examples=30, deadline=None)
@given(
    extra=hs.integers(0, 3),
    forbid_mask=hs.integers(0, 63),
)
def test_round_trip_random_structures(extra, forbid_mask):
    names = ["1'"] + [f"d{i}" for i in range(extra + 1)]
    gens = [("1'", "1'", nm) for nm in names[1:]]
    # sprinkle extra forbidden generators among diversity triples
    diversity = [
        (a, b, c)
        for a in names[1:]
        for b in names[1:]
        for c in names[1:]
    ]
    for i, tri in enumerate(diversity[:6]):
        if forbid_mask >> i & 1:
            gens.append(tri)
    st = make_structure(names, ["1'"], [], gens)
    assert dumps(st) == triple_dumps(st.names, st.identity, st.conv, st.consistent)
    if st.validate():
        return  # some random forbidden sets break coherence; skip those
    assert loads(dumps(st)) == st


@settings(max_examples=60, deadline=None)
@given(
    order=hs.permutations(["d0", "d1", "p0", "q0", "p1", "q1"]),
    n_pairs=hs.integers(1, 2),
    coherent=hs.booleans(),
    picks=hs.lists(hs.tuples(*[hs.integers(0, 5)] * 3), max_size=8),
)
def test_round_trip_structures_with_converse_pairs(order, n_pairs, coherent, picks):
    """The writer's orbit-first conditions read c~ and b~: structures
    with converse pairs (p_i, q_i), in any atom order, write the text of
    the triple-set walk and read back equal."""
    pairs = [(f"p{i}", f"q{i}") for i in range(n_pairs)]
    used = {"d0", "d1"}.union(*pairs)
    names = ["1'"] + [nm for nm in order if nm in used]
    others = names[1:]
    if coherent:
        gens = [("1'", a, b) for a in names for b in names if a != b]
    else:
        gens = [("1'", "1'", nm) for nm in others]
    gens += [tuple(others[i % len(others)] for i in pick) for pick in picks]
    st = make_structure(names, ["1'"], pairs, gens)
    assert dumps(st) == triple_dumps(st.names, st.identity, st.conv, st.consistent)
    problems = st.validate()
    assert not (coherent and problems)
    if not problems:
        assert loads(dumps(st)) == st
