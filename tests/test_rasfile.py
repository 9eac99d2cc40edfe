"""Text serialization of atom structures."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from relalg import build_rainbow
from relalg.atoms import make_structure, peircean_transforms
from relalg.rainbow import atom_names
from relalg.rasfile import RasFormatError, dump, dumps, load, loads
from reference import (
    comp_table,
    forbidden_generators,
    from_triples,
    six_transform_closure,
    triple_dumps,
    triple_make_structure,
)


def test_round_trip_rainbows():
    for s, t in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        st = build_rainbow(s, t)
        assert loads(dumps(st)) == st


def test_file_round_trip(tmp_path):
    st = build_rainbow(2, 2)
    path = tmp_path / "rainbow.ras"
    dump(st, path)
    assert load(path) == st


def test_file_with_byte_order_mark(tmp_path):
    st = build_rainbow(2, 2)
    path = tmp_path / "rainbow.ras"
    path.write_bytes(b"\xef\xbb\xbf" + dumps(st).encode())
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


# --- parse semantics ---------------------------------------------------------


def forbidden_line(text: str, n: int) -> int:
    """The 1-based line number of the n-th line after `[forbidden]`."""
    return text.splitlines().index("[forbidden]") + 1 + n


@pytest.mark.parametrize("variant", [
    lambda t: t.replace("\n", "\r\n"),
    lambda t: t.replace(" ", "\t"),
    lambda t: t.replace(" ", " \t  "),
    lambda t: "\n".join("  " + ln + "  " for ln in t.splitlines()),
    lambda t: t.replace("\n", "\n\n"),
    lambda t: "\n".join(ln + " # note" if ln else ln for ln in t.splitlines()),
    lambda t: "\n".join(ln + "# [x]" for ln in t.splitlines()),
    lambda t: t.replace("[forbidden]", "  [ Forbidden ]  # generators"),
    lambda t: t.replace("[atoms]", "[ATOMS]\t").replace("[identity]", "[identity ]"),
])
def test_layouts_read_alike(variant):
    """CRLF line ends, tabs, runs of blanks, blank lines, comments after
    headers and after triples, and section names in any case with
    padding all read as the plain layout that dumps writes."""
    st = build_rainbow(3, 2)
    assert loads(variant(dumps(st))) == st


def test_sections_may_repeat():
    """A section that appears twice reads as one with both blocks' lines."""
    st = build_rainbow(2, 2)
    lines = dumps(st).splitlines()
    at = lines.index("[forbidden]")
    names = lines[1].split()
    half = (len(lines) + at) // 2
    text = "\n".join(
        ["[atoms]", " ".join(names[:4]), "[forbidden]"] + lines[at + 1:half]
        + ["[atoms]", " ".join(names[4:])] + lines[3:at + 1] + lines[half:])
    assert loads(text) == st


@pytest.mark.parametrize("bad,message", [
    ("1' b", "expected 3 names"),
    ("1' b w y", "expected 3 names"),
    ("1' b zz", "unknown atom 'zz'"),
    ("zz 1' b # a comment", "unknown atom 'zz'"),
])
def test_forbidden_errors_name_their_line(bad, message):
    """A bad line deep in a long [forbidden] section is reported with its
    line number, and the first bad line is the one reported."""
    text = dumps(build_rainbow(4, 2))
    lines = text.splitlines()
    n = forbidden_line(text, 100)
    lines[n - 1] = bad
    for later in (None, "1'"):
        if later:
            lines[n + 9] = later
        with pytest.raises(RasFormatError) as exc:
            loads("\n".join(lines))
        assert str(exc.value) == f"line {n}: {message}"


def test_header_errors_name_their_line():
    body = "[atoms]\n1' d\n[identity]\n1'\n[converse]\n[forbidden]\n1' 1' d\n"
    with pytest.raises(RasFormatError) as exc:
        loads("# header\n\n x # [atoms]\n" + body)
    assert str(exc.value) == "line 3: content before any section"
    with pytest.raises(RasFormatError) as exc:
        loads(body + "[forbidden] x\n[ Bogus ]\n")
    assert str(exc.value) == "line 9: unknown section [bogus]"


# --- converse pairs ----------------------------------------------------------

PAIRED = "[atoms]\n1' a b c\n[identity]\n1'\n[converse]\n{pairs}\n[forbidden]\n{gens}\n"


def coherent_generators(names) -> str:
    return "\n".join(f"1' {x} {y}" for x in names for y in names if x != y)


@pytest.mark.parametrize("pairs,line,message", [
    ("a b\nb c", 7, "converse of 'b' already given as 'a'"),
    ("a b\nc a", 7, "converse of 'a' already given as 'b'"),
    ("a a\na b", 7, "converse of 'a' already given as 'a'"),
    ("a b\n\na b # again\nb a\nc c\n1' c", 11, "converse of 'c' already given as 'c'"),
])
def test_conflicting_converse_pairs_rejected(pairs, line, message):
    text = PAIRED.format(pairs=pairs, gens=coherent_generators(["1'", "a", "b", "c"]))
    with pytest.raises(RasFormatError) as exc:
        loads(text)
    assert str(exc.value) == f"line {line}: {message}"


@pytest.mark.parametrize("pairs", ["a b\na b", "a b\nb a", "b a\n# a b\na b\nc c"])
def test_repeated_and_mirrored_pairs_allowed(pairs):
    gens = coherent_generators(["1'", "a", "b", "c"])
    st = loads(PAIRED.format(pairs=pairs, gens=gens))
    assert st == loads(PAIRED.format(pairs="a b", gens=gens))
    assert st.conv == (0, 2, 1, 3)


def test_make_structure_leaves_conflicting_pairs_to_validate():
    """Called directly, make_structure lets a later pair override an
    earlier one, and validate rejects the conv that results."""
    names = ["1'", "a", "b", "c"]
    st = make_structure(names, ["1'"], [("a", "b"), ("b", "c")],
                        [("1'", x, y) for x in names for y in names if x != y])
    assert st.conv == (0, 2, 3, 2)
    assert any(p.startswith("involution") for p in st.validate())


# --- the text path against the triple-set closure ----------------------------


@hs.composite
def generator_texts(draw):
    """A .ras text over 1' and up to six diversity atoms with a random
    converse involution, its identity-coherence generators and other
    generators whose orbits avoid (1', x, x).  Each generator is written
    as a random member of its orbit, some twice, in random order, and
    each converse pair in a random orientation, some twice.  Returns the
    text, conv and the generators as atom ids."""
    k = draw(hs.integers(2, 7))
    order = draw(hs.permutations(range(1, k)))
    conv = list(range(k))
    pairs = []
    for i in range(draw(hs.integers(0, (k - 1) // 2))):
        a, b = order[2 * i], order[2 * i + 1]
        conv[a], conv[b] = b, a
        pairs += [(a, b) if draw(hs.booleans()) else (b, a)] * draw(hs.integers(1, 2))
    conv = tuple(conv)
    atom = hs.integers(0, k - 1)
    drawn = draw(hs.lists(hs.tuples(atom, atom, atom), max_size=3 * k))
    extras = [t for t in drawn if not any(
        u[0] == 0 and u[1] == u[2] for u in peircean_transforms(t, conv))]
    coherence = [(0, x, y) for x in range(k) for y in range(k) if x != y]
    gens = [peircean_transforms(t, conv)[draw(hs.integers(0, 5))]
            for t in coherence + extras]
    gens += draw(hs.lists(hs.sampled_from(gens), max_size=6))
    gens = draw(hs.permutations(gens))
    names = ["1'"] + [f"x{i}" for i in range(1, k)]
    text = "\n".join(
        ["[atoms]", " ".join(names), "[identity]", "1'", "[converse]"]
        + [f"{names[a]} {names[b]}" for a, b in pairs] + ["[forbidden]"]
        + [" ".join(names[a] for a in t) for t in gens]) + "\n"
    return text, names, conv, gens


@settings(max_examples=150, deadline=None)
@given(generator_texts())
def test_loads_matches_six_transform_closure(data):
    """loads on generator text gives the complement of the generators'
    closure under all six transforms, whichever orbit member stands for
    a generator, with repeats and in any order."""
    text, names, conv, gens = data
    k = len(names)
    consistent = set(product(range(k), repeat=3)) - six_transform_closure(gens, conv)
    expected = from_triples(names, [0], conv, consistent)
    assert expected.validate() == []
    assert loads(text) == expected
