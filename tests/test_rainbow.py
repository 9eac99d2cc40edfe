import pytest

from relalg.algebra import Algebra
from relalg.atoms import MAX_ATOMS, make_structure
from relalg.rainbow import (
    BLACK,
    ID,
    WHITE,
    YELLOW,
    Rainbow,
    atom_names,
    build_rainbow,
    predicted_representable,
)
from reference import forbidden_generators


def names_of(alg, mask):
    return {alg.structure.names[i] for i in range(alg.n_atoms) if mask >> i & 1}


def triple_forbidden_oracle(rb, a, b, c):
    """Recompute forbidden-ness of an ordered triple straight from the
    colour rules, without the structure's consistent set.

    A triple is forbidden iff some Peircean transform of it matches one
    of the five rule shapes; checking all six transforms here keeps the
    oracle independent of the construction's closure code.
    """
    st = rb.structure
    is_g, is_r = rb.is_green, rb.is_red

    def matches(t):
        x, y, z = t
        nx, ny, nz = (st.names[i] for i in t)
        if nx == "1'":
            return y != z
        if is_g(x) and is_g(y) and (is_g(z) or nz == "w"):
            return True
        if nx == "y" and ny == "y" and nz in ("y", "b"):
            return True
        if is_r(x) and is_r(y) and is_r(z):
            (j1, j2), (k1, k2), (l1, l2) = (
                rb.red_indices(x), rb.red_indices(y), rb.red_indices(z))
            return not (j1 == l1 and j2 == k1 and k2 == l2)
        if is_g(x) and is_g(y) and is_r(z):
            j, j2 = rb.red_indices(z)
            return x == y or j == j2
        return False

    return any(matches(t) for t in st.transforms((a, b, c)))


@pytest.fixture(scope="module")
def rb22():
    return Rainbow.make(2, 2)


def test_atom_count_and_names(rb22):
    assert rb22.structure.n_atoms == 4 + 2 + 4
    assert rb22.structure.names[:4] == ("1'", "b", "w", "y")
    assert atom_names(3, 2) == [
        "1'", "b", "w", "y", "g0", "g1", "g2", "r0_0", "r0_1", "r1_0", "r1_1"
    ]


def test_converse_layout(rb22):
    st = rb22.structure
    # everything self-converse except r_{j,j'}~ = r_{j',j}
    for a in range(st.n_atoms):
        if rb22.is_red(a):
            j, j2 = rb22.red_indices(a)
            assert st.conv[a] == rb22.red(j2, j)
        else:
            assert st.conv[a] == a


def test_frozen_compositions(rb22):
    alg = Algebra(rb22.structure)
    g0, g1 = 1 << rb22.green(0), 1 << rb22.green(1)
    y = 1 << 3
    assert names_of(alg, alg.compose(g0, g0)) == {"1'", "b", "y"}
    assert names_of(alg, alg.compose(g0, g1)) == {"b", "y", "r0_1", "r1_0"}
    assert names_of(alg, alg.compose(y, y)) == (
        set(rb22.structure.names) - {"y", "b"}
    )


def test_green_green_red_consistency():
    """(g_i, g_i', r_jj') is consistent exactly when i != i' and j != j'."""
    rb = Rainbow.make(3, 3)
    st = rb.structure
    for i in range(3):
        for i2 in range(3):
            for j in range(3):
                for j2 in range(3):
                    t = (rb.green(i), rb.green(i2), rb.red(j, j2))
                    assert st.is_consistent(t) == (i != i2 and j != j2)


@pytest.mark.parametrize("s,t", [(1, 1), (2, 2), (2, 3), (3, 2), (4, 4)])
def test_consistent_set_against_rule_oracle(s, t):
    rb = Rainbow.make(s, t)
    st = rb.structure
    k = st.n_atoms
    for a in range(k):
        for b in range(k):
            for c in range(k):
                assert st.is_consistent((a, b, c)) != triple_forbidden_oracle(
                    rb, a, b, c
                ), (st.names[a], st.names[b], st.names[c])


@pytest.mark.parametrize("s,t", [(s, t) for s in range(1, 10) for t in range(1, 8)
                                 if 4 + s + t * t <= MAX_ATOMS])
def test_closed_form_table_matches_generator_closure(s, t):
    """build_rainbow's closed-form table is the Peircean closure of the
    paper's five generator families."""
    st = build_rainbow(s, t)
    assert st == make_structure(
        atom_names(s, t), ["1'"],
        [(f"r{j}_{j2}", f"r{j2}_{j}") for j in range(t) for j2 in range(j + 1, t)],
        forbidden_generators(s, t))
    assert st.validate() == []


def test_too_many_atoms_rejected():
    with pytest.raises(ValueError, match=r"too many atoms \(76 > 64\)"):
        build_rainbow(8, 8)


def test_structures_validate():
    for s, t in ((2, 2), (3, 2), (2, 3), (4, 4)):
        assert build_rainbow(s, t).validate() == []


def test_predicted_representable():
    assert predicted_representable(2, 2)
    assert predicted_representable(4, 4)
    assert predicted_representable(2, 3)
    assert not predicted_representable(3, 2)
    assert not predicted_representable(5, 4)
    with pytest.raises(ValueError):
        predicted_representable(1, 3)


def test_params_round_trip():
    for s, t in ((2, 2), (5, 3)):
        rb = Rainbow.of(build_rainbow(s, t))
        assert (rb.s, rb.t) == (s, t)
    with pytest.raises(ValueError):
        Rainbow.of(make_structure(["1'", "b", "x"], ["1'"], [], []))


@pytest.mark.parametrize("s,t", [(1, 1), (2, 2), (3, 2), (5, 3), (2, 7)])
def test_colour_constants_name_their_atoms(s, t):
    names = atom_names(s, t)
    assert [ID, BLACK, WHITE, YELLOW] == [names.index(nm) for nm in ("1'", "b", "w", "y")]


@pytest.mark.parametrize("src,dst", [((2, 2), (3, 2)), ((3, 2), (2, 2)), ((5, 3), (2, 3))])
def test_rename_nongreens_keeps_names_drops_greens(src, dst):
    rb_src, rb_dst = Rainbow.make(*src), Rainbow.make(*dst)
    src_names, dst_names = rb_src.structure.names, rb_dst.structure.names
    for a in range(rb_src.structure.n_atoms):
        out = rb_src.rename_nongreens(rb_dst, 1 << a)
        if rb_src.is_green(a):
            assert out == 0
        else:
            assert out == 1 << dst_names.index(src_names[a])
    everything = (1 << rb_src.structure.n_atoms) - 1
    assert rb_src.rename_nongreens(rb_dst, everything) == (
        ((1 << rb_dst.structure.n_atoms) - 1) & ~rb_dst.green_mask
    )
    with pytest.raises(ValueError):
        rb_src.rename_nongreens(rb_dst, everything + 1)


@pytest.mark.parametrize("s,t", [(1, 1), (2, 2), (3, 2), (5, 3)])
def test_green_index_masks_name_the_greens(s, t):
    rb = Rainbow.make(s, t)
    names = rb.structure.names
    everything = (1 << rb.structure.n_atoms) - 1
    for a in range(rb.structure.n_atoms):
        indices = rb.green_indices(1 << a)
        if rb.is_green(a):
            assert indices == 1 << int(names[a][1:])
            assert rb.green_atoms(indices) == 1 << a
        else:
            assert indices == 0
    assert rb.green_indices(everything) == (1 << s) - 1
    assert rb.green_atoms((1 << s) - 1) == rb.green_mask
    with pytest.raises(ValueError):
        rb.green_atoms(1 << s)
