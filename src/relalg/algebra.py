"""Complex algebras over atom structures.

Elements are subsets of the atom set, stored as plain int bit masks
(bit i set = atom i belongs to the element).  The :class:`Algebra`
wrapper precomputes the atom-level composition table, so composing two
elements costs one table lookup per pair of set bits.

A thin :class:`Element` value type is provided for interactive use and
the demo scripts; the game engines work on raw masks for speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import itemgetter, mul, or_

from .atoms import AtomStructure, bits


def _or_rows(table: list[list[int]], atoms: list[int], k: int) -> list[int]:
    """The OR of ``table[a]`` over the given atoms; it may be one of the
    table's rows itself, so do not change it."""
    row = table[atoms[0]] if atoms else [0] * k
    for a in atoms[1:]:
        row = list(map(or_, row, table[a]))
    return row


class Algebra:
    """The full complex algebra over a validated atom structure."""

    def __init__(self, structure: AtomStructure):
        self.structure = structure
        k = structure.n_atoms
        self.n_atoms = k
        self.one = (1 << k) - 1
        self.identity_mask = sum(1 << e for e in structure.identity)
        self.conv_atom = structure.conv
        # comp[a][b] = mask of all c with (a, b, c) consistent; rows are
        # lists, which the row helpers below extend and compare
        self.comp = [list(row) for row in structure.comp]

    @property
    def size(self) -> int:
        return 1 << self.n_atoms

    # boolean operations -------------------------------------------------
    def complement(self, x: int) -> int:
        return self.one ^ x

    # relational operations ----------------------------------------------
    def converse(self, x: int) -> int:
        conv = self.conv_atom
        out = 0
        for a in bits(x):
            out |= 1 << conv[a]
        return out

    def compose(self, x: int, y: int) -> int:
        comp = self.comp
        out = 0
        for a in bits(x):
            row = comp[a]
            for b in bits(y):
                out |= row[b]
        return out

    def left_row(self, x: int) -> list[int]:
        """``x ; b`` for each atom b: the OR of ``comp[a]`` over the atoms
        a of x.  Do not change it."""
        return _or_rows(self.comp, list(bits(x)), self.n_atoms)

    def right_row(self, y: int) -> list[int]:
        """``a ; y`` for each atom a.  Do not change it."""
        return _or_rows(self.comp_by_right, list(bits(y)), self.n_atoms)

    @cached_property
    def comp_by_right(self) -> list[list[int]]:
        """The transposed table: ``comp_by_right[b][a] = comp[a][b]``."""
        return [list(col) for col in zip(*self.comp)]

    def compose_all(self, atoms: list[list[int]]) -> list[list[int]]:
        """Every pairwise composition of the elements given by their atom
        lists: ``out[i][j]`` is the element with atoms ``atoms[i]``
        composed with the one with atoms ``atoms[j]``.

        For each left list xs the row ``L = left_row(x)`` is built once
        from xs, and then ``x ; y`` is the OR of ``L[b]`` over the atoms
        b of y.  On m lists that partition k atoms this costs about
        k*k + k*m steps instead of m*m compose calls.
        A one-atom y = {b} needs no OR at all: ``x ; y`` is ``L[b]``.  The
        products with the other elements are appended to L, so that one
        itemgetter reads out the whole row of products.
        """
        comp, k = self.comp, self.n_atoms
        if len(atoms) < 2:
            return [[reduce(or_, (comp[a][b] for a in xs for b in ys), 0)
                     for ys in atoms] for xs in atoms]
        multi = [ys for ys in atoms if len(ys) != 1]
        slot = iter(range(k, k + len(multi)))
        pick = itemgetter(*[ys[0] if len(ys) == 1 else next(slot) for ys in atoms])
        out = []
        for xs in atoms:
            row = _or_rows(comp, xs, k)  # left_row(x), from x's atoms
            if multi:
                get = row.__getitem__
                row = row + [reduce(or_, map(get, ys), 0) for ys in multi]
            out.append(list(pick(row)))
        return out

    @cached_property
    def twin_classes(self) -> tuple[tuple[int, ...], ...]:
        """The classes of twin atoms with two or more members, in atom
        order.

        Atoms i and j are twins when the transposition (i j) is an
        automorphism: it keeps the identity atoms, commutes with
        ``conv_atom``, and ``comp[τa][τb] == τ(comp[a][b])`` for all a, b.
        Twinship is an equivalence, since (i k) = (i j)(j k)(i j), so every
        permutation inside a class is an automorphism and each atom is
        compared only with the first member of each class found so far.
        The converse is checked on i, j and their converses, the only
        atoms where the two sides can differ.  Row i of the table is
        checked first, entry by entry, as most non-twins already differ
        there; row j needs no check, as its condition at b is row i's at
        τb.  Computed on first use, never when the algebra is built.
        """
        k, comp, conv = self.n_atoms, self.comp, self.conv_atom
        ident = self.identity_mask

        def twins(i: int, j: int) -> bool:
            tau = list(range(k))
            tau[i], tau[j] = j, i
            flip = 1 << i | 1 << j

            def moved(m: int) -> int:
                return m ^ flip if (m >> i ^ m >> j) & 1 else m

            def row_kept(a: int) -> bool:
                """The condition on row a, for a outside {i, j}."""
                row = list(map(moved, comp[a]))
                row[i], row[j] = row[j], row[i]
                return comp[a] == row

            return (
                (ident >> i ^ ident >> j) & 1 == 0
                and all(conv[tau[a]] == tau[conv[a]] for a in (i, j, conv[i], conv[j]))
                and all(comp[j][tau[b]] == moved(comp[i][b]) for b in range(k))
                and all(row_kept(a) for a in range(k) if a not in (i, j))
            )

        classes: list[list[int]] = []
        for i in range(k):
            for cls in classes:
                if twins(i, cls[0]):
                    cls.append(i)
                    break
            else:
                classes.append([i])
        return tuple(tuple(cls) for cls in classes if len(cls) > 1)

    def elem_name(self, x: int) -> str:
        if x == 0:
            return "0"
        if x == self.one:
            return "1"
        return "{" + ", ".join(self.structure.names[a] for a in bits(x)) + "}"

    @cached_property
    def moves_by_third(self) -> list[tuple[tuple[int, int], ...]]:
        """For each atom c, the pairs (a, mask of b) over non-identity a
        and b with (a, b, c) consistent, ascending in a; a with no such b
        is left out.  The network game reads its demands on an edge
        labelled c from row c."""
        k = self.n_atoms
        plain = self.one ^ self.identity_mask
        table: list[list[int]] = [[0] * k for _ in range(k)]  # [c][a] -> b mask
        for a in bits(plain):
            for b in bits(plain):
                for c in bits(self.comp[a][b]):
                    table[c][a] |= 1 << b
        return [tuple((a, m) for a, m in enumerate(row) if m) for row in table]


@dataclass(frozen=True)
class Element:
    """A member of a complex algebra: an algebra reference plus a bit mask."""

    algebra: Algebra
    mask: int

    def _same(self, other: "Element") -> None:
        if other.algebra is not self.algebra:
            raise ValueError("elements belong to different algebras")

    def __or__(self, other: "Element") -> "Element":
        self._same(other)
        return Element(self.algebra, self.mask | other.mask)

    def __and__(self, other: "Element") -> "Element":
        self._same(other)
        return Element(self.algebra, self.mask & other.mask)

    def __invert__(self) -> "Element":
        return Element(self.algebra, self.algebra.complement(self.mask))

    def converse(self) -> "Element":
        return Element(self.algebra, self.algebra.converse(self.mask))

    def compose(self, other: "Element") -> "Element":
        self._same(other)
        return Element(self.algebra, self.algebra.compose(self.mask, other.mask))

    def __le__(self, other: "Element") -> bool:
        self._same(other)
        return self.mask | other.mask == other.mask

    def __str__(self) -> str:
        return self.algebra.elem_name(self.mask)


def check_axioms(structure: AtomStructure) -> list[str]:
    """Verify the relation algebra axioms at atom level.

    Starts from :meth:`AtomStructure.validate` (converse involution,
    Peircean closure of the consistent set, identity coherence), then
    checks the identity law, converse of a composition and
    associativity over all atom triples.  Returns one message per failed
    law (with the first witness found); an empty list means all laws
    hold.

    The converse of a composition, ``conv(a;b) = b~;a~``, is checked
    only when validate reported a problem.  Validate reports none only
    if conv is an involution and the table equals its
    :func:`~relalg.atoms.g2_image`; cell (b~, a~) of that equality reads
    ``comp[b~][a~] == conv(comp[a][b])``, which is the law itself.

    Associativity, ``(a;b);c = a;(b;c)``, is checked for every c at once
    on packed rows: slot c of an int is its bits c*k .. c*k+k-1.  Row e
    of the table packs into ``packed[e]``, with ``comp[e][c]`` in slot c,
    so the OR of ``packed[e]`` over the atoms e of a;b holds ``(a;b);c``
    in each slot c.  That OR depends only on the mask a;b, so it is
    computed once per distinct mask.  ``spread[b][f]`` has one bit, the
    lowest, in each slot c with f in b;c: bit c*k of
    ``packed[b] >> f`` is bit f of ``comp[b][c]``, so it is that int
    masked to the slots' lowest bits.  ``comp[a][f] * spread[b][f]`` is
    ``comp[a][f]`` copied into those slots (it is below 2^k, so no
    product spills into the next slot), and the OR of these over f holds
    ``a;(b;c)`` in each slot c.  The lowest set bit of the two sides'
    XOR lies in the slot of the least c where they differ, so with a
    outside b the first witness is the one the triple loop
    ``for a, for b, for c`` meets first.
    """
    alg = Algebra(structure)
    k = alg.n_atoms
    comp = alg.comp
    names = structure.names
    bad = structure.validate()
    valid = not bad
    ident = alg.identity_mask

    for a in range(k):
        if alg.compose(ident, 1 << a) != 1 << a:
            bad.append(f"identity law fails: 1';{names[a]} != {names[a]}")
            break
        if alg.compose(1 << a, ident) != 1 << a:
            bad.append(f"identity law fails: {names[a]};1' != {names[a]}")
            break

    for a in range(0 if valid else k):
        for b in range(k):
            lhs = alg.converse(comp[a][b])
            rhs = alg.compose(1 << alg.conv_atom[b], 1 << alg.conv_atom[a])
            if lhs != rhs:
                bad.append(
                    f"converse of composition fails at ({names[a]}, {names[b]})"
                )
                break
        else:
            continue
        break

    slot = [1 << (c * k) for c in range(k)]
    low = sum(slot)
    packed = [sum(map(mul, row, slot)) for row in comp]
    spread = [[p >> f & low for f in range(k)] for p in packed]
    left_of: dict = {}  # mask a;b -> (a;b);c packed over c
    for a in range(k):
        row = comp[a]
        for b in range(k):
            ab = row[b]
            lhs = left_of.get(ab)
            if lhs is None:
                lhs = left_of[ab] = reduce(or_, map(packed.__getitem__, bits(ab)), 0)
            rhs = reduce(or_, map(mul, row, spread[b]))
            if lhs != rhs:
                diff = lhs ^ rhs
                c = ((diff & -diff).bit_length() - 1) // k
                bad.append(
                    "associativity fails at "
                    f"({names[a]}, {names[b]}, {names[c]})"
                )
                break
        else:
            continue
        break

    return bad
