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
from operator import itemgetter, or_

from .atoms import AtomStructure


def bits(mask: int):
    """Iterate over set bit positions of a mask."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Algebra:
    """The full complex algebra over a validated atom structure."""

    def __init__(self, structure: AtomStructure):
        self.structure = structure
        k = structure.n_atoms
        self.n_atoms = k
        self.one = (1 << k) - 1
        self.identity_mask = sum(1 << e for e in structure.identity)
        self.conv_atom = structure.conv
        # comp[a][b] = mask of all c with (a, b, c) consistent
        comp = [[0] * k for _ in range(k)]
        for (a, b, c) in structure.consistent:
            comp[a][b] |= 1 << c
        self.comp = comp

    @property
    def size(self) -> int:
        return 1 << self.n_atoms

    # boolean operations -------------------------------------------------
    def zero_elem(self) -> int:
        return 0

    def one_elem(self) -> int:
        return self.one

    def complement(self, x: int) -> int:
        return self.one ^ x

    def join(self, x: int, y: int) -> int:
        return x | y

    def meet(self, x: int, y: int) -> int:
        return x & y

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

    def compose_all(self, masks: list[int]) -> list[list[int]]:
        """Every pairwise composition: ``out[i][j] = masks[i] ; masks[j]``.

        For each left mask x the row ``L[b] = OR of comp[a][b] over a in
        x`` is built once, and then ``x ; y`` is the OR of ``L[b]`` over
        the bits b of y.  On a list of m masks that partition k atoms
        this costs about k*k + k*m steps instead of m*m compose calls.
        A one-atom y = {b} needs no OR at all: ``x ; y`` is ``L[b]``.  The
        products with the other masks are appended to L, so that one
        itemgetter reads out the whole row of products.
        """
        if len(masks) < 2:
            return [[self.compose(x, y) for y in masks] for x in masks]
        comp, k = self.comp, self.n_atoms
        atoms = [list(bits(x)) for x in masks]
        multi = [ys for ys in atoms if len(ys) != 1]
        slot = iter(range(k, k + len(multi)))
        pick = itemgetter(*[ys[0] if len(ys) == 1 else next(slot) for ys in atoms])
        out = []
        for xs in atoms:
            row = comp[xs[0]] if xs else [0] * k
            for a in xs[1:]:
                row = list(map(or_, row, comp[a]))
            if multi:
                get = row.__getitem__
                row = row + [reduce(or_, map(get, ys), 0) for ys in multi]
            out.append(list(pick(row)))
        return out

    def atom_mask(self, a: int) -> int:
        return 1 << a

    def elem_name(self, x: int) -> str:
        if x == 0:
            return "0"
        if x == self.one:
            return "1"
        return "{" + ", ".join(self.structure.names[a] for a in bits(x)) + "}"

    @cached_property
    def consistent_pairs_by_third(self) -> list[list[tuple[int, int]]]:
        """For each atom c, the non-identity pairs (a, b) with (a,b,c) consistent."""
        k = self.n_atoms
        ident = self.structure.identity
        table: list[list[tuple[int, int]]] = [[] for _ in range(k)]
        for c in range(k):
            cb = 1 << c
            for a in range(k):
                if a in ident:
                    continue
                row = self.comp[a]
                for b in range(k):
                    if b in ident:
                        continue
                    if row[b] & cb:
                        table[c].append((a, b))
        return table


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

    Checks the identity law, converse involution, converse of a
    composition, associativity over all atom triples and Peircean
    closure of the consistent set.  Returns one message per failed law
    (with the first witness found); an empty list means all laws hold.
    """
    alg = Algebra(structure)
    k = alg.n_atoms
    names = structure.names
    bad: list[str] = []
    ident = alg.identity_mask

    for a in range(k):
        if alg.compose(ident, 1 << a) != 1 << a:
            bad.append(f"identity law fails: 1';{names[a]} != {names[a]}")
            break
        if alg.compose(1 << a, ident) != 1 << a:
            bad.append(f"identity law fails: {names[a]};1' != {names[a]}")
            break

    for a in range(k):
        if alg.conv_atom[alg.conv_atom[a]] != a:
            bad.append(f"converse involution fails at {names[a]}")
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
                    break
            else:
                continue
            break
        else:
            continue
        break

    for t in structure.consistent:
        for u in structure.transforms(t):
            if u not in structure.consistent:
                bad.append(
                    f"Peircean closure fails: {structure._fmt(t)} consistent, "
                    f"{structure._fmt(u)} not"
                )
                break
        else:
            continue
        break

    return bad


def generate_subalgebra(alg: Algebra, gens) -> set[int]:
    """Least subset containing gens, 0, 1, 1', closed under the operations.

    Worklist closure; boolean combinations are taken before compositions
    on each pass, which shrinks the frontier early.
    """
    have: set[int] = {0, alg.one, alg.identity_mask}
    have.update(gens)
    frontier = set(have)
    while frontier:
        new: set[int] = set()

        def see(m: int):
            if m not in have and m not in new:
                new.add(m)

        for x in frontier:
            see(alg.complement(x))
            see(alg.converse(x))
        for x in frontier:
            for y in have:
                see(x | y)
        for x in frontier:
            for y in have:
                see(alg.compose(x, y))
                see(alg.compose(y, x))
        have.update(new)
        frontier = new
    return have


# ---------------------------------------------------------------------------
# proper algebras and representations


@dataclass(frozen=True)
class ProperAlgebra:
    """An algebra of binary relations below an equivalence relation E."""

    base: frozenset
    e: frozenset  # ordered pairs; must be an equivalence relation

    def __post_init__(self):
        field = {x for x, _ in self.e} | {y for _, y in self.e}
        if not field <= self.base:
            raise ValueError("relation mentions points outside the base")
        for x in field:
            if (x, x) not in self.e:
                raise ValueError(f"not reflexive at {x!r}")
        for x, y in self.e:
            if (y, x) not in self.e:
                raise ValueError(f"not symmetric at ({x!r}, {y!r})")
        for x, y in self.e:
            for y2, z in self.e:
                if y2 == y and (x, z) not in self.e:
                    raise ValueError(f"not transitive via {y!r}")

    @property
    def identity_pairs(self) -> frozenset:
        return frozenset((x, x) for x in self.base if (x, x) in self.e)


@dataclass(frozen=True)
class Representation:
    """A proposed embedding of an atom structure's algebra into P(E),
    given by the images of the atoms."""

    target: ProperAlgebra
    atom_images: dict  # atom id -> frozenset of ordered pairs


def check_representation(structure: AtomStructure, rep: Representation) -> list[str]:
    """All violation reports (empty list = a genuine representation).

    Checks, with one witness per failed law: images disjoint and
    nonempty with union E, identity atoms mapping exactly onto the
    diagonal of E, converse as pair reversal, and composition both
    sound (every two-step path composes to a consistent atom) and
    saturated (every consistent triple is witnessed along every pair).
    """
    k = structure.n_atoms
    if not set(rep.atom_images) <= set(range(k)):
        raise ValueError("atom image map mentions unknown atoms")
    images = {a: frozenset(rep.atom_images.get(a, ())) for a in range(k)}
    problems = []

    for a, img in images.items():
        if not img:
            problems.append(f"atom image empty: {structure.names[a]}")
            break
    owner: dict = {}
    for a, img in images.items():
        for pair in img:
            if pair in owner:
                problems.append(
                    f"images overlap at {pair!r}: "
                    f"{structure.names[owner[pair]]} and {structure.names[a]}"
                )
                break
            owner[pair] = a
        else:
            continue
        break
    if set(owner) != set(rep.target.e):
        problems.append("union of atom images differs from E")

    diag = {p for a in structure.identity for p in images[a]}
    if diag != set(rep.target.identity_pairs):
        problems.append("identity atoms do not cover exactly the diagonal")

    for a, img in images.items():
        for x, y in img:
            if (y, x) not in images[structure.conv[a]]:
                problems.append(
                    f"converse breach: ({x!r}, {y!r}) in {structure.names[a]}"
                )
                break
        else:
            continue
        break

    for (x, z), a in owner.items():
        stop = False
        for (z2, y), b in owner.items():
            if z2 != z:
                continue
            c = owner.get((x, y))
            if c is None or (a, b, c) not in structure.consistent:
                problems.append(
                    "composition unsound: "
                    f"{structure.names[a]};{structure.names[b]} over "
                    f"({x!r}, {z!r}, {y!r})"
                )
                stop = True
                break
        if stop:
            break

    by_atom: dict = {}
    for pair, a in owner.items():
        by_atom.setdefault(a, []).append(pair)
    for (a, b, c) in sorted(structure.consistent):
        bad = None
        for x, y in by_atom.get(c, ()):
            if not any(
                (x, z) in images[a] and (z, y) in images[b]
                for z in rep.target.base
            ):
                bad = (x, y)
                break
        if bad is not None:
            problems.append(
                "composition unsaturated: no witness for "
                f"({structure.names[a]}, {structure.names[b]}, "
                f"{structure.names[c]}) at {bad!r}"
            )
            break

    return problems
