"""Finite relation-algebra atom structures.

An atom structure records the atoms of a finite atomic relation algebra,
the subset of identity atoms, the converse involution and which triples
(a, b, c) are consistent, meaning a;b >= c.  The triples not consistent
are forbidden; both sets are closed under the six Peircean transforms.

The consistency relation is stored once, as the k x k table ``comp`` of
int bit masks: bit c of ``comp[a][b]`` is set iff (a, b, c) is
consistent.  It is the table every engine composes with.  Building,
validating and writing a structure all work on such mask tables; the
set of consistent triples is only a view derived from the table on
demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

MAX_ATOMS = 64

Triple = tuple[int, int, int]


class UnknownAtomError(KeyError):
    """An atom id that does not belong to the structure."""


def bits(mask: int):
    """Iterate over set bit positions of a mask."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def transpose(rows: Sequence[int], k: int) -> tuple[int, ...]:
    """The transposed k x k bit matrix: bit b of ``out[c]`` is bit c of
    ``rows[b]``.  Each row is written as a bit string with bit 0 first,
    and the columns are read off with one zip."""
    strings = [format(m, f"0{k}b")[::-1] for m in rows]
    return tuple(int("".join(col)[::-1], 2) for col in zip(*strings))


def peircean_transforms(t: Triple, conv: Sequence[int]) -> list[Triple]:
    """The six Peircean transforms of a triple, in a fixed order.

    The returned list is (a,b,c), (a~,c,b), (c,b~,a), (b,c~,a~),
    (c~,a,b~), (b~,a~,c~).  Applying the map again to any of the six
    yields the same six-element set.

    When conv is an involution, so are the transforms
    g1: (a,b,c) -> (a~,c,b) and g2: (a,b,c) -> (b~,a~,c~), and they
    generate the other four: g1 then g2, g2 then g1, and g1, g2, g1 in
    turn give the fifth, fourth and third entries.  So the six
    transforms form a group, the six transforms of t are t's orbit, and
    a set that g1 and g2 map into itself is closed under all six.
    """
    a, b, c = t
    return [
        (a, b, c),
        (conv[a], c, b),
        (c, conv[b], a),
        (b, conv[c], conv[a]),
        (conv[c], a, conv[b]),
        (conv[b], conv[a], conv[c]),
    ]


@dataclass(frozen=True)
class AtomStructure:
    """Immutable atom structure over atoms 0..k-1 with display names.

    ``comp[a][b]`` is the mask of every atom c with (a, b, c) consistent.
    """

    names: tuple[str, ...]
    identity: frozenset[int]
    conv: tuple[int, ...]
    comp: tuple[tuple[int, ...], ...]
    _index: dict = field(init=False, default_factory=dict, repr=False, compare=False,
                         hash=False)

    def __post_init__(self):
        if len(self.names) > MAX_ATOMS:
            raise ValueError(f"too many atoms ({len(self.names)} > {MAX_ATOMS})")
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate atom names")
        self._index.update({name: i for i, name in enumerate(self.names)})

    @property
    def n_atoms(self) -> int:
        return len(self.names)

    @cached_property
    def consistent(self) -> frozenset[Triple]:
        """The consistent triples, read off the table on first use."""
        return frozenset(
            (a, b, c)
            for a, row in enumerate(self.comp)
            for b, m in enumerate(row)
            for c in bits(m)
        )

    def atom(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownAtomError(name) from None

    def _check(self, *atoms: int) -> None:
        for a in atoms:
            if not 0 <= a < len(self.names):
                raise UnknownAtomError(a)

    def converse_of(self, a: int) -> int:
        self._check(a)
        return self.conv[a]

    def is_identity_atom(self, a: int) -> bool:
        self._check(a)
        return a in self.identity

    def is_consistent(self, t: Triple) -> bool:
        self._check(*t)
        a, b, c = t
        return self.comp[a][b] >> c & 1 == 1

    def transforms(self, t: Triple) -> list[Triple]:
        self._check(*t)
        return peircean_transforms(t, self.conv)

    def _closed(self) -> bool:
        """Whether the table is closed under g1 and g2, for an
        involutive conv: g1 maps (a, b, c) to (a~, c, b), so it holds iff
        ``comp[a~]`` is the transpose of ``comp[a]`` for every a, and g2
        maps it to (b~, a~, c~), so it holds iff ``comp[b~][a~]`` is the
        converse image of ``comp[a][b]`` for every a and b.  Each is an
        equality, not only an inclusion, because the generator is an
        involution: the inclusion at a~ (or at (b~, a~)) is the reverse
        one.  Tables repeat few masks, so each mask's converse image is
        computed once."""
        k, conv, comp = len(self.names), self.conv, self.comp
        if any(comp[conv[a]] != transpose(comp[a], k) for a in range(k)):
            return False
        image: dict[int, int] = {}
        for a, row in enumerate(comp):
            for b, m in enumerate(row):
                if m not in image:
                    image[m] = sum(1 << conv[c] for c in bits(m))
                if image[m] != comp[conv[b]][conv[a]]:
                    return False
        return True

    def validate(self) -> list[str]:
        """Return every violated structural invariant, with a witness.

        An empty list means the structure is well formed.  Peircean
        closure is first decided on the table from the generators g1 and
        g2 (:meth:`_closed`), and identity coherence from the rows of
        the identity atoms: ``comp[e][a]`` must be exactly a.  Only
        where such a check fails, or conv is not an involution, do the
        per-triple loops run; they alone write the closure and coherence
        messages, so the list is the one they give.
        """
        k = len(self.names)
        bad: list[str] = []
        if len(self.conv) != k:
            return [f"converse table has {len(self.conv)} entries for {k} atoms"]
        if len(self.comp) != k or any(
            len(row) != k or any(m >> k for m in row) for row in self.comp
        ):
            return [f"composition table is not {k} x {k} masks of {k} bits"]
        for a in range(k):
            if not 0 <= self.conv[a] < k:
                bad.append(f"involution: converse of {self.names[a]} out of range")
            elif self.conv[self.conv[a]] != a:
                bad.append(
                    f"involution: conv(conv({self.names[a]})) = "
                    f"{self.names[self.conv[self.conv[a]]]}"
                )
        involutive = not bad
        for e in self.identity:
            if self.conv[e] not in self.identity:
                bad.append(f"identity not closed under converse at {self.names[e]}")
        if not (involutive and self._closed()):
            consistent = self.consistent
            for t in consistent:
                for u in peircean_transforms(t, self.conv):
                    if u not in consistent:
                        bad.append(
                            f"Peircean closure: {self._fmt(t)} consistent "
                            f"but transform {self._fmt(u)} is not"
                        )
                        break
        for e in self.identity:
            row = self.comp[e]
            for a in range(k):
                if row[a] == 1 << a:
                    continue
                for b in range(k):
                    if (row[a] >> b & 1 == 1) != (a == b):
                        bad.append(
                            f"identity coherence: {self._fmt((e, a, b))} "
                            f"{'consistent' if a != b else 'inconsistent'}"
                        )
        return bad

    def _fmt(self, t: Triple) -> str:
        return "(" + ", ".join(self.names[a] for a in t) + ")"


def make_structure(
    names: Sequence[str],
    identity: Iterable[str],
    converse_pairs: Iterable[tuple[str, str]],
    forbidden: Iterable[tuple[str, str, str]],
) -> AtomStructure:
    """Build a structure from names and a forbidden generator list.

    Atoms not mentioned in ``converse_pairs`` are self-converse.  The
    forbidden list is closed under Peircean transforms into a table of
    forbidden masks: a generator's six transforms are written when the
    first member of its orbit is met, and each later member costs one
    bit test.  For an involutive conv this is the union of the
    generators' orbits; for any other conv the result need not be
    closed, and :meth:`AtomStructure.validate` rejects the structure.
    Each cell's complement is its consistent mask.  No validation is
    performed here; call :meth:`AtomStructure.validate` on the result.
    """
    names = tuple(names)
    index = {nm: i for i, nm in enumerate(names)}
    k = len(names)
    conv = list(range(k))
    for a, b in converse_pairs:
        conv[index[a]] = index[b]
        conv[index[b]] = index[a]
    forb = [[0] * k for _ in range(k)]
    for x, y, z in forbidden:
        a, b, c = index[x], index[y], index[z]
        if not forb[a][b] >> c & 1:
            for u, v, w in peircean_transforms((a, b, c), conv):
                forb[u][v] |= 1 << w
    full = (1 << k) - 1
    return AtomStructure(
        names=names,
        identity=frozenset(index[nm] for nm in identity),
        conv=tuple(conv),
        comp=tuple(tuple(full ^ m for m in row) for row in forb),
    )
