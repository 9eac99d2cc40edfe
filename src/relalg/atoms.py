"""Finite relation-algebra atom structures.

An atom structure records the atoms of a finite atomic relation algebra,
the subset of identity atoms, the converse involution and the set of
consistent triples (a, b, c), meaning a;b >= c.  The complement of the
consistent set is the forbidden set; both are closed under the six
Peircean transforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Sequence

MAX_ATOMS = 64

Triple = tuple[int, int, int]


class UnknownAtomError(KeyError):
    """An atom id that does not belong to the structure."""


def peircean_transforms(t: Triple, conv: Sequence[int]) -> list[Triple]:
    """The six Peircean transforms of a triple, in a fixed order.

    The returned list is (a,b,c), (a~,c,b), (c,b~,a), (b,c~,a~),
    (c~,a,b~), (b~,a~,c~).  Applying the map again to any of the six
    yields the same six-element set.
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


def close_under_transforms(triples: Iterable[Triple], conv: Sequence[int]) -> set[Triple]:
    """Close a set of triples under the Peircean transforms.

    When conv is an involution, so are the transforms
    g1: (a,b,c) -> (a~,c,b) and g2: (a,b,c) -> (b~,a~,c~), and they
    generate the other four: g1 then g2, g2 then g1, and g1, g2, g1 in
    turn give the fifth, fourth and third entries of
    :func:`peircean_transforms`.  So the six transforms form a group,
    the six transforms of t are t's orbit, and the closure is the union
    of the inputs' orbits.  Each orbit is built once, from the first of
    its members met; each later member costs one lookup.  For any other
    conv the set returned need not be closed, and
    :meth:`AtomStructure.validate` rejects the structure.
    """
    out: set[Triple] = set()
    for t in triples:
        if t not in out:
            out.update(peircean_transforms(t, conv))
    return out


@dataclass(frozen=True)
class AtomStructure:
    """Immutable atom structure over atoms 0..k-1 with display names."""

    names: tuple[str, ...]
    identity: frozenset[int]
    conv: tuple[int, ...]
    consistent: frozenset[Triple]
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
        return t in self.consistent

    def transforms(self, t: Triple) -> list[Triple]:
        self._check(*t)
        return peircean_transforms(t, self.conv)

    def validate(self) -> list[str]:
        """Return every violated structural invariant, with a witness.

        An empty list means the structure is well formed.  Peircean
        closure is first decided from the two generators g1 and g2 of
        :func:`close_under_transforms`: when conv is an involution, a set
        that both map into itself is closed under all six transforms,
        since the other four are products of g1 and g2.  Only when that
        check fails, or conv is not an involution, does the per-triple
        loop run; it alone writes the closure messages, so the list is
        the one it gives.
        """
        k = len(self.names)
        bad: list[str] = []
        if len(self.conv) != k:
            return [f"converse table has {len(self.conv)} entries for {k} atoms"]
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
        conv, consistent = self.conv, self.consistent
        closed = (
            involutive
            and {(conv[a], c, b) for a, b, c in consistent} <= consistent
            and {(conv[b], conv[a], conv[c]) for a, b, c in consistent} <= consistent
        )
        if not closed:
            for t in self.consistent:
                for u in peircean_transforms(t, self.conv):
                    if u not in self.consistent:
                        bad.append(
                            f"Peircean closure: {self._fmt(t)} consistent "
                            f"but transform {self._fmt(u)} is not"
                        )
                        break
        for e in self.identity:
            for a in range(k):
                for b in range(k):
                    if ((e, a, b) in self.consistent) != (a == b):
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
    forbidden list is closed under Peircean transforms and complemented
    to give the consistent set.  No validation is performed here; call
    :meth:`AtomStructure.validate` on the result.
    """
    names = tuple(names)
    index = {nm: i for i, nm in enumerate(names)}
    conv = list(range(len(names)))
    for a, b in converse_pairs:
        conv[index[a]] = index[b]
        conv[index[b]] = index[a]
    forb = close_under_transforms(
        [(index[a], index[b], index[c]) for a, b, c in forbidden], conv
    )
    k = len(names)
    consistent = frozenset(
        t for t in product(range(k), repeat=3) if t not in forb
    )
    return AtomStructure(
        names=names,
        identity=frozenset(index[nm] for nm in identity),
        conv=tuple(conv),
        consistent=consistent,
    )
