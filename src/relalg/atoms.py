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

import sys
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import or_
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


def table_triples(comp: Sequence[Sequence[int]]) -> frozenset[Triple]:
    """The triples (a, b, c) of a mask table: one for each bit c of
    ``comp[a][b]``."""
    return frozenset((a, b, c) for a, row in enumerate(comp)
                     for b, m in enumerate(row) for c in bits(m))


# array type codes by item width in bits, for packing masks side by side
_CODES = {array(code).itemsize * 8: code for code in "QIHB"}


def _slot_code(k: int) -> str:
    """The type code of the narrowest array item that holds k bits."""
    return next(_CODES[w] for w in sorted(_CODES) if w >= k)


def _pack(values: Iterable[int], code: str) -> int:
    """The values side by side in one int: value i in slot i, the bits
    [i*w, (i+1)*w) for the item width w of ``code``."""
    slots = array(code, values)
    if sys.byteorder == "big":
        slots.byteswap()
    return int.from_bytes(slots.tobytes(), "little")


def _unpack(packed: int, code: str, n: int) -> list[int]:
    """The first n slots of a packed int; the inverse of :func:`_pack`."""
    slots = array(code)
    slots.frombytes(packed.to_bytes(n * slots.itemsize, "little"))
    if sys.byteorder == "big":
        slots.byteswap()
    return slots.tolist()


def _swap_rounds(w: int) -> list[tuple[int, bytes]]:
    """The rounds of a w x w bit-matrix transpose: per bit j = w/2, ...,
    2, 1 of the row and column index, the shift from bit c + j of slot
    r - j to bit c of slot r, and the selected bits of one matrix in
    packed form: bit c of slot r for each r with bit j set and c with
    bit j clear."""
    rounds, j, low = [], w // 2, (1 << w // 2) - 1
    while j:
        sel = _pack([low if r & j else 0 for r in range(w)], _CODES[w])
        rounds.append((j * (w - 1), sel.to_bytes(w * w // 8, "little")))
        j //= 2
        low ^= low << j
    return rounds


_SWAP_ROUNDS = {w: _swap_rounds(w) for w in _CODES}


def transposes(table: Sequence[Sequence[int]], k: int) -> list[tuple[int, ...]]:
    """The transpose of each k x k bit matrix in ``table``: bit b of
    ``out[a][c]`` is bit c of ``table[a][b]``.

    All matrices go into one int, row r of each in a w-bit slot, for the
    narrowest item width w >= k, each matrix padded with zero rows to w
    rows.  Transposing swaps row index and column index; it does so one
    bit j at a time, for j = w/2, ..., 2, 1, and these swaps commute.
    The swap at j trades bit c of row r for bit c + j of row r - j,
    for every row r with bit j set and column c with bit j clear, in
    six big-int operations over all matrices at once."""
    code = _slot_code(k)
    w = array(code).itemsize * 8
    pad = [0] * (w - k)
    x = _pack(chain.from_iterable(chain(rows, pad) for rows in table), code)
    for shift, sel in _SWAP_ROUNDS[w]:
        t = (x << shift ^ x) & int.from_bytes(sel * len(table), "little")
        x ^= t ^ t >> shift
    flat = _unpack(x, code, len(table) * w)
    return [tuple(flat[i:i + k]) for i in range(0, len(flat), w)]


def g1_image(rows: Sequence[Sequence[int]], conv: Sequence[int],
             k: int) -> list[tuple[int, ...]]:
    """The image of a k x k mask table under g1: (a, b, c) -> (a~, c, b).
    Row a of the table lands, transposed, on row a~, so row x of the
    image is the transpose of row x~ when conv is an involution."""
    flipped = transposes(rows, k)
    return [flipped[cx] for cx in conv]


def converse_images(masks: Iterable[int], conv: Sequence[int]) -> list[int]:
    """The converse image of each mask, for an involutive conv: bit c~
    is set iff bit c is.  The masks are packed side by side into one
    int, and each converse pair (p, q) swaps bits p and q in every slot
    at once."""
    pairs = [(p, q) for p, q in enumerate(conv) if p < q]
    if not pairs:
        return list(masks)
    code, masks = _slot_code(len(conv)), list(masks)
    packed, ones = _pack(masks, code), _pack([1] * len(masks), code)
    for p, q in pairs:
        d = (packed >> (q - p) ^ packed) & ones << p
        packed ^= d | d << (q - p)
    return _unpack(packed, code, len(masks))


def g2_image(rows: Sequence[Sequence[int]],
             conv: Sequence[int]) -> list[tuple[int, ...]]:
    """The image of a mask table under g2: (a, b, c) -> (b~, a~, c~).
    Cell (x, y) of the image is the converse image of cell (y~, x~) when
    conv is an involution."""
    k = len(conv)
    flat = converse_images(chain.from_iterable(rows), conv)
    cols = list(zip(*[flat[i:i + k] for i in range(0, k * k, k)]))
    return [tuple(map(cols[cx].__getitem__, conv)) for cx in conv]


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
        return table_triples(self.comp)

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
        involutive conv: it must equal its :func:`g1_image` and its
        :func:`g2_image`.  Each is an equality, not only an inclusion,
        because the generator is an involution and the image has as many
        triples as the table."""
        k, conv, comp = len(self.names), self.conv, self.comp
        return (tuple(g1_image(comp, conv, k)) == comp
                and tuple(g2_image(comp, conv)) == comp)

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


def structure_from_generators(
    names: Sequence[str],
    identity: Iterable[int],
    conv: Sequence[int],
    forbidden: Iterable[Triple],
) -> AtomStructure:
    """Build a structure from atom ids: identity atoms, the converse of
    each atom and a list of forbidden generator triples.

    Each generator's bit is set in a table of forbidden masks, and the
    table is closed with three mask passes: it is joined with its
    :func:`g2_image`, then with its :func:`g1_image`, then with its
    :func:`g2_image` again.  When conv is an involution, g1 and g2 are
    involutions whose product has order 3, so they generate the six
    Peircean transforms as the words of length at most 3: 1, g2, g1,
    g1 g2, g2 g1 and g2 g1 g2 (= g1 g2 g1).  The three passes apply
    each of these words to every generator, so the table becomes the
    union of the generators' orbits.  For any other conv the result need
    not be closed, and :meth:`AtomStructure.validate` rejects it.  Each
    cell's complement is its consistent mask.  No validation is
    performed here; call :meth:`AtomStructure.validate` on the result.
    """
    k = len(names)
    forb = [[0] * k for _ in range(k)]
    for a, b, c in forbidden:
        forb[a][b] |= 1 << c
    forb = list(map(_join, forb, g2_image(forb, conv)))
    forb = list(map(_join, forb, g1_image(forb, conv, k)))
    full = (1 << k) - 1
    return AtomStructure(
        names=tuple(names),
        identity=frozenset(identity),
        conv=tuple(conv),
        comp=tuple(tuple(map(full.__xor__, row))
                   for row in map(_join, forb, g2_image(forb, conv))),
    )


def _join(row: Sequence[int], other: Sequence[int]) -> tuple[int, ...]:
    return tuple(map(or_, row, other))


def make_structure(
    names: Sequence[str],
    identity: Iterable[str],
    converse_pairs: Iterable[tuple[str, str]],
    forbidden: Iterable[tuple[str, str, str]],
) -> AtomStructure:
    """Build a structure from names and a forbidden generator list:
    :func:`structure_from_generators` on the atom ids of the names.

    The generators are closed by three mask passes, g2, g1, g2, where
    g1: (a, b, c) -> (a~, c, b) and g2: (a, b, c) -> (b~, a~, c~).  For
    an involutive conv the six Peircean transforms are the words of
    length at most 3 in g1 and g2, so the passes reach the union of the
    generators' orbits.  Atoms not mentioned in ``converse_pairs`` are
    self-converse; a later pair overrides an earlier one, so
    contradicting pairs give a conv that is not an involution, which
    :meth:`AtomStructure.validate` rejects.  No validation is performed
    here.
    """
    names = tuple(names)
    index = {nm: i for i, nm in enumerate(names)}
    conv = list(range(len(names)))
    for a, b in converse_pairs:
        conv[index[a]] = index[b]
        conv[index[b]] = index[a]
    return structure_from_generators(
        names, [index[nm] for nm in identity], conv,
        [(index[x], index[y], index[z]) for x, y, z in forbidden])
