"""The rainbow atom structures B(s, t).

Atoms are 1', b (black), w (white), y (yellow), greens g0..g(s-1) and
reds rj_j' for j, j' < t.  All atoms are self-converse except the reds,
where the converse of rj_j' is rj'_j.  The paper defines the forbidden
triples as the Peircean closure of five generator families:

(I)   (1', a, b) for a != b;
(II)  (g, g', g'') and (g, g', w) for all greens;
(III) (y, y, y) and (y, y, b);
(IV)  (r_j1j2, r_j2'j3', r_j1*j3*) unless j1 = j1*, j2 = j2', j3' = j3*;
(V)   (g_i, g_i, r) for every red r, and (g_i, g_i', r_jj) for all i, i'.

Everything else is consistent.  The closure of a generator is its orbit
under the six transforms of :func:`~relalg.atoms.peircean_transforms`,
so each family's closure can be written as a rule on colours and red
indices, which is how :func:`build_rainbow` writes the table:

1. From (I): row 1' is {b} in column b, column 1' is {a} in row a, and
   1' is in a;b iff b = a~.  The orbit of (1', a, b) is (1', a, b),
   (1', b, a), (b, a~, 1'), (a, b~, 1'), (b~, 1', a~), (a~, 1', b~); with
   a != b these are exactly the triples that break the three rules, and
   no other family mentions 1'.
2. From (II): two greens and a third green or w are never consistent,
   in any order.  Greens and w are self-converse, so the transforms of
   such a triple are its six permutations.
3. From (V): two greens and a red are inconsistent iff the greens are
   equal or the red is diagonal, in any order.  The transforms permute
   the three places and may replace the red r_jj' by its converse r_j'j,
   which is diagonal iff r_jj' is; equal greens stay equal.
4. From (III): two y's and a third y or b are never consistent, in any
   order, as y and b are self-converse.
5. From (IV): r_j1j2 ; r_j2'j3 holds no red except r_j1j3, and that one
   only when j2 = j2'.  Family IV already lists every red triple outside
   the set {(r_xy, r_yz, r_xz)}, and that set is closed: g1 sends
   (r_xy, r_yz, r_xz) to (r_yx, r_xz, r_yz) and g2 to (r_zy, r_yx, r_zx),
   both of the same shape, so its complement among red triples is too.

The forbidden triples are the union of the five rules, so a cell's
forbidden mask is the union of the rules that speak about its two atoms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .algebra import Algebra
from .atoms import MAX_ATOMS, AtomStructure

# the fixed atom layout: 1', b, w, y, then the greens, then the reds
ID, BLACK, WHITE, YELLOW = 0, 1, 2, 3
GREEN0 = 4


def atom_names(s: int, t: int) -> list[str]:
    names = ["1'", "b", "w", "y"]
    names += [f"g{i}" for i in range(s)]
    names += [f"r{j}_{j2}" for j in range(t) for j2 in range(t)]
    return names


def build_rainbow(s: int, t: int) -> AtomStructure:
    """Construct the rainbow atom structure with s greens and t*t reds.

    The table is written cell by cell from the closed-form rules of the
    module docstring, each a mask on the two atoms' colours and red
    indices: a cell's forbidden mask comes from rules 2-5, and rule 1
    fixes the 1' row, the 1' column and the 1' bit of every other cell.
    The result equals ``make_structure`` on the five generator families.
    Raises ValueError if s or t is below 1 or the structure would have
    more than MAX_ATOMS atoms; both are checked before any table work.
    """
    if s < 1 or t < 1:
        raise ValueError("rainbow parameters must be >= 1")
    red0 = GREEN0 + s
    k = red0 + t * t
    if k > MAX_ATOMS:
        raise ValueError(f"too many atoms ({k} > {MAX_ATOMS})")
    conv = tuple(range(red0)) + tuple(
        red0 + j2 * t + j for j in range(t) for j2 in range(t))
    full = (1 << k) - 1
    greens = ((1 << s) - 1) << GREEN0
    reds = full ^ ((1 << red0) - 1)
    diag = sum(1 << red0 + j * (t + 1) for j in range(t))
    forb = [[0] * k for _ in range(k)]
    # rule 4
    forb[YELLOW][YELLOW] = 1 << YELLOW | 1 << BLACK
    forb[YELLOW][BLACK] = forb[BLACK][YELLOW] = 1 << YELLOW
    for g in range(GREEN0, red0):
        # rules 2 and 3 on green;green, rule 2 on green;w and w;green
        for g2 in range(GREEN0, red0):
            forb[g][g2] = greens | 1 << WHITE | (reds if g == g2 else diag)
        forb[g][WHITE] = forb[WHITE][g] = greens
        # rule 3 on green;red and red;green
        for r in range(red0, k):
            forb[g][r] = forb[r][g] = greens if diag >> r & 1 else 1 << g
    # rule 5: row r_j1j2 of the red block, one red allowed per block of t
    for j1 in range(t):
        for j2 in range(t):
            row = forb[red0 + j1 * t + j2]
            for j3 in range(t):
                for j2p in range(t):
                    row[red0 + j2p * t + j3] = reds
                row[red0 + j2 * t + j3] ^= 1 << red0 + j1 * t + j3
    # rule 1, and the complement of every other cell
    plain = full ^ 1 << ID
    comp = [tuple(1 << b for b in range(k))]
    for a in range(1, k):
        row = [plain ^ m for m in forb[a]]
        row[ID] = 1 << a
        row[conv[a]] |= 1 << ID
        comp.append(tuple(row))
    return AtomStructure(names=tuple(atom_names(s, t)), identity=frozenset({ID}),
                         conv=conv, comp=tuple(comp))


def predicted_representable(s: int, t: int) -> bool:
    """Representability prediction for B(s, t); requires s >= 2."""
    if s < 2:
        raise ValueError("outside theorem hypothesis: need at least 2 greens")
    return s <= t


@dataclass(frozen=True)
class Rainbow:
    """A rainbow structure together with its colour layout: the one
    place, with the constants above, that turns atom ids into colours."""

    s: int  # number of green atoms
    t: int  # red index set size; t*t red atoms
    structure: AtomStructure

    @classmethod
    def make(cls, s: int, t: int) -> "Rainbow":
        return cls(s=s, t=t, structure=build_rainbow(s, t))

    @classmethod
    def of(cls, structure: AtomStructure) -> "Rainbow":
        """The layout of a structure, reading s and t from its atom names.

        Raises ValueError unless the names are exactly ``atom_names(s, t)``.
        """
        names = structure.names
        s = sum(1 for nm in names if nm.startswith("g"))
        reds = sum(1 for nm in names if nm.startswith("r"))
        t = int(round(reds ** 0.5))
        if s < 1 or t < 1 or list(names) != atom_names(s, t):
            raise ValueError("atom names do not match a rainbow structure")
        return cls(s=s, t=t, structure=structure)

    @cached_property
    def algebra(self) -> Algebra:
        """The complex algebra, built on first use and then shared, with
        the tables it builds lazily, by every search on this structure."""
        return Algebra(self.structure)

    def green(self, i: int) -> int:
        if not 0 <= i < self.s:
            raise ValueError(f"green index {i} out of range")
        return GREEN0 + i

    def red(self, j: int, j2: int) -> int:
        if not (0 <= j < self.t and 0 <= j2 < self.t):
            raise ValueError(f"red index ({j}, {j2}) out of range")
        return GREEN0 + self.s + j * self.t + j2

    def is_green(self, a: int) -> bool:
        return GREEN0 <= a < GREEN0 + self.s

    def green_index(self, a: int) -> int:
        return a - GREEN0

    def is_red(self, a: int) -> bool:
        return a >= GREEN0 + self.s

    def red_indices(self, a: int) -> tuple[int, int]:
        j = (a - GREEN0 - self.s) // self.t
        return j, (a - GREEN0 - self.s) % self.t

    @property
    def greens(self) -> range:
        return range(GREEN0, GREEN0 + self.s)

    @property
    def green_mask(self) -> int:
        return ((1 << self.s) - 1) << GREEN0

    def green_indices(self, mask: int) -> int:
        """The green atoms of ``mask`` as a mask of green indices (bit i
        for g_i); the other atoms are ignored."""
        return (mask & self.green_mask) >> GREEN0

    def green_atoms(self, indices: int) -> int:
        """The atom mask of the greens g_i for the bits i of ``indices``.

        Raises ValueError if an index is not below s.
        """
        if indices >> self.s:
            raise ValueError("green index out of range")
        return indices << GREEN0

    @cached_property
    def move_colour(self) -> tuple[int, ...]:
        """Per atom, the colour the network strategy reads a demand's
        atom by: the atom itself when it is yellow or green, else -1."""
        g_end = GREEN0 + self.s
        return tuple(a if YELLOW <= a < g_end else -1
                     for a in range(len(self.structure.names)))

    def rename_nongreens(self, dst: "Rainbow", mask: int) -> int:
        """The non-green atoms of ``mask`` as the same-named atoms of ``dst``.

        ``dst`` must have the same red index set.  1', b, w and y keep
        their ids, the red block moves by the difference in the number
        of greens, and greens are dropped.  Raises ValueError if
        ``mask`` has atoms beyond this structure.
        """
        if mask >> (GREEN0 + self.s + self.t * self.t):
            raise ValueError("mask has atoms outside the structure")
        low = mask & ((1 << GREEN0) - 1)
        return low | (mask >> (GREEN0 + self.s)) << (GREEN0 + dst.s)
