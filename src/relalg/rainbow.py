"""The rainbow atom structures B(s, t).

Atoms are 1', b (black), w (white), y (yellow), greens g0..g(s-1) and
reds rj_j' for j, j' < t.  All atoms are self-converse except the reds,
where the converse of rj_j' is rj'_j.  The forbidden triples are the
Peircean closure of five generator families; everything else is
consistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .atoms import AtomStructure, make_structure

ID, BLACK, WHITE, YELLOW = 0, 1, 2, 3


@dataclass(frozen=True)
class RainbowParams:
    s: int  # number of green atoms
    t: int  # red index set size; t*t red atoms

    def __post_init__(self):
        if self.s < 1 or self.t < 1:
            raise ValueError("rainbow parameters must be >= 1")


def atom_names(s: int, t: int) -> list[str]:
    names = ["1'", "b", "w", "y"]
    names += [f"g{i}" for i in range(s)]
    names += [f"r{j}_{j2}" for j in range(t) for j2 in range(t)]
    return names


def forbidden_generators(s: int, t: int) -> list[tuple[str, str, str]]:
    """The five generator families of forbidden triples."""
    g = [f"g{i}" for i in range(s)]
    r = {(j, j2): f"r{j}_{j2}" for j in range(t) for j2 in range(t)}
    names = atom_names(s, t)
    forb: list[tuple[str, str, str]] = []
    # (I) identity mismatches
    for a in names:
        for b in names:
            if a != b:
                forb.append(("1'", a, b))
    # (II) green;green is never green or white
    for gi, gi2 in product(g, repeat=2):
        for gi3 in g:
            forb.append((gi, gi2, gi3))
        forb.append((gi, gi2, "w"))
    # (III) yellow;yellow is never yellow or black
    forb.append(("y", "y", "y"))
    forb.append(("y", "y", "b"))
    # (IV) red composition is rigid: (r_j1_j2 ; r_j2_j3) >= r_j1_j3 only
    for j1, j2, j2p, j3p, j1s, j3s in product(range(t), repeat=6):
        if not (j1 == j1s and j2 == j2p and j3p == j3s):
            forb.append((r[j1, j2], r[j2p, j3p], r[j1s, j3s]))
    # (V) greens meeting a red need distinct green and red indices
    for i in range(s):
        for j, j2 in product(range(t), repeat=2):
            forb.append((g[i], g[i], r[j, j2]))
    for i, i2 in product(range(s), repeat=2):
        for j in range(t):
            forb.append((g[i], g[i2], r[j, j]))
    return forb


def build_rainbow(s: int, t: int) -> AtomStructure:
    """Construct the rainbow atom structure with s greens and t*t reds."""
    RainbowParams(s, t)  # parameter check
    return make_structure(
        names=atom_names(s, t),
        identity=["1'"],
        converse_pairs=[
            (f"r{j}_{j2}", f"r{j2}_{j}") for j in range(t) for j2 in range(j + 1, t)
        ],
        forbidden=forbidden_generators(s, t),
    )


def predicted_representable(s: int, t: int) -> bool:
    """Representability prediction for B(s, t); requires s >= 2."""
    if s < 2:
        raise ValueError("outside theorem hypothesis: need at least 2 greens")
    return s <= t


@dataclass(frozen=True)
class Rainbow:
    """A rainbow structure together with its colour layout."""

    s: int
    t: int
    structure: AtomStructure

    @classmethod
    def make(cls, s: int, t: int) -> "Rainbow":
        return cls(s=s, t=t, structure=build_rainbow(s, t))

    # atom ids by colour; the fixed ordering is 1', b, w, y, greens, reds
    def green(self, i: int) -> int:
        if not 0 <= i < self.s:
            raise ValueError(f"green index {i} out of range")
        return 4 + i

    def red(self, j: int, j2: int) -> int:
        if not (0 <= j < self.t and 0 <= j2 < self.t):
            raise ValueError(f"red index ({j}, {j2}) out of range")
        return 4 + self.s + j * self.t + j2

    def is_green(self, a: int) -> bool:
        return 4 <= a < 4 + self.s

    def green_index(self, a: int) -> int:
        return a - 4

    def is_red(self, a: int) -> bool:
        return a >= 4 + self.s

    def red_indices(self, a: int) -> tuple[int, int]:
        j = (a - 4 - self.s) // self.t
        return j, (a - 4 - self.s) % self.t

    @property
    def greens(self) -> range:
        return range(4, 4 + self.s)

    @property
    def green_mask(self) -> int:
        return ((1 << self.s) - 1) << 4


def rainbow_params_from_names(names) -> RainbowParams:
    """Recover (s, t) from the atom names of a rainbow structure.

    Raises ValueError if the names are not exactly an output of
    :func:`atom_names`.
    """
    s = sum(1 for nm in names if nm.startswith("g"))
    reds = sum(1 for nm in names if nm.startswith("r"))
    t = int(round(reds ** 0.5))
    if s < 1 or t < 1 or list(names) != atom_names(s, t):
        raise ValueError("atom names do not match a rainbow structure")
    return RainbowParams(s, t)
