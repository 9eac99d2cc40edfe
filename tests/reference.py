"""Test-local reference implementations, kept apart from the package.

* The triple-set pipeline: atom structures as a ``frozenset`` of
  consistent (a, b, c) triples, built, closed and written the plain way.
  The package stores the same relation as a k x k table of masks; the
  cross-check tests compare the two.
* Helpers that turn a triple set into a structure, for tests that edit
  the consistent set triple by triple.
* The paper's definition of the rainbow structures: the five generator
  families of forbidden triples, which ``build_rainbow`` writes in
  closed form.
* Oracles for the logic tests: a term's value and the cardinality
  sentence's truth.
* The network game's move rule read literally: every legal non-trivial
  move, mirrors included, which the package emits from mask tables and
  one of each mirror pair.
* The witness strategy worked out move by move, which the package
  works out once per move class.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import product
from typing import Optional

from relalg.algebra import Algebra
from relalg.atoms import AtomStructure, peircean_transforms
from relalg.logic import Term, _check_bound, _Planes
from relalg.networks import (
    Book,
    ForallMove,
    Network,
    StrategyFailure,
    _new_node_labels,
    _record_new_cliques,
    least_injection,
    red_clique,
)
from relalg.rainbow import BLACK, GREEN0, WHITE, YELLOW, Rainbow, atom_names

# --- triple sets and mask tables ---------------------------------------------


def comp_table(consistent, k: int) -> tuple[tuple[int, ...], ...]:
    """The k x k table of a triple set: bit c of cell (a, b) is set iff
    (a, b, c) is in the set."""
    comp = [[0] * k for _ in range(k)]
    for a, b, c in consistent:
        comp[a][b] |= 1 << c
    return tuple(map(tuple, comp))


def from_triples(names, identity, conv, consistent) -> AtomStructure:
    """A structure whose consistent triples are exactly ``consistent``."""
    return AtomStructure(names=tuple(names), identity=frozenset(identity),
                         conv=tuple(conv), comp=comp_table(consistent, len(names)))


def with_consistent(base: AtomStructure, consistent) -> AtomStructure:
    """``base`` with its consistent triples replaced by ``consistent``."""
    return replace(base, comp=comp_table(consistent, base.n_atoms))


# --- the triple-set pipeline -------------------------------------------------


def close_under_transforms(triples, conv) -> set:
    """The union of the triples' Peircean orbits, each built from the
    first of its members met."""
    out: set = set()
    for t in triples:
        if t not in out:
            out.update(peircean_transforms(t, conv))
    return out


def six_transform_closure(triples, conv) -> set:
    """Apply all six transforms to every triple until nothing new appears."""
    out, pending = set(), list(triples)
    while pending:
        t = pending.pop()
        if t not in out:
            out.add(t)
            pending.extend(peircean_transforms(t, conv))
    return out


def triple_make_structure(names, identity, converse_pairs, forbidden):
    """make_structure on triple sets: (names, identity, conv, consistent)."""
    names = tuple(names)
    index = {nm: i for i, nm in enumerate(names)}
    conv = list(range(len(names)))
    for a, b in converse_pairs:
        conv[index[a]] = index[b]
        conv[index[b]] = index[a]
    forb = close_under_transforms(
        [(index[a], index[b], index[c]) for a, b, c in forbidden], conv)
    consistent = frozenset(
        t for t in product(range(len(names)), repeat=3) if t not in forb)
    return names, frozenset(index[nm] for nm in identity), tuple(conv), consistent


def triple_dumps(names, identity, conv, consistent) -> str:
    """rasfile.dumps on a triple set: the first member of each forbidden
    orbit, in (a, b, c) order."""
    lines = ["[atoms]", " ".join(names), "", "[identity]"]
    lines.extend(names[a] for a in sorted(identity))
    lines.append("")
    lines.append("[converse]")
    for a, b in sorted((a, b) for a, b in enumerate(conv) if a < b):
        lines.append(f"{names[a]} {names[b]}")
    lines.append("")
    lines.append("[forbidden]")
    covered: set = set()
    for t in product(range(len(names)), repeat=3):
        if t not in consistent and t not in covered:
            covered.update(peircean_transforms(t, conv))
            lines.append(" ".join(names[a] for a in t))
    return "\n".join(lines) + "\n"


# --- the rainbow generators --------------------------------------------------


def forbidden_generators(s: int, t: int) -> list[tuple[str, str, str]]:
    """The five generator families of forbidden triples of B(s, t)."""
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


# --- logic oracles -----------------------------------------------------------


def eval_term(t: Term, alg: Algebra, env: Optional[dict] = None) -> int:
    """The value of a term; its variables must all be bound by env."""
    env = dict(env) if env else {}
    fn, free = _Planes(alg).term(t, ())
    _check_bound(free, env)
    return fn(env)


def count_atoms_oracle(alg: Algebra, k: int) -> bool:
    """Independent popcount oracle for the cardinality sentence."""
    return any(bin(x).count("1") >= k for x in range(alg.size))


# --- network game moves ------------------------------------------------------


def all_legal_moves(net: Network, alg: Algebra) -> list[ForallMove]:
    """All legal non-trivial moves, in (x, y, a, b) lexicographic order:
    non-identity a and b with (a, b, l(x,y)) consistent and no node z
    with l(x,z) = a and l(z,y) = b."""
    st = alg.structure
    k = st.n_atoms
    ident = st.identity
    pairs: list[list[tuple[int, int]]] = [[] for _ in range(k)]
    for c in range(k):
        for a in range(k):
            if a in ident:
                continue
            for b in range(k):
                if b not in ident and alg.comp[a][b] >> c & 1:
                    pairs[c].append((a, b))
    n = net.n
    lab = net.lab
    out = []
    for x in range(n):
        for y in range(n):
            for a, b in pairs[lab[x * n + y]]:
                for z in range(n):
                    if lab[x * n + z] == a and lab[z * n + y] == b:
                        break
                else:
                    out.append(ForallMove(x, y, a, b))
    return out


def reference_exists_strategy(
    rb: Rainbow, net: Network, book: Book, move: ForallMove
) -> tuple[Network, Book]:
    """The witness player's response: one new node, labels by colour case.

    New edges towards old nodes are white when no green conflict looms,
    black when exactly one side pairs greens, and red inside the relevant
    red clique, where the recorded injection dictates the indices.
    Raises StrategyFailure when no suitable red label exists (which can
    only happen with more greens than red indices).
    """
    st = rb.structure
    n = net.n
    lab = net.lab
    x, y, a, b = move.x, move.y, move.a, move.b
    g_end = GREEN0 + rb.s
    a_green, b_green = GREEN0 <= a < g_end, GREEN0 <= b < g_end

    # which red clique (if any) the new node joins
    ckey = None
    if a_green and b == YELLOW:
        ckey = (x, y)
        move_green = a
    elif a == YELLOW and b_green:
        ckey = (y, x)
        move_green = b
    members: list[int] = []
    h: Optional[tuple[int, ...]] = None
    if ckey is not None:
        members = red_clique(net, rb, *ckey)
        if len(members) >= 2:
            if ckey not in book:
                raise StrategyFailure(f"no injection recorded for R{ckey}")
            h = book[ckey]
        elif len(members) == 1:
            h = least_injection(rb.s, rb.t, {})

    new = _new_node_labels(net, st, move)
    if new is None:
        raise StrategyFailure("inconsistent reflexive move")
    z = n
    m = n + 1

    cx, cy = (ckey if ckey is not None else (x, y))
    for w in range(n):
        if w == x or w == y:
            continue
        la = lab[w * n + x]
        lb = lab[w * n + y]
        green_x = a_green and GREEN0 <= la < g_end
        green_y = b_green and GREEN0 <= lb < g_end
        if not green_x and not green_y:
            c = WHITE
        elif green_x and not (lb == YELLOW and b == YELLOW):
            c = BLACK
        elif green_y and not (la == YELLOW and a == YELLOW):
            c = BLACK
        else:
            # w is in the clique the new node joins
            assert h is not None and w in members
            iw = rb.green_index(lab[cx * n + w])
            iz = rb.green_index(move_green)
            c = rb.red(h[iw], h[iz])
        new[w * m + z] = c
        new[z * m + w] = st.conv[c]

    net2 = Network(m, tuple(new))
    book2 = dict(book)
    if h is not None and len(members) == 1 and ckey not in book2:
        book2[ckey] = h
    book2 = _record_new_cliques(net2, rb, book2)
    return net2, book2
