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
* The colouring game on point sets: a cell of frozensets for each of
  the 2^n palettes, the balancing reply and the strategy check read
  literally on them, which the package plays on one int-mask cell per
  non-empty palette of the rounds played.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import lru_cache
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
from relalg.seurat import SeuratStrategyFailure
from relalg.verdict import Verdict, check_counts

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


# --- the colouring game on point sets -----------------------------------------
# The set-based core the package replaced with one int-mask cell per palette
# of the rounds played: every one of the 2^n palettes holds a pair of
# frozensets, and a reply takes the smallest points of a cell.


@dataclass(frozen=True)
class SeuratPosition:
    """Cells of every palette after r of n rounds."""

    n: int
    r: int
    cells: dict  # palette bit mask (over rounds 0..n-1) -> (set_T, set_T')

    @classmethod
    def initial(cls, n: int, t_set, t2_set) -> "SeuratPosition":
        t_set, t2_set = frozenset(t_set), frozenset(t2_set)
        return cls(n=n, r=0, cells={p: (t_set, t2_set) for p in range(1 << n)})


def apply_round(pos: SeuratPosition, t_r, t2_r) -> SeuratPosition:
    """Split every palette cell by membership in the round's subsets."""
    if pos.r >= pos.n:
        raise ValueError("round overflow")
    t_r, t2_r = frozenset(t_r), frozenset(t2_r)
    bit = 1 << pos.r
    cells = {}
    for palette, (a, b) in pos.cells.items():
        if palette & bit:
            cells[palette] = (a & t_r, b & t2_r)
        else:
            cells[palette] = (a - t_r, b - t2_r)
    return SeuratPosition(n=pos.n, r=pos.r + 1, cells=cells)


def _lost(p: int, q: int, bound: int) -> bool:
    """A cell of sizes (p, q) breaks a rule: the sizes differ and one is
    below ``bound``, 2 for the loss rule and 2^(n+1-r) for the invariant."""
    return p != q and min(p, q) < bound


def forall_wins(pos: SeuratPosition) -> Optional[int]:
    """The witness palette if the position is a first-player win, else None."""
    for palette, (a, b) in pos.cells.items():
        if _lost(len(a), len(b), 2):
            return palette
    return None


def dagger_holds(pos: SeuratPosition) -> bool:
    """The survival invariant: small cells must have equal sizes.

    At position r, any palette whose cell on either side is smaller than
    2^(n+1-r) must have cells of equal size on both sides.
    """
    bound = 1 << (pos.n + 1 - pos.r)
    return not any(_lost(len(a), len(b), bound) for a, b in pos.cells.values())


def lemma43_strategy(pos: SeuratPosition, chosen, side: str) -> frozenset:
    """The second player's size-balancing reply.

    ``chosen`` is the opponent's subset of T (side="T") or of T'
    (side="T2").  Per palette, the response sub-cell is sized by four
    cases keyed on whether the two split parts fall below 2^(n-r);
    "any subset" choices take the smallest elements of the cell.
    Raises SeuratStrategyFailure when a case demands more points than
    the cell holds (only possible once the invariant is already broken).
    """
    if pos.r >= pos.n:
        raise SeuratStrategyFailure("no rounds left")
    m = 1 << (pos.n - pos.r)
    chosen = frozenset(chosen)
    reply: set = set()
    for palette, (a, b) in pos.cells.items():
        mine, theirs = (a, b) if side == "T" else (b, a)
        n_in = len(mine & chosen)
        n_out = len(mine) - n_in
        if n_in < m:
            size = n_in
        elif n_out < m:
            size = len(theirs) - n_out
        else:
            size = m
        if size < 0 or size > len(theirs):
            raise SeuratStrategyFailure(
                f"palette {palette:b}: need {size} of {len(theirs)} points"
            )
        reply.update(sorted(theirs)[:size])
    return frozenset(reply)


def _cell_survival(n: int, replies, bound):
    """``survives(p, q, r)``: one cell of sizes (p, q), after r of n
    rounds, lasts to round n.  It is dead at round r if it breaks the
    rule with bound ``bound(r)``; else for each side and each count i the
    first player picks in the mover's part, some count j in
    ``replies(p, q, r, i, side)`` must keep both child cells alive.

    Exactness: a round splits each cell by a count picked per cell, each
    cell's reply count is chosen on its own, and loss is per cell.  So
    "for all sides and picks, some reply keeps every cell alive" commutes
    with the AND over cells: a position survives iff each of its cells
    does.  The memo lives for one call.
    """

    @lru_cache(maxsize=None)
    def survives(p: int, q: int, r: int) -> bool:
        if _lost(p, q, bound(r)):
            return False
        if r == n:
            return True
        for side in ("T", "T2"):
            for i in range((p if side == "T" else q) + 1):
                for j in replies(p, q, r, i, side):
                    a, b = (i, j) if side == "T" else (j, i)
                    if survives(a, b, r + 1) and survives(p - a, q - b, r + 1):
                        break
                else:
                    return False
        return True

    return survives


def _transcript_line(pos: SeuratPosition, side: str, chosen, reply) -> str:
    cells = ", ".join(
        f"{p:0{max(pos.n, 1)}b}->({len(a)},{len(b)})"
        for p, (a, b) in sorted(pos.cells.items())
    )
    return (
        f"round {pos.r - 1} | forall side={side} set={sorted(chosen)} "
        f"| exists set={sorted(reply)} | cells: {cells}"
    )


def _play_one_round(pos, side, chosen, strategy):
    """Returns (next position, reply, None) when the strategy survives the
    round, else (None, None, the round's losing lines)."""
    try:
        reply = strategy(pos, chosen, side)
    except SeuratStrategyFailure as exc:
        return None, None, [f"round {pos.r} | strategy failure: {exc}"]
    if side == "T":
        nxt = apply_round(pos, chosen, reply)
    else:
        nxt = apply_round(pos, reply, chosen)
    pal = forall_wins(nxt)
    if pal is None and dagger_holds(nxt):
        return nxt, reply, None
    lost = ("survival invariant broken" if pal is None
            else f"forall wins with palette {pal:b}")
    return None, None, [_transcript_line(nxt, side, chosen, reply), lost]


def verify_seurat_strategy(
    t_size: int,
    t2_size: int,
    n: int,
    mode: str = "exhaustive",
    samples: int = 0,
    seed: Optional[int] = None,
    strategy=lemma43_strategy,
) -> Verdict:
    """Run every (or a sampled set of) opponent subset line against a strategy.

    One search serves both modes; only the first player's moves differ.
    Exhaustive mode tries both sides and every subset each round from
    one root; sampled mode starts ``samples`` plays from the root and
    draws one uniform side/subset choice per round from a fixed seed.
    The survival invariant (:func:`dagger_holds`) is asserted after
    every round.

    Exhaustive mode counts the (2^|T| + 2^|T'|)^(n-r) plays below a
    position as won once every cell survives (:func:`_cell_survival`)
    under the strategy's replies, each read from a one-cell position
    with the i smallest points chosen, and the invariant's bound
    2^(n+1-r) >= 2, which implies the loss rule.  This is exact for
    strategies that answer each palette from its cell's sizes and the
    round, as :func:`lemma43_strategy` does; a counterexample is the
    same first losing line with the same play number.
    """
    check_counts(t_size=t_size, t2_size=t2_size, n=n)
    start = SeuratPosition.initial(n, range(t_size), range(t2_size))
    if forall_wins(start) is not None:
        return Verdict("counterexample", ["initial position lost"],
                       "the initial position is lost")
    grounds = (("T", range(t_size)), ("T2", range(t2_size)))

    if mode == "exhaustive":
        starts = 1

        def strategy_reply(p, q, r, i, side):
            cell = (frozenset(range(p)), frozenset(range(q)))
            try:
                reply = strategy(SeuratPosition(n, r, {0: cell}), frozenset(range(i)), side)
            except SeuratStrategyFailure:
                return ()
            return (len(cell[1 if side == "T" else 0].intersection(reply)),)

        survives = _cell_survival(n, strategy_reply, lambda r: 1 << (n + 1 - r))

        def moves():
            for side, ground in grounds:
                for mask in range(1 << len(ground)):
                    yield side, frozenset(
                        g for i, g in enumerate(ground) if mask >> i & 1
                    )
    elif mode == "sampled":
        if seed is None:
            raise ValueError("sampled mode requires a seed")
        check_counts(1, samples=samples)
        starts = samples
        rng = random.Random(seed)

        def moves():
            side, ground = rng.choice(grounds)
            yield side, frozenset(g for g in ground if rng.random() < 0.5)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    plays = 0

    def dfs(pos: SeuratPosition) -> Optional[list[str]]:
        nonlocal plays
        if pos.r == pos.n or mode == "exhaustive" and all(
                survives(len(a), len(b), pos.r) for a, b in pos.cells.values()):
            plays += (2**t_size + 2**t2_size) ** (pos.n - pos.r)
            return None
        for side, chosen in moves():
            nxt, reply, bad = _play_one_round(pos, side, chosen, strategy)
            if bad is None:
                bad = dfs(nxt)
                if bad is None:
                    continue
                bad.insert(0, _transcript_line(nxt, side, chosen, reply))
            return bad
        return None

    for _ in range(starts):
        bad = dfs(start)
        if bad is not None:
            return Verdict("counterexample", bad,
                           f"strategy reached a losing position in play {plays + 1}",
                           plays=plays)
    return Verdict("verified" if mode == "exhaustive" else "verified-sampled",
                   plays=plays)
