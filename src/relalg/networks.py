"""Atomic networks and the atomic network game.

A network is a totally atom-labelled finite node set with identity
loops, converse-symmetric edges and no forbidden triangle.  This module
implements the game moves, the rainbow witness strategy for the
representable side, the universal-player refutation for the
non-representable side, and bounded exhaustive verifiers for both.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from .algebra import Algebra
from .rainbow import Rainbow

DEFAULT_MAX_NODES = 12
DEFAULT_MAX_STATES = 10_000_000


class StrategyFailure(Exception):
    """The witness strategy has no legal label (e.g. no injection exists)."""


@dataclass(frozen=True)
class ForallMove:
    x: int
    y: int
    a: int
    b: int


class Network:
    """Immutable atomic labelling with dense node ids 0..n-1."""

    __slots__ = ("n", "lab")

    def __init__(self, n: int, lab: tuple):
        self.n = n
        self.lab = lab  # row-major n*n tuple of atom ids

    def label(self, x: int, y: int) -> int:
        return self.lab[x * self.n + y]

    def __eq__(self, other):
        return isinstance(other, Network) and self.lab == other.lab

    def __hash__(self):
        return hash(self.lab)

    def describe(self, structure) -> str:
        names = structure.names
        edges = ", ".join(
            f"({x},{y})={names[self.label(x, y)]}"
            for x in range(self.n)
            for y in range(self.n)
            if x <= y
        )
        return f"<{self.n} nodes: {edges}>"


def initial_response(alg: Algebra, a: int) -> Network:
    """The first network: one node for identity atoms, else an edge."""
    st = alg.structure
    if st.is_identity_atom(a):
        return Network(1, (a,))
    e = next(iter(st.identity))
    ac = st.conv[a]
    return Network(2, (e, a, ac, e))


def coherent(net: Network, alg: Algebra) -> Optional[tuple[int, int, int]]:
    """None if the network is coherent, else the first violating triangle."""
    st = alg.structure
    n = net.n
    lab = net.lab
    comp = alg.comp
    for x in range(n):
        if lab[x * n + x] not in st.identity:
            return (x, x, x)
        for y in range(n):
            if lab[y * n + x] != st.conv[lab[x * n + y]]:
                return (x, y, y)
            row = lab[x * n + y]
            for z in range(n):
                if not comp[row][lab[y * n + z]] >> lab[x * n + z] & 1:
                    return (x, y, z)
    return None


def legal_moves(net: Network, alg: Algebra) -> list[ForallMove]:
    """All legal non-trivial moves, in (x, y, a, b) lexicographic order.

    Moves with an identity-atom component are excluded, as are trivial
    moves (ones already witnessed by an existing node).
    """
    n = net.n
    lab = net.lab
    pairs = alg.consistent_pairs_by_third
    out = []
    for x in range(n):
        for y in range(n):
            c = lab[x * n + y]
            for a, b in pairs[c]:
                for z in range(n):
                    if lab[x * n + z] == a and lab[z * n + y] == b:
                        break
                else:
                    out.append(ForallMove(x, y, a, b))
    return out


def red_clique(net: Network, rb: Rainbow, x: int, y: int) -> list[int]:
    """R(x, y): nodes with a green edge from x and a yellow edge from y."""
    n = net.n
    lab = net.lab
    return [
        z
        for z in range(n)
        if rb.is_green(lab[x * n + z]) and lab[y * n + z] == 3
    ]


def least_injection(s: int, t: int, pins: dict[int, int]) -> tuple[int, ...]:
    """Lexicographically least injection 0..s-1 -> 0..t-1 extending pins.

    Raises StrategyFailure when none exists (s > t, or inconsistent pins).
    """
    if len(set(pins.values())) != len(pins):
        raise StrategyFailure("pinned red indices collide")
    used = set(pins.values())
    h = []
    free = iter(j for j in range(t) if j not in used)
    try:
        for i in range(s):
            if i in pins:
                h.append(pins[i])
            else:
                h.append(next(free))
    except StopIteration:
        raise StrategyFailure(
            f"no injection from {s} greens into {t} red indices"
        ) from None
    return tuple(h)


# book: map (x, y) -> injection tuple, recorded once |R(x, y)| >= 2
Book = dict[tuple[int, int], tuple[int, ...]]


def _record_new_cliques(net: Network, rb: Rainbow, book: Book) -> Book:
    """Record h for every red clique of size >= 2 lacking a book entry.

    The injection is pinned by condition (1) on the clique's existing red
    labels and completed lexicographically.  For cliques already in the
    book, condition (1) is re-asserted.
    """
    n = net.n
    lab = net.lab
    out = dict(book)
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            members = red_clique(net, rb, x, y)
            if len(members) < 2:
                continue
            pins: dict[int, int] = {}
            for w, w2 in itertools.combinations(members, 2):
                i = rb.green_index(lab[x * n + w])
                i2 = rb.green_index(lab[x * n + w2])
                if i == i2:
                    raise StrategyFailure(
                        f"clique R({x},{y}) has repeated green index g{i}"
                    )
                lw = lab[w * n + w2]
                if not rb.is_red(lw):
                    raise StrategyFailure(
                        f"clique R({x},{y}) edge ({w},{w2}) not red"
                    )
                j, j2 = rb.red_indices(lw)
                for idx, val in ((i, j), (i2, j2)):
                    if pins.setdefault(idx, val) != val:
                        raise StrategyFailure(
                            f"clique R({x},{y}) pins conflict at g{idx}"
                        )
            if (x, y) in out:
                h = out[(x, y)]
                for idx, val in pins.items():
                    if h[idx] != val:
                        raise StrategyFailure(
                            f"condition (1) broken for R({x},{y})"
                        )
            else:
                out[(x, y)] = least_injection(rb.s, rb.t, pins)
    return out


def rainbow_exists_strategy(
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
    YEL = 3

    # which red clique (if any) the new node joins
    ckey = None
    if rb.is_green(a) and b == YEL:
        ckey = (x, y)
        move_green = a
    elif a == YEL and rb.is_green(b):
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

    z = n
    m = n + 1
    new = [0] * (m * m)
    for u in range(n):
        row = u * n
        nrow = u * m
        for v in range(n):
            new[nrow + v] = lab[row + v]
    e = next(iter(st.identity))
    new[z * m + z] = e
    new[x * m + z] = a
    new[z * m + x] = st.conv[a]
    new[z * m + y] = b
    new[y * m + z] = st.conv[b]
    if x == y and st.conv[a] != b:
        # both constraints land on the same edge; legality forces b = a~
        raise StrategyFailure("inconsistent reflexive move")

    cx, cy = (ckey if ckey is not None else (x, y))
    for w in range(n):
        if w == x or w == y:
            continue
        la = lab[w * n + x]
        lb = lab[w * n + y]
        green_x = rb.is_green(la) and rb.is_green(a)
        green_y = rb.is_green(lb) and rb.is_green(b)
        if not green_x and not green_y:
            c = 2  # white
        elif green_x and not (lb == YEL and b == YEL):
            c = 1  # black
        elif green_y and not (la == YEL and a == YEL):
            c = 1
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


# ---------------------------------------------------------------------------
# canonical forms for search deduplication


def canonical_state(net: Network, book: Book) -> bytes:
    """A canonical key for (network, book) up to node renaming.

    Nodes are grouped by an invariant (loop label plus sorted incident
    label pairs); the minimum over the remaining permutations is taken.
    """
    n = net.n
    lab = net.lab
    inv = []
    for u in range(n):
        incident = sorted(
            (lab[u * n + v], lab[v * n + u]) for v in range(n) if v != u
        )
        inv.append((lab[u * n + u], tuple(incident)))
    order = sorted(range(n), key=lambda u: inv[u])
    # consecutive equal-invariant groups
    groups = []
    start = 0
    for i in range(1, n + 1):
        if i == n or inv[order[i]] != inv[order[start]]:
            groups.append(order[start:i])
            start = i
    best = None
    for perm_parts in itertools.product(
        *(itertools.permutations(g) for g in groups)
    ):
        perm = [u for part in perm_parts for u in part]  # new index -> old node
        relab = bytes(
            lab[perm[i] * n + perm[j]] for i in range(n) for j in range(n)
        )
        if best is not None and relab > best[0]:
            continue
        pos = {old: i for i, old in enumerate(perm)}
        bkey = tuple(sorted((pos[u], pos[v]) + h for (u, v), h in book.items()))
        key = (relab, bkey)
        if best is None or key < best:
            best = key
    relab, bkey = best
    return relab + repr(bkey).encode()


# ---------------------------------------------------------------------------
# verification


@dataclass
class VerifyResult:
    status: str  # "verified" | "counterexample" | "inconclusive"
    transcript: list[str] = field(default_factory=list)
    states: int = 0
    reason: str = ""

    @property
    def verified(self) -> bool:
        return self.status == "verified"


def _move_line(i: int, net: Network, move: ForallMove, alg: Algebra) -> str:
    names = alg.structure.names
    z = net.n - 1
    edges = ", ".join(
        f"({w},{z})={names[net.label(w, z)]}" for w in range(z)
    )
    return (
        f"round {i} | forall: ({move.x},{move.y},"
        f"{names[move.a]},{names[move.b]}) | exists: +node {z}, edges {{{edges}}}"
    )


def verify_exists_strategy(
    rb: Rainbow,
    rounds: int,
    max_nodes: int = DEFAULT_MAX_NODES,
    max_states: int = DEFAULT_MAX_STATES,
    check_invariants: bool = False,
) -> VerifyResult:
    """Exhaustively play every opponent line against the witness strategy.

    Round 0 ranges over all opening atoms; rounds 1..rounds-1 over all
    legal non-trivial moves.  The verdict is "verified" iff every
    reachable network is coherent, "counterexample" with a transcript of
    the losing play otherwise, and "inconclusive" if the node or state
    budget is exhausted first.
    """
    alg = Algebra(rb.structure)
    visited: set[bytes] = set()
    counter = [0]

    def dfs(net: Network, book: Book, depth: int, path: list[str]) -> Optional[VerifyResult]:
        if depth >= rounds:
            return None
        if net.n >= max_nodes:
            return VerifyResult("inconclusive", list(path), counter[0], "node budget")
        for move in legal_moves(net, alg):
            # (x,y,a,b) and (y,x,b~,a~) demand the same witness; do one
            st = rb.structure
            mirror = (move.y, move.x, st.conv[move.b], st.conv[move.a])
            if mirror < (move.x, move.y, move.a, move.b):
                continue
            try:
                net2, book2 = rainbow_exists_strategy(rb, net, book, move)
            except StrategyFailure as exc:
                path.append(
                    f"round {depth} | forall: ({move.x},{move.y},"
                    f"{st.names[move.a]},{st.names[move.b]}) | exists: "
                    f"strategy failure: {exc}"
                )
                return VerifyResult("counterexample", list(path), counter[0])
            path.append(_move_line(depth, net2, move, alg))
            tri = coherent(net2, alg)
            if tri is not None:
                path.append(f"incoherent triangle {tri}")
                return VerifyResult("counterexample", list(path), counter[0])
            if check_invariants:
                assert_strategy_invariants(rb, net, net2, book2, move)
            key = canonical_state(net2, book2)
            if key not in visited:
                visited.add(key)
                counter[0] += 1
                if counter[0] > max_states:
                    return VerifyResult(
                        "inconclusive", list(path), counter[0], "state budget"
                    )
                res = dfs(net2, book2, depth + 1, path)
                if res is not None:
                    return res
            path.pop()
        return None

    for atom in range(rb.structure.n_atoms):
        net = initial_response(alg, atom)
        if coherent(net, alg) is not None:
            return VerifyResult(
                "counterexample",
                [f"round 0 | opening {rb.structure.names[atom]} incoherent"],
                counter[0],
            )
        path = [f"round 0 | forall: atom {rb.structure.names[atom]}"]
        res = dfs(net, {}, 1, path)
        if res is not None:
            return res
    return VerifyResult("verified", [], counter[0])


def assert_strategy_invariants(
    rb: Rainbow, net: Network, net2: Network, book: Book, move: ForallMove
) -> None:
    """Invariants every strategy response must preserve (test support)."""
    n, m = net.n, net2.n
    assert m == n + 1
    # monotone extension, no relabelling
    for u in range(n):
        for v in range(n):
            assert net2.label(u, v) == net.label(u, v)
    # the witness never assigns green or yellow to edges she chose
    z = m - 1
    for w in range(n):
        if w in (move.x, move.y):
            continue
        c = net2.label(w, z)
        assert not rb.is_green(c) and c != 3, "strategy used green/yellow"
    # every recorded clique satisfies condition (1); membership is unique
    in_clique = set()
    for x in range(m):
        for y in range(m):
            if x == y:
                continue
            members = red_clique(net2, rb, x, y)
            if z in members:
                in_clique.add((x, y))
            if len(members) < 2:
                continue
            assert (x, y) in book, f"clique R({x},{y}) missing from book"
            h = book[(x, y)]
            for w, w2 in itertools.combinations(members, 2):
                i = rb.green_index(net2.label(x, w))
                i2 = rb.green_index(net2.label(x, w2))
                assert i != i2
                assert net2.label(w, w2) == rb.red(h[i], h[i2])
    assert len(in_clique) <= 1, "new node joined two cliques"


# ---------------------------------------------------------------------------
# the refutation for more greens than red indices


def rainbow_refuter_moves(rb: Rainbow) -> list[ForallMove]:
    """After an opening on the white atom: attach each green via yellow."""
    return [ForallMove(0, 1, rb.green(i), 3) for i in range(rb.s)]


def _exists_replies(net: Network, alg: Algebra, move: ForallMove):
    """All coherent replies to a move: an existing witness, or one new node.

    New-node labellings are enumerated one edge at a time, pruning as
    soon as a triangle is incoherent.
    """
    st = alg.structure
    n = net.n
    lab = net.lab
    x, y, a, b = move.x, move.y, move.a, move.b
    for z in range(n):
        if lab[x * n + z] == a and lab[z * n + y] == b:
            yield net  # trivial witness already present
    if x == y and st.conv[a] != b:
        return
    m = n + 1
    z = n
    base = [0] * (m * m)
    for u in range(n):
        for v in range(n):
            base[u * m + v] = lab[u * n + v]
    e = next(iter(st.identity))
    base[z * m + z] = e
    base[x * m + z] = a
    base[z * m + x] = st.conv[a]
    base[z * m + y] = b
    base[y * m + z] = st.conv[b]
    comp = alg.comp
    fixed = {x, y}
    todo = [w for w in range(n) if w not in fixed]
    k = st.n_atoms

    def assign(idx: int):
        if idx == len(todo):
            yield Network(m, tuple(base))
            return
        w = todo[idx]
        for c in range(k):
            base[w * m + z] = c
            base[z * m + w] = st.conv[c]
            good = True
            # check triangles of w-z against fixed and earlier-assigned nodes
            for u in list(fixed) + todo[:idx]:
                if not comp[base[u * m + w]][base[w * m + z]] >> base[u * m + z] & 1:
                    good = False
                    break
                if not comp[base[w * m + u]][base[u * m + z]] >> base[w * m + z] & 1:
                    good = False
                    break
                if not comp[base[w * m + z]][base[z * m + u]] >> base[w * m + u] & 1:
                    good = False
                    break
            if good:
                yield from assign(idx + 1)
        base[w * m + z] = 0
        base[z * m + w] = 0

    if not todo:
        cand = Network(m, tuple(base))
        if coherent(cand, alg) is None:
            yield cand
    else:
        # validate the forced edges against each other first
        seed = Network(m, tuple(base))
        # only triangles within {x, y, z} are fully labelled so far
        for (u, v, t) in itertools.product((x, y, z), repeat=3):
            if not comp[seed.label(u, v)][seed.label(v, t)] >> seed.label(u, t) & 1:
                return
        yield from assign(0)


def verify_forall_refutation(
    rb: Rainbow,
    max_rounds: int,
    max_states: int = DEFAULT_MAX_STATES,
) -> VerifyResult:
    """Play the refuter against every coherent reply of the witness player.

    Verified means every branch reaches a round where no coherent reply
    exists — for more greens than red indices this is forced because no
    injection of green indices into red indices exists (pigeonhole).
    """
    alg = Algebra(rb.structure)
    # the opening is round 0, so max_rounds leaves max_rounds - 1 moves
    moves = rainbow_refuter_moves(rb)[: max(max_rounds - 1, 0)]
    counter = [0]
    names = rb.structure.names

    def dfs(net: Network, idx: int, path: list[str]) -> Optional[VerifyResult]:
        counter[0] += 1
        if counter[0] > max_states:
            return VerifyResult("inconclusive", list(path), counter[0], "state budget")
        if idx == len(moves):
            return VerifyResult("counterexample", list(path), counter[0])
        move = moves[idx]
        alive = False
        for reply in _exists_replies(net, alg, move):
            alive = True
            if reply.n > net.n:
                line = _move_line(idx + 1, reply, move, alg)
            else:
                line = (
                    f"round {idx + 1} | forall: ({move.x},{move.y},"
                    f"{names[move.a]},{names[move.b]}) | exists: existing witness"
                )
            path.append(line)
            res = dfs(reply, idx + 1, path)
            if res is not None:
                return res
            path.pop()
        if not alive:
            return None
        return None

    opening = initial_response(alg, 2)  # the white atom
    path = ["round 0 | forall: atom w"]
    res = dfs(opening, 0, path)
    if res is not None:
        return res
    return VerifyResult(
        "verified",
        [
            "every reply line dies within "
            f"{len(moves) + 1} rounds: no injection of {rb.s} greens "
            f"into {rb.t} red indices exists (pigeonhole)"
        ],
        counter[0],
    )


def representation_from_network(structure, net: Network):
    """Re-read a network's edge labels as candidate atom images.

    The node set becomes the base, E the full square, and each atom's
    image the set of edges it labels.  A network reached by finitely
    many game rounds is coherent, so the result passes the soundness
    checks, but saturation generally fails: some consistent triple has
    an edge with no witnessing third node yet.
    """
    from .algebra import ProperAlgebra, Representation

    nodes = frozenset(range(net.n))
    e = frozenset((x, y) for x in nodes for y in nodes)
    images: dict = {}
    for x in range(net.n):
        for y in range(net.n):
            images.setdefault(net.label(x, y), set()).add((x, y))
    images = {a: frozenset(ps) for a, ps in images.items()}
    return Representation(target=ProperAlgebra(base=nodes, e=e), atom_images=images)
