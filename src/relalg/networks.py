"""Atomic networks and the atomic network game.

A network is a totally atom-labelled finite node set with identity
loops, converse-symmetric edges and no forbidden triangle.  This module
implements the game moves, the rainbow witness strategy for the
representable side, the universal-player refutation for the
non-representable side, and bounded exhaustive verifiers for both,
which return a :class:`~relalg.verdict.Verdict`.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import itemgetter
from typing import Iterator, NamedTuple, Optional

from .algebra import Algebra, bits
from .rainbow import BLACK, GREEN0, WHITE, YELLOW, Rainbow
from .verdict import Verdict, check_counts

DEFAULT_MAX_NODES = 12
DEFAULT_MAX_STATES = 10_000_000


class StrategyFailure(Exception):
    """The witness strategy has no legal label (e.g. no injection exists)."""


class ForallMove(NamedTuple):
    """The universal player's demand: a node z with l(x,z) = a, l(z,y) = b."""

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


def _new_node_masks(alg: Algebra, lab, m: int, x: int, y: int) -> tuple[int, int]:
    """Masks (A, B) that decide the coherence of a child network of m
    nodes, given as its row-major label list ``lab``, whose last node z
    answers a demand on x-y: the child is coherent iff l(x,z) is in A,
    l(z,y) is in B and l(x,y) is in l(x,z);l(z,y).

    Sound when the rest of the network is coherent, z's loop is an
    identity atom and each z edge carries the converse of its reverse,
    as :func:`_new_node_labels` makes them, and the structure is the
    validated one :class:`~relalg.algebra.Algebra` requires.  Its
    identity coherence then settles every triangle with a repeated node,
    and its Peircean closure makes the six orderings of a triangle
    consistent together, so one ordering of each triangle {u, v, z} is
    checked.  With u, v outside {x, y} the triangle reads neither forced
    label, and if one fails both masks are empty.  {x, w, z} holds iff
    l(x,z) is in comp[l(x,w)][l(w,z)], so A is the meet of those over w;
    {w, y, z} holds iff l(z,y) is in comp[l(z,w)][l(w,y)], so B is the
    meet of those; {x, y, z} is the third condition.  The labels at
    x-z, z-x, y-z and z-y are not read, so a list with them unset gives
    the masks of every child that differs from it only there.
    """
    comp = alg.comp
    z = m - 1
    others = [w for w in range(z) if w != x and w != y]
    col = lab[z::m]  # col[u] = l(u, z)
    row = lab[z * m : z * m + m]  # row[u] = l(z, u)
    for i, u in enumerate(others):
        luz = col[u]
        for v in others[i + 1 :]:
            if not comp[lab[u * m + v]][col[v]] >> luz & 1:
                return 0, 0
    mask_a = mask_b = alg.one
    for w in others:
        mask_a &= comp[lab[x * m + w]][col[w]]
        mask_b &= comp[row[w]][lab[w * m + y]]
    return mask_a, mask_b


def legal_moves(net: Network, alg: Algebra) -> list[ForallMove]:
    """The legal non-trivial moves, one of each mirror pair, in (x, y, a, b)
    lexicographic order.

    Moves with an identity-atom component are excluded, as are trivial
    moves (ones already witnessed by an existing node).  A move
    (x, y, a, b) and its mirror (y, x, b~, a~) demand the same witness
    node, so only the lesser is emitted: the one with x <= y.  At x = y
    the two are one move, as the loop's identity atom is in a;b only for
    b = a~ in the validated structure :class:`~relalg.algebra.Algebra`
    requires.  For each edge x <= y the labels b witnessed after each a,
    l(x,z) = a and l(z,y) = b, are gathered as a mask per a; the demands
    are row l(x,y) of ``Algebra.moves_by_third`` less them.
    """
    n = net.n
    lab = net.lab
    table = alg.moves_by_third
    out = []
    for x in range(n):
        row = lab[x * n : x * n + n]
        for y in range(x, n):
            seen: dict[int, int] = {}
            for a, b in zip(row, lab[y::n]):
                seen[a] = seen.get(a, 0) | 1 << b
            for a, bs in table[row[y]]:
                for b in bits(bs & ~seen.get(a, 0)):
                    out.append(ForallMove(x, y, a, b))
    return out


def red_clique(net: Network, rb: Rainbow, x: int, y: int) -> list[int]:
    """R(x, y): nodes with a green edge from x and a yellow edge from y."""
    n = net.n
    lab = net.lab
    g_end = GREEN0 + rb.s
    return [
        z
        for z, (c, d) in enumerate(zip(lab[x * n : x * n + n], lab[y * n : y * n + n]))
        if GREEN0 <= c < g_end and d == YELLOW
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

    Only cliques the last node z joins or anchors are checked, given the
    ``book`` the response to z's parent left: any other R(x, y) has the
    members, labels and book entry it had in the parent, which passed
    these same checks.  z joins R(x, y) when l(x,z) is green and l(y,z)
    yellow (self-converse colours, read from z's row); members of R(z, y)
    are z's green neighbours and those of R(x, z) its yellow ones.
    """
    n = net.n
    lab = net.lab
    z = n - 1
    row = lab[z * n : z * n + n]
    greens = [w for w, c in enumerate(row) if GREEN0 <= c < GREEN0 + rb.s]
    yellows = [w for w, c in enumerate(row) if c == YELLOW]
    pairs = [(x, y) for x in greens for y in yellows]
    if len(greens) > 1:
        pairs += [(z, y) for y in range(z)]
    if len(yellows) > 1:
        pairs += [(x, z) for x in range(z)]
    out = dict(book)
    for x, y in sorted(pairs):
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


def _grown_labels(net: Network, st) -> list[int]:
    """The label list of ``net`` grown by a node z = n: the old labels
    copied, z's loop an identity atom, and every other z edge 0."""
    n = net.n
    lab = net.lab
    m = n + 1
    new = [0] * (m * m)
    for u in range(n):
        new[u * m : u * m + n] = lab[u * n : u * n + n]
    new[n * m + n] = next(iter(st.identity))
    return new


def _new_node_labels(net: Network, st, move: ForallMove) -> Optional[list[int]]:
    """The label list of ``net`` grown by a node z = n that answers ``move``.

    The old labels are copied, z's loop gets an identity atom, and the
    forced edges get their labels: a on x-z and b on z-y, each with its
    converse.  Edges between z and the other nodes are left 0 for the
    caller to fill.  None when x = y and b is not a~, since both labels
    would then land on the same edge; legality forces b = a~.
    """
    x, y, a, b = move.x, move.y, move.a, move.b
    if x == y and st.conv[a] != b:
        return None
    new = _grown_labels(net, st)
    m = net.n + 1
    z = net.n
    new[x * m + z] = a
    new[z * m + x] = st.conv[a]
    new[z * m + y] = b
    new[y * m + z] = st.conv[b]
    return new


def rainbow_exists_strategy(
    rb: Rainbow, net: Network, book: Book, move: ForallMove
) -> tuple[Network, Book]:
    """The witness player's response: one new node, labels by colour case.

    New edges towards old nodes are white when no green conflict looms,
    black when exactly one side pairs greens, and red inside the relevant
    red clique, where the recorded injection dictates the indices.
    Raises StrategyFailure when no suitable red label exists (which can
    only happen with more greens than red indices).  A one-shot
    :meth:`Expansion.child`, which holds the strategy.
    """
    return Expansion(rb, net, book).child(move)


class Expansion:
    """The witness strategy's children of one parent (net, book), from a
    table filled lazily per move class.

    A move (x, y, a, b)'s class is (x, y, c(a), c(b)), where c is
    :attr:`~relalg.rainbow.Rainbow.move_colour`: the atom itself when it
    is green or yellow, else -1.  Each entry is worked out on the class's
    first move and read by the class's later moves; it holds either the
    strategy's failure text or

    * the child's label list with the strategy's w-z labels written in
      (w outside {x, y}) and the x-z and z-y labels unset,
    * the book after the clique the class joins, if any,
    * whether the child's red cliques must be re-checked,
    * the coherence masks of :func:`_new_node_masks`.

    Each item is argued exact where it is built, in :meth:`_move_class`.
    The canonical key of a child reads each old node's invariant from a
    per-parent memo (:meth:`key`), so only the new node's is worked out
    per child.  The table only caches: every child, book, failure text,
    verdict and key is the one the per-move strategy, :func:`coherent`
    and :func:`canonical_state` give.
    """

    __slots__ = ("rb", "net", "book", "_alg", "_grown", "_classes", "_invariants")

    def __init__(self, rb: Rainbow, net: Network, book: Book):
        self.rb = rb
        self.net = net
        self.book = book
        self._alg = rb.algebra
        self._grown = _grown_labels(net, rb.structure)
        self._classes: dict = {}
        self._invariants: dict[tuple[int, int], bytes] = {}

    def _entry(self, move: ForallMove):
        x, y, a, b = move
        colour = self.rb.move_colour
        cls = (x, y, colour[a], colour[b])
        entry = self._classes.get(cls)
        if entry is None:
            try:
                entry = self._move_class(*cls)
            except StrategyFailure as exc:
                entry = str(exc)
            self._classes[cls] = entry
        return entry

    def _move_class(self, x: int, y: int, ca: int, cb: int) -> tuple:
        """The table entry of class (x, y, ca, cb); raises StrategyFailure
        when the strategy has no reply to any move of the class.

        Exactness: the strategy reads a only as "green" (ca >= GREEN0),
        "yellow" (ca == YELLOW) and, in the red case, as the green it is
        (ca), and b the same way, so the clique key, h, the new book
        entry, the failures raised here and every w-z label depend on
        the move only through its class.  The book is re-checked only
        when a and b are both green or yellow: the strategy never puts
        green or yellow on a w-z edge, and both colours are
        self-converse, so z's green and yellow neighbours lie in {x, y}.
        If a (or b) is neither, they lie in {y} (or {x}), so z has no
        green neighbour with a yellow one and at most one of each, and
        :func:`_record_new_cliques` finds no clique that z joins or
        anchors and returns the book unchanged.  With both, the class
        holds a single move.  The masks read only the w-z labels (see
        :func:`_new_node_masks`).
        """
        rb = self.rb
        net = self.net
        book = self.book
        conv = rb.structure.conv
        n = net.n
        lab = net.lab
        g_end = GREEN0 + rb.s
        a_green, b_green = ca >= GREEN0, cb >= GREEN0

        # which red clique (if any) the new node joins
        ckey = None
        if a_green and cb == YELLOW:
            ckey = (x, y)
            move_green = ca
        elif ca == YELLOW and b_green:
            ckey = (y, x)
            move_green = cb
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

        new = self._grown.copy()
        z = n
        m = n + 1
        cx = ckey[0] if ckey is not None else x
        for w in range(n):
            if w == x or w == y:
                continue
            la = lab[w * n + x]
            lb = lab[w * n + y]
            green_x = a_green and GREEN0 <= la < g_end
            green_y = b_green and GREEN0 <= lb < g_end
            if not green_x and not green_y:
                c = WHITE
            elif green_x and not (lb == YELLOW and cb == YELLOW):
                c = BLACK
            elif green_y and not (la == YELLOW and ca == YELLOW):
                c = BLACK
            else:
                # w is in the clique the new node joins
                assert h is not None and w in members
                iw = rb.green_index(lab[cx * n + w])
                iz = rb.green_index(move_green)
                c = rb.red(h[iw], h[iz])
            new[w * m + z] = c
            new[z * m + w] = conv[c]

        book2 = dict(book)
        if h is not None and len(members) == 1 and ckey not in book2:
            book2[ckey] = h
        recheck = ca >= 0 and cb >= 0
        mask_a, mask_b = _new_node_masks(self._alg, new, m, x, y)
        return new, book2, recheck, mask_a, mask_b

    def child(self, move: ForallMove) -> tuple[Network, Book]:
        """The strategy's reply to ``move``: the class's labels with a, a~,
        b and b~ written in, and the class's book, re-checked if need be.
        Raises StrategyFailure as :func:`rainbow_exists_strategy` does."""
        entry = self._entry(move)
        if type(entry) is str:
            raise StrategyFailure(entry)
        x, y, a, b = move
        conv = self.rb.structure.conv
        if x == y and conv[a] != b:
            raise StrategyFailure("inconsistent reflexive move")
        new, book2, recheck = entry[0].copy(), entry[1], entry[2]
        m = self.net.n + 1
        z = m - 1
        new[x * m + z] = a
        new[z * m + x] = conv[a]
        new[z * m + y] = b
        new[y * m + z] = conv[b]
        net2 = Network(m, tuple(new))
        if recheck:
            book2 = _record_new_cliques(net2, self.rb, book2)
        return net2, book2

    def is_coherent(self, move: ForallMove, net2: Network) -> bool:
        """Whether :meth:`child`'s reply ``net2`` to ``move`` is coherent,
        by the class's masks (:func:`_new_node_masks`).  ``net2`` is not
        read; it is what a whole-network check in this place reads."""
        _, _, _, mask_a, mask_b = self._entry(move)
        x, y, a, b = move
        return bool(mask_a >> a & 1 and mask_b >> b & 1
                    and self._alg.comp[a][b] >> self.net.lab[x * self.net.n + y] & 1)

    def key(self, net2: Network, book2: Book) -> bytes:
        """:func:`canonical_state` of a child (net2, book2) of this parent.

        An old node u keeps its loop, and its row is the parent's with
        l(u,z) appended, so its invariant is memoized per (u, l(u,z)).
        """
        n = self.net.n
        lab = self.net.lab
        m = net2.n
        z = m - 1
        lab2 = net2.lab
        memo = self._invariants
        inv = []
        for uc in zip(range(z), lab2[z::m]):
            if uc not in memo:
                u, c = uc
                memo[uc] = _invariant(lab[u * n + u], (*lab[u * n : u * n + n], c))
            inv.append(memo[uc])
        inv.append(_invariant(lab2[z * m + z], lab2[z * m :]))
        return _state_key(m, lab2, book2, inv)


# ---------------------------------------------------------------------------
# canonical forms for search deduplication


def _invariant(loop: int, row) -> bytes:
    """A node's invariant: its loop label, then its sorted row.

    A renaming preserves it (it maps a node's row onto its image's row).
    With labels in converse pairs it splits and orders nodes as the
    sorted (out, in) label pairs would.  Rows of one network have one
    length, so the bytes order as the (loop, sorted row) pairs do.
    """
    return bytes((loop, *sorted(row)))


def _invariants(net: Network) -> list[bytes]:
    n = net.n
    lab = net.lab
    return [_invariant(lab[u * n + u], lab[u * n : u * n + n]) for u in range(n)]


def _invariant_orders(n: int, inv: list[bytes]) -> Iterator[tuple[int, ...]]:
    """Every node order that sorts the n nodes by their invariants
    ``inv`` (see :func:`_invariant`), as new index -> old node; the
    first keeps each group of equal invariants in node order.

    Two isomorphic networks reach the same relabellings over their
    orders, and an automorphism maps each group onto itself.
    """
    order = sorted(range(n), key=inv.__getitem__)
    if len(set(inv)) == n:
        return iter((tuple(order),))
    # consecutive equal-invariant groups
    groups = [list(g) for _, g in itertools.groupby(order, inv.__getitem__)]
    return (
        tuple(u for part in parts for u in part)
        for parts in itertools.product(*map(itertools.permutations, groups))
    )


@lru_cache(maxsize=1 << 12)
def _relabeller(n: int, perm: tuple[int, ...]):
    """A function from a label tuple to the labels renamed by ``perm``
    (new index -> old node), as a tuple."""
    if n == 1:  # itemgetter of one index returns the item, not a tuple
        return lambda lab: (lab[0],)
    return itemgetter(*[p * n + q for p in perm for q in perm])


def canonical_state(net: Network, book: Book) -> bytes:
    """A canonical key for (network, book) up to node renaming.

    Isomorphic states reach the same relabellings over the orders of
    :func:`_invariant_orders`, and the least relabelling, then the least
    renamed book, is the key.
    """
    return _state_key(net.n, net.lab, book, _invariants(net))


def _state_key(n: int, lab: tuple, book: Book, inv: list) -> bytes:
    """:func:`canonical_state` of the n-node labels ``lab`` and ``book``,
    given the node invariants ``inv``."""
    if not book and len(set(inv)) == n:  # one order, one relabelling
        perm = tuple(sorted(range(n), key=inv.__getitem__))
        return bytes(_relabeller(n, perm)(lab)) + b"()"
    orders = _invariant_orders(n, inv)
    if not book:
        return bytes(min(_relabeller(n, perm)(lab) for perm in orders)) + b"()"
    best = None
    for perm in orders:
        relab = _relabeller(n, perm)(lab)
        if best is not None and relab > best[0]:
            continue
        pos = {old: i for i, old in enumerate(perm)}
        bkey = tuple(sorted((pos[u], pos[v]) + h for (u, v), h in book.items()))
        key = (relab, bkey)
        if best is None or key < best:
            best = key
    relab, bkey = best
    return bytes(relab) + repr(bkey).encode()


def node_automorphisms(net: Network, book: Book) -> list[tuple[int, ...]]:
    """Aut(net, book): the node renamings that keep every label and the
    book, as tuples node -> image, the identity first.

    An automorphism keeps the invariants of :func:`_invariants`, so it
    maps the first order of :func:`_invariant_orders` onto another order
    with the same relabelling; each order with that relabelling gives one.
    """
    n = net.n
    lab = net.lab
    orders = _invariant_orders(n, _invariants(net))
    base = next(orders)
    same = _relabeller(n, base)(lab)
    out = [tuple(range(n))]
    for perm in orders:
        if _relabeller(n, perm)(lab) != same:
            continue
        pi = [0] * n
        for u, v in zip(base, perm):
            pi[u] = v
        if all(book.get((pi[u], pi[v])) == h for (u, v), h in book.items()):
            out.append(tuple(pi))
    return out


# ---------------------------------------------------------------------------
# verification


def _forall_prefix(i: int, move: ForallMove, names) -> str:
    return f"round {i} | forall: ({move.x},{move.y},{names[move.a]},{names[move.b]})"


def _move_line(i: int, net: Network, move: ForallMove, alg: Algebra) -> str:
    names = alg.structure.names
    z = net.n - 1
    edges = ", ".join(
        f"({w},{z})={names[net.label(w, z)]}" for w in range(z)
    )
    return f"{_forall_prefix(i, move, names)} | exists: +node {z}, edges {{{edges}}}"


def verify_exists_strategy(
    rb: Rainbow,
    rounds: int,
    max_states: int = DEFAULT_MAX_STATES,
    check_invariants: bool = False,
) -> Verdict:
    """Play the opponent's lines against the witness strategy, up to the
    reductions below.

    Round 0 ranges over all opening atoms; rounds 1..rounds-1 over the
    legal non-trivial moves of :func:`legal_moves`.  The verdict is
    "verified" when every network the search reaches is coherent,
    "counterexample" with a transcript of the losing play otherwise, and
    "inconclusive" if a network reaches DEFAULT_MAX_NODES nodes or more
    than ``max_states`` states are explored first.

    The reductions rest on one premise: the strategy's reply depends only
    on (network, book) up to node renaming, so it commutes with renaming,
    and it reads a demand as the two edges it forces, so a move and its
    mirror (y, x, b~, a~) get the same reply.

    * Dedup: each child is keyed by :func:`canonical_state`, and a key
      already visited is not expanded again.  The key does not hold the
      rounds left, so a class first reached deep is never expanded when
      it comes back shallower: from rounds 3 on the search is truncated,
      and "verified" says only that every line explored was won (B(2,2)
      explores the same 135 states at rounds 2 and at rounds 3).
    * Orbits: for each expanded parent Aut(net, book) is computed once
      (:func:`node_automorphisms`), and only the first move of each
      orbit of Aut x mirror, in the order of :func:`legal_moves`, is
      answered.  For pi in Aut, the reply to pi(m), or to its mirror, is
      the reply to m renamed by pi (the new node fixed), with the same
      key.  m comes first, so when pi(m) comes up either the search has
      already returned or m's key is in the visited set and pi(m) is a
      dedup hit, which changes nothing.  States, verdicts, transcripts
      and budget cut points are therefore those of the search that
      answers every move.
    * Move classes: each parent's children come from one
      :class:`Expansion`, whose table is filled per move class and only
      caches; it is asked for each child in the order above.  That order
      matters: the dedup key ignores the rounds left, so which children
      are expanded, and so ``states``, depends on the order in which
      they are keyed, and answering moves class by class would change
      both.
    """
    check_counts(rounds=rounds, max_states=max_states)
    st = rb.structure
    alg = rb.algebra
    conv = st.conv
    visited: set[bytes] = set()
    counter = [0]

    def dfs(net: Network, book: Book, depth: int) -> Optional[Verdict]:
        if depth >= rounds:
            return None
        if net.n >= DEFAULT_MAX_NODES:
            return Verdict("inconclusive", reason="node budget", states=counter[0])
        group = node_automorphisms(net, book)
        table = Expansion(rb, net, book)
        covered: set[tuple[int, int, int, int]] = set()
        for move in legal_moves(net, alg):
            if move in covered:
                continue
            if len(group) > 1:
                x, y, a, b = move
                for pi in group:
                    covered.add((pi[x], pi[y], a, b))
                    covered.add((pi[y], pi[x], conv[b], conv[a]))
            try:
                net2, book2 = table.child(move)
            except StrategyFailure as exc:
                line = (f"{_forall_prefix(depth, move, st.names)} | exists: "
                        f"strategy failure: {exc}")
                return Verdict("counterexample", [line],
                               "the witness strategy has no reply", states=counter[0])
            ok = table.is_coherent(move, net2)
            if check_invariants:
                assert ok == (coherent(net2, alg) is None), "mask coherence check"
            if not ok:
                res = Verdict("counterexample", [f"incoherent triangle {coherent(net2, alg)}"],
                              "the witness strategy made an incoherent network",
                              states=counter[0])
            else:
                key = table.key(net2, book2)
                if check_invariants:
                    assert_strategy_invariants(rb, net, net2, book2, move)
                    assert key == canonical_state(net2, book2), "class-fixed key"
                if key in visited:
                    continue
                visited.add(key)
                counter[0] += 1
                if counter[0] > max_states:
                    res = Verdict("inconclusive", reason="state budget",
                                  states=counter[0])
                else:
                    res = dfs(net2, book2, depth + 1)
                    if res is None:
                        continue
            res.transcript.insert(0, _move_line(depth, net2, move, alg))
            return res
        return None

    for atom in range(st.n_atoms):
        net = initial_response(alg, atom)
        if coherent(net, alg) is not None:
            return Verdict(
                "counterexample",
                [f"round 0 | opening {st.names[atom]} incoherent"],
                "an opening network is incoherent",
                states=counter[0],
            )
        res = dfs(net, {}, 1)
        if res is not None:
            res.transcript.insert(0, f"round 0 | forall: atom {st.names[atom]}")
            return res
    return Verdict("verified", states=counter[0])


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
        assert not rb.is_green(c) and c != YELLOW, "strategy used green/yellow"
    # the book holds exactly the cliques of a full recompute, each
    # satisfying condition (1); membership is unique
    in_clique = set()
    cliques = set()
    for x, y in itertools.permutations(range(m), 2):
        members = red_clique(net2, rb, x, y)
        if z in members:
            in_clique.add((x, y))
        if len(members) < 2:
            continue
        cliques.add((x, y))
        h = book.get((x, y))
        assert h is not None, f"clique R({x},{y}) missing from book"
        for w, w2 in itertools.combinations(members, 2):
            i = rb.green_index(net2.label(x, w))
            i2 = rb.green_index(net2.label(x, w2))
            assert i != i2
            assert net2.label(w, w2) == rb.red(h[i], h[i2])
    assert set(book) == cliques, "book entries without a clique"
    assert len(in_clique) <= 1, "new node joined two cliques"


# ---------------------------------------------------------------------------
# the refutation for more greens than red indices


def rainbow_refuter_moves(rb: Rainbow) -> list[ForallMove]:
    """After an opening on the white atom: attach each green via yellow."""
    return [ForallMove(0, 1, rb.green(i), YELLOW) for i in range(rb.s)]


def _exists_replies(net: Network, alg: Algebra, move: ForallMove):
    """All coherent replies to a move: an existing witness, or one new node.

    New-node labellings are enumerated one edge at a time, pruning as
    soon as a triangle is incoherent.  Only triangles through the new
    node z are checked: the new loop and the converse labels are right
    by construction in :func:`_new_node_labels`, and the old network is
    coherent.  By the Peircean closure of the validated structure that
    :class:`~relalg.algebra.Algebra` requires, the orderings of a
    triangle are consistent together, so one ordering decides the forced
    triangle {x, y, z}, and the labels of w-z that keep each {w, u, z}
    coherent, u labelled so far, are the atoms of the meet of
    comp[l(w, u)][l(u, z)], tried in ascending order like every atom.
    """
    st = alg.structure
    n = net.n
    lab = net.lab
    x, y, a, b = move.x, move.y, move.a, move.b
    for z in range(n):
        if lab[x * n + z] == a and lab[z * n + y] == b:
            yield net  # trivial witness already present
    base = _new_node_labels(net, st, move)
    if base is None:
        return
    m = n + 1
    z = n
    comp = alg.comp
    done = sorted({x, y})
    todo = [w for w in range(n) if w not in done]

    def assign(idx: int):
        if idx == len(todo):
            yield Network(m, tuple(base))
            return
        w = todo[idx]
        mask = alg.one
        for u in done:
            mask &= comp[base[w * m + u]][base[u * m + z]]
        done.append(w)
        for c in bits(mask):
            base[w * m + z] = c
            base[z * m + w] = st.conv[c]
            yield from assign(idx + 1)
        done.pop()

    if comp[a][b] >> lab[x * n + y] & 1:
        yield from assign(0)


def verify_forall_refutation(
    rb: Rainbow,
    max_rounds: int,
    max_states: int = DEFAULT_MAX_STATES,
) -> Verdict:
    """Play the refuter against every coherent reply of the witness player.

    Verified means every branch reaches a round where no coherent reply
    exists — for more greens than red indices this is forced because no
    injection of green indices into red indices exists (pigeonhole).
    """
    check_counts(max_rounds=max_rounds, max_states=max_states)
    alg = rb.algebra
    # the opening is round 0, so max_rounds leaves max_rounds - 1 moves
    moves = rainbow_refuter_moves(rb)[: max(max_rounds - 1, 0)]
    counter = [0]
    names = rb.structure.names

    def dfs(net: Network, idx: int) -> Optional[Verdict]:
        counter[0] += 1
        if counter[0] > max_states:
            return Verdict("inconclusive", reason="state budget", states=counter[0])
        if idx == len(moves):
            return Verdict("counterexample",
                           reason="a reply line outlasts every refuter move",
                           states=counter[0])
        move = moves[idx]
        for reply in _exists_replies(net, alg, move):
            res = dfs(reply, idx + 1)
            if res is not None:
                if reply.n > net.n:
                    line = _move_line(idx + 1, reply, move, alg)
                else:
                    line = (f"{_forall_prefix(idx + 1, move, names)}"
                            " | exists: existing witness")
                res.transcript.insert(0, line)
                return res
        return None

    res = dfs(initial_response(alg, WHITE), 0)
    if res is not None:
        res.transcript.insert(0, "round 0 | forall: atom w")
        return res
    return Verdict(
        "verified",
        [
            "every reply line dies within "
            f"{len(moves) + 1} rounds: no injection of {rb.s} greens "
            f"into {rb.t} red indices exists (pigeonhole)"
        ],
        states=counter[0],
    )
