"""The c-pebble game on atom structures viewed as relational structures.

An atom structure is recast over the language {Id, Cv, Cs, =}: a unary
predicate for identity atoms, a binary one for converse pairs and a
ternary one for consistent triples.  The first player moves a pebble
onto an atom of either structure, the second player moves the matching
pebble in the other structure, and the second player survives as long
as the pebbled pairs form a partial isomorphism.

The green-matching strategy answers non-green atoms by name, covers
re-pebbled atoms, and answers a fresh green with the least green not
currently pebbled; with at most as many pebbles as red indices it never
runs out of greens.  :func:`verify_pebble_strategy` returns a
:class:`~relalg.verdict.Verdict`.

The search asks the strategy for one reply table per position, side
and pebble (:meth:`Cor33Strategy.replies`), the reply to every atom at
once, and decides each child by comparing two ints, the moved atom's
type over the other pebbled atoms and the reply's type over their
partners (:func:`atom_types`): every expanded position is a partial
isomorphism, so a child is one iff the facts through the new pair agree.
Types are memoized per search and side, one int per atom for each
distinct sorted tuple of at most pebbles - 1 other pebbled atoms.
``respond``, the reply to one atom, is called only to word a failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .atoms import AtomStructure, bits, table_triples
from .rainbow import Rainbow
from .verdict import Verdict, check_counts

DEFAULT_MAX_STATES = 5_000_000


@dataclass(frozen=True)
class AtomRelStructure:
    """An atom structure as a relational structure over {Id, Cv, Cs, =},
    held as the structure's own table: Id(a) is bit a of ``id_mask``,
    Cv(a, b) is ``conv[a] == b`` and Cs(a, b, c) is bit c of
    ``comp[a][b]``.  The relations as sets of tuples, ``id_rel``,
    ``cv_rel`` and ``cs_rel``, are views derived on first use."""

    names: tuple
    conv: tuple
    comp: tuple
    id_mask: int

    @classmethod
    def from_atom_structure(cls, st: AtomStructure) -> "AtomRelStructure":
        return cls(names=st.names, conv=st.conv, comp=st.comp,
                   id_mask=sum(1 << e for e in st.identity))

    @property
    def size(self) -> int:
        return len(self.names)

    @cached_property
    def id_rel(self) -> frozenset:  # unary
        return frozenset(bits(self.id_mask))

    @cached_property
    def cv_rel(self) -> frozenset:  # binary
        return frozenset(enumerate(self.conv))

    @cached_property
    def cs_rel(self) -> frozenset:  # ternary
        return table_triples(self.comp)


# a position maps pebble index -> (atom of left structure, atom of right)
PebblePosition = dict


def partial_iso(
    left: AtomRelStructure, right: AtomRelStructure, pos: PebblePosition
):
    """Check that the pebbled pairs form a partial isomorphism.

    Returns (True, None) or (False, reason).  All relations and their
    negations must agree on pebbled tuples, and the induced map must be
    well defined and injective.
    """
    fwd: dict = {}
    bwd: dict = {}
    for a, b in pos.values():
        if fwd.setdefault(a, b) != b:
            return False, f"{left.names[a]} sent to two atoms"
        if bwd.setdefault(b, a) != a:
            return False, f"two atoms sent to {right.names[b]}"
    pairs = list(fwd.items())
    for a, b in pairs:
        if (left.id_mask >> a & 1) != (right.id_mask >> b & 1):
            return False, f"Id disagrees at {left.names[a]} vs {right.names[b]}"
    for a1, b1 in pairs:
        for a2, b2 in pairs:
            if (left.conv[a1] == a2) != (right.conv[b1] == b2):
                return False, (
                    f"Cv disagrees at ({left.names[a1]}, {left.names[a2]})"
                )
            lcs, rcs = left.comp[a1][a2], right.comp[b1][b2]
            for a3, b3 in pairs:
                if (lcs >> a3 & 1) != (rcs >> b3 & 1):
                    return False, (
                        "Cs disagrees at "
                        f"({left.names[a1]}, {left.names[a2]}, {left.names[a3]})"
                    )
    return True, None


def atom_types(st: AtomRelStructure, xs: tuple) -> list[int]:
    """The type of every atom a over the atoms ``xs``, in their order,
    packed as an int: the truth of each Id, Cv, Cs and = fact that
    mentions a, its other places filled from ``xs``.

    From the high bit down: Id(a), Cv(a, a), Cs(a, a, a); then per x in
    ``xs``: a = x, Cv(a, x), Cv(x, a), Cs(a, a, x), Cs(a, x, a),
    Cs(x, a, a), each x followed by, per y in ``xs``: Cs(a, x, y),
    Cs(x, a, y), Cs(x, y, a).  If xs and ys, taken pairwise, form a
    partial isomorphism, adding the pair (a, b) keeps one iff a's type
    over xs equals b's type over ys.
    """
    conv, comp, idm = st.conv, st.comp, st.id_mask
    out = []
    for a, row in enumerate(comp):
        ca = conv[a]
        t = (idm >> a & 1) << 2 | (ca == a) << 1 | row[a] >> a & 1
        for x in xs:
            xrow = comp[x]
            ax, xa = row[x], xrow[a]
            t = (t << 6 | (a == x) << 5 | (ca == x) << 4 | (conv[x] == a) << 3
                 | (row[a] >> x & 1) << 2 | (ax >> a & 1) << 1 | xa >> a & 1)
            for y in xs:
                t = t << 3 | (ax >> y & 1) << 2 | (xa >> y & 1) << 1 | xrow[y] >> a & 1
        out.append(t)
    return out


class PebbleStrategyFailure(Exception):
    pass


class Cor33Strategy:
    """Green-matching second-player strategy for two structures sharing
    their red index set (non-green atoms identified by name)."""

    def __init__(self, rb_left: Rainbow, rb_right: Rainbow):
        if rb_left.t != rb_right.t:
            raise ValueError("structures have different red index sets")
        self.rb = {"L": rb_left, "R": rb_right}
        # per side, each atom's same-named partner on the other side, or
        # None for a green, which has no fixed partner
        self.partner = {
            side: [None if src.is_green(a)
                   else src.rename_nongreens(dst, 1 << a).bit_length() - 1
                   for a in range(src.structure.n_atoms)]
            for side, src, dst in (("L", rb_left, rb_right), ("R", rb_right, rb_left))
        }

    def replies(self, pos: PebblePosition, side: str, pebble: int) -> list:
        """The reply to every atom of ``side``'s structure when the first
        player moves ``pebble`` there, in one pass: a pebbled atom gets
        its partner, a non-green its same-named partner, and a fresh
        green the least green not pebbled on the other side, or None
        when every green is."""
        mine, theirs = (0, 1) if side == "L" else (1, 0)
        # the moved pebble vacates its old pair, so pebble itself is skipped
        others = [pair for k, pair in pos.items() if k != pebble]
        taken = {pair[theirs] for pair in others}
        dst = self.rb["R" if side == "L" else "L"]
        free = next((g for g in dst.greens if g not in taken), None)
        out = [free if p is None else p for p in self.partner[side]]
        for pair in reversed(others):  # the first covering pebble wins
            out[pair[mine]] = pair[theirs]
        return out

    def respond(self, pos: PebblePosition, side: str, pebble: int, atom: int) -> int:
        """side is where the first player placed ("L" or "R")."""
        reply = self.replies(pos, side, pebble)[atom]
        if reply is None:
            raise PebbleStrategyFailure("no free green atom")
        return reply


def _move_line(i, side, pebble, left, right, atom, reply, status) -> str:
    src, dst = (left, right) if side == "L" else (right, left)
    reply_name = dst.names[reply] if reply is not None else "-"
    return (
        f"round {i} | forall: struct={side} pebble={pebble}"
        f" atom={src.names[atom]} | exists: atom={reply_name} | {status}"
    )


def closure_line(last_round: int, classes: int) -> str:
    """The line of a search that closed: the moves of ``last_round``
    reached no class beyond the ``classes`` expanded."""
    return (f"closed at round {last_round}: no move reaches a position class "
            f"beyond the {classes} expanded, so every number of rounds is won")


def verify_pebble_strategy(
    left: AtomRelStructure,
    right: AtomRelStructure,
    strategy,
    pebbles: int,
    rounds: int,
    max_states: int = DEFAULT_MAX_STATES,
) -> Verdict:
    """Play every first-player line of at most ``rounds`` placements.

    Breadth first over position classes, a class being the sorted tuple
    of pebbled pairs: layer r holds one position for each class first
    reached after r placements, and each class is expanded once.  This
    is exact for a positional strategy that ignores pebble identity, as
    the green-matching one does: the positions of a class have the same
    replies and children up to renaming pebbles.  A first reach is a
    class's fewest placements, so the classes expanded are exactly those
    reachable in fewer than ``rounds``.  Last-layer children are checked
    but not kept.  A layer whose children were kept but include no new
    class closes the search: the moves from the classes expanded reach
    only themselves, so every number of rounds is won, and the verdict's
    transcript holds the one :func:`closure_line` naming that round and
    the class count.  A last layer's children are not keyed, so it
    never shows closure.  A loss gives a shortest losing line, rebuilt
    from each class's parent and move; more than ``max_states``
    positions expanded give "inconclusive".

    ``strategy.replies(pos, side, pebble)`` gives the reply to every
    atom of the mover's structure, None where the strategy has none,
    once per (position, side, pebble); only a None or differing types
    call ``strategy.respond`` again, to word the failure, or
    :func:`partial_iso`, to word the breach.

    Each child is decided by types (:func:`atom_types`).  The root is
    empty and a child is kept only if it passed, so every expanded
    position is a partial isomorphism, and so is what is left of it
    when the moved pebble's old pair is dropped.  Adding (a, b) to those
    pairs keeps a partial isomorphism iff every Id, Cv, Cs and = tuple
    through a agrees with its image, that is iff a's type over their
    left atoms equals b's type over their right atoms, both in sorted
    pair order.  The types of every atom of a side are memoized
    for the call on those sorted atoms: at most (distinct sorted tuples
    of at most pebbles - 1 atoms) x atoms ints per side.
    """
    check_counts(pebbles=pebbles, rounds=rounds, max_states=max_states)
    came: dict = {(): None}  # class -> (parent class, side, pebble, atom, reply)

    def line_to(key, *last) -> list:
        """The line to class ``key``, then the move ``last`` if given."""
        moves = [last] if last else []
        while came[key] is not None:
            key, *move = came[key]
            moves.append((*move, "ok"))
        return [_move_line(i, side, pebble, left, right, atom, reply, status)
                for i, (side, pebble, atom, reply, status)
                in enumerate(reversed(moves))]

    types: dict = {}  # (side, other pairs' atoms on it) -> atom_types

    def types_over(side, struct, xs) -> list:
        got = types.get((side, xs))
        if got is None:
            got = types[side, xs] = atom_types(struct, xs)
        return got

    states, depth, layer = 0, 0, [((), {})]
    while layer and depth < rounds:  # an empty layer: the classes are closed
        keep, grown = depth < rounds - 1, []
        for key, pos in layer:
            states += 1
            if states > max_states:
                return Verdict("inconclusive", line_to(key), "state budget",
                               states=states)
            rest = []  # per pebble: the other pairs, sorted, and their types
            for pebble in range(pebbles):
                others = sorted(p for k, p in pos.items() if k != pebble)
                rest.append((others,
                             types_over("L", left, tuple(p[0] for p in others)),
                             types_over("R", right, tuple(p[1] for p in others))))
            for side in "LR":
                mine = 0 if side == "L" else 1
                for pebble, (others, lt, rt) in enumerate(rest):
                    mt, tt = (lt, rt) if side == "L" else (rt, lt)
                    old = pos.get(pebble)
                    skip = None if old is None else old[mine]  # no-op re-placement
                    for atom, reply in enumerate(strategy.replies(pos, side, pebble)):
                        if atom == skip:
                            continue
                        if reply is None or mt[atom] != tt[reply]:
                            # respond words the failure, partial_iso the breach
                            try:
                                reply = strategy.respond(pos, side, pebble, atom)
                            except PebbleStrategyFailure as exc:
                                reply, status = None, f"strategy failed: {exc}"
                            else:
                                pair = (atom, reply) if side == "L" else (reply, atom)
                                ok, reason = partial_iso(left, right, {**pos, pebble: pair})
                                status = "ok" if ok else f"breach: {reason}"
                            if status != "ok":
                                return Verdict(
                                    "counterexample",
                                    line_to(key, side, pebble, atom, reply, status),
                                    "first player forces a non-isomorphic position",
                                    states=states)
                        if keep:
                            pair = (atom, reply) if side == "L" else (reply, atom)
                            child_key = tuple(sorted([*others, pair]))
                            if child_key not in came:
                                came[child_key] = (key, side, pebble, atom, reply)
                                grown.append((child_key, {**pos, pebble: pair}))
        layer, depth = grown, depth + 1
    if depth < rounds:  # a keyed layer reached no new class
        return Verdict("verified", [closure_line(depth - 1, states)], states=states)
    return Verdict("verified", states=states)
