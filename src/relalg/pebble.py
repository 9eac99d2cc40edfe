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
"""

from __future__ import annotations

from dataclasses import dataclass

from .atoms import AtomStructure
from .rainbow import Rainbow
from .verdict import Verdict, check_counts

DEFAULT_MAX_STATES = 5_000_000


@dataclass(frozen=True)
class AtomRelStructure:
    """An atom structure as a plain relational structure."""

    names: tuple
    id_rel: frozenset  # unary
    cv_rel: frozenset  # binary
    cs_rel: frozenset  # ternary

    @classmethod
    def from_atom_structure(cls, st: AtomStructure) -> "AtomRelStructure":
        return cls(
            names=st.names,
            id_rel=frozenset(st.identity),
            cv_rel=frozenset((a, st.conv[a]) for a in range(st.n_atoms)),
            cs_rel=frozenset(st.consistent),
        )

    @property
    def size(self) -> int:
        return len(self.names)


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
        if (a in left.id_rel) != (b in right.id_rel):
            return False, f"Id disagrees at {left.names[a]} vs {right.names[b]}"
    for a1, b1 in pairs:
        for a2, b2 in pairs:
            if ((a1, a2) in left.cv_rel) != ((b1, b2) in right.cv_rel):
                return False, (
                    f"Cv disagrees at ({left.names[a1]}, {left.names[a2]})"
                )
            for a3, b3 in pairs:
                if ((a1, a2, a3) in left.cs_rel) != ((b1, b2, b3) in right.cs_rel):
                    return False, (
                        "Cs disagrees at "
                        f"({left.names[a1]}, {left.names[a2]}, {left.names[a3]})"
                    )
    return True, None


class PebbleStrategyFailure(Exception):
    pass


class Cor33Strategy:
    """Green-matching second-player strategy for two structures sharing
    their red index set (non-green atoms identified by name)."""

    def __init__(self, rb_left: Rainbow, rb_right: Rainbow):
        if rb_left.t != rb_right.t:
            raise ValueError("structures have different red index sets")
        self.rb = {"L": rb_left, "R": rb_right}

    def respond(self, pos: PebblePosition, side: str, pebble: int, atom: int) -> int:
        """side is where the first player placed ("L" or "R")."""
        src, dst = (self.rb[side], self.rb["R" if side == "L" else "L"])
        mine, theirs = (0, 1) if side == "L" else (1, 0)
        # covering: the atom is already pebbled, reuse that pebble's partner
        for k, pair in pos.items():
            if k != pebble and pair[mine] == atom:
                return pair[theirs]
        if not src.is_green(atom):
            return src.rename_nongreens(dst, 1 << atom).bit_length() - 1
        # the moved pebble vacates its old pair, so pebble itself is skipped
        taken = {
            pair[theirs]
            for k, pair in pos.items()
            if k != pebble and dst.is_green(pair[theirs])
        }
        for g in dst.greens:
            if g not in taken:
                return g
        raise PebbleStrategyFailure("no free green atom")


def _move_line(i, side, pebble, left, right, atom, reply, status) -> str:
    src, dst = (left, right) if side == "L" else (right, left)
    reply_name = dst.names[reply] if reply is not None else "-"
    return (
        f"round {i} | forall: struct={side} pebble={pebble}"
        f" atom={src.names[atom]} | exists: atom={reply_name} | {status}"
    )


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
    but not kept; an empty layer (closure) ends the search.  A loss gives
    a shortest losing line, rebuilt from each class's parent and move;
    more than ``max_states`` positions expanded give "inconclusive".
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

    states, depth, layer = 0, 0, [((), {})]
    while layer and depth < rounds:  # an empty layer: the classes are closed
        grown = []
        for key, pos in layer:
            states += 1
            if states > max_states:
                return Verdict("inconclusive", line_to(key), "state budget",
                               states=states)
            for side, struct in (("L", left), ("R", right)):
                mine = 0 if side == "L" else 1
                for pebble in range(pebbles):
                    old, child = pos.get(pebble), dict(pos)
                    for atom in range(struct.size):
                        if old is not None and old[mine] == atom:
                            continue  # no-op re-placement
                        try:
                            reply = strategy.respond(pos, side, pebble, atom)
                        except PebbleStrategyFailure as exc:
                            reply, status = None, f"strategy failed: {exc}"
                        else:
                            pair = (atom, reply) if side == "L" else (reply, atom)
                            child[pebble] = pair
                            ok, reason = partial_iso(left, right, child)
                            status = "ok" if ok else f"breach: {reason}"
                        if status != "ok":
                            return Verdict(
                                "counterexample",
                                line_to(key, side, pebble, atom, reply, status),
                                "first player forces a non-isomorphic position",
                                states=states)
                        if depth < rounds - 1:
                            child_key = tuple(sorted(child.values()))
                            if child_key not in came:
                                came[child_key] = (key, side, pebble, atom, reply)
                                grown.append((child_key, dict(child)))
        layer, depth = grown, depth + 1
    return Verdict("verified", states=states)
