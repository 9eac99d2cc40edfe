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
runs out of greens.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .atoms import AtomStructure
from .rainbow import Rainbow

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


class MirrorPebbleStrategy:
    """Answer with the identical atom; for a structure against itself."""

    def respond(self, pos: PebblePosition, side: str, pebble: int, atom: int) -> int:
        return atom


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
            # the fixed atom ordering identifies non-greens by a shift
            return atom if atom < 4 else atom - src.s + dst.s
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


@dataclass
class PebbleVerifyResult:
    status: str  # "verified" | "counterexample" | "inconclusive"
    transcript: list = field(default_factory=list)
    states: int = 0
    reason: str = ""

    @property
    def verified(self) -> bool:
        return self.status == "verified"


class _Budget(Exception):
    pass


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
) -> PebbleVerifyResult:
    """Exhaustively play every first-player line to the given depth.

    Positions are memoized on the multiset of pebbled pairs (pebble
    identity does not affect the winner) and the remaining depth.  The
    verdict "verified" certifies survival to exactly this depth; more
    than ``max_states`` positions give "inconclusive".
    """
    states = 0
    seen: set = set()

    def dfs(pos: PebblePosition, depth: int) -> Optional[list]:
        nonlocal states
        if depth == rounds:
            return None
        key = (tuple(sorted(pos.values())), depth)
        if key in seen:
            return None
        seen.add(key)
        states += 1
        if states > max_states:
            raise _Budget
        for side, struct in (("L", left), ("R", right)):
            mine = 0 if side == "L" else 1
            for pebble in range(pebbles):
                for atom in range(struct.size):
                    old = pos.get(pebble)
                    if old is not None and old[mine] == atom:
                        continue  # no-op re-placement
                    try:
                        reply = strategy.respond(pos, side, pebble, atom)
                    except PebbleStrategyFailure as exc:
                        return [
                            _move_line(depth, side, pebble, left, right,
                                       atom, None, f"strategy failed: {exc}")
                        ]
                    pair = (atom, reply) if side == "L" else (reply, atom)
                    pos[pebble] = pair
                    ok, reason = partial_iso(left, right, pos)
                    line = _move_line(depth, side, pebble, left, right,
                                      atom, pair[1 - mine],
                                      "ok" if ok else f"breach: {reason}")
                    if not ok:
                        bad = [line]
                    else:
                        bad = dfs(pos, depth + 1)
                        if bad is not None:
                            bad = [line] + bad
                    if old is None:
                        del pos[pebble]
                    else:
                        pos[pebble] = old
                    if bad is not None:
                        return bad
        return None

    try:
        losing = dfs({}, 0)
    except _Budget:
        return PebbleVerifyResult(
            status="inconclusive", states=states, reason="state budget"
        )
    if losing is None:
        return PebbleVerifyResult(status="verified", states=states)
    return PebbleVerifyResult(
        status="counterexample",
        transcript=losing,
        states=states,
        reason="first player forces a non-isomorphic position",
    )
