"""The n-round back-and-forth equivalence game on two complex algebras.

Each round the first player picks an element of either algebra and the
second player answers with an element of the other; a finished play is
a sequence of element pairs.  The second player has survived iff the
pairing (extended by the constants) generates an isomorphism between
the generated subalgebras.

The winner of a position is decided by joint partition refinement over
paired atom cells rather than by enumerating the generated subalgebras,
which keeps a single check near-instant even on algebras with thousands
of elements.  Each refinement pass forms all cell products of a side in
one batch (:meth:`Algebra.compose_all`), keeps each distinct pair of
products once (a repeated pair can split no group), and signs every
atom with an int over those pairs.  A direct pairwise closure
(:func:`pair_closure`) is kept as an independently-checkable oracle for
small instances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional

from .algebra import Algebra
from .rainbow import Rainbow
from .seurat import SeuratSession

EXHAUSTIVE_MAX_ROUNDS = 1
EXHAUSTIVE_MAX_SIZE = 1 << 13


@dataclass(frozen=True)
class EFPosition:
    """A (possibly partial) play: pairs (element of A, element of B)."""

    alg_a: Algebra
    alg_b: Algebra
    pairs: tuple = ()

    def extended(self, a: int, b: int) -> "EFPosition":
        return EFPosition(self.alg_a, self.alg_b, self.pairs + ((a, b),))


# ---------------------------------------------------------------------------
# pairwise closure (the small-instance oracle)


@dataclass
class PairClosure:
    """The closure of a pairing under all paired algebra operations."""

    pairs: frozenset  # of (mask in A, mask in B)
    functional_fwd: bool
    functional_bwd: bool
    clash: Optional[tuple] = None  # (side, element, partner1, partner2)

    @property
    def is_isomorphism(self) -> bool:
        return self.functional_fwd and self.functional_bwd


def pair_closure(pos: EFPosition, cap: int = 1 << 16) -> PairClosure:
    """Close the pairing under componentwise operations, watching for
    an element that ends up paired two different ways.

    Exponential in the worst case; meant as an oracle for small
    algebras, not for production position checks.
    """
    alg_a, alg_b = pos.alg_a, pos.alg_b
    seed = list(pos.pairs) + [
        (0, 0),
        (alg_a.one, alg_b.one),
        (alg_a.identity_mask, alg_b.identity_mask),
    ]
    fwd: dict = {}
    bwd: dict = {}
    clash = None

    def note(a: int, b: int) -> bool:
        nonlocal clash
        if fwd.setdefault(a, b) != b and clash is None:
            clash = ("A", a, fwd[a], b)
        if bwd.setdefault(b, a) != a and clash is None:
            clash = ("B", b, bwd[b], a)
        return (a, b) not in items_set

    items: list = []
    items_set: set = set()
    for a, b in seed:
        note(a, b)
        if (a, b) not in items_set:
            items_set.add((a, b))
            items.append((a, b))

    i = 0
    while i < len(items) and clash is None and len(items) <= cap:
        a, b = items[i]
        i += 1
        new = [
            (alg_a.complement(a), alg_b.complement(b)),
            (alg_a.converse(a), alg_b.converse(b)),
        ]
        for a2, b2 in items[:i]:
            new.append((a | a2, b | b2))
            new.append((alg_a.compose(a, a2), alg_b.compose(b, b2)))
            new.append((alg_a.compose(a2, a), alg_b.compose(b2, b)))
        for a3, b3 in new:
            note(a3, b3)
            if clash is not None:
                break
            if (a3, b3) not in items_set:
                items_set.add((a3, b3))
                items.append((a3, b3))

    if len(items) > cap:
        raise RuntimeError(f"pair closure exceeded cap {cap}")
    firsts = [a for a, _ in items]
    seconds = [b for _, b in items]
    return PairClosure(
        pairs=frozenset(items),
        functional_fwd=clash is None and len(set(firsts)) == len(items),
        functional_bwd=clash is None and len(set(seconds)) == len(items),
        clash=clash,
    )


# ---------------------------------------------------------------------------
# the production position check


@dataclass
class PositionVerdict:
    winner: str  # "exists" | "forall"
    # at an "exists" verdict: list of (mask in A, mask in B) atom cells of
    # the generated subalgebras, matched up by the induced isomorphism
    cells: list = field(default_factory=list)
    witness: Optional[tuple] = None  # one-sided (mask in A, mask in B) split

    @property
    def exists_ok(self) -> bool:
        return self.winner == "exists"


def position_winner(pos: EFPosition) -> PositionVerdict:
    """Decide whether the pairing extends to an isomorphism.

    Works on the atom partitions of the two generated subalgebras in
    lock step: atoms on both sides are grouped by a common signature,
    and the groups are refined until stable.  The pairing extends to an
    isomorphism iff no signature group ever ends up populated on one
    side only.

    The first signature of an atom is an int whose bit p says whether
    the atom lies in the p-th played element (the identity comes last).
    Each refinement pass then forms every cell product on both sides at
    once (:meth:`Algebra.compose_all`) and keeps each distinct
    (A-product, B-product) pair once, in order of first appearance.  An
    atom's next signature is (its cell, the cell of its converse, an int
    with bit p set when the atom lies in distinct product pair p).  A
    repeated product pair would add a column equal to an earlier one,
    and an equal column splits no group, so dropping it leaves every
    partition, and with it the coarsest stable one, unchanged.
    """
    alg_a, alg_b = pos.alg_a, pos.alg_b
    conv_a, conv_b = alg_a.conv_atom, alg_b.conv_atom

    def columns(pairs, alg: Algebra, side: int) -> list:
        """Per atom, the int whose bit p is its membership in pairs[p]:
        the transpose of the side's masks, done on binary strings."""
        width = f"0{alg.n_atoms}b"
        rows = [format(p[side] & alg.one, width) for p in reversed(pairs)]
        return [int("".join(col), 2) for col in zip(*rows)][::-1]

    elems = list(pos.pairs) + [(alg_a.identity_mask, alg_b.identity_mask)]
    sig_a, sig_b = columns(elems, alg_a, 0), columns(elems, alg_b, 1)

    while True:
        groups: dict = {}
        for i, sig in enumerate(sig_a):
            groups.setdefault(sig, [0, 0])[0] |= 1 << i
        for i, sig in enumerate(sig_b):
            groups.setdefault(sig, [0, 0])[1] |= 1 << i
        for ma, mb in groups.values():
            if (ma == 0) != (mb == 0):
                return PositionVerdict(winner="forall", witness=(ma, mb))
        keys = sorted(groups, key=groups.__getitem__)
        cells = [groups[sig] for sig in keys]
        rank = {sig: ci for ci, sig in enumerate(keys)}
        cell_a = [rank[sig] for sig in sig_a]
        cell_b = [rank[sig] for sig in sig_b]
        prods_a = alg_a.compose_all([ma for ma, _ in cells])
        prods_b = alg_b.compose_all([mb for _, mb in cells])
        prods = dict.fromkeys(zip(chain(*prods_a), chain(*prods_b)))
        col_a, col_b = columns(prods, alg_a, 0), columns(prods, alg_b, 1)
        new_a = [(c, cell_a[v], s) for c, v, s in zip(cell_a, conv_a, col_a)]
        new_b = [(c, cell_b[v], s) for c, v, s in zip(cell_b, conv_b, col_b)]
        if len(set(new_a) | set(new_b)) == len(cells):
            return PositionVerdict(
                winner="exists", cells=[(ma, mb) for ma, mb in cells]
            )
        sig_a, sig_b = new_a, new_b


# ---------------------------------------------------------------------------
# exact solving for tiny instances


def brute_force_winner(
    pos: EFPosition, n: int, max_states: int = 2_000_000
) -> str:
    """Exact game value ("exists", "forall", or "inconclusive").

    Memoized on the unordered set of played pairs, since the winner
    does not depend on the order of the rounds.  Intended for algebras
    of a handful of atoms only.
    """
    alg_a, alg_b = pos.alg_a, pos.alg_b
    memo: dict = {}
    states = 0

    def exists_survives(pairs: frozenset, rounds: int) -> bool:
        nonlocal states
        key = (pairs, rounds)
        got = memo.get(key)
        if got is not None:
            return got
        states += 1
        if states > max_states:
            raise _Budget
        if not position_winner(EFPosition(alg_a, alg_b, tuple(pairs))).exists_ok:
            memo[key] = False
            return False
        if rounds == 0:
            memo[key] = True
            return True
        played_a = {a for a, _ in pairs}
        played_b = {b for _, b in pairs}
        res = True
        for a in range(alg_a.size):
            if a in played_a:
                continue
            if not any(
                exists_survives(pairs | {(a, b)}, rounds - 1)
                for b in range(alg_b.size)
            ):
                res = False
                break
        if res:
            for b in range(alg_b.size):
                if b in played_b:
                    continue
                if not any(
                    exists_survives(pairs | {(a, b)}, rounds - 1)
                    for a in range(alg_a.size)
                ):
                    res = False
                    break
        memo[key] = res
        return res

    try:
        return "exists" if exists_survives(frozenset(pos.pairs), n) else "forall"
    except _Budget:
        return "inconclusive"


class _Budget(Exception):
    pass


# ---------------------------------------------------------------------------
# strategies


class MirrorStrategy:
    """Answer every move with the identical element; needs A = B."""

    def start(self, n: int):
        return None

    def respond(self, ctx, side: str, elem: int) -> int:
        return elem


def _nongreen_map(src: Rainbow, dst: Rainbow):
    """Mask transfer for non-green atoms between two same-S structures.

    The fixed atom ordering (identity, black, white, yellow, greens,
    reds) makes this a pure bit shuffle: the first four atoms keep
    their positions and the red block shifts by the difference in the
    number of greens.
    """
    if src.t != dst.t:
        raise ValueError("structures have different red index sets")
    low = (1 << 4) - 1
    reds_src = ((1 << src.t**2) - 1) << (4 + src.s)

    def transfer(x: int) -> int:
        non_green = x & ~src.green_mask
        if non_green & ~(low | reds_src):
            raise ValueError("mask has atoms outside the structure")
        reds = (non_green >> (4 + src.s)) << (4 + dst.s)
        return (non_green & low) | reds

    return transfer


def prop44_strategy(
    rb_src: Rainbow, rb_dst: Rainbow, elem: int, session: SeuratSession, side: str
) -> int:
    """One response of the colouring-game simulation strategy.

    ``elem`` is the first player's element of the *source* structure
    (side "T" = the session's left-hand set).  Its green atoms name a
    subset of the source's green index set; that subset is played into
    the colouring session, and the response is the identically-named
    non-green part plus the greens indexed by the session's reply.
    """
    chosen = frozenset(
        rb_src.green_index(a) for a in rb_src.greens if elem >> a & 1
    )
    reply = session.play(side, chosen)
    out = _nongreen_map(rb_src, rb_dst)(elem)
    for i in reply:
        out |= 1 << rb_dst.green(i)
    return out


class Prop44Strategy:
    """Second-player strategy for a pair of structures sharing their
    non-green atoms, driven by one colouring session per play."""

    def __init__(self, rb_a: Rainbow, rb_b: Rainbow):
        if rb_a.t != rb_b.t:
            raise ValueError("structures have different red index sets")
        self.rb_a, self.rb_b = rb_a, rb_b

    def start(self, n: int) -> SeuratSession:
        return SeuratSession(n, range(self.rb_a.s), range(self.rb_b.s))

    def respond(self, session: SeuratSession, side: str, elem: int) -> int:
        if side == "A":
            return prop44_strategy(self.rb_a, self.rb_b, elem, session, "T")
        return prop44_strategy(self.rb_b, self.rb_a, elem, session, "T2")


# ---------------------------------------------------------------------------
# strategy verification


@dataclass
class EFVerifyResult:
    status: str  # "verified" | "verified-sampled" | "counterexample"
    transcript: list = field(default_factory=list)
    plays: int = 0
    reason: str = ""

    @property
    def verified(self) -> bool:
        return self.status in ("verified", "verified-sampled")


def _round_line(i: int, side: str, elem: int, resp: int, status: str) -> str:
    return (
        f"round {i} | forall: side={side} elem={elem:#x}"
        f" | exists: elem={resp:#x} | {status}"
    )


def _play_out(alg_a, alg_b, strategy, n, moves) -> tuple:
    """Run one play from a fixed first-player move list; returns
    (ok, transcript lines)."""
    ctx = strategy.start(n)
    pos = EFPosition(alg_a, alg_b)
    lines = []
    for i, (side, elem) in enumerate(moves):
        resp = strategy.respond(ctx, side, elem)
        pair = (elem, resp) if side == "A" else (resp, elem)
        pos = pos.extended(*pair)
        verdict = position_winner(pos)
        status = "ok" if verdict.exists_ok else "forall wins"
        lines.append(_round_line(i, side, elem, resp, status))
        if not verdict.exists_ok:
            return False, lines
    return True, lines


def verify_ef_strategy(
    alg_a: Algebra,
    alg_b: Algebra,
    strategy,
    n: int,
    mode: str = "exhaustive",
    samples: int = 10_000,
    seed: Optional[int] = None,
) -> EFVerifyResult:
    """Check a second-player strategy against every (or a sample of)
    first-player play.

    Exhaustive mode walks all element choices on both sides each round
    and is only allowed for n <= 1 on algebras up to 2^13 elements;
    larger runs must use sampled mode, whose verdict is labelled
    "verified-sampled" and never counts as exhaustive.
    """
    if mode == "exhaustive":
        if n > EXHAUSTIVE_MAX_ROUNDS:
            raise ValueError(
                f"exhaustive mode supports n <= {EXHAUSTIVE_MAX_ROUNDS}; use sampled"
            )
        if max(alg_a.size, alg_b.size) > EXHAUSTIVE_MAX_SIZE:
            raise ValueError("algebra too large for exhaustive mode; use sampled")
        plays = 0
        for side, alg in (("A", alg_a), ("B", alg_b)):
            for elem in range(alg.size):
                moves = [(side, elem)] if n >= 1 else []
                ok, lines = _play_out(alg_a, alg_b, strategy, n, moves)
                plays += 1
                if not ok:
                    return EFVerifyResult(
                        status="counterexample",
                        transcript=lines,
                        plays=plays,
                        reason="strategy reached a losing position",
                    )
                if n == 0:
                    return EFVerifyResult(status="verified", plays=1)
        return EFVerifyResult(status="verified", plays=plays)

    if mode == "sampled":
        if seed is None:
            raise ValueError("sampled mode requires an explicit seed")
        rng = random.Random(seed)
        for play in range(samples):
            moves = []
            used = {"A": set(), "B": set()}
            for _ in range(n):
                side = rng.choice(("A", "B"))
                size = alg_a.size if side == "A" else alg_b.size
                elem = rng.randrange(size)
                while elem in used[side]:
                    elem = rng.randrange(size)
                used[side].add(elem)
                moves.append((side, elem))
            ok, lines = _play_out(alg_a, alg_b, strategy, n, moves)
            if not ok:
                return EFVerifyResult(
                    status="counterexample",
                    transcript=lines,
                    plays=play + 1,
                    reason="strategy reached a losing position",
                )
        return EFVerifyResult(status="verified-sampled", plays=samples)

    raise ValueError(f"unknown mode {mode!r}")
