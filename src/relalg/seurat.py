"""The n-round colouring game on a pair of finite sets.

Each round paints one colour: the first player picks a subset of one
set, the second player a subset of the other.  A palette is a set of
colours; its cell in T (resp. T') is the set of points carrying exactly
those colours.  The first player wins if some palette's two cells have
different sizes with at least one below 2.

:func:`verify_seurat_strategy` returns a :class:`~relalg.verdict.Verdict`;
the exact solver :func:`brute_force_winner` returns the winner's name.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Optional

from .verdict import Verdict, check_counts

Cell = tuple[frozenset, frozenset]


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


def forall_wins(pos: SeuratPosition) -> Optional[int]:
    """The witness palette if the position is a first-player win, else None."""
    for palette, (a, b) in pos.cells.items():
        if len(a) != len(b) and (len(a) < 2 or len(b) < 2):
            return palette
    return None


def dagger_holds(pos: SeuratPosition) -> bool:
    """The survival invariant: small cells must have equal sizes.

    At position r, any palette whose cell on either side is smaller than
    2^(n+1-r) must have cells of equal size on both sides.
    """
    bound = 1 << (pos.n + 1 - pos.r)
    for a, b in pos.cells.values():
        if (len(a) < bound or len(b) < bound) and len(a) != len(b):
            return False
    return True


class SeuratStrategyFailure(Exception):
    pass


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


class SeuratSession:
    """A live game driven round by round by the balancing strategy.

    Callers feed the first player's subsets through :meth:`play` and get
    :func:`lemma43_strategy`'s reply back; the position advances as a
    side effect.
    """

    def __init__(self, n: int, t_set, t2_set):
        self.pos = SeuratPosition.initial(n, t_set, t2_set)

    @property
    def rounds_left(self) -> int:
        return self.pos.n - self.pos.r

    def play(self, side: str, chosen) -> frozenset:
        """Answer a first-player subset of T (side="T") or T' (side="T2")."""
        if self.rounds_left <= 0:
            raise SeuratStrategyFailure("session exhausted")
        reply = lemma43_strategy(self.pos, chosen, side)
        if side == "T":
            self.pos = apply_round(self.pos, chosen, reply)
        else:
            self.pos = apply_round(self.pos, reply, chosen)
        return reply


# ---------------------------------------------------------------------------
# exact solving


def brute_force_winner(t_size: int, t2_size: int, n: int) -> str:
    """Exact game value ("exists" or "forall") for small instances.

    States are reduced to the multiset of per-palette cell size pairs;
    every rule only reads cell sizes, so this collapse is exact.  The
    first player's subset choices reduce to one intersection count per
    cell, and likewise for the responses.
    """
    check_counts(t_size=t_size, t2_size=t2_size, n=n)

    @lru_cache(maxsize=None)
    def survives(cells: tuple, rounds_left: int) -> bool:
        for p, q in cells:
            if p != q and (p < 2 or q < 2):
                return False
        if rounds_left == 0:
            return True
        for side in (0, 1):
            mover = [c[side] for c in cells]
            other = [c[1 - side] for c in cells]
            for picks in product(*(range(sz + 1) for sz in mover)):
                for resp in product(*(range(sz + 1) for sz in other)):
                    nxt = []
                    for (p, q), i, j in zip(cells, picks, resp):
                        pi, qi = (i, j) if side == 0 else (j, i)
                        nxt.append((pi, qi))
                        nxt.append((p - pi, q - qi))
                    if survives(tuple(sorted(nxt)), rounds_left - 1):
                        break
                else:
                    return False
        return True

    return "exists" if survives(((t_size, t2_size),), n) else "forall"


# ---------------------------------------------------------------------------
# strategy verification


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
    """
    check_counts(t_size=t_size, t2_size=t2_size, n=n)
    t_set = frozenset(range(t_size))
    t2_set = frozenset(range(t2_size))
    start = SeuratPosition.initial(n, t_set, t2_set)
    if forall_wins(start) is not None:
        return Verdict("counterexample", ["initial position lost"],
                       "the initial position is lost")
    grounds = (("T", sorted(t_set)), ("T2", sorted(t2_set)))

    if mode == "exhaustive":
        starts = 1

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
        if pos.r == pos.n:
            plays += 1
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
