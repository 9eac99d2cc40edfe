"""The n-round colouring game on a pair of finite sets.

Each round paints one colour: the first player picks a subset of one
set, the second player a subset of the other.  A palette is a set of
colours; its cell in T (resp. T') is the set of points carrying exactly
those colours.  The first player wins if some palette's two cells have
different sizes with at least one below 2.

The points of T and T' are 0..|T|-1 and 0..|T'|-1, and every set of
points is an int mask (bit i = point i): the players' subsets, the
replies and the cells.  After r of n rounds a position stores one cell
per palette over the r rounds played (an int below 2^r), only where the
cell is non-empty on some side, in ascending palette order.  This is
exact against the game on all 2^n palettes:

1. Palettes that agree on the r played bits have equal cells, by
   induction on r: at r = 0 every palette's cell is (T, T'), and a
   round splits each cell by the played bit alone, so two palettes
   that agree on it and on the earlier bits split equal cells alike.
2. Every rule reads only the set of distinct cells: the loss rule and
   the invariant (:func:`forall_wins`, :func:`dagger_holds`) ask
   whether some cell breaks them, the balancing reply is a union of
   per-cell parts each sized from its own cell, so a copy of a cell
   adds nothing to it, and the exhaustive cut asks whether every cell
   survives (:func:`_cell_survival`).
3. A cell empty on both sides breaks no rule (its sizes are equal), and
   its reply size is 0, so the reply gains nothing from it and it
   survives every round; dropping it changes no rule, reply or cut.
4. Every palette p at or above 2^r extends the stored palette
   p mod 2^r, which is smaller, so in ascending order the first stored
   palette that breaks a rule is the smallest of all 2^n palettes that
   does, the one a scan over all of them names, in a witness or in a
   failure message.

A play therefore holds at most |T| + |T'| cells in any round, however
large n is.  The exact solver and the exhaustive strategy check take at
most ``EXHAUSTIVE_MAX_ROUNDS`` rounds; sampled strategy checks take any n.

:func:`verify_seurat_strategy` returns a :class:`~relalg.verdict.Verdict`;
the exact solver :func:`brute_force_winner` returns the winner's name.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .verdict import Verdict, check_counts

# The exact solver and the exhaustive strategy check recurse once per
# round, about two interpreter frames a round; 256 rounds stay well
# under Python's default limit of 1,000 frames, test runners' included.
EXHAUSTIVE_MAX_ROUNDS = 256


@dataclass(frozen=True)
class SeuratPosition:
    """The non-empty cells after r of n rounds."""

    n: int
    r: int
    # palette over rounds 0..r-1 -> (T mask, T' mask), ascending, never (0, 0)
    cells: dict

    @classmethod
    def initial(cls, n: int, t_mask: int, t2_mask: int) -> "SeuratPosition":
        return cls(n=n, r=0, cells={0: (t_mask, t2_mask)} if t_mask or t2_mask else {})


def apply_round(pos: SeuratPosition, t_r: int, t2_r: int) -> SeuratPosition:
    """Split every cell by membership in the round's subsets: first the
    "out" children, which keep their palette, then the "in" children,
    which gain the round's bit, so the palettes stay ascending."""
    if pos.r >= pos.n:
        raise ValueError("round overflow")
    bit = 1 << pos.r
    cells = {}
    for palette, (a, b) in pos.cells.items():
        a_out, b_out = a & ~t_r, b & ~t2_r
        if a_out or b_out:
            cells[palette] = (a_out, b_out)
    for palette, (a, b) in pos.cells.items():
        a_in, b_in = a & t_r, b & t2_r
        if a_in or b_in:
            cells[palette | bit] = (a_in, b_in)
    return SeuratPosition(n=pos.n, r=pos.r + 1, cells=cells)


def _lost(p: int, q: int, bound: int) -> bool:
    """A cell of sizes (p, q) breaks a rule: the sizes differ and one is
    below ``bound``, 2 for the loss rule and 2^(n+1-r) for the invariant."""
    return p != q and min(p, q) < bound


def forall_wins(pos: SeuratPosition) -> Optional[int]:
    """The witness palette if the position is a first-player win, else None."""
    for palette, (a, b) in pos.cells.items():
        if _lost(a.bit_count(), b.bit_count(), 2):
            return palette
    return None


def dagger_holds(pos: SeuratPosition) -> bool:
    """The survival invariant: small cells must have equal sizes.

    At position r, any palette whose cell on either side is smaller than
    2^(n+1-r) must have cells of equal size on both sides.
    """
    bound = 1 << (pos.n + 1 - pos.r)
    return not any(_lost(a.bit_count(), b.bit_count(), bound)
                   for a, b in pos.cells.values())


class SeuratStrategyFailure(Exception):
    pass


def _lowest_bits(mask: int, k: int) -> int:
    """The k lowest set bits of ``mask``, which has at least k."""
    out = 0
    for _ in range(k):
        low = mask & -mask
        out |= low
        mask ^= low
    return out


def lemma43_strategy(pos: SeuratPosition, chosen: int, side: str) -> int:
    """The second player's size-balancing reply.

    ``chosen`` is the opponent's subset of T (side="T") or of T'
    (side="T2").  Per palette, the response sub-cell is sized by four
    cases keyed on whether the two split parts fall below 2^(n-r);
    "any subset" choices take the lowest points of the cell.
    Raises SeuratStrategyFailure when a case demands more points than
    the cell holds (only possible once the invariant is already broken).
    """
    if pos.r >= pos.n:
        raise SeuratStrategyFailure("no rounds left")
    m = 1 << (pos.n - pos.r)
    reply = 0
    for palette, (a, b) in pos.cells.items():
        mine, theirs = (a, b) if side == "T" else (b, a)
        n_in = (mine & chosen).bit_count()
        n_theirs = theirs.bit_count()
        if n_in < m:
            size = n_in
        else:
            n_out = mine.bit_count() - n_in
            size = n_theirs - n_out if n_out < m else m
        if size < 0 or size > n_theirs:
            raise SeuratStrategyFailure(
                f"palette {palette:b}: need {size} of {n_theirs} points"
            )
        reply |= theirs if size == n_theirs else _lowest_bits(theirs, size)
    return reply


class SeuratSession:
    """A live game driven round by round by the balancing strategy.

    Callers feed the first player's subsets through :meth:`play` and get
    :func:`lemma43_strategy`'s reply back; the position advances as a
    side effect.
    """

    def __init__(self, n: int, t_mask: int, t2_mask: int):
        self.pos = SeuratPosition.initial(n, t_mask, t2_mask)

    @property
    def rounds_left(self) -> int:
        return self.pos.n - self.pos.r

    def play(self, side: str, chosen: int) -> int:
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


def _outward(j: int, hi: int):
    """Every count 0..hi, from j outward: nearer ones first, lower on a tie."""
    yield j
    for d in range(1, max(j, hi - j) + 1):
        if j >= d:
            yield j - d
        if j + d <= hi:
            yield j + d


def brute_force_winner(t_size: int, t2_size: int, n: int) -> str:
    """Exact game value ("exists" or "forall"): every rule reads cell
    sizes only, so the second player wins iff the starting cell survives
    with every reply count allowed.  The replies are tried from the
    proportional count round(i*other/mover) outward; the reply is an
    existential choice over the same range, so the order changes only
    how soon a surviving one is found.  At most ``EXHAUSTIVE_MAX_ROUNDS``
    rounds, as the recursion nests once per round; more raise ValueError."""
    check_counts(t_size=t_size, t2_size=t2_size, n=n)
    if n > EXHAUSTIVE_MAX_ROUNDS:
        raise ValueError(f"the exact solver supports n <= {EXHAUSTIVE_MAX_ROUNDS}")

    def replies(p, q, r, i, side):
        mover, other = (p, q) if side == "T" else (q, p)
        return _outward(round(i * other / mover) if mover else 0, other)

    survives = _cell_survival(n, replies, lambda r: 2)
    return "exists" if survives(t_size, t2_size, 0) else "forall"


# ---------------------------------------------------------------------------
# strategy verification


def _points(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _transcript_line(pos: SeuratPosition, side: str, chosen: int, reply: int) -> str:
    cells = ", ".join(
        f"{p:0{pos.r}b}->({a.bit_count()},{b.bit_count()})"
        for p, (a, b) in pos.cells.items()
    )
    return (
        f"round {pos.r - 1} | forall side={side} set={_points(chosen)} "
        f"| exists set={_points(reply)} | cells: {cells}"
    )


def _play_one_round(pos, side, chosen, strategy):
    """Play one round: the strategy's reply, the split by
    :func:`apply_round`, and both rules on the new position.  Returns
    (next position, reply, None) when the strategy survives the round,
    else (None, None, the round's losing lines).

    One pass over the new cells decides both rules, counting each cell's
    sizes once: it stops at the first cell with p != q and
    min(p, q) < 2^(n+1-r), the survival invariant's bound at the new
    round r.  As r <= n, that bound is at least 2, so a cell that breaks
    the loss rule (p != q and min(p, q) < 2) breaks the invariant too,
    and a position that passes the pass also passes the loss rule.  Only
    a broken position runs :func:`forall_wins`, which names the palette
    in the lost line, so the lines are those of checking
    :func:`forall_wins` and then :func:`dagger_holds`.
    """
    try:
        reply = strategy(pos, chosen, side)
    except SeuratStrategyFailure as exc:
        return None, None, [f"round {pos.r} | strategy failure: {exc}"]
    if side == "T":
        nxt = apply_round(pos, chosen, reply)
    else:
        nxt = apply_round(pos, reply, chosen)
    bound = 1 << (nxt.n + 1 - nxt.r)
    for a, b in nxt.cells.values():
        p, q = a.bit_count(), b.bit_count()
        if p != q and min(p, q) < bound:
            break
    else:
        return nxt, reply, None
    pal = forall_wins(nxt)
    lost = ("survival invariant broken" if pal is None
            else f"forall wins with palette {pal:b}")
    return None, None, [_transcript_line(nxt, side, chosen, reply), lost]


def _lost_play(lines: list[str], plays: int) -> Verdict:
    """The counterexample of a lost play, after ``plays`` won ones."""
    return Verdict("counterexample", lines,
                   f"strategy reached a losing position in play {plays + 1}",
                   plays=plays)


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

    Both modes play each round through :func:`_play_one_round`, so the
    loss rule and the survival invariant (:func:`dagger_holds`) are
    checked after every round; only how the lines are chosen differs.
    A lost line's transcript holds one line per round played, then the
    losing round's rule (or ``round r | strategy failure: <msg>``), and
    ``plays`` counts the plays won before it.

    Exhaustive mode is a depth-first search from the root that tries
    both sides and every subset each round.  It counts the
    (2^|T| + 2^|T'|)^(n-r) plays below a position as won once every
    cell survives (:func:`_cell_survival`) under the strategy's replies,
    each read from a one-cell position with the i lowest points chosen,
    and the invariant's bound 2^(n+1-r) >= 2, which implies the loss
    rule.  This is exact for strategies that answer each palette from
    its cell's sizes and the round, as :func:`lemma43_strategy` does; a
    counterexample is the same first losing line with the same play
    number.  A position with no cell (both sets empty) asks about one
    empty cell instead, so a strategy that fails by the round alone is
    still asked.  As the search and the cut recurse once per round, it
    takes at most ``EXHAUSTIVE_MAX_ROUNDS`` rounds; more raise
    ValueError.

    Sampled mode is a loop over ``samples`` plays of n rounds, with no
    round limit.  A generator seeded with ``seed`` draws each round's
    move: the side by ``rng.choice``, then one ``rng.random()`` per
    point of that side, in point order, each taken below 0.5.  The
    rounds of the current play are kept in a list, and lines are
    formatted only for a lost play.  With n = 0 each sample is one won
    play and draws nothing.
    """
    check_counts(t_size=t_size, t2_size=t2_size, n=n)
    if mode == "exhaustive" and n > EXHAUSTIVE_MAX_ROUNDS:
        raise ValueError(
            f"exhaustive mode supports n <= {EXHAUSTIVE_MAX_ROUNDS}; use sampled"
        )
    start = SeuratPosition.initial(n, (1 << t_size) - 1, (1 << t2_size) - 1)
    if forall_wins(start) is not None:
        return Verdict("counterexample", ["initial position lost"],
                       "the initial position is lost")

    if mode == "sampled":
        if seed is None:
            raise ValueError("sampled mode requires a seed")
        check_counts(1, samples=samples)
        rng = random.Random(seed)
        choice, draw = rng.choice, rng.random
        grounds = (("T", [1 << g for g in range(t_size)]),
                   ("T2", [1 << g for g in range(t2_size)]))
        for play in range(samples):
            pos, played = start, []
            for _ in range(n):
                side, bits = choice(grounds)
                chosen = 0
                for bit in bits:
                    if draw() < 0.5:
                        chosen |= bit
                nxt, reply, bad = _play_one_round(pos, side, chosen, strategy)
                if bad is not None:
                    return _lost_play(
                        [_transcript_line(*rnd) for rnd in played] + bad, play)
                played.append((nxt, side, chosen, reply))
                pos = nxt
        return Verdict("verified-sampled", plays=samples)
    if mode != "exhaustive":
        raise ValueError(f"unknown mode {mode!r}")

    def strategy_reply(p, q, r, i, side):
        cell = ((1 << p) - 1, (1 << q) - 1)
        pos = SeuratPosition(n, r, {0: cell} if p or q else {})
        try:
            reply = strategy(pos, (1 << i) - 1, side)
        except SeuratStrategyFailure:
            return ()
        return ((cell[1 if side == "T" else 0] & reply).bit_count(),)

    survives = _cell_survival(n, strategy_reply, lambda r: 1 << (n + 1 - r))

    def moves():
        for side, size in (("T", t_size), ("T2", t2_size)):
            for mask in range(1 << size):
                yield side, mask

    plays = 0

    def dfs(pos: SeuratPosition) -> Optional[list[str]]:
        nonlocal plays
        if pos.r == pos.n or all(
                survives(a.bit_count(), b.bit_count(), pos.r)
                for a, b in pos.cells.values() or [(0, 0)]):
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

    bad = dfs(start)
    if bad is not None:
        return _lost_play(bad, plays)
    return Verdict("verified", plays=plays)
