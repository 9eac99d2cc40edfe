"""The n-round back-and-forth equivalence game on two complex algebras.

Each round the first player picks an element of either algebra and the
second player answers with an element of the other; a finished play is
a sequence of element pairs.  The second player has survived iff the
pairing (extended by the constants) generates an isomorphism between
the generated subalgebras.

The winner of a position is decided by joint partition refinement over
paired atom cells rather than by enumerating the generated subalgebras,
which keeps a single check near-instant even on algebras with thousands
of elements.  Each refinement pass lists every cell's atoms on both
sides, forms all cell products of a side in one batch from those lists
(:meth:`Algebra.compose_all`), keeps each distinct pair of products
once (a repeated pair can split no group), and signs every atom with an
int over those pairs.  A direct pairwise closure (:func:`pair_closure`)
is kept as an independently-checkable oracle for small instances.

:func:`verify_ef_strategy` returns a :class:`~relalg.verdict.Verdict`.
Each play first gets all of the strategy's replies, and then only its
last position is decided (the root, when n = 0).  The earlier positions
are decided only when the last one is lost, from round 0 on, to find
the first lost round.  This is exact because the winner is monotone
along a play: an isomorphism that extends a pairing with one more pair
restricts to one that extends the pairing without it
(:func:`_play_out` gives the argument).
Within one call it decides each position once per class of its
starting joint partition of the atoms (the region pairs the played
pairs and the identity cut the two tops into), taken up to
permutations inside the twin classes of the two algebras
(:attr:`Algebra.twin_classes`, atoms that an automorphism swaps).
:func:`position_winner` reads the played masks only through that
partition, and every such permutation is a pair of automorphisms, so
positions of one class have one winner (:func:`_partition_key` gives
the argument).  Every play is still run, so the strategy still answers
every move, and more than a state budget of classes ends the check
"inconclusive".  The verdict's ``states`` counts the classes decided,
so it falls on sampled runs with n >= 2, whose won plays are decided
at their last position alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional

from .algebra import Algebra
from .rainbow import Rainbow
from .seurat import SeuratSession, SeuratStrategyFailure
from .verdict import BudgetExhausted, Verdict, check_counts

EXHAUSTIVE_MAX_ROUNDS = 1
EXHAUSTIVE_MAX_SIZE = 1 << 13
DEFAULT_MAX_STATES = 1_000_000


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
    Each pass numbers the groups in order of first appearance and lists
    each group's atoms on both sides.  It then forms every cell product
    on both sides at once (:meth:`Algebra.compose_all`, from those atom
    lists) and keeps each distinct (A-product, B-product) pair once, in
    order of first appearance.  An atom's next signature is (its cell,
    the cell of its converse, an int with bit p set when the atom lies
    in distinct product pair p).  A repeated product pair would add a
    column equal to an earlier one, and an equal column splits no group,
    so dropping it leaves every partition, and with it the coarsest
    stable one, unchanged.  A signature holds its own cell, so each pass
    refines the last, and a pass with as many groups as the last has
    the same partition: it is stable.  The cells are listed in mask
    order.
    """
    alg_a, alg_b = pos.alg_a, pos.alg_b
    conv_a, conv_b = alg_a.conv_atom, alg_b.conv_atom

    def columns(pairs, alg: Algebra, side: int) -> list:
        """Per atom, the int whose bit p is its membership in pairs[p]:
        the side's masks as k-bit strings, joined last pair first, and
        read off by one slice per atom."""
        k, one = alg.n_atoms, alg.one
        width = f"0{k}b"
        rows = "".join([format(p[side] & one, width) for p in reversed(pairs)])
        return [int(rows[c::k], 2) for c in range(k - 1, -1, -1)]

    def mask(atoms: list) -> int:
        return sum(1 << x for x in atoms)

    elems = list(pos.pairs) + [(alg_a.identity_mask, alg_b.identity_mask)]
    sig_a, sig_b = columns(elems, alg_a, 0), columns(elems, alg_b, 1)
    cells: list = []
    while True:
        ids: dict = {}
        cell_a = [ids.setdefault(sig, len(ids)) for sig in sig_a]
        cell_b = [ids.setdefault(sig, len(ids)) for sig in sig_b]
        if len(ids) == len(cells):
            return PositionVerdict(winner="exists", cells=sorted(
                (mask(xs), mask(ys)) for xs, ys in cells))
        cells = [([], []) for _ in ids]
        for i, c in enumerate(cell_a):
            cells[c][0].append(i)
        for i, c in enumerate(cell_b):
            cells[c][1].append(i)
        for xs, ys in cells:
            if not xs or not ys:
                return PositionVerdict(winner="forall", witness=(mask(xs), mask(ys)))
        prods_a = alg_a.compose_all([xs for xs, _ in cells])
        prods_b = alg_b.compose_all([ys for _, ys in cells])
        prods = dict.fromkeys(zip(chain(*prods_a), chain(*prods_b)))
        col_a, col_b = columns(prods, alg_a, 0), columns(prods, alg_b, 1)
        sig_a = [(c, cell_a[v], s) for c, v, s in zip(cell_a, conv_a, col_a)]
        sig_b = [(c, cell_b[v], s) for c, v, s in zip(cell_b, conv_b, col_b)]


# ---------------------------------------------------------------------------
# strategies


class Prop44Strategy:
    """Second-player strategy for a pair of structures sharing their
    non-green atoms, driven by one colouring session per play.

    The green atoms of the first player's element name a subset of its
    structure's green index set; that subset, as an index mask, is
    played into the colouring session (side "T" for structure A, "T2"
    for B), and the response is the identically-named non-green part
    plus the greens indexed by the session's reply mask.
    """

    def __init__(self, rb_a: Rainbow, rb_b: Rainbow):
        if rb_a.t != rb_b.t:
            raise ValueError("structures have different red index sets")
        self.rb_a, self.rb_b = rb_a, rb_b

    def start(self, n: int) -> SeuratSession:
        return SeuratSession(n, (1 << self.rb_a.s) - 1, (1 << self.rb_b.s) - 1)

    def respond(self, session: SeuratSession, side: str, elem: int) -> int:
        src, dst, set_side = ((self.rb_a, self.rb_b, "T") if side == "A"
                              else (self.rb_b, self.rb_a, "T2"))
        reply = session.play(set_side, src.green_indices(elem))
        return src.rename_nongreens(dst, elem) | dst.green_atoms(reply)


# ---------------------------------------------------------------------------
# strategy verification


def _round_line(i: int, side: str, elem: int, resp: int, status: str) -> str:
    return (
        f"round {i} | forall: side={side} elem={elem:#x}"
        f" | exists: elem={resp:#x} | {status}"
    )


def _partition_key(alg_a: Algebra, alg_b: Algebra):
    """The key of a position: its starting joint partition of the atoms,
    up to permutations inside the twin classes of each side
    (:attr:`Algebra.twin_classes`).

    The partition starts from the one region pair (1 in A, 1 in B) and
    splits every region pair by the identity pair, then by each played
    pair (a, b), into (ra & a, rb & b) and (ra & ~a, rb & ~b).  A pair is
    dropped only when both its sides are empty; a one-sided pair is kept,
    as it is exactly a "forall" case.  Each region is described by its
    mask outside the twin classes and its size inside each class, and
    the key is the sorted tuple of the region pairs' descriptors.

    Soundness.  (1) :func:`position_winner` reads the played masks only
    to form its first-pass groups, the atoms of both sides with one
    membership vector over the played elements and the identity; those
    groups are exactly these region pairs.  Every later pass, and the
    one-sided test, reads only the set of groups, so the winner is a
    function of the set of region pairs.  (2) Two positions with equal
    keys have the same multiset of descriptors, so their region pairs
    can be matched with equal descriptors.  Matched regions agree
    outside the twin classes and have equal sizes inside each class, so
    a permutation inside each class, one per side, maps every region of
    the first partition onto its match.  Each such permutation is a
    product of twin transpositions, hence an automorphism, and it fixes
    1'.  The pairing of the first position extends to an isomorphism f
    iff the permuted pairing extends to the image of f under the two
    automorphisms, and the permuted pairing has the second position's
    partition, hence by (1) its winner.

    The key is exact: keys are equal iff such a pair of permutations
    exists, since the permutations keep every descriptor.  It merges
    whatever twin swaps of the played masks merge, and also positions
    whose masks differ but split the atoms alike: a pair and its
    complement, a pair and its symmetric difference with the identity
    pair, the same pairs in another order, a repeated pair.
    """
    def describe(alg: Algebra):
        masks = [sum(1 << x for x in cls) for cls in alg.twin_classes]
        fixed = alg.one & ~sum(masks)
        return lambda r: (r & fixed, *[(r & m).bit_count() for m in masks])

    desc_a, desc_b = describe(alg_a), describe(alg_b)
    top = [(alg_a.one, alg_b.one)]
    ident = (alg_a.identity_mask, alg_b.identity_mask)

    def key(pairs) -> tuple:
        regions = top
        for a, b in chain((ident,), pairs):
            regions = [
                (x, y)
                for ra, rb in regions
                for x, y in ((ra & a, rb & b), (ra & ~a, rb & ~b))
                if x or y
            ]
        return tuple(sorted((desc_a(x), desc_b(y)) for x, y in regions))

    return key


def _play_out(alg_a, alg_b, strategy, n, moves, exists_ok) -> Optional[list[str]]:
    """Run one play from a fixed first-player move list; None if the
    strategy survives it, else the transcript of the lost play.

    The strategy first answers every move.  Then ``exists_ok`` decides
    the play's last position only: the position after the last reply,
    or the root when the play has no moves.  Only when that position is
    lost are the earlier ones decided, from round 0 on, and the
    transcript ends at the first lost round, its line ending
    ``forall wins``.  A lost root gives the one line ``initial position
    lost``.

    This is exact because the winner is monotone along a play.  Say
    the pairing P ∪ {p} extends to an isomorphism f from the subalgebra
    of A that its A-sides and the constants generate onto the one of B
    that its B-sides and the constants generate.  f is a homomorphism
    that maps each A-side of P to its B-side and each constant to its
    partner, so it maps the subalgebra ⟨P⟩_A that P's A-sides and the
    constants generate onto the one that their images generate: ⟨P⟩_B.
    Restricted there, f is still one-to-one, so P extends too.  Hence
    a won last position means every position of the play is won, and a
    lost one is reached at the same first lost round as when each
    position is decided in turn.

    A reply the strategy cannot give (:class:`SeuratStrategyFailure`)
    ends the play, and the positions before it are decided as above.
    If one of them is lost, that loss is reported; otherwise the play
    is lost at the failed round, whose line ends ``exists: strategy
    failure: <message>``.  A failure in round 0 decides no position."""
    ctx = strategy.start(n)
    pairs: list = []
    failure: list = []
    for i, (side, elem) in enumerate(moves):
        try:
            resp = strategy.respond(ctx, side, elem)
        except SeuratStrategyFailure as exc:
            failure = [f"round {i} | forall: side={side} elem={elem:#x}"
                       f" | exists: strategy failure: {exc}"]
            break
        pairs.append((elem, resp) if side == "A" else (resp, elem))

    def played(upto: int, last: str) -> list[str]:
        return [
            _round_line(j, s, e, b if s == "A" else a, "ok" if j < upto else last)
            for j, ((s, e), (a, b)) in enumerate(zip(moves[:upto + 1], pairs))
        ]

    def lost(rounds: int) -> bool:
        return not exists_ok(EFPosition(alg_a, alg_b, tuple(pairs[:rounds])))

    if (pairs or not moves) and lost(len(pairs)):
        if not pairs:
            return ["initial position lost"]
        first = next(i for i in range(len(pairs)) if i == len(pairs) - 1 or lost(i + 1))
        return played(first, "forall wins")
    return played(len(pairs) - 1, "ok") + failure if failure else None


def _sampled_moves(alg_a, alg_b, n: int, samples: int, rng: random.Random):
    """Seeded first-player move lists: n moves a play, each on a random
    side, never repeating an element of that side within the play."""
    for _ in range(samples):
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
        yield moves


def verify_ef_strategy(
    alg_a: Algebra,
    alg_b: Algebra,
    strategy,
    n: int,
    mode: str = "exhaustive",
    samples: int = 10_000,
    seed: Optional[int] = None,
    max_states: int = DEFAULT_MAX_STATES,
) -> Verdict:
    """Check a second-player strategy against every (or a sample of)
    first-player play.

    Exhaustive mode walks all element choices on both sides each round
    and is only allowed for n <= 1, and for n = 1 only on algebras up to
    2^13 elements (n = 0 plays no element, so it takes any size); larger
    runs must use sampled mode, whose verdict is labelled
    "verified-sampled" and never counts as exhaustive.  A sampled play
    never repeats an element of a side, so n may not exceed either
    side's element count.

    Each play is run by :func:`_play_out`: the strategy answers every
    move, and then only the play's last position is decided, the root
    when n = 0; the earlier ones are decided only when it is lost, to
    find the first lost round.  The winner is monotone along a play
    (that docstring gives the argument), so this reports the same first
    lost play and transcript as deciding every position in turn.  A
    lost root is a counterexample with the transcript ``initial position
    lost`` and the reason "the initial position is lost".

    Each position is decided by :func:`position_winner` once per class,
    keyed on :func:`_partition_key`, its starting joint partition of the
    atoms up to twin swaps; that docstring argues that equal keys give
    equal winners.  The verdict's ``states`` is the number of classes
    decided, which is the number of :func:`position_winner` calls; as
    only last positions and the rounds of lost plays are decided, it
    falls on sampled runs with n >= 2.  More than ``max_states`` classes
    give "inconclusive" with reason "state budget" and no transcript.
    Status, reason, ``plays``, transcripts and the first lost play are
    those of checking each position of every play afresh.
    """
    check_counts(n=n, max_states=max_states)
    if mode == "exhaustive":
        if n > EXHAUSTIVE_MAX_ROUNDS:
            raise ValueError(
                f"exhaustive mode supports n <= {EXHAUSTIVE_MAX_ROUNDS}; use sampled"
            )
        if n and max(alg_a.size, alg_b.size) > EXHAUSTIVE_MAX_SIZE:
            raise ValueError("algebra too large for exhaustive mode; use sampled")
        move_lists = [[]] if n == 0 else (
            [(side, elem)]
            for side, alg in (("A", alg_a), ("B", alg_b))
            for elem in range(alg.size)
        )
    elif mode == "sampled":
        if seed is None:
            raise ValueError("sampled mode requires an explicit seed")
        check_counts(1, samples=samples)
        for side, alg in (("A", alg_a), ("B", alg_b)):
            if n > alg.size:
                raise ValueError(
                    f"n = {n} exceeds the {alg.size} elements of side {side}; "
                    "a sampled play never repeats an element of a side"
                )
        move_lists = _sampled_moves(alg_a, alg_b, n, samples, random.Random(seed))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    key = _partition_key(alg_a, alg_b)
    decided: dict = {}

    def exists_ok(pos: EFPosition) -> bool:
        k = key(pos.pairs)
        ok = decided.get(k)
        if ok is None:
            if len(decided) == max_states:
                raise BudgetExhausted
            ok = decided[k] = position_winner(pos).exists_ok
        return ok

    plays = 0
    try:
        for moves in move_lists:
            plays += 1
            lost = _play_out(alg_a, alg_b, strategy, n, moves, exists_ok)
            if lost is not None:
                reason = ("the initial position is lost" if n == 0 else
                          f"strategy reached a losing position in play {plays}")
                return Verdict("counterexample", lost, reason, states=len(decided),
                               plays=plays)
    except BudgetExhausted:
        return Verdict("inconclusive", reason="state budget", states=max_states + 1,
                       plays=plays)
    status = "verified" if mode == "exhaustive" else "verified-sampled"
    return Verdict(status=status, states=len(decided), plays=plays)
