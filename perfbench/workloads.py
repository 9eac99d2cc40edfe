"""The four workloads: their instances, their set-up and one round each.

A round is a fixed list of verifications run one after another through
relalg's public API.  Each one is handed to ``op(group, thunk, check)``:
the runner times ``thunk()`` alone, then ``check(result)`` compares the
verdict with a computation made here, apart from the program, and
returns ``(work, problem)``.  ``work`` is the workload's unit read from
the result; ``problem`` is None when the check passes.  A
:class:`KnownFault` problem marks a check that fails because of a fault
already on record in CHANGES.md: the operation counts as failed, but the
run's outputs still count as correct.

Set-up prepares inputs the way a CLI run does: ``build_rainbow``, a
``.ras`` text round trip (``rasfile.loads`` re-closes and validates),
then the ``Algebra`` / ``AtomRelStructure`` objects the rounds reuse.
"""

from __future__ import annotations

import random
import re

from meter import KnownFault
from relalg import algebra, efgame, logic, networks, pebble, rainbow, rasfile, seurat


def n_atoms(s: int, t: int) -> int:
    """Atoms of B(s, t): 1', b, w, y, s greens and t*t reds."""
    return 4 + s + t * t


def load_rainbow(s: int, t: int) -> rainbow.Rainbow:
    """B(s, t) as a CLI run gets it: built, written as .ras, read back."""
    st = rasfile.loads(rasfile.dumps(rainbow.build_rainbow(s, t)))
    return rainbow.Rainbow(s=s, t=t, structure=st)


def _expect(result, status: str, work: int, problem=None):
    if problem is None and result.status != status:
        problem = f"status {result.status!r}, expected {status!r}"
    return work, problem


def _sub_seed(seed: int, salt: str) -> int:
    return random.Random(f"{seed}:{salt}").randrange(1 << 32)


# ---------------------------------------------------------------------------
# netgame: the atomic network game; work unit = states (VerifyResult.states)

# (s, t, rounds): survival strategy verified, states must grow with rounds
NET_DEPTH = [(2, 2, 2), (2, 2, 3), (2, 3, 2), (2, 3, 3)]
# (s, t, rounds): more greens than red indices, the strategy must fail
NET_FAIL = [(3, 2, 4), (4, 3, 4)]
# (s, t, max_rounds): the refuter wins by pigeonhole
NET_REFUTE = [(s, s - 1, s + 2) for s in range(3, 7)]


def netgame_setup(seed: int) -> dict:
    pairs = {(s, t) for s, t, _ in NET_DEPTH + NET_FAIL + NET_REFUTE}
    return {st: load_rainbow(*st) for st in sorted(pairs)}


def _exists_check(s, t, rounds, done):
    def check(r):
        # expected verdict from the theorem: representable iff s <= t
        if s <= t:
            problem = None
            prev = done.get((s, t, rounds - 1))
            if prev is not None and r.states <= prev.states:
                # each round adds a node, so a deeper search must see more
                problem = KnownFault(
                    f"{r.states} states at rounds {rounds}, "
                    f"{prev.states} at rounds {rounds - 1}"
                )
            return _expect(r, "verified", r.states, problem)
        last = r.transcript[-1] if r.transcript else ""
        problem = None if "no injection" in last else f"transcript ends {last!r}"
        return _expect(r, "counterexample", r.states, problem)

    return check


def _refute_check(s):
    def check(r):
        # the witness answers the first s - 1 greens, one red index each,
        # so some line holds s networks before pigeonhole ends it
        if r.states < s:
            return _expect(r, "verified", r.states, f"{r.states} states, under {s}")
        cites = any("pigeonhole" in line for line in r.transcript)
        return _expect(r, "verified", r.states, None if cites else "no pigeonhole")

    return check


def netgame_round(rbs: dict, op, tr) -> None:
    done: dict = {}
    for s, t, rounds in NET_DEPTH + NET_FAIL:
        rb = rbs[s, t]
        done[s, t, rounds] = op(
            f"exists B({s},{t}) rounds={rounds}",
            lambda: networks.verify_exists_strategy(rb, rounds),
            _exists_check(s, t, rounds, done),
        )
    for s, t, max_rounds in NET_REFUTE:
        rb = rbs[s, t]
        op(
            f"refute B({s},{t}) max_rounds={max_rounds}",
            lambda: networks.verify_forall_refutation(rb, max_rounds),
            _refute_check(s),
        )


# ---------------------------------------------------------------------------
# equivalence: the n-round game on two complex algebras; work unit = plays

# (s_a, s_b, t, n, mode, samples)
EQ_CASES = [
    (4, 5, 1, 1, "exhaustive", None),
    (8, 9, 2, 2, "sampled", 300),
    (8, 9, 7, 2, "sampled", 6),
    (3, 4, 2, 1, "exhaustive", None),
]
_EF_LINE = re.compile(r"side=([AB]) elem=(0x[0-9a-f]+) \| exists: elem=(0x[0-9a-f]+)")


def equivalence_setup(seed: int) -> dict:
    ctx: dict = {"seeds": {}}
    for s_a, s_b, t, n, mode, _ in EQ_CASES:
        for s in (s_a, s_b):
            if (s, t) not in ctx:
                rb = load_rainbow(s, t)
                ctx[s, t] = (rb, algebra.Algebra(rb.structure))
        if mode == "sampled":
            ctx["seeds"][s_a, s_b, t] = _sub_seed(seed, f"ef{s_a},{s_b},{t}")
    return ctx


def _last_position(r, alg_a, alg_b) -> efgame.EFPosition:
    """The position of a counterexample's last line, re-read from text."""
    pos = efgame.EFPosition(alg_a, alg_b)
    for line in r.transcript:
        side, elem, resp = _EF_LINE.search(line).groups()
        a, b = int(elem, 16), int(resp, 16)
        pos = pos.extended(*((a, b) if side == "A" else (b, a)))
    return pos


def _ef_check(s_a, s_b, t, n, mode, samples, alg_a, alg_b):
    def check(r):
        # 2^(n+1) greens on both sides let the simulation strategy win;
        # the one case below that bound, B(3,2)/B(4,2), is a known loss
        if min(s_a, s_b) < 1 << (n + 1):
            try:
                closure = efgame.pair_closure(_last_position(r, alg_a, alg_b))
            except (AttributeError, RuntimeError) as exc:
                return r.plays, f"last position not re-checkable: {exc}"
            if r.status == "counterexample" and closure.is_isomorphism:
                return r.plays, "pair_closure finds an isomorphism at the end"
            return _expect(r, "counterexample", r.plays)
        if mode == "sampled":
            bad = None if r.plays == samples else f"{r.plays} plays of {samples}"
            return _expect(r, "verified-sampled", r.plays, bad)
        want = 2 ** n_atoms(s_a, t) + 2 ** n_atoms(s_b, t)
        bad = None if r.plays == want else f"{r.plays} plays, expected {want}"
        return _expect(r, "verified", r.plays, bad)

    return check


def equivalence_round(ctx: dict, op, tr) -> None:
    for s_a, s_b, t, n, mode, samples in EQ_CASES:
        (rb_a, alg_a), (rb_b, alg_b) = ctx[s_a, t], ctx[s_b, t]
        kw = {}
        if mode == "sampled":
            kw = {"samples": samples, "seed": ctx["seeds"][s_a, s_b, t]}
        op(
            f"{mode} n={n} B({s_a},{t})/B({s_b},{t})",
            lambda: efgame.verify_ef_strategy(
                alg_a, alg_b, efgame.Prop44Strategy(rb_a, rb_b), n, mode=mode, **kw
            ),
            _ef_check(s_a, s_b, t, n, mode, samples, alg_a, alg_b),
        )


# ---------------------------------------------------------------------------
# colouring: the colouring game on point sets; work unit = plays

COL_EXHAUSTIVE = [(6, 6, 2), (12, 13, 1)]
COL_SAMPLED = [(16, 16, 3, 1000), (16, 17, 3, 1000)]
GRID_MAX, GRID_ROUNDS = 12, 2
FORALL_MAX = 8


def colouring_setup(seed: int) -> dict:
    """The seeds of the sampled runs.  The colouring game takes no other
    input than the sizes above, so this set-up is close to nothing."""
    return {(p, q, n): _sub_seed(seed, f"col{p},{q},{n}") for p, q, n, _ in COL_SAMPLED}


def winner_oracle(p: int, q: int, n: int):
    """The winner where it is known without search, else None."""
    if p == q or min(p, q) >= 1 << (n + 1):
        return "exists"
    if n == 0:  # one cell (p, q): lost iff sizes differ and one is below 2
        return "forall" if min(p, q) < 2 else "exists"
    return None


def _grid_check(p, q, n):
    def check(w):
        want = winner_oracle(p, q, n)
        return 0, None if want in (None, w) else f"{w!r}, expected {want!r}"

    return check


def _seurat_check(status, plays=None):
    def check(r):
        bad = None if plays in (None, r.plays) else f"{r.plays} plays, expected {plays}"
        return _expect(r, status, r.plays, bad)

    return check


def colouring_round(seeds: dict, op, tr) -> None:
    for p, q, n in COL_EXHAUSTIVE:
        op(
            f"exhaustive {p}+{q} points n={n}",
            lambda: seurat.verify_seurat_strategy(
                p, q, n, strategy=seurat.lemma43_strategy
            ),
            _seurat_check("verified", (2**p + 2**q) ** n),
        )
    for p, q, n, k in COL_SAMPLED:
        op(
            f"sampled {p}+{q} points n={n}",
            lambda: seurat.verify_seurat_strategy(
                p, q, n, mode="sampled", samples=k, seed=seeds[p, q, n],
                strategy=seurat.lemma43_strategy,
            ),
            _seurat_check("verified-sampled", k),
        )
    grid = {}
    for p in range(GRID_MAX + 1):
        for q in range(GRID_MAX + 1):
            for n in range(GRID_ROUNDS + 1):
                grid[p, q, n] = op(
                    f"brute_force_winner p,q<={GRID_MAX} n<={GRID_ROUNDS}",
                    lambda: seurat.brute_force_winner(p, q, n),
                    _grid_check(p, q, n),
                )
    for (p, q, n), winner in grid.items():
        if winner == "forall" and max(p, q) <= FORALL_MAX:
            op(
                f"exhaustive where forall wins, p,q<={FORALL_MAX} n<={GRID_ROUNDS}",
                lambda: seurat.verify_seurat_strategy(
                    p, q, n, strategy=seurat.lemma43_strategy
                ),
                _seurat_check("counterexample"),
            )


# ---------------------------------------------------------------------------
# finite_variable: axioms, two-variable sentences and the pebble game;
# work unit = verdicts returned

AXIOM_RANGE = range(2, 5)
# (s, t, k_max): "Exists x . phi_k" for k = 1..k_max
CARDINALITY = [(2, 1, 8), (1, 2, 10)]
LAW = "A x . A y . (x;y)^ = y^;x^"
LAW_OPEN = "A y . (x;y)^ = y^;x^"
LAW_STRUCTURE = (2, 1)
# the open law is checked at LAW_SAMPLES seeded elements x of this one
LAW_OPEN_STRUCTURE, LAW_SAMPLES = (2, 2), 32
# (s_left, s_right, t, pebbles, rounds)
PEBBLE = [(2, 3, 2, 2, 5), (2, 3, 2, 3, 3), (3, 4, 3, 3, 3)]


def finite_variable_setup(seed: int) -> dict:
    pairs = {(s, t) for s in AXIOM_RANGE for t in AXIOM_RANGE}
    in_algebra = {(s, t) for s, t, _ in CARDINALITY}
    in_algebra |= {LAW_STRUCTURE, LAW_OPEN_STRUCTURE}
    pebbled = {(s, t) for sl, sr, t, *_ in PEBBLE for s in (sl, sr)}
    rbs = {st: load_rainbow(*st) for st in sorted(pairs | in_algebra | pebbled)}
    algs = {st: algebra.Algebra(rbs[st].structure) for st in sorted(in_algebra)}
    rels = {st: pebble.AtomRelStructure.from_atom_structure(rbs[st].structure)
            for st in sorted(pebbled)}
    rng = random.Random(_sub_seed(seed, "law"))
    law_xs = [rng.randrange(algs[LAW_OPEN_STRUCTURE].size) for _ in range(LAW_SAMPLES)]
    return {"rbs": rbs, "algs": algs, "rels": rels, "law_xs": law_xs}


def _verdict_check(want):
    def check(got):
        return 1, None if got == want else f"{got!r}, expected {want!r}"

    return check


def _pebble_check(pebbles, t):
    def check(r):
        if pebbles <= t:  # enough greens to match every pebble
            return _expect(r, "verified", 1)
        # every placement but the last keeps a partial isomorphism; the
        # last breaches one, or the strategy finds no reply
        *kept, last = r.transcript or [""]
        bad = None
        if not all(line.endswith("| ok") for line in kept):
            bad = f"a placement before the last fails: {kept}"
        elif "| breach: " not in last and "| strategy failed: " not in last:
            bad = f"last placement {last!r}"
        return _expect(r, "counterexample", 1, bad)

    return check


def finite_variable_round(ctx: dict, op, tr) -> None:
    rbs, algs, rels = ctx["rbs"], ctx["algs"], ctx["rels"]
    for s in AXIOM_RANGE:
        for t in AXIOM_RANGE:
            st = rbs[s, t].structure
            op(f"check_axioms B(s,t) s,t in 2..4",
               lambda: algebra.check_axioms(st), _verdict_check([]))

    def cardinality(f, alg):
        with tr.span("logic.evaluate.cardinality"):
            return logic.evaluate(f, alg)

    for s, t, k_max in CARDINALITY:
        for k in range(1, k_max + 1):
            op(
                f"Exists x . phi_k B({s},{t}) k=1..{k_max}",
                lambda: cardinality(logic.cardinality_sentence(k), algs[s, t]),
                _verdict_check(k <= n_atoms(s, t)),
            )

    def composition(text, alg, env=None):
        f = logic.parse_formula(text)
        with tr.span("logic.evaluate.composition"):
            return logic.evaluate(f, alg, env)

    op(f"{LAW} on B{LAW_STRUCTURE}",
       lambda: composition(LAW, algs[LAW_STRUCTURE]), _verdict_check(True))
    for x in ctx["law_xs"]:
        op(f"{LAW_OPEN} on B{LAW_OPEN_STRUCTURE}, {LAW_SAMPLES} seeded x",
           lambda: composition(LAW_OPEN, algs[LAW_OPEN_STRUCTURE], {"x": x}),
           _verdict_check(True))

    for s_l, s_r, t, pebbles, rounds in PEBBLE:
        op(
            f"pebble B({s_l},{t})/B({s_r},{t}) pebbles={pebbles} rounds={rounds}",
            lambda: pebble.verify_pebble_strategy(
                rels[s_l, t], rels[s_r, t],
                pebble.Cor33Strategy(rbs[s_l, t], rbs[s_r, t]), pebbles, rounds,
            ),
            _pebble_check(pebbles, t),
        )


# name -> (set-up from a seed, one round over the set-up's result)
WORKLOADS = {
    "netgame": (netgame_setup, netgame_round),
    "equivalence": (equivalence_setup, equivalence_round),
    "colouring": (colouring_setup, colouring_round),
    "finite_variable": (finite_variable_setup, finite_variable_round),
}
