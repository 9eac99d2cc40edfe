"""End-to-end acceptance checks, one printed verdict line per criterion.

Each test exercises one headline capability at its stated scale and
prints "criterion N: PASS ..." (or FAIL) even under captured output.
The suite is slower than the unit tests; run it with the rest via
plain ``pytest``.
"""

import time

import pytest

from relalg import (
    Algebra,
    Cor33Strategy,
    Prop44Strategy,
    Rainbow,
    build_phi_k,
    build_rainbow,
    check_axioms,
    evaluate,
    predicted_representable,
    verify_ef_strategy,
    verify_exists_strategy,
    verify_forall_refutation,
    verify_pebble_strategy,
    verify_seurat_strategy,
)
from relalg.efgame import EFPosition, pair_closure, position_winner
from relalg.logic import Exists
from relalg.networks import (
    assert_strategy_invariants,
    coherent,
    initial_response,
    rainbow_exists_strategy,
    rainbow_refuter_moves,
)
from relalg.pebble import AtomRelStructure
from relalg.seurat import SeuratSession, brute_force_winner, dagger_holds, forall_wins
from reference import count_atoms_oracle


def _report(capsys, n: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"criterion {n}: {status} — {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_axioms_all_small_rainbows(capsys):
    t0 = time.monotonic()
    bad = []
    for s in range(2, 5):
        for t in range(2, 5):
            problems = check_axioms(build_rainbow(s, t))
            if problems:
                bad.append((s, t, problems[0]))
    dt = time.monotonic() - t0
    _report(
        capsys, 1, not bad and dt < 5.0,
        f"relation algebra axioms hold for all 9 structures, 2<=s,t<=4 "
        f"({dt:.2f}s)" + (f"; first failure {bad[0]}" if bad else ""),
    )


def test_criterion_2_network_survival_exhaustive(capsys):
    t0 = time.monotonic()
    results = {}
    for s, t in [(2, 2), (2, 3)]:
        results[(s, t)] = verify_exists_strategy(Rainbow.make(s, t), rounds=4)
    dt = time.monotonic() - t0
    ok = all(r.verified for r in results.values()) and dt < 300.0
    states = ", ".join(
        f"B({s},{t}): {r.status}/{r.states} states" for (s, t), r in results.items()
    )
    _report(capsys, 2, ok, f"witness strategy survives every 4-round attack ({states}; {dt:.1f}s)")


def test_criterion_3_refutations_cite_pigeonhole(capsys):
    t0 = time.monotonic()
    r32 = verify_forall_refutation(Rainbow.make(3, 2), max_rounds=5)
    r43 = verify_forall_refutation(Rainbow.make(4, 3), max_rounds=6)
    dt = time.monotonic() - t0
    ok = (
        r32.verified and "pigeonhole" in r32.transcript[-1]
        and r43.verified and "pigeonhole" in r43.transcript[-1]
        and dt < 600.0
    )
    _report(
        capsys, 3, ok,
        f"refuter wins on B(3,2) within 5 rounds and B(4,3) within 6, "
        f"citing pigeonhole ({dt:.1f}s)",
    )


def test_criterion_4_refuter_attack_fizzles_on_representable(capsys):
    rb = Rainbow.make(2, 2)
    alg = Algebra(rb.structure)
    net = initial_response(alg, 2)  # white opening
    book: dict = {}
    ok = True
    for move in rainbow_refuter_moves(rb):
        prev = net
        net, book = rainbow_exists_strategy(rb, net, book, move)
        if coherent(net, alg) is not None:
            ok = False
            break
        assert_strategy_invariants(rb, prev, net, book, move)
    _report(
        capsys, 4, ok and net.n == 4,
        "the pigeonhole attack on B(2,2) leaves the witness with a "
        f"coherent {net.n}-node network",
    )


def test_criterion_5_colouring_strategy_verified(capsys):
    t0 = time.monotonic()
    r1 = verify_seurat_strategy(4, 4, 1)
    r2 = verify_seurat_strategy(8, 8, 2)
    r3 = verify_seurat_strategy(
        16, 16, 3, mode="sampled", samples=100_000, seed=20260826,
    )
    r4 = verify_seurat_strategy(16, 16, 3)
    r5 = verify_seurat_strategy(32, 32, 4)
    dt = time.monotonic() - t0
    ok = (
        r1.status == "verified" and r2.status == "verified"
        and r3.status == "verified-sampled" and r3.plays == 100_000
        and r4.status == "verified" and r4.plays == (2**16 + 2**16) ** 3
        and r5.status == "verified" and r5.plays == (2**32 + 2**32) ** 4
    )
    _report(
        capsys, 5, ok,
        "balancing strategy exhaustive on 1 round over 4+4 points, "
        "2 rounds over 8+8, 3 rounds over 16+16 and 4 rounds over 32+32, "
        "sampled 100000 plays on 3 rounds over 16+16, "
        f"survival invariant held throughout ({dt:.1f}s)",
    )


def test_criterion_6_colouring_game_exact_values(capsys):
    ok = (
        brute_force_winner(2, 3, 1) == "forall"
        and brute_force_winner(4, 4, 1) == "exists"
    )
    detail = []
    for p in range(7):
        for q in range(7):
            want = "forall" if p != q and (p < 2 or q < 2) else "exists"
            got = brute_force_winner(p, q, 0)
            if got != want:
                ok = False
                detail.append(f"({p},{q}): {got}")
    _report(
        capsys, 6, ok,
        "exact solver: 1 round over 2 vs 3 points is a first-player win, "
        "4 vs 4 a second-player win; 0-round values match the closed form "
        "for all sizes <= 6" + ("; mismatches " + ", ".join(detail) if detail else ""),
    )


def test_criterion_7_equivalence_game_strategy(capsys):
    t0 = time.monotonic()
    rb_a, rb_b = Rainbow.make(4, 2), Rainbow.make(5, 2)
    res1 = verify_ef_strategy(
        Algebra(rb_a.structure), Algebra(rb_b.structure),
        Prop44Strategy(rb_a, rb_b), n=1,
    )
    rb_c, rb_d = Rainbow.make(8, 2), Rainbow.make(9, 2)
    res2 = verify_ef_strategy(
        Algebra(rb_c.structure), Algebra(rb_d.structure),
        Prop44Strategy(rb_c, rb_d), n=2,
        mode="sampled", samples=10_000, seed=20260826,
    )
    dt = time.monotonic() - t0
    ok = res1.status == "verified" and res2.status == "verified-sampled" and dt < 900.0
    _report(
        capsys, 7, ok,
        f"one-round game between 4 and 5 greens verified exhaustively over "
        f"{res1.plays} first moves ({res1.states} position classes checked); "
        f"two-round game between 8 and 9 greens verified on {res2.plays} "
        f"sampled plays ({res2.states} position classes checked) ({dt:.1f}s)",
    )


def test_criterion_8_representability_prediction(capsys):
    ok = predicted_representable(4, 4) and not predicted_representable(5, 4)
    _report(
        capsys, 8, ok,
        "B(4,4), 4 greens over 4 reds, predicted representable and "
        "B(5,4), 5 greens over 4 reds, not, by the s <= t criterion",
    )


def test_criterion_9_cardinality_formulas_match_oracle(capsys):
    t0 = time.monotonic()
    alg22 = Algebra(build_rainbow(2, 2))  # 10 atoms
    alg32 = Algebra(build_rainbow(3, 2))  # 11 atoms
    ok = True
    for k in range(1, 12):
        sentence = Exists("x", build_phi_k(k))
        if evaluate(sentence, alg22) != count_atoms_oracle(alg22, k):
            ok = False
    s11 = Exists("x", build_phi_k(11))
    ok = ok and evaluate(s11, alg32) and not evaluate(s11, alg22)
    dt = time.monotonic() - t0
    _report(
        capsys, 9, ok and dt < 600.0,
        "two-variable cardinality sentences agree with the popcount "
        "oracle for k = 1..11; the k = 11 sentence separates an 11-atom "
        f"structure from a 10-atom one ({dt:.1f}s)",
    )


def test_criterion_10_pebble_game(capsys):
    rb_l, rb_r = Rainbow.make(2, 2), Rainbow.make(3, 2)
    left = AtomRelStructure.from_atom_structure(rb_l.structure)
    right = AtomRelStructure.from_atom_structure(rb_r.structure)
    strat = Cor33Strategy(rb_l, rb_r)
    r2 = verify_pebble_strategy(left, right, strat, pebbles=2, rounds=4)
    r3 = verify_pebble_strategy(left, right, strat, pebbles=3, rounds=3)
    ok = (
        r2.verified
        and r3.status == "counterexample"
        and len(r3.transcript) <= 3
    )
    _report(
        capsys, 10, ok,
        "green-matching strategy survives 4 rounds with 2 pebbles between "
        "2 and 3 greens; with 3 pebbles a losing line appears within "
        f"{len(r3.transcript)} placements",
    )


def test_criterion_11_invariant_suites(capsys):
    import random

    ok = True
    # network game: every strategy response preserves its invariants
    res = verify_exists_strategy(Rainbow.make(2, 2), rounds=3, check_invariants=True)
    ok = ok and res.verified

    # colouring game: the survival invariant holds along random plays
    sess = SeuratSession(2, 0xFF, 0xFF)
    rng = random.Random(7)
    for _ in range(2):
        side = rng.choice(("T", "T2"))
        sess.play(side, sum(1 << x for x in range(8) if rng.random() < 0.5))
        ok = ok and dagger_holds(sess.pos) and forall_wins(sess.pos) is None

    # equivalence game: the refinement check agrees with the closure oracle
    alg = Algebra(Rainbow.make(2, 2).structure)
    alg2 = Algebra(Rainbow.make(2, 2).structure)
    for _ in range(100):
        pos = EFPosition(
            alg, alg2,
            ((rng.randrange(alg.size), rng.randrange(alg2.size)),),
        )
        ok = ok and (
            position_winner(pos).exists_ok == pair_closure(pos).is_isomorphism
        )
    _report(
        capsys, 11, ok,
        "strategy, survival and refinement invariants all hold on their "
        "check suites",
    )


def test_criterion_12_colouring_game_threshold(capsys):
    t0 = time.monotonic()
    bad = [
        (p, q, n)
        for n in range(4)
        for p in range(17)
        for q in range(17)
        if (brute_force_winner(p, q, n) == "exists")
        != (p == q or min(p, q) >= 2 ** (n + 1))
    ]
    dt = time.monotonic() - t0
    _report(
        capsys, 12, not bad,
        "exact solver: the second player wins G_n(p, q) iff p = q or "
        "min(p, q) >= 2^(n+1), for all 1156 values with n <= 3 and "
        "p, q <= 16, so the paper's bound is tight there "
        f"({len(bad)} mismatches, {dt:.1f}s)",
    )
