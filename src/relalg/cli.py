"""Command-line front end.

Every subcommand reads or writes the plain-text structure format and
prints a verdict report on stdout.  Exit codes: 0 = success/verified,
1 = violation or counterexample found, 2 = usage or parse error,
3 = inconclusive (budget exhausted).  Randomized modes refuse to run
without an explicit --seed so transcripts stay reproducible.
"""

from __future__ import annotations

import argparse
import sys

from . import algebra, efgame, logic, networks, pebble, rasfile, seurat
from .rainbow import Rainbow, build_rainbow, predicted_representable
from .verdict import BudgetExhausted

OK, FAIL, USAGE, INCONCLUSIVE = 0, 1, 2, 3


def _load(path: str):
    try:
        return rasfile.load(path)
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        sys.exit(USAGE)
    except rasfile.RasFormatError as exc:
        print(f"parse error in {path}: {exc}", file=sys.stderr)
        sys.exit(USAGE)


def _rainbow_of(st) -> Rainbow:
    try:
        return Rainbow.of(st)
    except ValueError:
        print("structure is not a rainbow structure", file=sys.stderr)
        sys.exit(USAGE)


def _at_least(least: int):
    """An argparse type for a count: an int no smaller than ``least``."""
    def count(text: str) -> int:  # argparse reports "invalid count value: 'x'"
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(
                f"invalid count {value}: must be at least {least}")
        return value

    return count


COUNT, POSITIVE = _at_least(0), _at_least(1)


def _finish(res, verified_line: str) -> int:
    """Print a verifier's transcript and verdict line; return its exit code."""
    for line in res.transcript:
        print(line)
    if res.verified:
        print(verified_line)
        return OK
    if res.status == "inconclusive":
        print(f"inconclusive: {res.reason}")
        return INCONCLUSIVE
    print(f"counterexample: {res.reason}")
    return FAIL


def cmd_rainbow(args) -> int:
    try:
        st = build_rainbow(args.s, args.t)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return USAGE
    try:
        rasfile.dump(st, args.out)
    except OSError as exc:
        print(f"cannot write {args.out}: {exc}", file=sys.stderr)
        return USAGE
    print(f"wrote {st.n_atoms}-atom structure to {args.out}")
    return OK


def cmd_axioms(args) -> int:
    st = _load(args.file)
    problems = algebra.check_axioms(st)
    if problems:
        print("axiom violations:")
        for p in problems:
            print(f"  {p}")
        return FAIL
    print("ok: all relation algebra axioms hold at atom level")
    return OK


def cmd_predict(args) -> int:
    rb = _rainbow_of(_load(args.file))
    verdict = predicted_representable(rb.s, rb.t)
    print(
        f"greens={rb.s} red-indices={rb.t}: predicted "
        + ("representable" if verdict else "not representable")
        + " (representable iff greens <= red indices)"
    )
    return OK


def cmd_netgame(args) -> int:
    rb = _rainbow_of(_load(args.file))
    if args.verify_refuter:
        res = networks.verify_forall_refutation(rb, args.rounds,
                                                max_states=args.budget)
        label = "refuter verified: non-representable witness " \
                "(more greens than red indices, pigeonhole)"
    else:
        res = networks.verify_exists_strategy(rb, args.rounds,
                                              max_states=args.budget)
        label = "survival strategy verified (exhaustive)"
    return _finish(res, f"{label}; rounds={args.rounds} states={res.states}")


def _paired_rainbows(path_a: str, path_b: str):
    ra, rb = _rainbow_of(_load(path_a)), _rainbow_of(_load(path_b))
    if ra.t != rb.t:
        print("structures have different red index sets", file=sys.stderr)
        sys.exit(USAGE)
    return ra, rb


def _require_seed(args) -> None:
    if args.mode == "sampled" and args.seed is None:
        print("sampled mode requires --seed", file=sys.stderr)
        sys.exit(USAGE)


def cmd_efgame(args) -> int:
    ra, rb = _paired_rainbows(args.file_a, args.file_b)
    _require_seed(args)
    strategy = efgame.Prop44Strategy(ra, rb)
    try:
        res = efgame.verify_ef_strategy(
            algebra.Algebra(ra.structure), algebra.Algebra(rb.structure),
            strategy, args.n, mode=args.mode,
            samples=args.samples, seed=args.seed, max_states=args.budget,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return USAGE
    return _finish(res, f"verified ({args.mode}): {res.plays} plays, "
                        f"no losing position; {res.states} position classes checked")


def cmd_seurat(args) -> int:
    _require_seed(args)
    try:
        res = seurat.verify_seurat_strategy(
            args.t, args.t2, args.n, mode=args.mode,
            samples=args.samples, seed=args.seed,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return USAGE
    return _finish(res, f"verified ({args.mode}): {res.plays} plays survived")


def cmd_seurat_solve(args) -> int:
    try:
        winner = seurat.brute_force_winner(args.t, args.t2, args.n)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return USAGE
    print(f"G_{args.n}({args.t}, {args.t2}): {winner} wins")
    return OK


def cmd_pebble(args) -> int:
    ra, rb = _paired_rainbows(args.file_a, args.file_b)
    left = pebble.AtomRelStructure.from_atom_structure(ra.structure)
    right = pebble.AtomRelStructure.from_atom_structure(rb.structure)
    strategy = pebble.Cor33Strategy(ra, rb)
    res = pebble.verify_pebble_strategy(left, right, strategy,
                                        args.pebbles, args.rounds,
                                        max_states=args.budget)
    # a verified search holds a transcript line only when it closed
    depth = "for every number of rounds" if res.transcript else f"to depth {args.rounds}"
    return _finish(res, f"verified (exhaustive) {depth} with "
                        f"{args.pebbles} pebbles; {res.states} states")


def cmd_eval(args) -> int:
    st = _load(args.file)
    alg = algebra.Algebra(st)
    if args.atleast is not None:
        formula = logic.cardinality_sentence(args.atleast)
    else:
        try:
            formula = logic.parse_formula(args.formula)
        except logic.ParseError as exc:
            print(f"formula parse error: {exc}", file=sys.stderr)
            return USAGE
        if formula.free_vars:
            print("formula has free variables; only sentences can be "
                  "evaluated here", file=sys.stderr)
            return USAGE
    try:
        value = logic.evaluate(formula, alg, max_elements=args.budget)
    except BudgetExhausted as exc:
        print(f"inconclusive: {exc}")
        return INCONCLUSIVE
    print("true" if value else "false")
    return OK


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="relalg",
        description="finite relation algebras, rainbow structures and "
                    "their games",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rainbow", help="write a rainbow structure file")
    p.add_argument("--s", type=POSITIVE, required=True, help="number of greens")
    p.add_argument("--t", type=POSITIVE, required=True,
                   help="number of red indices")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_rainbow)

    p = sub.add_parser("axioms", help="check the relation algebra axioms")
    p.add_argument("file")
    p.set_defaults(fn=cmd_axioms)

    p = sub.add_parser("predict", help="representability prediction for a "
                                       "rainbow structure")
    p.add_argument("file")
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("netgame", help="verify a network game strategy")
    p.add_argument("file")
    p.add_argument("--rounds", type=COUNT, required=True)
    grp = p.add_mutually_exclusive_group()
    grp.add_argument("--verify-exists", action="store_true")
    grp.add_argument("--verify-refuter", action="store_true")
    p.add_argument("--budget", type=COUNT, default=networks.DEFAULT_MAX_STATES)
    p.set_defaults(fn=cmd_netgame)

    p = sub.add_parser("efgame", help="verify the equivalence game strategy")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("-n", type=COUNT, required=True, dest="n")
    p.add_argument("--mode", choices=("exhaustive", "sampled"),
                   default="exhaustive")
    p.add_argument("--samples", type=POSITIVE, default=10_000)
    p.add_argument("--seed", type=int)
    p.add_argument("--budget", type=COUNT, default=efgame.DEFAULT_MAX_STATES,
                   help="most position classes to decide")
    p.set_defaults(fn=cmd_efgame)

    p = sub.add_parser("seurat", help="verify the colouring game strategy")
    p.add_argument("--t", type=COUNT, required=True)
    p.add_argument("--t2", type=COUNT, required=True)
    p.add_argument("-n", type=COUNT, required=True, dest="n")
    p.add_argument("--mode", choices=("exhaustive", "sampled"),
                   default="exhaustive")
    p.add_argument("--samples", type=POSITIVE, default=10_000)
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_seurat)

    p = sub.add_parser("seurat-solve", help="exact colouring game value")
    p.add_argument("--t", type=COUNT, required=True)
    p.add_argument("--t2", type=COUNT, required=True)
    p.add_argument("-n", type=COUNT, required=True, dest="n")
    p.set_defaults(fn=cmd_seurat_solve)

    p = sub.add_parser("pebble", help="verify the pebble game strategy")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--pebbles", type=COUNT, required=True)
    p.add_argument("--rounds", type=COUNT, required=True)
    p.add_argument("--budget", type=COUNT, default=pebble.DEFAULT_MAX_STATES)
    p.set_defaults(fn=cmd_pebble)

    p = sub.add_parser("eval", help="evaluate a sentence in the complex "
                                    "algebra of a structure")
    p.add_argument("file")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--formula")
    grp.add_argument("--atleast", type=POSITIVE,
                     help="shortcut: 'has at least K atoms' sentence")
    p.add_argument("--budget", type=COUNT, default=logic.DEFAULT_MAX_ELEMENTS,
                   help="most elements the algebra may have")
    p.set_defaults(fn=cmd_eval)

    return top


def main(argv=None) -> int:
    # argparse exits with status 2 on usage errors, matching our contract
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
