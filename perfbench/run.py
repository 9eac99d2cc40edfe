"""Benchmark of relalg's game verifiers, one workload per run.

    python3 perfbench/run.py --workload netgame --seed 1 --seconds 30 --trace 0

A run repeats steps until the next step would end past ``--seconds``.
A step sets the workload up until set-up has taken SETUP_SHARE of the
rounds' time so far, then runs one round of the workload's fixed list
of verifications, one after another in this one process, on the first
set-up's result.  Every verdict is checked as it comes back.  With
``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics: ``setup_s`` is the median set-up pass and
``work_per_s`` the median round's work per second.  With ``--trace 1``
each step also sets up and runs a round with tracing on, and the
per-layer metrics are reported instead (see README.md).  relalg is
imported from ``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import spans
from meter import Meter, median_rate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SHARE = 0.25  # set-up passes take this share of the rounds' time
KERNEL_SIZES = ((10, 2, 2), (16, 8, 2), (64, 11, 7))  # (atoms, s, t)
KERNEL_PAIRS, KERNEL_REPEATS = 1000, 5
END_TO_END = {"setup_s": "s", "work_per_s": "work/s"}


def import_relalg():
    """Import relalg from this checkout's src/, or exit with an error."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import relalg
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import relalg from {src}: {exc}")
    if src not in Path(relalg.__file__).resolve().parents:
        sys.exit(f"perfbench: relalg came from {relalg.__file__}, not {src}")


@dataclass
class Steps:
    ctx: object = None  # the first set-up's result, which every round uses
    setup_times: array = field(default_factory=lambda: array("d"))
    setup_spent: float = 0.0  # seconds of untraced set-up passes
    round_spent: float = 0.0  # seconds of untraced rounds
    plain: list = field(default_factory=list)  # (Meter, wall s) per round
    traced: list = field(default_factory=list)  # (Meter, wall s, span table)
    setup_spans: list = field(default_factory=list)  # span table per set-up

    @property
    def setup_due(self) -> bool:
        """Set-up has not yet taken SETUP_SHARE of the rounds' time, or
        has not run at all."""
        return not self.setup_times or self.setup_spent < SETUP_SHARE * self.round_spent


def set_up(setup, seed: int, steps: Steps) -> None:
    """Time set-up passes, from a swept heap, while they are due."""
    if not steps.setup_due:
        return
    gc.collect()
    while steps.setup_due:
        t0 = time.perf_counter()
        ctx = setup(seed)
        dt = time.perf_counter() - t0
        steps.setup_times.append(dt)
        steps.setup_spent += dt
        if steps.ctx is None:
            steps.ctx = ctx
        ctx = None  # the next pass starts without this one's result


def run_steps(setup, round_fn, seed: int, seconds: float, tracer=None) -> Steps:
    """Steps until the next would end past ``seconds``; at least one.

    A step sets up (:func:`set_up`) and runs one untraced round, so
    set-up passes and rounds are sampled across the whole run; set-up is
    topped up once more after the last round.  With a tracer, a step then
    sets up once more and runs one more round, both traced.
    """
    out = Steps()
    t_start = time.perf_counter()
    step_max = 0.0
    while True:
        t0 = time.perf_counter()
        set_up(setup, seed, out)
        t1 = time.perf_counter()
        m = Meter()
        round_fn(out.ctx, m.op, spans.OFF)
        dt = time.perf_counter() - t1
        out.plain.append((m, dt))
        out.round_spent += dt
        if tracer is not None:
            install(tracer)
            try:
                tracer.reset_table()
                setup(seed)
                out.setup_spans.append(tracer.table())
                tracer.reset_table()
                t1 = time.perf_counter()
                m = Meter()

                def op(group, thunk, check, m=m):
                    tracer.context = group
                    return m.op(group, thunk, check)

                round_fn(out.ctx, op, tracer)
                out.traced.append((m, time.perf_counter() - t1, tracer.table()))
            finally:
                tracer.unpatch()
        step_max = max(step_max, time.perf_counter() - t0)
        if time.perf_counter() - t_start + step_max > seconds:
            set_up(setup, seed, out)
            return out


def install(tracer) -> None:
    """Wrap every public function and method the per-layer metrics name."""
    from relalg import algebra, efgame, logic, networks, pebble, rainbow, rasfile, seurat

    def exists_states(tr, result):
        tr.add("networks.exists_states", result.states)

    def network_size(tr, result):
        tr.maximum(f"networks.max_nodes {tr.context}", result[0].n)

    for owner, attr, name, on_result in (
        (algebra.Algebra, "__init__", "algebra.Algebra.init", None),
        (algebra.Algebra, "compose", "algebra.compose", None),
        (algebra.Algebra, "converse", "algebra.converse", None),
        (algebra, "check_axioms", "algebra.check_axioms", None),
        (rainbow, "build_rainbow", "rainbow.build_rainbow", None),
        (rasfile, "dumps", "rasfile.dumps", None),
        (rasfile, "loads", "rasfile.loads", None),
        (networks, "verify_exists_strategy", "networks.verify_exists_strategy",
         exists_states),
        (networks, "verify_forall_refutation", "networks.verify_forall_refutation",
         None),
        (networks, "coherent", "networks.coherent", None),
        (networks, "canonical_state", "networks.canonical_state", None),
        (networks, "legal_moves", "networks.legal_moves", None),
        (networks, "rainbow_exists_strategy", "networks.rainbow_exists_strategy",
         network_size),
        (efgame, "verify_ef_strategy", "efgame.verify_ef_strategy", None),
        (efgame, "position_winner", "efgame.position_winner", None),
        (efgame.Prop44Strategy, "respond", "efgame.Prop44Strategy.respond", None),
        (seurat, "verify_seurat_strategy", "seurat.verify_seurat_strategy", None),
        (seurat, "apply_round", "seurat.apply_round", None),
        (seurat, "brute_force_winner", "seurat.brute_force_winner", None),
        (seurat, "lemma43_strategy", "seurat.lemma43_strategy", None),
        (pebble, "verify_pebble_strategy", "pebble.verify_pebble_strategy", None),
        (pebble, "partial_iso", "pebble.partial_iso", None),
        (logic, "parse_formula", "logic.parse_formula", None),
    ):
        tracer.patch(owner, attr, name, on_result)


def kernel_ns(seed: int) -> dict[str, float]:
    """ns per compose / converse on seeded random element pairs."""
    from relalg.algebra import Algebra
    from relalg.rainbow import build_rainbow

    out = {}
    rng = random.Random(f"{seed}:kernel")
    for k, s, t in KERNEL_SIZES:
        alg = Algebra(build_rainbow(s, t))
        assert alg.n_atoms == k
        pairs = [(rng.getrandbits(k), rng.getrandbits(k)) for _ in range(KERNEL_PAIRS)]
        xs = [x for x, _ in pairs]
        for name, call in (
            ("compose", lambda: [alg.compose(x, y) for x, y in pairs]),
            ("converse", lambda: [alg.converse(x) for x in xs]),
        ):
            times = []
            for _ in range(KERNEL_REPEATS):
                t0 = time.perf_counter()
                call()
                times.append(time.perf_counter() - t0)
            out[f"algebra.{name}.ns_at_{k}"] = statistics.median(times) / KERNEL_PAIRS * 1e9
    return out


# per-layer metrics: name -> unit; read from a round's span table unless
# noted (setup: median over set-up passes; kernel: the microbenchmark)
PER_ROUND = {
    "algebra.compose": ("calls", "us_per_call", "self_s"),
    "algebra.converse": ("calls", "us_per_call"),
    "networks.coherent": ("calls", "us_per_call", "self_s"),
    "networks.canonical_state": ("calls", "us_per_call", "self_s"),
    "networks.legal_moves": ("calls", "us_per_call", "self_s"),
    "networks.rainbow_exists_strategy": ("calls", "us_per_call", "self_s"),
    "efgame.position_winner": ("calls", "us_per_call", "self_s"),
    "efgame.Prop44Strategy.respond": ("calls", "us_per_call"),
    "seurat.apply_round": ("calls", "us_per_call"),
    "seurat.lemma43_strategy": ("calls", "us_per_call", "self_s"),
    "pebble.partial_iso": ("calls", "us_per_call", "self_s"),
    "logic.parse_formula": ("us_per_call",),
}
PER_ROUND_TOTAL = {
    "algebra.check_axioms.s": "algebra.check_axioms",
    "networks.verify_exists_strategy.s": "networks.verify_exists_strategy",
    "networks.verify_forall_refutation.s": "networks.verify_forall_refutation",
    "efgame.verify_ef_strategy.s": "efgame.verify_ef_strategy",
    "seurat.verify_seurat_strategy.s": "seurat.verify_seurat_strategy",
    "seurat.brute_force_winner.s": "seurat.brute_force_winner",
    "pebble.verify_pebble_strategy.s": "pebble.verify_pebble_strategy",
    "logic.evaluate.cardinality_s": "logic.evaluate.cardinality",
    "logic.evaluate.composition_s": "logic.evaluate.composition",
}
SETUP_TOTAL = {
    "algebra.Algebra.init_s": "algebra.Algebra.init",
    "rainbow.build_rainbow.s": "rainbow.build_rainbow",
    "rasfile.dumps.s": "rasfile.dumps",
    "rasfile.loads.s": "rasfile.loads",
}
UNITS = {"calls": "count", "us_per_call": "us", "self_s": "s"}


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for layer, fields in PER_ROUND.items():
        for f in fields:
            out[f"{layer}.{f}"] = UNITS[f]
    for name in list(PER_ROUND_TOTAL) + list(SETUP_TOTAL):
        out[name] = "s"
    for op_name in ("compose", "converse"):
        for k, _, _ in KERNEL_SIZES:
            out[f"algebra.{op_name}.ns_at_{k}"] = "ns"
    out["networks.new_state_ratio"] = "ratio"
    out["trace.overhead_s"] = "s"
    return out


def per_layer(tracer, steps: Steps, kernel) -> dict[str, float]:
    """The per-layer metrics: per-round means over the traced rounds."""
    n = len(steps.traced)
    rows: dict[str, dict[str, float]] = {}
    for _, _, table in steps.traced:
        for name, row in table.items():
            acc = rows.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += row[key]
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    out: dict[str, float] = {}
    for layer, fields in PER_ROUND.items():
        row = rows.get(layer, empty)
        values = {
            "calls": row["calls"] / n,
            "us_per_call": row["total_s"] / row["calls"] * 1e6 if row["calls"] else 0.0,
            "self_s": row["self_s"] / n,
        }
        for f in fields:
            out[f"{layer}.{f}"] = values[f]
    for metric, layer in PER_ROUND_TOTAL.items():
        out[metric] = rows.get(layer, empty)["total_s"] / n
    for metric, layer in SETUP_TOTAL.items():
        out[metric] = statistics.median(
            tbl.get(layer, empty)["total_s"] for tbl in steps.setup_spans
        )
    out.update(kernel)
    responses = rows.get("networks.rainbow_exists_strategy", empty)["calls"]
    states = tracer.counters.get("networks.exists_states", 0)
    out["networks.new_state_ratio"] = states / responses if responses else 0.0
    out["trace.overhead_s"] = (
        statistics.median(wall for _, wall, _ in steps.traced)
        - statistics.median(wall for _, wall in steps.plain)
    )
    return {name: out[name] for name in per_layer_names()}


def report(meters, metrics: dict, units: dict) -> str:
    """Print a per-group table of the first round and every metric; return
    the closing JSON line."""
    first = meters[0]
    print(f"{'group':<64} {'ops':>5} {'failed':>6} {'work':>9} {'seconds':>9}")
    for group, (ops, failed, work, secs) in first.groups().items():
        print(f"{group:<64} {ops:>5} {failed:>6} {work:>9} {secs:>9.3f}")
    problems = [p for m in meters for p in m.problems]
    for p in problems[:20]:
        print(f"INCORRECT {p}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    return json.dumps({
        "correct": not problems,
        "attempted": sum(m.attempted for m in meters),
        "failed": sum(m.failed for m in meters),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    import_relalg()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    setup, round_fn = workloads.WORKLOADS[args.workload]

    tracer = spans.Tracer() if args.trace else None
    steps = run_steps(setup, round_fn, args.seed, args.seconds, tracer)
    meters = [m for m, _ in steps.plain]
    print(f"{len(meters)} rounds, {len(steps.setup_times)} set-up passes")
    if not args.trace:
        metrics = {"setup_s": statistics.median(steps.setup_times),
                   "work_per_s": median_rate(meters)}
        print(report(meters, metrics, END_TO_END))
        return 0

    kernel = kernel_ns(args.seed)
    metrics = per_layer(tracer, steps, kernel)
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    tracer.write(out_dir / f"spans-{stem}.jsonl")
    reference = {
        "workload": args.workload,
        "seed": args.seed,
        "spans_kept": len(tracer.start),
        "spans_dropped": tracer.dropped,
        "rounds": len(steps.plain),
        "setup_passes": len(steps.setup_times),
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "counters": tracer.counters,
        "ops": {g: {"ops": r[0], "failed": r[1], "work": r[2], "seconds": r[3]}
                for g, r in meters[0].groups().items()},
    }
    (out_dir / f"reference-{stem}.json").write_text(json.dumps(reference, indent=1))
    meters += [m for m, _, _ in steps.traced]
    print(report(meters, metrics, per_layer_names()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
