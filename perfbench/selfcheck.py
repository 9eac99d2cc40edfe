"""Quick self-check of the benchmark's own oracles and span arithmetic.

    python3 perfbench/selfcheck.py

Runs in a few seconds: it holds the closed-form oracles to relalg on
small instances, feeds the verdict checks made-up results, compares the
tracer's running self-time table with :func:`spans.self_times` over the
kept spans, and checks that the metric names match BENCHMARK.json.
Exits 1 and names each failed check if any fails.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace as R

import run
import spans
from meter import KnownFault, Meter, median_rate

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    if not ok:
        failures.append(what)


def check_oracles() -> None:
    import workloads
    from relalg import rainbow, seurat

    for s in range(1, 4):
        for t in range(1, 4):
            st = rainbow.build_rainbow(s, t)
            expect(workloads.n_atoms(s, t) == st.n_atoms, f"n_atoms({s},{t})")
    for p in range(7):
        for q in range(7):
            for n in range(2):
                want = workloads.winner_oracle(p, q, n)
                got = seurat.brute_force_winner(p, q, n)
                expect(want in (None, got), f"winner_oracle({p},{q},{n})")

    done = {(2, 2, 2): R(states=135)}
    depth = workloads._exists_check(2, 2, 3, done)
    _, problem = depth(R(status="verified", states=135, transcript=[]))
    expect(isinstance(problem, KnownFault), "flat state count is the known fault")
    expect(depth(R(status="verified", states=136, transcript=[]))[1] is None,
           "growing state count passes")
    fail = workloads._exists_check(3, 2, 4, done)
    expect(fail(R(status="counterexample", states=9,
                  transcript=["x", "strategy failure: no injection from 3"]))[1]
           is None, "counterexample ending in no injection passes")
    expect(fail(R(status="counterexample", states=9, transcript=["incoherent"]))[1]
           is not None, "counterexample without no injection fails")
    expect(fail(R(status="verified", states=9, transcript=[]))[1] is not None,
           "verified with s > t fails")
    refute = workloads._refute_check(3)
    expect(refute(R(status="verified", states=4, transcript=["by pigeonhole"]))[1]
           is None, "refutation citing pigeonhole passes")
    expect(refute(R(status="verified", states=2, transcript=["by pigeonhole"]))[1]
           is not None, "refutation with fewer than s states fails")

    lose = workloads._pebble_check(3, 2)
    ok_line, breach = "round 0 | ... | ok", "round 1 | ... | breach: edge"
    expect(lose(R(status="counterexample", transcript=[ok_line, breach]))[1] is None,
           "pebble counterexample ending in a breach passes")
    expect(lose(R(status="counterexample", transcript=[ok_line, ok_line]))[1]
           is not None, "pebble counterexample ending in ok fails")
    expect(lose(R(status="counterexample", transcript=[breach, breach]))[1]
           is not None, "pebble counterexample breached early fails")

    m = Meter()
    m.op("g", lambda: 1, lambda r: (r, KnownFault("known")))
    m.op("g", lambda: 2, lambda r: (r, "wrong"))
    m.op("g", lambda: 1 // 0, lambda r: (0, None))
    expect((m.attempted, m.failed, len(m.problems)) == (3, 3, 2),
           "meter counts known faults as failed but not as problems")
    expect(m.groups() == {"g": [3, 3, 3, m.groups()["g"][3]]}, "group table")
    rounds = []
    for scale in (1, 2, 4):
        rounds.append(Meter())
        rounds[-1].records = [(g, w, dt * scale, f) for g, w, dt, f in m.records]
    expect(abs(median_rate(rounds) - 3 / (2 * sum(r[2] for r in m.records))) < 1e-9,
           "median_rate takes the median round")


def check_self_times() -> None:
    # parent 0..10 holds a 1..4 (which holds 2..3) and b 5..7
    rows = spans.self_times([
        ("p", 0.0, 10.0, spans.NO_PARENT),
        ("a", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("b", 5.0, 7.0, 0),
    ])
    expect({k: v["self_s"] for k, v in rows.items()}
           == {"p": 5.0, "a": 2.0, "c": 1.0, "b": 2.0}, "self_times arithmetic")

    tr = spans.Tracer(limit=1000)
    ns = R(leaf=lambda x: sum(range(x)))
    ns.mid = lambda x: ns.leaf(x) + ns.leaf(x)
    ns.top = lambda: [ns.mid(2000) for _ in range(50)]
    originals = dict(ns.__dict__)
    for attr in ("leaf", "mid", "top"):
        tr.patch(ns, attr, attr)
    ns.top()
    tr.unpatch()
    expect(ns.__dict__ == originals, "unpatch restores the originals")
    kept = spans.self_times(tr.spans())
    live = tr.table()
    expect(kept.keys() == live.keys(), "span tables name the same layers")
    for name, row in live.items():
        for key in row:
            expect(abs(row[key] - kept[name][key]) < 1e-9,
                   f"running {key} of {name} matches the kept spans")
    expect(live["leaf"]["calls"] == 100 and live["top"]["calls"] == 1, "call counts")

    few = spans.Tracer(limit=10)
    few.patch(ns, "leaf", "leaf")
    ns.top()
    few.unpatch()
    expect(len(few.spans()) == 10 and few.dropped == 90
           and few.table()["leaf"]["calls"] == 100,
           "spans past the limit are dropped but still counted")


def check_metric_names() -> None:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    expect([m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END),
           "end-to-end metrics match BENCHMARK.json")
    expect({m["name"]: m["unit"] for m in bench["per_layer"]}
           == run.per_layer_names(), "per-layer metrics match BENCHMARK.json")
    import workloads

    expect([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS),
           "workloads match BENCHMARK.json")


def main() -> int:
    run.import_relalg()
    check_oracles()
    check_self_times()
    check_metric_names()
    for f in failures:
        print(f"selfcheck FAILED: {f}")
    print("selfcheck: ok" if not failures else f"selfcheck: {len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
