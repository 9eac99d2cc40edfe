"""Times, checks and counts the operations of one round."""

from __future__ import annotations

import statistics
import time
import traceback


class KnownFault(str):
    """A check failure caused by a fault already on record in CHANGES.md:
    the operation counts as failed, the run's outputs still as correct."""


class Meter:
    """Times, checks and counts the operations of one round."""

    def __init__(self):
        self.records: list[tuple] = []  # (group, work, seconds, failed) per op
        self.problems: list[str] = []  # failures that make the run incorrect

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(r[3] for r in self.records)

    def op(self, group: str, thunk, check):
        """Time ``thunk()``, then check its result; returns the result, or
        None if it raised."""
        t0 = time.perf_counter()
        try:
            result = thunk()
        except Exception:  # a crashing verifier is a failed operation
            dt = time.perf_counter() - t0
            work, problem = 0, "raised:\n" + traceback.format_exc()
            result = None
        else:
            dt = time.perf_counter() - t0
            work, problem = check(result)
        self.records.append((group, work, dt, problem is not None))
        if problem is not None and not isinstance(problem, KnownFault):
            self.problems.append(f"{group}: {problem}")
        return result

    def groups(self) -> dict[str, list]:
        """group -> [operations, failed, work, seconds]."""
        out: dict[str, list] = {}
        for group, work, dt, failed in self.records:
            row = out.setdefault(group, [0, 0, 0, 0.0])
            row[0] += 1
            row[1] += failed
            row[2] += work
            row[3] += dt
        return out


def median_rate(meters: list[Meter]) -> float:
    """Work per second: the median over rounds of a round's work divided
    by the summed time of its operations.

    Every round runs the same operations, so each round is one sample of
    the same quantity.  A median, unlike a fastest time, does not drift
    with the number of rounds a run holds: a run of one long round and a
    run of ten short ones estimate the same figure.
    """
    first = [(g, w) for g, w, _, _ in meters[0].records]
    for m in meters[1:]:
        if [(g, w) for g, w, _, _ in m.records] != first:
            raise ValueError("rounds ran different operations")
    work = sum(w for _, w in first)
    return statistics.median(work / sum(r[2] for r in m.records) for m in meters)
