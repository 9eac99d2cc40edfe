"""The one result type every game verifier returns."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Verdict:
    """What a verifier concluded, with the play that shows it.

    ``status`` is one of:

    - ``"verified"``: every line of play to the stated depth was
      explored (or pruned by a reduction the engine proves sound), and
      the strategy under test won each one;
    - ``"verified-sampled"``: every play of a seeded random sample was
      won; nothing is claimed about the plays not drawn;
    - ``"counterexample"``: ``transcript`` holds a line of play the
      strategy under test loses;
    - ``"inconclusive"``: a budget ran out first; ``reason`` names it.

    ``transcript`` is the one reported line of play, a text line per
    move: the line lost, or the line a budget ran out on (a verified
    refutation holds one summary line, a pebble search that closed
    holds its closure line, and the equivalence game reports none for a
    spent budget).  Only that line is formatted, as a
    depth-first search unwinds, from the list of rounds a sampled
    colouring play keeps, or, in the breadth-first pebble search, from
    each position's parent link, so no move of a won line is ever
    formatted.

    ``states`` counts the positions a search expanded, or, in the
    equivalence game, the classes of positions it decided, one
    ``position_winner`` call each.  ``plays`` counts the plays run, or,
    in an exhaustive colouring check, decided, including those its
    per-cell cut decides; each engine fills in the count it keeps.  A
    spent state budget reports ``states`` as the budget plus one, the
    expansion that was refused.
    """

    status: str
    transcript: list[str] = field(default_factory=list)
    reason: str = ""
    states: int = 0
    plays: int = 0

    @property
    def verified(self) -> bool:
        return self.status in ("verified", "verified-sampled")


class BudgetExhausted(Exception):
    """Raised by the formula evaluator for an algebra with more elements
    than its element budget.  The game searches return an
    "inconclusive" ``Verdict`` instead; the equivalence game raises it
    from its position check and turns it into one."""


def check_counts(least: int = 0, **counts: int) -> None:
    """Raise ValueError naming the first count below ``least``."""
    for name, value in counts.items():
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")
