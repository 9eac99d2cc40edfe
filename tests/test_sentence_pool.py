"""No one-quantifier sentence separates structures differing only in
green count (when both have at least four greens over the same reds).

The pool is every sentence Qx (t1 = t2) and Qx ~(t1 = t2) where Q is a
quantifier and t1, t2 are terms in x of syntactic size at most four over
the constants 0, 1, id and the operations -, ^, +, ., ;.  Truth of such
a sentence only depends on, per term pair, whether the terms agree on
some element and whether they agree on all elements, so each pair is
reduced to those two bits per algebra and the bits are required to
match across the two algebras.
"""

from functools import reduce
from operator import or_, xor

import pytest

from relalg import Algebra, Rainbow
from relalg.logic import Comp, Const, Conv, Join, Neg, Term, Var, meet, term_planes

ALG_A = Algebra(Rainbow.make(4, 2).structure)
ALG_B = Algebra(Rainbow.make(5, 2).structure)


def terms_up_to(size: int) -> list[Term]:
    by_size: dict[int, list[Term]] = {
        1: [Var("x"), Const("0"), Const("1"), Const("1'")]
    }
    for n in range(2, size + 1):
        out: list[Term] = []
        for t in by_size[n - 1]:
            out.append(Neg(t))
            out.append(Conv(t))
        for k in range(1, n - 1):
            for u in by_size[k]:
                for v in by_size[n - 1 - k]:
                    out.append(Join(u, v))
                    out.append(meet(u, v))
                    out.append(Comp(u, v))
        by_size[n] = out
    return [t for ts in by_size.values() for t in ts]


def planes(t: Term, alg: Algebra) -> tuple[int, ...]:
    """The term's value at every element x of the algebra, as planes."""
    return tuple(term_planes(t, alg))


@pytest.fixture(scope="module")
def deduped_planes():
    """Term planes over each algebra, deduplicated jointly on both."""
    return list(dict.fromkeys(
        (planes(t, ALG_A), planes(t, ALG_B)) for t in terms_up_to(4)))


def agreement_bits(p1, p2, alg: Algebra) -> tuple[bool, bool]:
    """Whether the terms agree at some element, and at every element."""
    ones = (1 << alg.size) - 1
    eq = ones ^ reduce(or_, map(xor, p1, p2), 0)  # bit x: t1 = t2 at x
    return eq != 0, eq == ones


def test_pool_is_not_degenerate(deduped_planes):
    # dozens of semantically distinct terms, and sentences of both truth
    # values occur on the first algebra
    assert len(deduped_planes) >= 20
    bits = {
        agreement_bits(pa1, pa2, ALG_A)
        for pa1, _ in deduped_planes
        for pa2, _ in deduped_planes
    }
    assert (True, True) in bits  # some Ax (t1 = t2) is true
    assert (False, False) in bits  # some Ex (t1 = t2) is false


def test_no_single_quantifier_sentence_separates(deduped_planes):
    for i, (pa1, pb1) in enumerate(deduped_planes):
        for pa2, pb2 in deduped_planes[i:]:
            assert agreement_bits(pa1, pa2, ALG_A) == agreement_bits(pb1, pb2, ALG_B), (
                "a one-quantifier sentence distinguishes the algebras"
            )
