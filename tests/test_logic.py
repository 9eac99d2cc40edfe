"""First-order language over complex algebras: terms, formulas, parser."""

import time
from itertools import permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hs

from relalg import Algebra, Rainbow, build_rainbow, check_axioms, logic
from relalg.atoms import make_structure
from relalg.logic import (
    And,
    Comp,
    Const,
    Conv,
    Eq,
    Exists,
    Forall,
    Join,
    Neg,
    Not,
    Or,
    ParseError,
    UnboundVariableError,
    Var,
    build_phi_k,
    cardinality_sentence,
    evaluate,
    leq,
    lt,
    meet,
    parse_formula,
    quantifier_depth,
    term_planes,
)
from relalg.verdict import BudgetExhausted
from reference import count_atoms_oracle, eval_term

TINY = Algebra(make_structure(["1'", "d"], ["1'"], [], [("1'", "1'", "d")]))
ALG22 = Algebra(Rainbow.make(2, 2).structure)


# ---------------------------------------------------------------------------
# terms


def test_constants():
    assert eval_term(Const("0"), TINY) == 0
    assert eval_term(Const("1"), TINY) == TINY.one
    assert eval_term(Const("1'"), TINY) == 0b01  # identity atom is atom 0


def test_constant_name_check():
    with pytest.raises(ValueError):
        Const("2")


def test_boolean_term_operators():
    env = {"x": 0b01, "y": 0b11}
    assert eval_term(Join(Var("x"), Var("y")), TINY, env) == 0b11
    assert eval_term(meet(Var("x"), Var("y")), TINY, env) == 0b01
    assert eval_term(Neg(Var("x")), TINY, env) == 0b10


def test_relative_term_operators():
    # d;d in the unconstrained two-atom structure is everything
    env = {"d": 0b10}
    assert eval_term(Comp(Var("d"), Var("d")), TINY, env) == 0b11
    assert eval_term(Conv(Var("d")), TINY, env) == 0b10


def test_unbound_variable_raises():
    with pytest.raises(UnboundVariableError):
        eval_term(Var("x"), TINY)
    with pytest.raises(UnboundVariableError):
        evaluate(Eq(Var("x"), Const("0")), TINY)


# ---------------------------------------------------------------------------
# formulas


def test_comparisons():
    assert evaluate(leq(Const("1'"), Const("1")), TINY)
    assert evaluate(lt(Const("1'"), Const("1")), TINY)
    assert not evaluate(lt(Const("1"), Const("1")), TINY)
    assert evaluate(Eq(Const("1"), Const("1")), TINY)


def test_connectives_and_quantifiers():
    zero = Eq(Var("x"), Const("0"))
    assert evaluate(Exists("x", zero), TINY)
    assert not evaluate(Forall("x", zero), TINY)
    assert evaluate(Exists("x", Not(zero)), TINY)
    assert evaluate(Forall("x", Or(zero, Not(zero))), TINY)
    assert not evaluate(Exists("x", And(zero, Not(zero))), TINY)


def test_quantifier_depth():
    f = Exists("x", Forall("y", Or(Eq(Var("x"), Var("y")), Exists("z", Eq(Var("z"), Const("0"))))))
    assert quantifier_depth(f) == 3
    assert quantifier_depth(Eq(Const("0"), Const("0"))) == 0


def test_free_vars():
    f = Exists("x", Eq(Var("x"), Var("y")))
    assert f.free_vars == frozenset({"y"})


# ---------------------------------------------------------------------------
# the cardinality formulas


def test_phi_k_shape():
    f = build_phi_k(5)
    assert f.free_vars == frozenset({"x"})
    assert quantifier_depth(f) == 4
    # only two variable names ever occur
    text_vars = _collect_vars(f)
    assert text_vars == {"x", "y"}


def _collect_vars(f):
    out = set()
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            out.add(node.name)
        elif isinstance(node, (Exists, Forall)):
            out.add(node.var)
            stack.append(node.body)
        elif hasattr(node, "__dataclass_fields__"):
            for name in node.__dataclass_fields__:
                v = getattr(node, name)
                if hasattr(v, "__dataclass_fields__"):
                    stack.append(v)
    return out


def test_phi_k_requires_positive_k():
    with pytest.raises(ValueError):
        build_phi_k(0)


def test_cardinality_sentence_matches_popcount_oracle_tiny():
    for k in range(1, 5):
        assert evaluate(cardinality_sentence(k), TINY) == count_atoms_oracle(TINY, k)


def test_phi_k_on_specific_elements():
    # in the 2-atom algebra, element 0b11 sits above 2 atoms
    f2 = build_phi_k(2)
    assert evaluate(f2, TINY, {"x": 0b11})
    assert not evaluate(f2, TINY, {"x": 0b01})
    assert not evaluate(build_phi_k(3), TINY, {"x": 0b11})


@settings(max_examples=20, deadline=None)
@given(k=hs.integers(1, 4))
def test_cardinality_monotone_in_k(k):
    if evaluate(cardinality_sentence(k + 1), TINY):
        assert evaluate(cardinality_sentence(k), TINY)


# ---------------------------------------------------------------------------
# parser


def test_parse_round_trip_semantics():
    f = parse_formula("E x . ~(x = 0) & x <= 1")
    assert evaluate(f, TINY)


def test_parse_operator_precedence():
    # '+' binds looser than '.', which binds looser than ';'
    t = parse_formula("x + y . z ; w = 0")
    assert t == Eq(Join(Var("x"), meet(Var("y"), Comp(Var("z"), Var("w")))), Const("0"))


def test_parse_quantifiers_and_id():
    f = parse_formula("A x . E y . x ; id = x | y < x")
    assert isinstance(f, Forall)
    assert quantifier_depth(f) == 2


def test_parse_converse_postfix():
    t = parse_formula("x^ ^ = x")
    assert t == Eq(Conv(Conv(Var("x"))), Var("x"))
    assert evaluate(Forall("x", t), ALG22)


def test_parse_negation_and_parens():
    f = parse_formula("~(E x . x = 0)")
    assert not evaluate(f, TINY)


def test_parse_errors():
    for bad in ["E x x = 0", "x = ", "x ? y", "(x = 0", "x = 0 extra", ""]:
        with pytest.raises(ParseError):
            parse_formula(bad)


def test_parsed_identity_laws_hold():
    for law in [
        "A x . x ; id = x",
        "A x . id ; x = x",
        "A x . A y . (x + y)^ = x^ + y^",
        "A x . -(-x) = x",
    ]:
        assert evaluate(parse_formula(law), TINY), law


# ---------------------------------------------------------------------------
# the bit-sliced evaluator against a naive Tarskian one

B11 = Algebra(Rainbow.make(1, 1).structure)  # 6 atoms
B21 = Algebra(Rainbow.make(2, 1).structure)  # 7 atoms
VARS = ("x", "y", "z")


def group_algebra():
    """The complex algebra of the symmetric group on three points.

    Every atom of TINY, B(1,1) and B(2,1) is its own converse, and so
    their composition commutes.  Here a;b = {ab} does not, and the two
    3-cycles are each other's converse.
    """
    perms = list(permutations(range(3)))
    name = {p: "p" + "".join(map(str, p)) for p in perms}
    inv = {p: tuple(sorted(range(3), key=p.__getitem__)) for p in perms}
    mul = {(p, q): tuple(p[i] for i in q) for p in perms for q in perms}
    return Algebra(make_structure(
        [name[p] for p in perms], [name[(0, 1, 2)]],
        [(name[p], name[inv[p]]) for p in perms if p < inv[p]],
        [(name[p], name[q], name[r]) for p in perms for q in perms
         for r in perms if mul[p, q] != r],
    ))


S3 = group_algebra()
ALGEBRAS = pytest.mark.parametrize(
    "alg", [TINY, B11, B21, S3], ids=["tiny", "B11", "B21", "S3"])


def naive_term(t, alg, env):
    """A term's value by plain recursion over atoms."""
    k = alg.n_atoms
    if isinstance(t, Var):
        return env[t.name]
    if isinstance(t, Const):
        return {"0": 0, "1": alg.one, "1'": alg.identity_mask}[t.symbol]
    if isinstance(t, Neg):
        return alg.one & ~naive_term(t.arg, alg, env)
    if isinstance(t, Conv):
        x = naive_term(t.arg, alg, env)
        return sum(1 << alg.conv_atom[a] for a in range(k) if x >> a & 1)
    x, y = naive_term(t.left, alg, env), naive_term(t.right, alg, env)
    if isinstance(t, Join):
        return x | y
    out = 0
    for a in range(k):
        for b in range(k):
            if x >> a & 1 and y >> b & 1:
                out |= alg.comp[a][b]
    return out


def naive_holds(f, alg, env):
    """A formula's truth by plain recursion: quantifiers try every element."""
    if isinstance(f, Eq):
        return naive_term(f.left, alg, env) == naive_term(f.right, alg, env)
    if isinstance(f, Not):
        return not naive_holds(f.arg, alg, env)
    if isinstance(f, And):
        return naive_holds(f.left, alg, env) and naive_holds(f.right, alg, env)
    if isinstance(f, Or):
        return naive_holds(f.left, alg, env) or naive_holds(f.right, alg, env)
    found = (naive_holds(f.body, alg, {**env, f.var: e}) for e in range(alg.size))
    return any(found) if isinstance(f, Exists) else all(found)


terms = hs.recursive(
    hs.sampled_from([Var(v) for v in VARS] + [Const(c) for c in ("0", "1", "1'")]),
    lambda sub: hs.one_of(
        hs.builds(Neg, sub), hs.builds(Conv, sub),
        hs.builds(Join, sub, sub), hs.builds(Comp, sub, sub),
    ),
    max_leaves=4,
)

def quantified(sub):
    var = hs.sampled_from(VARS)
    return hs.one_of(hs.builds(Exists, var, sub), hs.builds(Forall, var, sub))


# a quantifier on top, so that every example evaluates some planes
formulas = quantified(hs.recursive(
    hs.builds(Eq, terms, terms),
    lambda sub: hs.one_of(
        hs.builds(Not, sub), hs.builds(And, sub, sub), hs.builds(Or, sub, sub),
        quantified(sub),
    ),
    max_leaves=5,
))


@ALGEBRAS
@settings(max_examples=100, deadline=None)
@given(f=formulas, data=hs.data())
def test_evaluate_matches_naive_evaluator(alg, f, data):
    # the naive side tries size^depth bindings; keep that small
    assume(alg.size ** quantifier_depth(f) <= 20000)
    env = {v: data.draw(hs.integers(0, alg.size - 1), label=v)
           for v in sorted(f.free_vars)}
    assert evaluate(f, alg, env) == naive_holds(f, alg, env)


X, Y = Var("x"), Var("y")
# each term operation with a constant side (a constant, or y bound by
# env) on either hand, and with both sides varying in x
SHAPES = [
    Neg(X), Conv(X), Neg(Const("1'")), Conv(Y),
    Join(X, Y), Join(Y, X), Join(Const("1'"), X), Join(X, Conv(X)),
    Comp(X, Y), Comp(Y, X), Comp(Const("1'"), X), Comp(X, Const("1")),
    Comp(X, Conv(X)), Comp(Neg(X), X), Comp(Y, Y),
]


@ALGEBRAS
def test_term_planes_match_naive_terms(alg):
    # the shapes in x alone; those with y are checked under a quantifier
    for t in [t for t in SHAPES if t.free_vars <= {"x"}] + [Const("1")]:
        planes = term_planes(t, alg)
        for e in range(alg.size):
            at_e = sum((p >> e & 1) << a for a, p in enumerate(planes))
            assert at_e == naive_term(t, alg, {"x": e}), (t, e)


@pytest.mark.parametrize("alg", [TINY, B11, S3], ids=["tiny", "B11", "S3"])
def test_quantified_shapes_match_naive_evaluator(alg):
    # each shape is compared, under a quantifier, with x itself (both
    # sides vary), with y (one side constant) and with x under another
    # quantifier that shadows y; y is bound by env
    for t in SHAPES:
        for f in (
            Forall("x", Eq(t, X)), Exists("x", Eq(t, Y)), Exists("x", Eq(Y, t)),
            Exists("y", Forall("x", Or(Eq(t, Y), Exists("y", Eq(t, Conv(Y)))))),
        ):
            for y in (0, alg.one, alg.size // 3):
                env = {"y": y}
                assert evaluate(f, alg, env) == naive_holds(f, alg, env), (f, y)


def test_group_algebra_is_a_noncommutative_relation_algebra():
    assert check_axioms(S3.structure) == []
    assert any(S3.comp[a][b] != S3.comp[b][a] for a in range(6) for b in range(6))


@pytest.mark.parametrize("alg", [TINY, B11, S3], ids=["tiny", "B11", "S3"])
def test_memo_and_environment_cases_match_naive_evaluator(alg):
    Z = Var("z")
    cases = [
        # the inner A z is keyed on y, which the E x around it does not vary
        (Exists("y", Exists("x", And(Not(Eq(X, Y)), Forall(
            "z", Eq(Join(X, Z), Join(Y, Z)))))), {}),
        (Forall("y", Exists("x", Forall("z", Eq(Comp(X, Z), Comp(Z, Y))))), {}),
        # y is bound by env, re-bound by E y, and read again after it
        (And(Exists("y", Exists("x", Eq(X, Conv(Y)))), Eq(Y, Const("0"))), {"y": 0}),
        (Or(Forall("y", Exists("x", Eq(X, Comp(Y, Y)))), Eq(Y, Const("1"))),
         {"y": alg.one}),
        # E y tries y in turn and stops at the first that contains 1',
        # which is not 0; y = 0 must still be read after it
        (And(Exists("y", Forall("x", Eq(Comp(X, Y), X))), Eq(Y, Const("0"))),
         {"y": 0}),
        # a quantifier under ~ under another quantifier over its variable
        (Forall("y", Not(Exists("x", Eq(Comp(X, Y), X)))), {}),
        # the inner E y re-binds y, which has a digit of the (x, y) grid,
        # and tries its values in turn: A z must read y from env
        (parse_formula("E x . ~(x = 0) & (E y . y < x & (E y . ~(A z . "
                       "z ; y <= x | z = y)))"), {}),
        (parse_formula("A x . x = 0 | (E y . y < x & ~(E y . ~(A z . "
                       "z ; y <= x | z = y^)))"), {}),
    ]
    for f, env in cases:
        assert evaluate(f, alg, env) == naive_holds(f, alg, env), f


# phi_k-shaped formulas in x: x and y re-bound three deep, with ~ and A
# between the quantifiers; on a grid the innermost one re-binds digit 0
# (y) or digit 1 (x) of the grid (y, x), and a body under ~ that is a
# quantifier over its variable tries the values in turn
PHI_SHAPED = [
    "E y . y < x & ~(A x . ~(x < y) | (E y . y < x & ~(y = 0)))",
    "E y . y < x & ~(A x . ~(x < y) | (E x . x < y & ~(x = 0)))",
    "A y . ~(y < x) | (E x . x < y & ~(A y . ~(y < x) | y = x^))",
    "A y . ~(y ; y^ <= x) | ~(E x . x < y & (A y . ~(y ; x = x) | x <= y^))",
    "E y . y < x^ & ~(A x . ~(x < y ; y) | (E y . y < x & -y ; x = x))",
    # true at every x, and only through the witness -x (or -y) of the
    # innermost quantifier, which may hold any atom
    "E y . y = x & ~(A x . ~(x = y) | ~(E y . y = -x))",
    "A y . ~(y = x) | ~(A x . ~(x = -y) | ~(E x . x = -y ; id))",
]


@pytest.mark.parametrize("alg", [B11, S3], ids=["B11", "S3"])
def test_phi_shaped_rebinding_matches_naive_evaluator(alg):
    for text in PHI_SHAPED:
        f = parse_formula(text)
        for x in range(alg.size):
            env = {"x": x}
            assert evaluate(f, alg, env) == naive_holds(f, alg, env), (text, x)
        for q in ("E", "A"):
            g = parse_formula(f"{q} x . {text}")
            assert evaluate(g, alg) == naive_holds(g, alg, {}), g


@pytest.mark.parametrize("alg", [TINY, B11, S3], ids=["tiny", "B11", "S3"])
@pytest.mark.parametrize("check", [
    test_evaluate_matches_naive_evaluator,
    test_quantified_shapes_match_naive_evaluator,
    test_memo_and_environment_cases_match_naive_evaluator,
    test_phi_shaped_rebinding_matches_naive_evaluator,
], ids=["naive", "shapes", "memo", "phi-shaped"])
def test_one_value_at_a_time_matches_naive_evaluator(check, alg, monkeypatch):
    # with no room for a grid every quantifier tries its values in turn
    monkeypatch.setattr(logic, "GRID_MAX_BITS", 1)
    check(alg)


def _grid_digits(monkeypatch) -> list:
    """Record the digit count of every grid an evaluation builds."""
    seen, ones = [], logic._Planes.ones

    def spy(self, m):
        seen.append(m)
        return ones(self, m)

    monkeypatch.setattr(logic._Planes, "ones", spy)
    return seen


@pytest.mark.parametrize("alg, cap, digits", [
    (B11, B11.size ** 2, 2),      # the (y, x) grid is exactly the cap
    (B11, B11.size ** 2 - 1, 1),  # one binding short: x's values in turn
    (B21, B11.size ** 2, 1),      # the next size up is over the cap
], ids=["B11-at-cap", "B11-below", "B21-above"])
def test_cardinality_sentences_at_the_grid_cap(alg, cap, digits, monkeypatch):
    monkeypatch.setattr(logic, "GRID_MAX_BITS", cap)
    seen = _grid_digits(monkeypatch)
    for k in range(1, alg.n_atoms + 2):
        assert evaluate(cardinality_sentence(k), alg) == count_atoms_oracle(alg, k), k
    assert max(seen) == digits


def test_closed_quantifier_under_a_grid_builds_no_grid(monkeypatch):
    # A y meets no variable of the grid (x) around it: it is a bool,
    # decided on its own column over y, not on the (x, y) grid
    seen = _grid_digits(monkeypatch)
    assert evaluate(parse_formula("E x . x = 1 & (A y . y ; 0 = 0)"), B11)
    assert max(seen) == 1


@pytest.fixture(scope="module")
def big():
    return Algebra(build_rainbow(8, 7))  # 61 atoms


def test_evaluate_refuses_algebras_over_budget(big):
    f = Exists("x", Eq(Var("x"), Const("0")))
    assert evaluate(f, TINY, max_elements=4)
    with pytest.raises(BudgetExhausted, match="element budget 3 "):
        evaluate(f, TINY, max_elements=3)
    with pytest.raises(BudgetExhausted, match=r"below the algebra.s 2\^61 "):
        evaluate(f, big)
    with pytest.raises(BudgetExhausted):
        evaluate(parse_formula("1 = 1 | (E x . x = 0)"), big)
    with pytest.raises(BudgetExhausted):
        term_planes(Var("x"), big)


def test_quantifier_free_sentences_need_no_budget(big):
    # no quantifier, no planes: masks alone, whatever the size
    assert evaluate(parse_formula("id ; 1 = 1 & ~(id = 0)"), big)
    assert not evaluate(parse_formula("-id = 0"), big)
    assert evaluate(parse_formula("x ; id = x"), big, {"x": 0b11 << 50})


def test_nested_quantifiers_stop_at_the_first_decision():
    # B(2,2) has 1024 elements: a column over y of E z would decide
    # E z at every y, about a million column evaluations per sentence
    t0 = time.perf_counter()
    assert evaluate(parse_formula("E x . E y . E z . x ; y = z"), ALG22)
    assert not evaluate(parse_formula("A x . A y . A z . x ; y = z"), ALG22)
    assert evaluate(parse_formula("E x . ~(A y . ~(E z . x ; y = -z))"), ALG22)
    assert time.perf_counter() - t0 < 1.0


def test_eval_term_builds_no_planes(big):
    # a term with every variable bound is a plain mask, whatever the size
    x = 0b101 << 40
    assert eval_term(Neg(Conv(Join(Var("x"), Const("0")))), big, {"x": x}) == (
        big.one ^ big.converse(x))
    assert eval_term(Comp(Var("x"), Const("1'")), big, {"x": x}) == x
