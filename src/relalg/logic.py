"""First-order formulas over the relation algebra signature.

Terms are built from variables, the constants 0, 1, 1' and the
operations complement, converse, join and composition (meet is sugar).
Formulas are equalities of terms closed under negation, conjunction,
disjunction and quantification; <= and < are sugar.

Evaluation is Tarskian over a finite complex algebra with k atoms and
N = 2^k elements, and bit-sliced: the body of a quantifier over v is
evaluated at all N values of v at once.  There a term's value is k
*planes*, plane[a] being an N-bit int whose bit e is set iff atom a is
in the term's value at v = e, and a formula's value is one N-bit truth
int, bit e set iff it holds at v = e.  Each operation applies its
atom-level definition to bit e of every plane at once, so bit e of the
result is that definition at element e:

- v: plane[a] holds the elements e with bit a set, i.e. containing a.
- A constant or another variable is one mask m at every e; where it
  meets planes, plane[a] is all-ones if a is in m and 0 otherwise.
- -x: plane ^ ONES, as a is in -x iff a is not in x.
- x^: out[a] = plane[conv a], as a is in x^ iff conv a is in x.
- x + y: OR plane by plane, as a is in x + y iff it is in x or in y.
- x;y: out[c] = OR of p[a] & q[b] over the (a, b) with c in comp[a][b],
  as c is in x;y iff c is in a;b for some a in x and b in y.  A
  constant side m first becomes the k-entry row m;b (or a;m), and
  out[c] is the OR of the other side's planes whose entry holds c.
- x = y: ONES ^ OR of p[a] ^ q[a], as x = y iff no atom is in just one.
- ~, & and |: bitwise on truth ints, bit e being the truth at e.  A
  formula that does not vary with v is a bool, which is 0 or ONES, the
  same at every e, where it meets a truth int.
- Q z. body: the body's truth int over z has some bit set (E) or all N
  set (A).  A body that is itself a quantifier over z (under any
  number of ~) gets no column over z: z's values are tried in turn,
  and the first that decides Q z stops the search.  Where the
  quantified formula varies with v, it is decided at each of v's N
  values in turn to give bit e.

Each quantifier memoizes its value on the values of its free variables
other than v: it depends on nothing else, so a quantifier nested under
another is evaluated once per distinct outer binding, not once per
element.  Planes are only built under a quantifier and by
:func:`term_planes`, both of which refuse algebras with more elements
than their budget; a formula without quantifiers is evaluated on masks
alone, at any size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import itemgetter, or_, xor
from typing import Optional

from .algebra import Algebra, bits
from .verdict import BudgetExhausted


# --- terms -----------------------------------------------------------------


def _parts(node) -> list:
    """A term's or formula's sub-terms and sub-formulas."""
    return [p for p in vars(node).values() if isinstance(p, (Term, Formula))]


class Term:
    @property
    def free_vars(self) -> frozenset:
        if isinstance(self, Var):
            return frozenset([self.name])
        return frozenset().union(*(p.free_vars for p in _parts(self)))


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Const(Term):
    symbol: str  # "0" | "1" | "1'"

    def __post_init__(self):
        if self.symbol not in ("0", "1", "1'"):
            raise ValueError(f"unknown constant {self.symbol!r}")


@dataclass(frozen=True)
class Neg(Term):
    arg: Term


@dataclass(frozen=True)
class Conv(Term):
    arg: Term


@dataclass(frozen=True)
class Join(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Comp(Term):
    left: Term
    right: Term


def meet(u: Term, v: Term) -> Term:
    return Neg(Join(Neg(u), Neg(v)))


# --- formulas ----------------------------------------------------------------


class Formula:
    @property
    def free_vars(self) -> frozenset:
        free = frozenset().union(*(p.free_vars for p in _parts(self)))
        return free - {self.var} if isinstance(self, (Exists, Forall)) else free

    @property
    def qdepth(self) -> int:
        inner = [p.qdepth for p in _parts(self) if isinstance(p, Formula)]
        return max(inner, default=0) + isinstance(self, (Exists, Forall))


@dataclass(frozen=True)
class Eq(Formula):
    left: Term
    right: Term


@dataclass(frozen=True)
class Not(Formula):
    arg: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    body: Formula


def leq(u: Term, v: Term) -> Formula:
    return Eq(Join(u, v), v)


def lt(u: Term, v: Term) -> Formula:
    return And(leq(u, v), Not(Eq(u, v)))


def quantifier_depth(f: Formula) -> int:
    return f.qdepth


# --- evaluation ---------------------------------------------------------------

DEFAULT_MAX_ELEMENTS = 1 << 16  # 16 atoms: each plane is then 8 KiB


class UnboundVariableError(KeyError):
    pass


def _check_bound(free_vars, env: dict) -> None:
    missing = free_vars - env.keys()
    if missing:
        raise UnboundVariableError(sorted(missing)[0])


def _check_budget(alg: Algebra, max_elements: int) -> None:
    if alg.size > max_elements:
        raise BudgetExhausted(f"element budget {max_elements} is below the "
                              f"algebra's 2^{alg.n_atoms} elements")


def _scatter(row: list[int], q: list[int], k: int) -> list[int]:
    """out[c] = OR of q[b] over the atoms b with c in row[b]."""
    out = [0] * k
    for qb, r in zip(q, row):
        if qb:
            for c in bits(r):
                out[c] |= qb
    return out


class _Planes:
    """The closures of one evaluation over one algebra.

    ``term(t, v)`` and ``formula(f, v)`` return ``(fn, free)``, where
    ``free`` is the node's free variables and ``fn(env)`` its value.
    When the column variable v is free in the node, that value is a
    column over v: k planes for a term, an N-bit truth int for a
    formula.  Otherwise it is a plain mask for a term and a bool for a
    formula.  Every variable other than v is read from ``env``.
    """

    def __init__(self, alg: Algebra, max_elements: int = DEFAULT_MAX_ELEMENTS):
        self.alg = alg
        self.max_elements = max_elements

    @cached_property
    def ones(self) -> int:
        """The N-bit all-ones int; a node with no column never needs it."""
        return (1 << self.alg.size) - 1

    @cached_property
    def var_planes(self) -> list[int]:
        """plane[a] = the elements that contain atom a, by shift-doubling."""
        planes, n = [], self.alg.size
        for a in range(self.alg.n_atoms):
            run = 1 << a
            plane, span = ((1 << run) - 1) << run, 2 * run
            while span < n:
                plane |= plane << span
                span *= 2
            planes.append(plane)
        return planes

    def lift(self, mask: int) -> list[int]:
        """The planes of a mask that does not vary: all-ones for the
        atoms in it, 0 for the others."""
        ones = self.ones
        return [ones if mask >> a & 1 else 0 for a in range(self.alg.n_atoms)]

    def as_planes(self, fn, col: bool):
        """A term's closure as planes, lifting it if it does not vary."""
        if col:
            return fn
        lift = self.lift
        return lambda env: lift(fn(env))

    def as_column(self, fn, col: bool):
        """A formula's closure as a truth int, 0 or ONES if it does not vary."""
        if col:
            return fn
        ones = self.ones
        return lambda env: ones if fn(env) else 0

    # terms
    def term(self, t: Term, v):
        alg = self.alg
        if isinstance(t, Var):
            name, free = t.name, frozenset((t.name,))
            if name == v:
                planes = self.var_planes
                return (lambda env: planes), free
            return (lambda env: env[name]), free
        if isinstance(t, Const):
            val = {"0": 0, "1": alg.one, "1'": alg.identity_mask}[t.symbol]
            return (lambda env: val), frozenset()
        if isinstance(t, (Neg, Conv)):
            arg, free = self.term(t.arg, v)
            if v not in free:
                op = alg.complement if isinstance(t, Neg) else alg.converse
                return (lambda env: op(arg(env))), free
            if isinstance(t, Neg):
                ones = self.ones
                return (lambda env: [p ^ ones for p in arg(env)]), free
            conv = alg.conv_atom
            return (lambda env: list(map(arg(env).__getitem__, conv))), free
        if isinstance(t, (Join, Comp)):
            left, lfree = self.term(t.left, v)
            right, rfree = self.term(t.right, v)
            make = self._join if isinstance(t, Join) else self._comp
            return make(left, v in lfree, right, v in rfree), lfree | rfree
        raise TypeError(f"not a term: {t!r}")

    def _join(self, left, lcol, right, rcol):
        if not (lcol or rcol):
            return lambda env: left(env) | right(env)
        left, right = self.as_planes(left, lcol), self.as_planes(right, rcol)
        return lambda env: list(map(or_, left(env), right(env)))

    def _comp(self, left, lcol, right, rcol):
        alg, k = self.alg, self.alg.n_atoms
        if not (lcol or rcol):
            return lambda env: alg.compose(left(env), right(env))
        if lcol and rcol:
            def both(env):  # x;y is the union of a;y over the atoms a in x
                p, q, out = left(env), right(env), [0] * k
                for pa, row in zip(p, alg.comp):
                    if pa:
                        out = [o | pa & s for o, s in zip(out, _scatter(row, q, k))]
                return out

            return both
        # a constant side m needs one scatter of the row m;b (or a;m)
        if rcol:
            return lambda env: _scatter(alg.left_row(left(env)), right(env), k)
        return lambda env: _scatter(alg.right_row(right(env)), left(env), k)

    # formulas
    def formula(self, f: Formula, v):
        if isinstance(f, Eq):
            left, lfree = self.term(f.left, v)
            right, rfree = self.term(f.right, v)
            lcol, rcol = v in lfree, v in rfree
            free = lfree | rfree
            if not (lcol or rcol):
                return (lambda env: left(env) == right(env)), free
            left, right = self.as_planes(left, lcol), self.as_planes(right, rcol)
            ones = self.ones
            return (lambda env: ones ^ reduce(
                or_, map(xor, left(env), right(env)), 0)), free
        if isinstance(f, Not):
            arg, free = self.formula(f.arg, v)
            if v not in free:
                return (lambda env: not arg(env)), free
            ones = self.ones
            return (lambda env: ones ^ arg(env)), free
        if isinstance(f, (And, Or)):
            left, lfree = self.formula(f.left, v)
            right, rfree = self.formula(f.right, v)
            lcol, rcol = v in lfree, v in rfree
            free = lfree | rfree
            if not (lcol or rcol):
                if isinstance(f, And):
                    return (lambda env: left(env) and right(env)), free
                return (lambda env: left(env) or right(env)), free
            left, right = self.as_column(left, lcol), self.as_column(right, rcol)
            if isinstance(f, And):
                return (lambda env: left(env) & right(env)), free
            return (lambda env: left(env) | right(env)), free
        if isinstance(f, (Exists, Forall)):
            return self._quantifier(f, v)
        raise TypeError(f"not a formula: {f!r}")

    def _quantifier(self, f, v):
        _check_budget(self.alg, self.max_elements)
        z, n, exists = f.var, self.alg.size, isinstance(f, Exists)
        inner = f.body
        while isinstance(inner, Not):
            inner = inner.arg
        if isinstance(inner, (Exists, Forall)) and z in inner.free_vars:
            # a column over z would decide the inner quantifier at all N
            # values of z; try them in turn and stop at the first that
            # decides this one
            body, free = self.formula(f.body, None)

            def holds(env):
                env = dict(env)

                def at_z(e):
                    env[z] = e
                    return body(env)

                found = map(at_z, range(n))
                return any(found) if exists else all(found)
        else:
            body, free = self.formula(f.body, z)
            body, ones = self.as_column(body, z in free), self.ones
            if exists:
                holds = lambda env: body(env) != 0
            else:
                holds = lambda env: body(env) == ones
        free = free - {z}
        others = tuple(sorted(free - {v}))
        key = itemgetter(*others) if others else (lambda env: ())
        memo: dict = {}

        def fn(env):
            bound = key(env)
            got = memo.get(bound)
            if got is None:
                if v not in free:
                    got = holds(env)
                else:  # bit e: the formula at v = e
                    env, got = dict(env), 0
                    for e in range(n):
                        env[v] = e
                        if holds(env):
                            got |= 1 << e
                memo[bound] = got
            return got

        return fn, free


def term_planes(t: Term, alg: Algebra) -> list[int]:
    """The k planes of a term in the one variable x: bit e of plane[a]
    is set iff atom a is in the term's value at x = e.  Raises
    ``BudgetExhausted`` above ``DEFAULT_MAX_ELEMENTS`` elements."""
    _check_budget(alg, DEFAULT_MAX_ELEMENTS)
    planes = _Planes(alg)
    fn, free = planes.term(t, "x")
    _check_bound(free - {"x"}, {})
    return list(planes.as_planes(fn, "x" in free)({}))


def evaluate(f: Formula, alg: Algebra, env: Optional[dict] = None,
             max_elements: int = DEFAULT_MAX_ELEMENTS) -> bool:
    """Evaluate a formula; its free variables must all be bound by env.

    Compiles the formula once, then evaluates each quantifier's body
    over all N elements at once: a term there is k planes (bit e of
    plane[a] set iff atom a is in its value at element e) and a formula
    one N-bit truth int.  Each operation is exact bit by bit, as the
    module docstring argues one operation at a time.  A quantifier's
    memo key is the values of its free variables other than the one
    its context varies.  A formula with a quantifier raises
    ``BudgetExhausted`` before anything is evaluated if the algebra has
    more than ``max_elements`` elements; one without needs no planes
    and is evaluated at any size.
    """
    env = dict(env) if env else {}
    fn, free = _Planes(alg, max_elements).formula(f, None)
    _check_bound(free, env)
    return bool(fn(env))


# --- the cardinality formulas -------------------------------------------------


def build_phi_k(k: int) -> Formula:
    """Formula in one free variable x: "x is above at least k atoms".

    Built by the recursion phi_{k+1}(x) = exists y (y < x and phi_k(y))
    with the two variables x and y alternating, so only two variable
    names occur no matter how large k is.  Quantifier depth is k - 1.
    """
    if k < 1:
        raise ValueError("k must be >= 1")

    def phi(j: int, free: str, bound: str) -> Formula:
        if j == 1:
            return Not(Eq(Var(free), Const("0")))
        return Exists(bound, And(lt(Var(bound), Var(free)), phi(j - 1, bound, free)))

    return phi(k, "x", "y")


def cardinality_sentence(k: int) -> Formula:
    """Sentence true in a complex algebra iff it has at least k atoms."""
    return Exists("x", build_phi_k(k))


# --- textual syntax ------------------------------------------------------------

# grammar (whitespace-insensitive):
#   formula := ('E'|'A') IDENT '.' formula | disj
#   disj    := conj ('|' conj)*
#   conj    := unit ('&' unit)*
#   unit    := '~' unit | '(' formula ')' | term ('='|'<='|'<') term
#   term    := joint;  joint := meett ('+' meett)*
#   meett   := compt ('.' compt)*;  compt := prim (';' prim)*
#   prim    := '-' prim | atom '^'* ;  atom := '0'|'1'|'id'|IDENT|'(' term ')'


class ParseError(ValueError):
    pass


_SYMBOLS = ("<=", "(", ")", "-", "^", "+", ".", ";", "=", "<", "~", "&", "|")


def _tokenize(text: str) -> list[str]:
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                toks.append(sym)
                i += len(sym)
                break
        else:
            if ch.isalnum() or ch == "_" or ch == "'":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] in "_'"):
                    j += 1
                toks.append(text[i:j])
                i = j
            else:
                raise ParseError(f"unexpected character {ch!r}")
    return toks


class _Parser:
    def __init__(self, toks: list[str]):
        self.toks = toks
        self.i = 0

    def peek(self) -> Optional[str]:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self, expect: Optional[str] = None) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        if expect is not None and tok != expect:
            raise ParseError(f"expected {expect!r}, found {tok!r}")
        self.i += 1
        return tok

    # formulas
    def formula(self) -> Formula:
        tok = self.peek()
        if tok in ("E", "A"):
            self.take()
            var = self.take()
            if not var.isidentifier():
                raise ParseError(f"bad variable name {var!r}")
            self.take(".")
            body = self.formula()
            return Exists(var, body) if tok == "E" else Forall(var, body)
        return self.disj()

    def disj(self) -> Formula:
        f = self.conj()
        while self.peek() == "|":
            self.take()
            f = Or(f, self.conj())
        return f

    def conj(self) -> Formula:
        f = self.unit()
        while self.peek() == "&":
            self.take()
            f = And(f, self.unit())
        return f

    def unit(self) -> Formula:
        tok = self.peek()
        if tok == "~":
            self.take()
            return Not(self.unit())
        if tok == "(":
            # could open a parenthesised formula or the left term
            mark = self.i
            try:
                self.take("(")
                f = self.formula()
                self.take(")")
                return f
            except ParseError:
                self.i = mark
        left = self.term()
        op = self.take()
        if op not in ("=", "<=", "<"):
            raise ParseError(f"expected comparison, found {op!r}")
        right = self.term()
        if op == "=":
            return Eq(left, right)
        if op == "<=":
            return leq(left, right)
        return lt(left, right)

    # terms
    def term(self) -> Term:
        t = self.meett()
        while self.peek() == "+":
            self.take()
            t = Join(t, self.meett())
        return t

    def meett(self) -> Term:
        t = self.compt()
        while self.peek() == ".":
            self.take()
            t = meet(t, self.compt())
        return t

    def compt(self) -> Term:
        t = self.prim()
        while self.peek() == ";":
            self.take()
            t = Comp(t, self.prim())
        return t

    def prim(self) -> Term:
        tok = self.peek()
        if tok == "-":
            self.take()
            return Neg(self.prim())
        if tok == "(":
            self.take()
            t = self.term()
            self.take(")")
        elif tok == "0":
            self.take()
            t = Const("0")
        elif tok == "1":
            self.take()
            t = Const("1")
        elif tok == "id":
            self.take()
            t = Const("1'")
        elif tok is not None and tok.isidentifier():
            self.take()
            t = Var(tok)
        else:
            raise ParseError(f"expected a term, found {tok!r}")
        while self.peek() == "^":
            self.take()
            t = Conv(t)
        return t


def parse_formula(text: str) -> Formula:
    p = _Parser(_tokenize(text))
    f = p.formula()
    if p.peek() is not None:
        raise ParseError(f"trailing input at {p.peek()!r}")
    return f
