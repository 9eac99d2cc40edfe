"""First-order formulas over the relation algebra signature.

Terms are built from variables, the constants 0, 1, 1' and the
operations complement, converse, join and composition (meet is sugar).
Formulas are equalities of terms closed under negation, conjunction,
disjunction and quantification; <= and < are sugar.

Evaluation is Tarskian over a finite complex algebra with k atoms and
N = 2^k elements, and bit-sliced over a *grid*: a tuple of m column
variables whose N^m joint values, the bindings, are all evaluated at
once.  Binding b gives variable i the value held in digit i of b, its
bits i·k to i·k + k - 1.  There a term's value is k *planes*, plane[a]
being an N^m-bit int whose bit b is set iff atom a is in the term's
value at binding b, and a formula's value is one N^m-bit truth int.
Each operation applies its atom-level definition to bit b of every
plane at once, so bit b of the result is that definition at b:

- variable i: plane[a] holds the bindings with bit i·k + a set, i.e.
  whose digit i contains a.
- A constant or a variable outside the grid is one mask m at every b;
  where it meets planes, plane[a] is all-ones if a is in m, else 0.
- -x: plane ^ ONES, as a is in -x iff a is not in x.
- x^: out[a] = plane[conv a], as a is in x^ iff conv a is in x.
- x + y: OR plane by plane, as a is in x + y iff it is in x or in y.
- x;y: out[c] = OR of p[a] & q[b] over the (a, b) with c in comp[a][b],
  as c is in x;y iff c is in a;b for some a in x and b in y.  A
  constant side m first becomes the k-entry row m;b (or a;m), and
  out[c] is the OR of the other side's planes whose entry holds c.
- x = y: ONES ^ OR of p[a] ^ q[a], as x = y iff no atom is in just one.
- ~, & and |: bitwise on truth ints, bit b being the truth at b.  A
  formula that meets no grid variable is a bool, which is 0 or ONES,
  the same at every b, where it meets a truth int.

Every node that meets a grid variable is held over the whole grid,
even along digits it does not read, so two sides always line up bit
for bit and nothing is broadcast.

Q z. body, where z is free in the body (else it is the body: there are
N >= 2 values of z), is a bool if it meets no grid variable: its body
is then evaluated with the grid left empty.  Otherwise it is held over
the grid.  Either way it takes one of three paths, E folding with OR
and A with AND:

(a) z is grid variable i, as when phi_k re-binds x and y.  The body is
    evaluated on the same grid.  The grid's binding of z is shadowed:
    it is not free in the body, so digit i may hold the body's z.
    k steps w = w op (w >> N^i·2^j), j < k, leave at each binding b
    whose digit i is 0 the fold of bit b + d·N^i over every d < N,
    which is b with z = d.  Nothing carries, since b's digit i is 0 and
    d < N.  The other bindings are masked out, and k steps w |= w <<
    N^i·2^j copy each kept bit to the N bindings that differ from it
    in digit i alone, again without carries.  The value, which does
    not depend on z, is the same along digit i.
(b) z is new and N^(m+1) <= GRID_MAX_BITS.  z becomes the top digit m
    and the body is evaluated on the bigger grid.  k halving steps fold
    it down: each takes the low half op the high half, so binding
    b < N^m ends with the fold of b + d·N^m over every d < N.  The top
    digit is the highest, so nothing carries or is cut.  An empty grid
    is left with one bit, the bool.
(c) Otherwise, or when the body is itself a quantifier over z (under
    any number of ~): z is read from env and its values are tried in
    turn.  A bool stops at the first value that decides it, so prenex
    chains are answered at the first witness, and a grid int is folded
    across the values until it is all ones (E) or 0 (A).  If z was a
    grid variable, the body is evaluated on the grid with z's digit
    marked unread (the grid's binding of z is shadowed, as in (a)), so
    its value is the same along that digit.

GRID_MAX_BITS = 2^22 caps a grid at 512 KiB a plane: two variables
over up to 11 atoms.  Path (b) is faster than (c) at every size
measured, up to B(3,2), whose (x, y) grid is exactly the cap (see
CHANGES.md).

Each quantifier memoizes its value on the values of its free variables
outside its grid.  The key is exact: the value depends only on the
quantified formula's free variables, those in the grid are all held in
the value, and the rest are in the key.  So a quantifier under path
(c)'s loop is evaluated once per distinct binding of what it reads,
not once per value tried.  Planes are only built under a quantifier
and by :func:`term_planes`, both of which refuse algebras with more
elements than their budget; a formula without quantifiers is
evaluated on masks alone, at any size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_, itemgetter, or_, xor
from typing import Optional

from .algebra import Algebra, bits
from .verdict import BudgetExhausted


# --- terms -----------------------------------------------------------------


def _parts(node) -> list:
    """A term's or formula's sub-terms and sub-formulas."""
    return [p for p in vars(node).values() if isinstance(p, (Term, Formula))]


def _free_vars(node) -> frozenset:
    """A node's free variables, computed once: nodes are immutable, so
    the set is kept in the node's ``__dict__`` beside its fields."""
    free = node.__dict__.get("_free")
    if free is None:
        if isinstance(node, Var):
            free = frozenset((node.name,))
        else:
            free = frozenset().union(*map(_free_vars, _parts(node)))
            if isinstance(node, (Exists, Forall)):
                free -= {node.var}
        node.__dict__["_free"] = free
    return free


class Term:
    free_vars = property(_free_vars)


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
    free_vars = property(_free_vars)

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
GRID_MAX_BITS = 1 << 22  # the most bindings a grid holds: 512 KiB a plane


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


def _tile(block: int, period: int, size: int) -> int:
    """``block`` repeated every ``period`` bits up to ``size`` bits, by
    doubling; ``size / period`` is a power of 2."""
    while period < size:
        block |= block << period
        period *= 2
    return block


class _Planes:
    """The closures of one evaluation over one algebra.

    ``term(t, grid)`` and ``formula(f, grid)`` return ``(fn, free)``,
    where ``free`` is the node's free variables and ``fn(env)`` its
    value.  ``grid`` is a tuple of column variables, variable i being
    digit i of a binding (``None`` marks a digit that nothing reads).
    When ``free`` meets the grid, the value is held over the whole
    grid: k planes for a term, a truth int for a formula, each of
    N^len(grid) bits.  Otherwise it is a plain mask for a term and a
    bool for a formula.  Every variable outside the grid is read from
    ``env``.
    """

    def __init__(self, alg: Algebra, max_elements: int = DEFAULT_MAX_ELEMENTS):
        self.alg = alg
        self.max_elements = max_elements
        self._cache: dict = {}  # (kind, *args) -> int or planes

    def ones(self, m: int) -> int:
        """The all-ones int over an m-digit grid."""
        got = self._cache.get(("ones", m))
        if got is None:
            got = self._cache["ones", m] = (1 << self.alg.size ** m) - 1
        return got

    def var_planes(self, i: int, m: int) -> list[int]:
        """plane[a] = the bindings of an m-digit grid whose digit i
        contains atom a, i.e. those with bit i·k + a set."""
        got = self._cache.get(("var", i, m))
        if got is None:
            size, k = self.alg.size ** m, self.alg.n_atoms
            runs = [1 << (i * k + a) for a in range(k)]
            got = self._cache["var", i, m] = [
                _tile(((1 << run) - 1) << run, 2 * run, size) for run in runs]
        return got

    def digit_zero(self, i: int, m: int) -> int:
        """The bindings of an m-digit grid whose digit i is 0."""
        got = self._cache.get(("zero", i, m))
        if got is None:
            n = self.alg.size
            got = self._cache["zero", i, m] = _tile(
                (1 << n ** i) - 1, n ** (i + 1), n ** m)
        return got

    def lift(self, mask: int, ones: int) -> list[int]:
        """The planes of a mask that does not vary: all-ones for the
        atoms in it, 0 for the others."""
        return [ones if mask >> a & 1 else 0 for a in range(self.alg.n_atoms)]

    def as_planes(self, fn, col: bool, grid):
        """A term's closure as planes, lifting it if it does not vary."""
        if col:
            return fn
        lift, ones = self.lift, self.ones(len(grid))
        return lambda env: lift(fn(env), ones)

    def as_column(self, fn, col: bool, grid):
        """A formula's closure as a truth int, 0 or ONES if it does not vary."""
        if col:
            return fn
        ones = self.ones(len(grid))
        return lambda env: ones if fn(env) else 0

    # terms
    def term(self, t: Term, grid: tuple):
        alg = self.alg
        if isinstance(t, Var):
            name, free = t.name, t.free_vars
            if name in grid:
                planes = self.var_planes(grid.index(name), len(grid))
                return (lambda env: planes), free
            return (lambda env: env[name]), free
        if isinstance(t, Const):
            val = {"0": 0, "1": alg.one, "1'": alg.identity_mask}[t.symbol]
            return (lambda env: val), frozenset()
        if isinstance(t, (Neg, Conv)):
            arg, free = self.term(t.arg, grid)
            if free.isdisjoint(grid):
                op = alg.complement if isinstance(t, Neg) else alg.converse
                return (lambda env: op(arg(env))), free
            if isinstance(t, Neg):
                ones = self.ones(len(grid))
                return (lambda env: [p ^ ones for p in arg(env)]), free
            conv = alg.conv_atom
            return (lambda env: list(map(arg(env).__getitem__, conv))), free
        if isinstance(t, (Join, Comp)):
            left, lfree = self.term(t.left, grid)
            right, rfree = self.term(t.right, grid)
            make = self._join if isinstance(t, Join) else self._comp
            lcol, rcol = not lfree.isdisjoint(grid), not rfree.isdisjoint(grid)
            return make(left, lcol, right, rcol, grid), t.free_vars
        raise TypeError(f"not a term: {t!r}")

    def _join(self, left, lcol, right, rcol, grid):
        if not (lcol or rcol):
            return lambda env: left(env) | right(env)
        left = self.as_planes(left, lcol, grid)
        right = self.as_planes(right, rcol, grid)
        return lambda env: list(map(or_, left(env), right(env)))

    def _comp(self, left, lcol, right, rcol, grid):
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
    def formula(self, f: Formula, grid: tuple):
        if isinstance(f, Eq):
            left, lfree = self.term(f.left, grid)
            right, rfree = self.term(f.right, grid)
            lcol, rcol = not lfree.isdisjoint(grid), not rfree.isdisjoint(grid)
            free = f.free_vars
            if not (lcol or rcol):
                return (lambda env: left(env) == right(env)), free
            left = self.as_planes(left, lcol, grid)
            right = self.as_planes(right, rcol, grid)
            ones = self.ones(len(grid))
            return (lambda env: ones ^ reduce(
                or_, map(xor, left(env), right(env)), 0)), free
        if isinstance(f, Not):
            arg, free = self.formula(f.arg, grid)
            if free.isdisjoint(grid):
                return (lambda env: not arg(env)), free
            ones = self.ones(len(grid))
            return (lambda env: ones ^ arg(env)), free
        if isinstance(f, (And, Or)):
            left, lfree = self.formula(f.left, grid)
            right, rfree = self.formula(f.right, grid)
            lcol, rcol = not lfree.isdisjoint(grid), not rfree.isdisjoint(grid)
            free = f.free_vars
            if not (lcol or rcol):
                if isinstance(f, And):
                    return (lambda env: left(env) and right(env)), free
                return (lambda env: left(env) or right(env)), free
            left = self.as_column(left, lcol, grid)
            right = self.as_column(right, rcol, grid)
            if isinstance(f, And):
                return (lambda env: left(env) & right(env)), free
            return (lambda env: left(env) | right(env)), free
        if isinstance(f, (Exists, Forall)):
            return self._quantifier(f, grid)
        raise TypeError(f"not a formula: {f!r}")

    def _quantifier(self, f, grid):
        """Q z. body on paths (a), (b) and (c) of the module docstring."""
        _check_budget(self.alg, self.max_elements)
        z, body_free = f.var, f.body.free_vars
        if z not in body_free:  # Q z . body is the body: N >= 2 values of z
            return self.formula(f.body, grid)
        free, exists = f.free_vars, isinstance(f, Exists)
        if free.isdisjoint(grid):
            grid = ()  # the quantified formula is a bool
        k, n, m = self.alg.n_atoms, self.alg.size, len(grid)
        fold = or_ if exists else and_
        inner = f.body
        while isinstance(inner, Not):
            inner = inner.arg
        if isinstance(inner, (Exists, Forall)) or (
                z not in grid and n ** (m + 1) > GRID_MAX_BITS):
            # (c) z's values in turn, read from env, so its digit (if it
            # has one) is read by nothing under the body
            grid = tuple(None if g == z else g for g in grid)
            body, _ = self.formula(f.body, grid)
            ones, none = (self.ones(m), 0) if grid else (True, False)
            start, stop = (none, ones) if exists else (ones, none)

            def holds(env):
                env, got = dict(env), start
                for e in range(n):
                    env[z] = e
                    got = fold(got, body(env))
                    if got == stop:
                        break
                return got
        elif z in grid:
            # (a) fold z's digit i in place, then spread it back
            body, _ = self.formula(f.body, grid)
            i = grid.index(z)
            strides = [n ** i << j for j in range(k)]
            keep = self.digit_zero(i, m)

            def holds(env):
                got = body(env)
                for s in strides:
                    got = fold(got, got >> s)
                got &= keep
                for s in strides:
                    got |= got << s
                return got
        else:
            # (b) z as a new top digit m, folded down by halving; an
            # empty grid is left with one bit, the formula's truth
            body, _ = self.formula(f.body, grid + (z,))
            halves = [(n ** m << j, (1 << (n ** m << j)) - 1)
                      for j in reversed(range(k))]

            def holds(env):
                got = body(env)
                for s, low in halves:
                    got = fold(got >> s, got & low)
                return got if grid else got == 1
        others = tuple(sorted(free.difference(grid)))
        key = itemgetter(*others) if others else (lambda env: ())
        memo: dict = {}

        def fn(env):
            bound = key(env)
            got = memo.get(bound)
            if got is None:
                got = memo[bound] = holds(env)
            return got

        return fn, free


def term_planes(t: Term, alg: Algebra) -> list[int]:
    """The k planes of a term in the one variable x: bit e of plane[a]
    is set iff atom a is in the term's value at x = e.  Raises
    ``BudgetExhausted`` above ``DEFAULT_MAX_ELEMENTS`` elements."""
    _check_budget(alg, DEFAULT_MAX_ELEMENTS)
    planes = _Planes(alg)
    fn, free = planes.term(t, ("x",))
    _check_bound(free - {"x"}, {})
    return list(planes.as_planes(fn, "x" in free, ("x",))({}))


def evaluate(f: Formula, alg: Algebra, env: Optional[dict] = None,
             max_elements: int = DEFAULT_MAX_ELEMENTS) -> bool:
    """Evaluate a formula; its free variables must all be bound by env.

    Compiles the formula once, then evaluates each quantifier's body
    on a grid of its variable and the enclosing ones, all their joint
    values at once: a term there is k planes (bit b of plane[a] set iff
    atom a is in its value at binding b) and a formula one truth int.
    Each operation is exact bit by bit, as the module docstring argues
    one operation at a time.  A quantifier's memo key is the values of
    its free variables outside its grid.  A formula with a quantifier raises
    ``BudgetExhausted`` before anything is evaluated if the algebra has
    more than ``max_elements`` elements; one without needs no planes
    and is evaluated at any size.
    """
    env = dict(env) if env else {}
    fn, free = _Planes(alg, max_elements).formula(f, ())
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
