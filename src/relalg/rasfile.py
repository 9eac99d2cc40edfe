"""Reading and writing atom structures as plain text.

The format has four sections.  `[atoms]` lists whitespace-separated
atom names (their order fixes the index order), `[identity]` the
identity atoms, `[converse]` one `a b` pair per line (unlisted atoms
are self-converse) and `[forbidden]` one `a b c` triple per line.  The
forbidden section may list only generators: the loader closes it under
the six Peircean transforms into a table of forbidden masks and
complements each cell to the structure's consistent-third masks.  `#`
starts a comment anywhere.  Loading validates the structure and raises
on any violation.  Writing lists the first member, in (a, b, c) order,
of each Peircean orbit of forbidden triples, picked cell by cell with
mask tests.
"""

from __future__ import annotations

from .atoms import MAX_ATOMS, AtomStructure, bits, make_structure

SECTIONS = ("atoms", "identity", "converse", "forbidden")


class RasFormatError(ValueError):
    pass


def loads(text: str) -> AtomStructure:
    """Parse and validate a structure from file contents."""
    sections: dict = {name: [] for name in SECTIONS}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in sections:
                raise RasFormatError(f"line {lineno}: unknown section [{current}]")
            continue
        if current is None:
            raise RasFormatError(f"line {lineno}: content before any section")
        sections[current].append((lineno, line.split()))

    names: list = []
    for _, toks in sections["atoms"]:
        names.extend(toks)
    if not names:
        raise RasFormatError("no atoms declared")
    if len(set(names)) != len(names):
        raise RasFormatError("duplicate atom name")
    if len(names) > MAX_ATOMS:
        raise RasFormatError(f"more than {MAX_ATOMS} atoms")
    known = set(names)

    def checked(lineno: int, toks: list, arity: int) -> tuple:
        if len(toks) != arity:
            raise RasFormatError(f"line {lineno}: expected {arity} names")
        for nm in toks:
            if nm not in known:
                raise RasFormatError(f"line {lineno}: unknown atom {nm!r}")
        return tuple(toks)

    identity = [nm for ln, toks in sections["identity"]
                for nm in checked(ln, toks, len(toks))]
    converse = [checked(ln, toks, 2) for ln, toks in sections["converse"]]
    forbidden = [checked(ln, toks, 3) for ln, toks in sections["forbidden"]]
    if not identity:
        raise RasFormatError("no identity atoms declared")

    st = make_structure(names, identity, converse, forbidden)
    problems = st.validate()
    if problems:
        raise RasFormatError("invalid structure: " + "; ".join(problems))
    return st


def dumps(st: AtomStructure) -> str:
    """Serialize a structure; loads(dumps(st)) == st.

    The forbidden section holds one triple per Peircean orbit, the first
    in (a, b, c) order; the loader's closure under the transforms gives
    back every other member, so the round trip is exact.

    Precondition: conv is an involution and the table is Peircean
    closed, as every result of ``make_structure`` with an involutive
    conv or of :func:`loads` is.  Then a forbidden triple's orbit is
    the set of its six transforms, all forbidden, and the triple is the
    orbit's first member iff it is lexicographically <= each of its five
    other transforms.  Only such a table round-trips.  For a forbidden
    c of cell (a, b), the five conditions are masks over c:

    * (a, b, c) <= (a~, c, b):   all if a < a~, none if a > a~, else c >= b;
    * (a, b, c) <= (c, b~, a):   c > a, or c = a if b <= b~;
    * (a, b, c) <= (b, c~, a~):  all if a < b, none if a > b, else c~ >= b;
    * (a, b, c) <= (c~, a, b~):  c~ > a, or c~ = a if b <= a;
    * (a, b, c) <= (b~, a~, c~): all if a < b~, none if a > b~, else c <= c~.

    A tie in the first places fixes the rest: in the second condition,
    c = a makes the last places a and c equal, so b <= b~ decides; in
    the third, a = b and c~ = b make them c = b~ = a~.  Each condition
    is an O(1) mask from tables of "c >= x" and "c~ >= x" built once
    per call.  The first, third and fifth hold for no c when a > a~,
    a > b or a > b~, so those rows and cells are skipped.
    """
    lines = ["[atoms]", " ".join(st.names), "", "[identity]"]
    lines.extend(st.names[a] for a in sorted(st.identity))
    lines.append("")
    lines.append("[converse]")
    for a, b in sorted((a, b) for a, b in enumerate(st.conv) if a < b):
        lines.append(f"{st.names[a]} {st.names[b]}")
    lines.append("")
    lines.append("[forbidden]")
    k, names, conv = st.n_atoms, st.names, st.conv
    full = (1 << k) - 1
    ge = [full ^ ((1 << x) - 1) for x in range(k + 1)]  # c >= x
    cge = [0] * (k + 1)  # c~ >= x; c~ = x iff c = x~
    for x in reversed(range(k)):
        cge[x] = cge[x + 1] | 1 << conv[x]
    self_first = sum(1 << c for c in range(k) if c <= conv[c])  # c <= c~
    for a, row in enumerate(st.comp):
        ca = conv[a]
        if a > ca:
            continue
        for b in range(a, k):
            cb = conv[b]
            if a > cb:
                continue
            m = full ^ row[b]
            if a == ca:
                m &= ge[b]
            m &= ge[a + 1] | (1 << a if b <= cb else 0)
            if a == b:
                m &= cge[b]
            m &= cge[a + 1] | (1 << ca if b <= a else 0)
            if a == cb:
                m &= self_first
            if m:
                prefix = f"{names[a]} {names[b]} "
                lines.extend(prefix + names[c] for c in bits(m))
    return "\n".join(lines) + "\n"


def load(path) -> AtomStructure:
    with open(path, encoding="utf-8") as fh:
        return loads(fh.read())


def dump(st: AtomStructure, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(st))
