"""Reading and writing atom structures as plain text.

The format has four sections.  `[atoms]` lists whitespace-separated
atom names (their order fixes the index order), `[identity]` the
identity atoms, `[converse]` one `a b` pair per line (unlisted atoms
are self-converse; a pair may repeat, mirrored or not, but may not
contradict an earlier one) and `[forbidden]` one `a b c` triple per
line.  A section may appear more than once; its lines add up.  `#`
starts a comment anywhere.

The forbidden section may list only generators.  The loader maps every
name to its atom id once, sets each generator's bit in a table of
forbidden masks and closes the table with three mask passes, g2, g1,
g2, where g1: (a, b, c) -> (a~, c, b) and g2: (a, b, c) -> (b~, a~, c~)
(see :func:`relalg.atoms.structure_from_generators`).  For an
involutive conv the six Peircean transforms are the words of length at
most 3 in g1 and g2, so three passes reach the union of the
generators' orbits; the loader rejects contradicting converse pairs,
so conv is always an involution.  Each cell's complement is then the
consistent-third mask.  Loading validates the structure and raises on
any violation.  Writing lists the first member, in (a, b, c) order, of
each Peircean orbit of forbidden triples, picked cell by cell with mask
tests.
"""

from __future__ import annotations

import re
from itertools import chain

from .atoms import MAX_ATOMS, AtomStructure, bits, structure_from_generators

SECTIONS = ("atoms", "identity", "converse", "forbidden")
_COMMENT = re.compile("#[^\n]*")
_TRIPLE_LINES = re.compile(r"(?:\S+ \S+ \S+\n|\n)*(?:\S+ \S+ \S+)?")


class RasFormatError(ValueError):
    pass


def _blocks(lines: list) -> dict:
    """Each section's blocks of lines, as (index of the first line,
    lines) pairs in file order.  Only the lines holding a `[` can be
    headers; they are found with str.find on the joined text, so the
    lines between headers are not looked at here."""
    blocks: dict = {name: [] for name in SECTIONS}
    body = "\n".join(lines)
    current, start = None, 0
    i = pos = 0  # line i starts at body[pos]
    while (hit := body.find("[", pos)) >= 0:
        i += body.count("\n", pos, hit)
        line = lines[i].split("#", 1)[0].strip()
        if line.startswith("[") and line.endswith("]"):
            _close(current, start, lines[start:i], blocks)
            current, start = line[1:-1].strip().lower(), i + 1
            if current not in blocks:
                raise RasFormatError(f"line {i + 1}: unknown section [{current}]")
        pos = body.find("\n", hit) + 1
        if not pos:
            break
        i += 1
    _close(current, start, lines[start:], blocks)
    return blocks


def _close(section, start: int, lines: list, blocks: dict) -> None:
    if section is None:
        for lineno, _ in _rows([(start, lines)]):
            raise RasFormatError(f"line {lineno}: content before any section")
    else:
        blocks[section].append((start, lines))


def _rows(blocks: list):
    """(line number, names) for each line of the blocks that holds a name."""
    for start, lines in blocks:
        for lineno, raw in enumerate(lines, start + 1):
            toks = raw.split("#", 1)[0].split()
            if toks:
                yield lineno, toks


def loads(text: str) -> AtomStructure:
    """Parse and validate a structure from file contents.

    Names are mapped to atom ids once, while reading.  The small
    sections are read line by line.  `[forbidden]` is read in bulk when,
    with comments cut, each of its lines is blank or three names split
    by single spaces, as :func:`dumps` writes it: one regular-expression
    match checks the layout, one split lists the names and one map turns
    them into ids.  Any other layout, or an unknown name, sends it line
    by line, which raises the error with its line number.  The id
    triples go to :func:`structure_from_generators`, which closes them
    with three mask passes.  A converse pair that contradicts an earlier
    one is an error, so conv is an involution and the closure is exact.
    """
    blocks = _blocks(text.splitlines())
    names = [nm for _, toks in _rows(blocks["atoms"]) for nm in toks]
    if not names:
        raise RasFormatError("no atoms declared")
    if len(set(names)) != len(names):
        raise RasFormatError("duplicate atom name")
    if len(names) > MAX_ATOMS:
        raise RasFormatError(f"more than {MAX_ATOMS} atoms")
    index = {nm: i for i, nm in enumerate(names)}

    def checked(lineno: int, toks: list, arity: int) -> list:
        if len(toks) != arity:
            raise RasFormatError(f"line {lineno}: expected {arity} names")
        for nm in toks:
            if nm not in index:
                raise RasFormatError(f"line {lineno}: unknown atom {nm!r}")
        return [index[nm] for nm in toks]

    identity = [a for ln, toks in _rows(blocks["identity"])
                for a in checked(ln, toks, len(toks))]
    conv = list(range(len(names)))
    paired: dict = {}
    for ln, toks in _rows(blocks["converse"]):
        a, b = checked(ln, toks, 2)
        for x, y in ((a, b), (b, a)):
            if paired.setdefault(x, y) != y:
                raise RasFormatError(
                    f"line {ln}: converse of {names[x]!r} already given as "
                    f"{names[paired[x]]!r}")
        conv[a], conv[b] = b, a
    ids = _forbidden_ids(blocks["forbidden"], index)
    if ids is None:
        ids = [a for ln, toks in _rows(blocks["forbidden"])
               for a in checked(ln, toks, 3)]
    if not identity:
        raise RasFormatError("no identity atoms declared")

    it = iter(ids)
    st = structure_from_generators(names, identity, conv, zip(it, it, it))
    problems = st.validate()
    if problems:
        raise RasFormatError("invalid structure: " + "; ".join(problems))
    return st


def _forbidden_ids(blocks: list, index: dict):
    """The atom ids of the forbidden triples, flat, read in bulk; None
    if the section is not in the bulk layout or names an unknown atom."""
    body = "\n".join(chain.from_iterable(lines for _, lines in blocks))
    if "#" in body:
        body = _COMMENT.sub("", body)
    if not _TRIPLE_LINES.fullmatch(body):
        return None
    try:
        return list(map(index.__getitem__, body.split()))
    except KeyError:
        return None


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
    """Read and parse a UTF-8 file, with or without a byte-order mark;
    text that is not UTF-8 is a format error."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise RasFormatError(
            f"not UTF-8 text: byte {exc.start}: {exc.reason}") from None
    return loads(text)


def dump(st: AtomStructure, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(st))
