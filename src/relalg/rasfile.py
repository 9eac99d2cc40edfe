"""Reading and writing atom structures as plain text.

The format has four sections.  `[atoms]` lists whitespace-separated
atom names (their order fixes the index order), `[identity]` the
identity atoms, `[converse]` one `a b` pair per line (unlisted atoms
are self-converse) and `[forbidden]` one `a b c` triple per line.  The
forbidden section may list only generators: the loader closes it under
the six Peircean transforms into a table of forbidden masks and
complements each cell to the structure's consistent-third masks.  `#`
starts a comment anywhere.  Loading validates the structure and raises
on any violation.  Writing walks the forbidden bits of the table in
(a, b, c) order and lists the first member of each Peircean orbit.
"""

from __future__ import annotations

from .atoms import MAX_ATOMS, AtomStructure, bits, make_structure, peircean_transforms

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
    back every other member, so the round trip is exact.  The walk keeps
    a table of covered masks: a cell's forbidden bits not yet covered
    are visited in order, and a line is written for each one that is
    still uncovered when it is reached, since its own orbit may cover a
    later bit of the same cell.
    """
    lines = ["[atoms]", " ".join(st.names), "", "[identity]"]
    lines.extend(st.names[a] for a in sorted(st.identity))
    lines.append("")
    lines.append("[converse]")
    for a, b in sorted((a, b) for a, b in enumerate(st.conv) if a < b):
        lines.append(f"{st.names[a]} {st.names[b]}")
    lines.append("")
    lines.append("[forbidden]")
    k, names = st.n_atoms, st.names
    full = (1 << k) - 1
    covered = [[0] * k for _ in range(k)]
    for a, row in enumerate(st.comp):
        for b, m in enumerate(row):
            for c in bits(full & ~m & ~covered[a][b]):
                if not covered[a][b] >> c & 1:
                    for u, v, w in peircean_transforms((a, b, c), st.conv):
                        covered[u][v] |= 1 << w
                    lines.append(f"{names[a]} {names[b]} {names[c]}")
    return "\n".join(lines) + "\n"


def load(path) -> AtomStructure:
    with open(path, encoding="utf-8") as fh:
        return loads(fh.read())


def dump(st: AtomStructure, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(st))
