"""Reading and writing atom structures as plain text.

The format has four sections.  `[atoms]` lists whitespace-separated
atom names (their order fixes the index order), `[identity]` the
identity atoms, `[converse]` one `a b` pair per line (unlisted atoms
are self-converse) and `[forbidden]` one `a b c` triple per line.  The
forbidden section may list only generators: the loader closes it under
the six Peircean transforms before complementing to the consistent
set.  `#` starts a comment anywhere.  Loading validates the structure
and raises on any violation.
"""

from __future__ import annotations

from itertools import product

from .atoms import MAX_ATOMS, AtomStructure, make_structure, peircean_transforms

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
    """
    lines = ["[atoms]", " ".join(st.names), "", "[identity]"]
    lines.extend(st.names[a] for a in sorted(st.identity))
    lines.append("")
    lines.append("[converse]")
    for a, b in sorted((a, b) for a, b in enumerate(st.conv) if a < b):
        lines.append(f"{st.names[a]} {st.names[b]}")
    lines.append("")
    lines.append("[forbidden]")
    covered: set = set()
    for t in product(range(st.n_atoms), repeat=3):
        if t not in st.consistent and t not in covered:
            covered.update(peircean_transforms(t, st.conv))
            lines.append(" ".join(st.names[a] for a in t))
    return "\n".join(lines) + "\n"


def load(path) -> AtomStructure:
    with open(path, encoding="utf-8") as fh:
        return loads(fh.read())


def dump(st: AtomStructure, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(st))
