"""The network game's per-child fast paths against the full checks.

The searches check each child only where it differs from its parent:
triangles and red cliques through the new node, a one-pass canonical
key, and mask-pruned refutation replies.  This file keeps test-local
copies of the whole-network checks they replaced and holds the fast
engine to identical verdicts, and the new key to the same classes.

The survival search also answers one move per orbit of its parent's
node automorphisms, from a move generator that works on masks: a later
section holds it to the plain search that answers every move, the
automorphisms to a brute force over all renamings, and the generator to
the move rule read literally (``reference.all_legal_moves``).

Each parent's children come from a table filled once per move class
(``networks.Expansion``): the last section holds its children, books,
failures, verdicts and keys to the strategy worked out move by move
(``reference.reference_exists_strategy``) and to the full checks.
"""

import functools
import itertools
import random
from dataclasses import astuple

import pytest
from reference import all_legal_moves, reference_exists_strategy

from relalg import Algebra, Rainbow, networks
from relalg.networks import (
    Expansion,
    ForallMove,
    Network,
    StrategyFailure,
    least_injection,
    verify_exists_strategy,
    verify_forall_refutation,
)
from relalg.rainbow import WHITE, YELLOW

# ---------------------------------------------------------------------------
# the full per-child checks


def full_coherent(net, alg):
    """Every ordered triple of nodes, loops and converses (the search
    called this on every child)."""
    st = alg.structure
    n = net.n
    lab = net.lab
    comp = alg.comp
    for x in range(n):
        if lab[x * n + x] not in st.identity:
            return (x, x, x)
        for y in range(n):
            if lab[y * n + x] != st.conv[lab[x * n + y]]:
                return (x, y, y)
            row = lab[x * n + y]
            for z in range(n):
                if not comp[row][lab[y * n + z]] >> lab[x * n + z] & 1:
                    return (x, y, z)
    return None


def full_red_clique(net, rb, x, y):
    n = net.n
    lab = net.lab
    return [
        z for z in range(n)
        if rb.is_green(lab[x * n + z]) and lab[y * n + z] == YELLOW
    ]


def full_record_new_cliques(net, rb, book):
    """Every red clique of the network, re-checked from scratch."""
    n = net.n
    lab = net.lab
    out = dict(book)
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            members = full_red_clique(net, rb, x, y)
            if len(members) < 2:
                continue
            pins = {}
            for w, w2 in itertools.combinations(members, 2):
                i = rb.green_index(lab[x * n + w])
                i2 = rb.green_index(lab[x * n + w2])
                if i == i2:
                    raise StrategyFailure(
                        f"clique R({x},{y}) has repeated green index g{i}"
                    )
                lw = lab[w * n + w2]
                if not rb.is_red(lw):
                    raise StrategyFailure(f"clique R({x},{y}) edge ({w},{w2}) not red")
                j, j2 = rb.red_indices(lw)
                for idx, val in ((i, j), (i2, j2)):
                    if pins.setdefault(idx, val) != val:
                        raise StrategyFailure(
                            f"clique R({x},{y}) pins conflict at g{idx}"
                        )
            if (x, y) in out:
                h = out[(x, y)]
                for idx, val in pins.items():
                    if h[idx] != val:
                        raise StrategyFailure(f"condition (1) broken for R({x},{y})")
            else:
                out[(x, y)] = least_injection(rb.s, rb.t, pins)
    return out


def full_canonical_state(net, book):
    """Invariant of sorted incident label pairs, then the least key over
    the product of the groups' permutations."""
    n = net.n
    lab = net.lab
    inv = []
    for u in range(n):
        incident = sorted(
            (lab[u * n + v], lab[v * n + u]) for v in range(n) if v != u
        )
        inv.append((lab[u * n + u], tuple(incident)))
    order = sorted(range(n), key=lambda u: inv[u])
    groups = []
    start = 0
    for i in range(1, n + 1):
        if i == n or inv[order[i]] != inv[order[start]]:
            groups.append(order[start:i])
            start = i
    best = None
    for perm_parts in itertools.product(
        *(itertools.permutations(g) for g in groups)
    ):
        perm = [u for part in perm_parts for u in part]
        relab = bytes(lab[perm[i] * n + perm[j]] for i in range(n) for j in range(n))
        if best is not None and relab > best[0]:
            continue
        pos = {old: i for i, old in enumerate(perm)}
        bkey = tuple(sorted((pos[u], pos[v]) + h for (u, v), h in book.items()))
        key = (relab, bkey)
        if best is None or key < best:
            best = key
    relab, bkey = best
    return relab + repr(bkey).encode()


def full_exists_replies(net, alg, move):
    """Every atom on every new edge, three orderings of each triangle."""
    st = alg.structure
    n = net.n
    lab = net.lab
    x, y, a, b = move.x, move.y, move.a, move.b
    for z in range(n):
        if lab[x * n + z] == a and lab[z * n + y] == b:
            yield net
    base = networks._new_node_labels(net, st, move)
    if base is None:
        return
    m = n + 1
    z = n
    comp = alg.comp
    fixed = {x, y}
    todo = [w for w in range(n) if w not in fixed]
    k = st.n_atoms

    def assign(idx):
        if idx == len(todo):
            yield Network(m, tuple(base))
            return
        w = todo[idx]
        for c in range(k):
            base[w * m + z] = c
            base[z * m + w] = st.conv[c]
            good = True
            for u in list(fixed) + todo[:idx]:
                if (
                    not comp[base[u * m + w]][base[w * m + z]] >> base[u * m + z] & 1
                    or not comp[base[w * m + u]][base[u * m + z]] >> base[w * m + z] & 1
                    or not comp[base[w * m + z]][base[z * m + u]] >> base[w * m + u] & 1
                ):
                    good = False
                    break
            if good:
                yield from assign(idx + 1)
        base[w * m + z] = 0
        base[z * m + w] = 0

    for (u, v, t) in itertools.product((x, y, z), repeat=3):
        if not comp[base[u * m + v]][base[v * m + t]] >> base[u * m + t] & 1:
            return
    yield from assign(0)


def full_is_coherent(table, move, net2):
    return full_coherent(net2, table.rb.algebra) is None


def full_key(table, net2, book2):
    return full_canonical_state(net2, book2)


FULL_CHECKS = [
    (Expansion, "is_coherent", full_is_coherent),
    (Expansion, "key", full_key),
    (networks, "_record_new_cliques", full_record_new_cliques),
    (networks, "_exists_replies", full_exists_replies),
]


def use_full_checks(mp):
    for owner, name, full in FULL_CHECKS:
        mp.setattr(owner, name, full)


# ---------------------------------------------------------------------------
# identical verdicts

RB = {st: Rainbow.make(*st) for st in [(2, 2), (2, 3), (3, 2), (4, 3), (5, 4), (6, 5)]}

CASES = (
    # the benchmark's exists and refutation cases
    [(f"exists B{s, t} rounds {r}", lambda s=s, t=t, r=r: verify_exists_strategy(RB[s, t], r))
     for s, t, r in [(2, 2, 2), (2, 2, 3), (2, 3, 2), (2, 3, 3), (3, 2, 4), (4, 3, 4)]]
    + [(f"refute B{s, s - 1} max_rounds {s + 2}",
        lambda s=s: verify_forall_refutation(RB[s, s - 1], s + 2))
       for s in range(3, 7)]
    + [(f"exists B(2, 2) rounds 4 budget {b}",
        lambda b=b: verify_exists_strategy(RB[2, 2], 4, max_states=b))
       for b in (3, 50, 500)]
    + [(f"refute B(5, 4) max_rounds {r}", lambda r=r: verify_forall_refutation(RB[5, 4], r))
       for r in range(8)]
)


@pytest.mark.parametrize("run", [c[1] for c in CASES], ids=[c[0] for c in CASES])
def test_fast_paths_match_full_checks(run, monkeypatch):
    fast = run()
    with monkeypatch.context() as mp:
        use_full_checks(mp)
        full = run()
    assert astuple(fast) == astuple(full)


def test_full_checks_are_the_ones_patched(monkeypatch):
    # a search under the full checks must call each of them
    seen = set()
    with monkeypatch.context() as mp:
        for owner, name, full in FULL_CHECKS:
            mp.setattr(owner, name,
                       lambda *a, fn=full, name=name: seen.add(name) or fn(*a))
        verify_exists_strategy(RB[2, 2], 3)
        verify_forall_refutation(RB[3, 2], 5)
    assert len(seen) == 4


# ---------------------------------------------------------------------------
# each check on its own, incoherent and broken children included


def calls_to(name, run, owner=networks):
    """The arguments of every call ``run()`` makes to <owner>.<name>
    (for a method, the instance first)."""
    out = []
    real = getattr(owner, name)

    def record(*args):
        out.append(args)
        return real(*args)

    mp = pytest.MonkeyPatch()
    mp.setattr(owner, name, record)
    try:
        run()
    finally:
        mp.undo()
    return out


def with_edge(net, u, z, c, conv):
    """``net`` with c on u-z and its converse on z-u."""
    n = net.n
    lab = list(net.lab)
    lab[u * n + z], lab[z * n + u] = c, conv[c]
    return Network(n, tuple(lab))


def mask_verdict(child, x, y, alg):
    """Whether ``child``, whose last node answers a demand on x-y, is
    coherent by the masks of ``networks._new_node_masks``."""
    z = child.n - 1
    mask_a, mask_b = networks._new_node_masks(alg, child.lab, child.n, x, y)
    a, b = child.label(x, z), child.label(z, y)
    return bool(mask_a >> a & 1 and mask_b >> b & 1
                and alg.comp[a][b] >> child.label(x, y) & 1)


def test_coherence_at_new_node_matches_full_check():
    # every atom on every edge of the last node of each child: the mask
    # verdict agrees with the full check, incoherent ones included
    rb = RB[2, 2]
    st = rb.structure
    alg = rb.algebra
    failures = 0
    for table, move, net in calls_to("is_coherent",
                                     lambda: verify_exists_strategy(rb, 3), Expansion):
        assert table.is_coherent(move, net) == (networks.coherent(net, alg) is None)
        for u in range(net.n - 1):
            for c in range(st.n_atoms):
                child = with_edge(net, u, net.n - 1, c, st.conv)
                ok = mask_verdict(child, move.x, move.y, alg)
                assert ok == (networks.coherent(child, alg) is None)
                failures += not ok
    assert failures > 1000


def outcome(record, net, rb, book):
    try:
        return record(net, rb, book)
    except StrategyFailure as exc:
        return str(exc)


def test_clique_records_match_full_recompute():
    # lines on B(2, 2) after the white opening in which the new node
    # joins R(0, 1), anchors R(4, 1) and anchors R(0, 4); then every atom
    # on every edge of the new node, so that the checks also fail
    rb = RB[2, 2]
    st = rb.structure
    g0, g1 = rb.green(0), rb.green(1)
    attack = [ForallMove(0, 1, g0, YELLOW), ForallMove(0, 1, g1, YELLOW)]
    lines = [attack, attack + [ForallMove(2, 3, g0, g1)],
             attack + [ForallMove(2, 3, YELLOW, YELLOW)]]

    def play():
        for moves in lines:
            net, book = networks.initial_response(Algebra(st), WHITE), {}
            for move in moves:
                net, book = networks.rainbow_exists_strategy(rb, net, book, move)

    calls = calls_to("_record_new_cliques", play)
    assert (0, 1) in full_record_new_cliques(*calls[1])
    assert (4, 1) in full_record_new_cliques(*calls[4])
    assert (0, 4) in full_record_new_cliques(*calls[7])
    results = []
    for net, _, book in calls:
        for u in range(net.n - 1):
            for c in range(st.n_atoms):
                child = with_edge(net, u, net.n - 1, c, st.conv)
                fast = outcome(networks._record_new_cliques, child, rb, book)
                assert fast == outcome(full_record_new_cliques, child, rb, book)
                results.append(fast)
    assert any(isinstance(r, str) for r in results)


def test_replies_match_full_enumeration():
    # every move, legal or not, on the networks the refutation of B(2, 2)
    # reaches: the same replies in the same order
    rb = RB[2, 2]
    alg = Algebra(rb.structure)
    atoms = range(rb.structure.n_atoms)
    nets = [net for net, _, _ in calls_to(
        "_exists_replies", lambda: verify_forall_refutation(rb, 4))]
    assert [net.n for net in nets] == [2, 3]
    replies = 0
    for net in nets:
        for x, y, a, b in itertools.product(range(net.n), range(net.n), atoms, atoms):
            move = ForallMove(x, y, a, b)
            fast = list(networks._exists_replies(net, alg, move))
            assert fast == list(full_exists_replies(net, alg, move))
            replies += len(fast)
    assert replies > 100


# ---------------------------------------------------------------------------
# the canonical key


def reached_states(rb, rounds):
    """Every (network, book) the search keys, in call order."""
    calls = calls_to("key", lambda: verify_exists_strategy(rb, rounds), Expansion)
    return [(net, book) for _, net, book in calls]


def renamed(net, book, perm):
    n = net.n
    lab = [0] * (n * n)
    for u in range(n):
        for v in range(n):
            lab[perm[u] * n + perm[v]] = net.lab[u * n + v]
    return Network(n, tuple(lab)), {(perm[u], perm[v]): h for (u, v), h in book.items()}


@pytest.mark.parametrize("s,t,rounds", [(2, 3, 2), (3, 2, 4)])
def test_canonical_state_is_invariant_and_splits_as_the_full_key(s, t, rounds):
    states = reached_states(Rainbow.make(s, t), rounds)
    assert len(states) > 100
    rng = random.Random(f"{s},{t},{rounds}")
    new_keys, old_keys = [], []
    for net, book in states:
        key = networks.canonical_state(net, book)
        perm = list(range(net.n))
        rng.shuffle(perm)
        assert networks.canonical_state(*renamed(net, book, perm)) == key
        new_keys.append(key)
        old_keys.append(full_canonical_state(net, book))
    # the same classes: each new key goes with exactly one old key
    pairs = set(zip(new_keys, old_keys))
    assert len(pairs) == len(set(new_keys)) == len(set(old_keys))


def test_canonical_state_is_the_old_key_with_mixed_loops():
    # the invariant orders nodes as the old one did, loop label first, so
    # the key is the old key byte for byte; two loop labels check the order
    rng = random.Random(5)
    for _ in range(2000):
        n = rng.randrange(1, 6)
        lab = [0] * (n * n)
        for u in range(n):
            lab[u * n + u] = rng.choice((1, 3))
            for v in range(u + 1, n):
                lab[u * n + v] = lab[v * n + u] = rng.randrange(5)
        net = Network(n, tuple(lab))
        book = {(0, n - 1): (1, 0)} if n > 1 else {}
        assert networks.canonical_state(net, book) == full_canonical_state(net, book)


# ---------------------------------------------------------------------------
# the orbit filter and the move generator

ORBIT_CASES = CASES + [
    ("exists B(2, 2) rounds 4", lambda: verify_exists_strategy(RB[2, 2], 4))]
EXISTS_RUNS = [(2, 2, 2), (2, 2, 3), (2, 3, 2), (2, 3, 3), (3, 2, 4), (4, 3, 4), (2, 2, 4)]


def identity_only(net, book):
    return [tuple(range(net.n))]


@pytest.mark.parametrize("run", [c[1] for c in ORBIT_CASES], ids=[c[0] for c in ORBIT_CASES])
def test_orbit_filter_matches_plain_search(run, monkeypatch):
    filtered = run()
    monkeypatch.setattr(networks, "node_automorphisms", identity_only)
    assert astuple(run()) == astuple(filtered)


def test_orbit_filter_answers_fewer_moves(monkeypatch):
    def run():
        return verify_exists_strategy(RB[2, 2], 3)

    filtered = len(calls_to("child", run, Expansion))
    monkeypatch.setattr(networks, "node_automorphisms", identity_only)
    assert filtered < len(calls_to("child", run, Expansion))


@functools.cache
def reached_parents():
    """(rainbow, network, book) of every parent the survival searches of
    ``EXISTS_RUNS`` expand, each state once."""
    out = {}
    for s, t, rounds in EXISTS_RUNS:
        rb = RB[s, t]
        for net, book in calls_to("node_automorphisms",
                                  lambda: verify_exists_strategy(rb, rounds)):
            out.setdefault((s, t, net.lab, tuple(sorted(book.items()))), (rb, net, book))
    return list(out.values())


def attack_states():
    """B(2, 2) after the white opening and the two-green attack on (0, 1),
    and every child the strategy answers from there: states with a book."""
    rb = RB[2, 2]
    net, book = networks.initial_response(rb.algebra, WHITE), {}
    for i in range(2):
        net, book = networks.rainbow_exists_strategy(
            rb, net, book, ForallMove(0, 1, rb.green(i), YELLOW))
    out = [(rb, net, book)]
    for move in all_legal_moves(net, rb.algebra):
        try:
            out.append((rb, *networks.rainbow_exists_strategy(rb, net, book, move)))
        except StrategyFailure:
            pass
    return out


def brute_automorphisms(net, book):
    n = net.n
    lab = net.lab
    return [
        pi for pi in itertools.permutations(range(n))
        if all(lab[pi[u] * n + pi[v]] == lab[u * n + v] for u in range(n) for v in range(n))
        and {(pi[u], pi[v]): h for (u, v), h in book.items()} == book
    ]


def test_automorphisms_match_brute_force():
    states = reached_parents() + attack_states()
    # a made-up book entry on every reached parent, which may break symmetries
    states += [(rb, net, {(0, net.n - 1): (1, 0)}) for rb, net, _ in reached_parents()]
    assert sum(bool(book) for _, _, book in states) > 100
    sizes = []
    for _, net, book in states:
        group = networks.node_automorphisms(net, book)
        assert group[0] == tuple(range(net.n))
        assert sorted(group) == brute_automorphisms(net, book)
        sizes.append((len(group), len(brute_automorphisms(net, {}))))
    assert max(g for g, _ in sizes) > 2
    assert any(g < plain for g, plain in sizes)  # some book breaks a symmetry


def child_key(rb, net, book, move):
    try:
        return networks.canonical_state(*networks.rainbow_exists_strategy(rb, net, book, move))
    except StrategyFailure:
        return None


def test_strategy_commutes_with_automorphisms():
    # the premise of the orbit filter: for pi in Aut(net, book), pi(m) and
    # its mirror are legal moves too, and their child is m's child renamed
    # (the parents with no symmetry but the identity check only mirrors)
    renamed_moves = 0
    for rb, net, book in reached_parents() + attack_states():
        conv = rb.structure.conv
        group = networks.node_automorphisms(net, book)
        if len(group) == 1:
            continue
        keys = {move: child_key(rb, net, book, move)
                for move in all_legal_moves(net, rb.algebra)}
        for pi in group:
            for x, y, a, b in keys:
                key = keys[x, y, a, b]
                assert keys[pi[x], pi[y], a, b] == key
                assert keys[pi[y], pi[x], conv[b], conv[a]] == key
                renamed_moves += (pi[x], pi[y]) != (x, y)
    assert renamed_moves > 1000


def test_legal_moves_are_the_mirror_least_of_the_move_rule():
    diagonal_reds = 0
    for rb, net, _ in reached_parents():
        conv = rb.structure.conv
        literal = all_legal_moves(net, rb.algebra)
        mirrors = [(m.y, m.x, conv[m.b], conv[m.a]) for m in literal]
        # a move on a loop is its own mirror
        assert all(m == mm for m, mm in zip(literal, mirrors) if m.x == m.y)
        moves = networks.legal_moves(net, rb.algebra)
        assert moves == [m for m, mm in zip(literal, mirrors) if m <= mm]
        assert all(type(m) is ForallMove for m in moves)
        diagonal_reds += sum(m.x == m.y and conv[m.a] != m.a for m in moves)
    assert diagonal_reds > 100


# ---------------------------------------------------------------------------
# the move-class table


def reply(strategy, *args):
    try:
        return strategy(*args)
    except StrategyFailure as exc:
        return str(exc)


def test_move_class_table_matches_per_move_strategy():
    # every legal move of every reached parent and of the two-green
    # attack, from one table per parent: the child, book and failure text
    # of the per-move strategy, and the full checks' verdict and key
    failures = changed = coherent = 0
    for rb, net, book in reached_parents() + attack_states()[:1]:
        table = Expansion(rb, net, book)
        for move in all_legal_moves(net, rb.algebra):
            ref = reply(reference_exists_strategy, rb, net, book, move)
            assert reply(table.child, move) == ref
            if isinstance(ref, str):
                failures += 1
                continue
            net2, book2 = ref
            changed += book2 != book
            ok = table.is_coherent(move, net2)
            assert ok == (networks.coherent(net2, rb.algebra) is None)
            coherent += ok
            assert table.key(net2, book2) == networks.canonical_state(net2, book2)
    assert failures > 5 and changed > 20 and coherent > 100_000


def test_move_classes_fix_the_strategy_labels():
    # no class holds two moves whose w-z labels (w outside {x, y}) differ
    shared = 0
    for rb, net, book in reached_parents() + attack_states()[:1]:
        colour = rb.move_colour
        z = net.n
        labels = {}
        for move in all_legal_moves(net, rb.algebra):
            ref = reply(reference_exists_strategy, rb, net, book, move)
            if isinstance(ref, str):
                continue
            col = tuple(ref[0].label(w, z) for w in range(z) if w not in (move.x, move.y))
            cls = (move.x, move.y, colour[move.a], colour[move.b])
            shared += cls in labels
            assert labels.setdefault(cls, col) == col
    assert shared > 1000


@pytest.mark.parametrize("s,t,rounds", EXISTS_RUNS[:6])
def test_search_invariants_hold(s, t, rounds):
    # the benchmark's exists cases with every per-child assertion on
    checked = verify_exists_strategy(RB[s, t], rounds, check_invariants=True)
    assert astuple(checked) == astuple(verify_exists_strategy(RB[s, t], rounds))
