import gc
import hashlib
import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies

import reference
from braidbands import diagrams, invariants, pipeline
from braidbands.cli import run
from braidbands.diagrams import (
    Diagram,
    analyze,
    closure_diagram,
    is_homogeneous_diagram,
    is_primitive_flat,
    link_components,
    seifert_decompose,
    subdiagram,
)
from braidbands.invariants import (
    alexander_from_braid,
    alexander_from_diagram,
    diagram_seifert_matrix,
    word_seifert_matrix,
)
from braidbands.laurent import Laurent
from braidbands.pipeline import (
    Fatgraph,
    PipelineError,
    SoundnessError,
    _realizations,
    decompose_generalized_flat,
    homogenize,
    primitive_flat_to_bkl,
    realizations,
)
from braidbands.words import (
    ArtinWord,
    BKLWord,
    closure_components,
    format_word,
    is_homogeneous,
    parse_word,
)

from corpus import (
    FIG8,
    K5_2,
    K9_43,
    TREFOIL,
    TREFOIL_NEG,
    WHEELS,
    disjoint_union,
    fatgraph_of_word,
    flat_diagram,
    pseudoalternating_diagrams,
    random_artin_word,
    random_bkl_word,
    ring,
)
from reference import validate


def fatgraphs_isomorphic(f: Fatgraph, g: Fatgraph) -> bool:
    """Isomorphism preserving signs and cyclic orders (up to rotation).

    Edge ends may swap: an edge (u, v) can match an edge stored as (v', u').
    Plain backtracking over vertex maps and rotations, for small test graphs.
    """
    if f.vertex_count != g.vertex_count or len(f.edges) != len(g.edges):
        return False
    if sorted(len(o) for o in f.orders) != sorted(len(o) for o in g.orders):
        return False

    def try_assignment(vmap: dict[int, int], rotations: dict[int, int]) -> bool:
        emap: dict[int, int] = {}
        rmap: dict[int, int] = {}
        for v in range(f.vertex_count):
            fo = f.orders[v]
            go = g.orders[vmap[v]]
            if len(fo) != len(go):
                return False
            rot = rotations[v]
            for k, (eid, end) in enumerate(fo):
                geid, gend = go[(k + rot) % len(go)] if go else (None, None)
                fu, fv_, fs = f.edges[eid]
                gu, gv, gs = g.edges[geid]
                if fs != gs:
                    return False
                fpair = (vmap[(fu, fv_)[end]], vmap[(fu, fv_)[1 - end]])
                gpair = ((gu, gv)[gend], (gu, gv)[1 - gend])
                if fpair != gpair:
                    return False
                if emap.setdefault(eid, geid) != geid or rmap.setdefault(geid, eid) != eid:
                    return False
        return len(emap) == len(f.edges)

    def search_rot(v: int, vmap: dict[int, int], rotations: dict[int, int]) -> bool:
        if v == f.vertex_count:
            return try_assignment(vmap, rotations)
        for rot in range(max(1, len(f.orders[v]))):
            rotations[v] = rot
            if search_rot(v + 1, vmap, rotations):
                return True
        return False

    used: set[int] = set()
    vmap: dict[int, int] = {}

    def extend(v: int) -> bool:
        if v == f.vertex_count:
            return search_rot(0, vmap, {})
        for w in range(g.vertex_count):
            if w in used or g.degree(w) != f.degree(v):
                continue
            vmap[v] = w
            used.add(w)
            if extend(v + 1):
                return True
            del vmap[v]
            used.discard(w)
        return False

    return extend(0)


def realize_word(fat: Fatgraph, start_vertex: int = 0) -> tuple[BKLWord, dict[int, int]]:
    """First height-consistent realization of the fatgraph (no link gate)."""
    for pos, order in realizations(fat, start_vertex):
        return reference.realization_word(fat, pos, order), pos
    raise PipelineError("fatgraph admits no consistent band heights")


def test_fatgraph_of_word_shape():
    w = parse_word("b(1,2) b(1,3)^-1", strands=3)
    fat = fatgraph_of_word(w)
    fat.check()
    assert fat.vertex_count == 3
    assert fat.edges == ((0, 1, 1), (0, 2, -1))
    assert fat.orders[0] == ((0, 0), (1, 0))


def test_fatgraph_iso_detects_rotation_and_reflection():
    base = fatgraph_of_word(parse_word("b(1,2)^3", strands=2))
    same = fatgraph_of_word(parse_word("b(1,2)^3", strands=2))
    assert fatgraphs_isomorphic(base, same)
    # reversed cyclic order at only one vertex is a different pairing
    twisted = Fatgraph(2, base.edges, (base.orders[0], tuple(reversed(base.orders[1]))))
    assert not fatgraphs_isomorphic(base, twisted)
    signed = fatgraph_of_word(parse_word("b(1,2)^-3", strands=2))
    assert not fatgraphs_isomorphic(base, signed)


def test_realizations_checks_its_fatgraph():
    # The public enumeration refuses a malformed fatgraph at its first
    # candidate.  homogenize enumerates without the check, because the
    # fatgraphs _leaf builds from an analysed diagram pass it.
    base = fatgraph_of_word(parse_word("b(1,2) b(1,3)^-1", strands=3))
    for fat, message in (
        (Fatgraph(3, base.edges, (base.orders[0], base.orders[0], base.orders[2])), "listed at wrong vertex"),
        (Fatgraph(3, base.edges, (base.orders[0], (), base.orders[2])), "missing edge ends"),
        (Fatgraph(2, ((0, 0, 1),), (((0, 0), (0, 1)), ())), "must join distinct vertices"),
    ):
        with pytest.raises(PipelineError, match=message):
            next(realizations(fat))
    cases = [TREFOIL, TREFOIL_NEG, FIG8, K5_2, K9_43, WHEELS[4]]
    cases += [d for d, _word in pseudoalternating_diagrams(seed=4242, count=25)]
    for d in cases:
        for leaf, _shared in decompose_generalized_flat(d):
            leaf.fatgraph.check()


def test_realize_word_round_trips_fatgraph():
    rng = random.Random(8)
    done = 0
    while done < 60:
        w = random_bkl_word(rng, max_strands=4, max_len=6)
        if not w.letters:
            continue
        fat = fatgraph_of_word(w)
        try:
            out, pos = realize_word(fat)
        except PipelineError:
            continue
        assert fatgraphs_isomorphic(fatgraph_of_word(out), fat)
        assert sorted(pos.values()) == list(range(1, fat.vertex_count + 1))
        done += 1


def test_realizations_enumerates_consistently():
    fat = reference.fatgraph_of_diagram(K5_2)
    words_seen = [reference.realization_word(fat, pos, order) for pos, order in realizations(fat)]
    assert len(words_seen) >= 2
    assert len({w.letters for w in words_seen}) == len(words_seen)


def _seeded_fatgraphs(seed: int, count: int):
    """Leaves of pseudoalternating diagrams, then band-word fatgraphs with shuffled orders."""
    for d, _word in pseudoalternating_diagrams(seed=seed, count=count):
        yield from (leaf.fatgraph for leaf, _shared in decompose_generalized_flat(d))
    rng = random.Random(seed)
    for _ in range(count):
        fat = fatgraph_of_word(random_bkl_word(rng, max_strands=5, max_len=8))
        orders = [rng.sample(order, len(order)) for order in fat.orders]
        yield Fatgraph(fat.vertex_count, fat.edges, tuple(map(tuple, orders)))


def _closure_leaf_fatgraphs(seed: int):
    """Leaves of closures of homogeneous 3-5 strand braids with every generator,
    as the closures benchmark draws them: two circles joined by parallel
    edges, generator 1 giving 2, 3, ..., 22 of them."""
    rng = random.Random(seed)
    for count in range(2, 23):
        strands = rng.randint(3, 5)
        gens = [1] * count + [rng.randint(2, strands - 1) for _ in range(rng.randint(1, 10))]
        gens += range(2, strands)
        rng.shuffle(gens)
        sign = {i: rng.choice((1, -1)) for i in range(1, strands)}
        d = closure_diagram(ArtinWord(strands, [(i, sign[i]) for i in gens]))
        yield from (leaf.fatgraph for leaf, _shared in decompose_generalized_flat(d))


def _assert_same_candidates(fat, start: int, limit=None) -> None:
    try:
        got = [(reference.realization_word(fat, pos, order), pos, order)
               for pos, order in itertools.islice(realizations(fat, start), limit)]
    except PipelineError:
        with pytest.raises(PipelineError):
            list(reference.realizations(fat, start))
        return
    assert got == list(itertools.islice(reference.realizations(fat, start), limit))


def test_realizations_match_the_copying_reference():
    # Pruning a cut that closes no cycle would drop candidates; missing a
    # cycle only costs time, since a cyclic height order yields no word.
    for fat in _seeded_fatgraphs(seed=515, count=60):
        for start in sorted({0, fat.vertex_count - 1}):
            _assert_same_candidates(fat, start)
    # The wheels reject most cuts from every start disc; the closure leaves
    # are the shapes the closures benchmark runs.
    for d in WHEELS.values():
        (leaf, _shared), = decompose_generalized_flat(d)
        for start in range(leaf.fatgraph.vertex_count):
            _assert_same_candidates(leaf.fatgraph, start, limit=300)
    closure_leaves = list(_closure_leaf_fatgraphs(seed=616))
    assert {fat.vertex_count for fat in closure_leaves} == {2}
    assert set(range(2, 23)) <= {len(fat.edges) for fat in closure_leaves}
    for fat in closure_leaves:
        for start in (0, 1):
            _assert_same_candidates(fat, start)


def _reaches_itself(adj: list[list[int]]) -> bool:
    for s in range(len(adj)):
        seen, todo = set(), list(adj[s])
        while todo:
            a = todo.pop()
            if a == s:
                return True
            if a not in seen:
                seen.add(a)
                todo.extend(adj[a])
    return False


@strategies.composite
def dags_and_rotated_chains(draw):
    """An acyclic graph whose arcs run one or two places up a random ranking,
    so that most reaching takes paths of several arcs, and a rotation of a
    sequence of distinct nodes."""
    n = draw(strategies.integers(1, 10))
    rank = draw(strategies.permutations(range(n)))
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        if j - i <= 2 and draw(strategies.booleans()):
            adj[rank[i]].append(rank[j])
    chain = draw(strategies.lists(strategies.integers(0, n - 1), unique=True))
    cut = draw(strategies.integers(0, len(chain)))
    return adj, chain[cut:] + chain[:cut]


@settings(max_examples=500, deadline=None)
@given(dags_and_rotated_chains())
def test_reach_rule_matches_a_cycle_search(case):
    adj, chain = case
    grown = [list(targets) for targets in adj]
    for a, b in zip(chain, chain[1:]):
        grown[a].append(b)
    keeps = pipeline._chain_keeps_acyclic(pipeline._reach(adj), chain)
    assert keeps == (not _reaches_itself(grown))


def test_flat_diagram_round_trip_and_oracles():
    rng = random.Random(19)
    done = 0
    while done < 40:
        w = random_bkl_word(rng, max_strands=4, max_len=6)
        if not w.letters:
            continue
        fat = fatgraph_of_word(w)
        try:
            d = flat_diagram(fat)
        except PipelineError:
            continue
        assert validate(d).ok
        assert fatgraphs_isomorphic(reference.fatgraph_of_diagram(d), fat)
        assert alexander_from_diagram(d) == alexander_from_braid(w)
        assert link_components(d) == closure_components(w)
        done += 1


def test_flat_diagram_rejects_odd_cycles():
    with pytest.raises(PipelineError):
        flat_diagram(fatgraph_of_word(parse_word("b(1,2) b(2,3) b(1,3)", strands=3)))


def test_primitive_flat_to_bkl_examples():
    w = primitive_flat_to_bkl(TREFOIL)
    assert w == parse_word("b(1,2)^3", strands=2)
    wn = primitive_flat_to_bkl(TREFOIL_NEG)
    assert wn == parse_word("b(1,2)^-3", strands=2)
    assert alexander_from_braid(wn) == alexander_from_diagram(TREFOIL_NEG)
    one = flat_diagram(fatgraph_of_word(parse_word("b(1,2)", strands=2)))
    assert primitive_flat_to_bkl(one) == parse_word("b(1,2)", strands=2)
    with pytest.raises(PipelineError):
        primitive_flat_to_bkl(FIG8)
    with pytest.raises(PipelineError):
        primitive_flat_to_bkl(Diagram())


def test_primitive_flat_to_bkl_split_and_with_free_unknots():
    # Flat diagrams with free unknots or split parts get homogenize's word:
    # a disc per circle and per unknot, a letter per crossing, one sign.
    cases = [d for d in _flatness_cases(seed=515, count=40) if is_primitive_flat(d)
             and len(set(analyze(d).circle_component)) + d.unknots > 1]
    assert {bool(d.unknots) for d in cases} == {True, False} and len(cases) > 50
    for d in cases:
        st = analyze(d)
        w = primitive_flat_to_bkl(d)
        assert w.strands == len(st.circles) + d.unknots
        assert len(w.letters) == d.crossing_count
        assert len({e for _r, _s, e in w.letters} | set(st.signs)) <= 1
        assert closure_components(w) == link_components(d)
        assert alexander_from_braid(w) == alexander_from_diagram(d)
    assert primitive_flat_to_bkl(Diagram([], unknots=2)) == BKLWord(2)


def test_primitive_flat_to_bkl_5_2():
    w = primitive_flat_to_bkl(K5_2)
    st = analyze(K5_2)
    assert w.strands == len(st.circles)
    assert len(w.letters) == K5_2.crossing_count
    assert is_homogeneous(w)
    assert all(e == 1 for (_r, _s, e) in w.letters)
    assert closure_components(w) == 1
    assert alexander_from_braid(w) == alexander_from_diagram(K5_2)


def test_decompose_trees():
    steps = decompose_generalized_flat(FIG8)
    assert len(steps) == 2
    (first, none), (second, shared) = steps
    assert none == -1
    assert shared in first.circles and shared in second.circles
    for leaf, _shared in steps:
        assert leaf.diagram.crossing_count == 2
        assert is_primitive_flat(leaf.diagram)
        # every source circle of the leaf maps to its own circle of the piece
        assert sorted(leaf.circle_map) == list(leaf.circles)
        assert sorted(leaf.circle_map.values()) == list(range(len(analyze(leaf.diagram).circles)))
    single = decompose_generalized_flat(K5_2)
    assert len(single) == 1 and single[0][1] == -1

    granny = closure_diagram(parse_word("s1^3 s2^3", strands=3))
    gsteps = decompose_generalized_flat(granny)
    assert len(gsteps) == 2 and gsteps[1][1] in gsteps[0][0].circles
    with pytest.raises(PipelineError):
        decompose_generalized_flat(closure_diagram(parse_word("s1 s1^-1 s1", strands=2)))


def _gate_target(d: Diagram, steps):
    """The cycle basis and the Seifert matrix ``homogenize`` gates ``d`` against."""
    st = analyze(d)
    cycles = pipeline._fundamental_cycles(len(st.circles), [e[:2] for e in st.graph.edges])
    rank = pipeline._plumbing_ranks(st, steps)
    return cycles, diagram_seifert_matrix(d, cycles, [rank[cycle[0][0]] for cycle in cycles])


def test_leaf_view_matches_subdiagram():
    # Each leaf read off its source's structure is what its own sub-diagram
    # gives: the same fatgraph and circle map, and its block of the gate's
    # target is the sub-diagram's Seifert matrix.
    cases = [TREFOIL, TREFOIL_NEG, FIG8, K5_2, K9_43]
    cases += [d for d, _word in pseudoalternating_diagrams(seed=4242, count=100)]
    cases += list(_seeded_closures(seed=78, count=100))
    leaves = 0
    for d in cases:
        try:
            steps = decompose_generalized_flat(d)
        except PipelineError:  # not homogeneous, or split
            continue
        cycles, target = _gate_target(d, steps)
        for leaf, _shared in steps:
            piece, circle_map = reference.piece(d, leaf.crossings)
            assert leaf.diagram == piece
            assert leaf.fatgraph == reference.fatgraph_of_diagram(piece)
            assert leaf.circle_map == circle_map
            edge_of = {c: k for k, c in enumerate(leaf.crossings)}
            share = pipeline._leaf_cycles(leaf, cycles)
            mine = [tuple([(edge_of[c], way) for c, way in cycles[i]]) for i in share]
            assert [[target[i][j] for j in share] for i in share] == diagram_seifert_matrix(piece, mine)
            assert len({analyze(d).crossing_region[c] for c in leaf.crossings}) == 1
            assert is_primitive_flat(piece)
            leaves += 1
        homogenize(d)  # and the leaves plumb to a word that passes the gate
    assert leaves > 300


def test_leaves_split_one_cycle_basis():
    # A fundamental cycle is simple, so it lies in one block, and the
    # spanning tree restricted to a block spans it: each leaf takes a basis
    # of its surface from the whole graph's cycles, and its block of the
    # target is their matrix in the diagram, where ranks do not enter.
    cases = [TREFOIL, TREFOIL_NEG, FIG8, K5_2, K9_43]
    cases += [d for d, _word in pseudoalternating_diagrams(seed=4242, count=25)]
    cases += [WHEELS[size] for size in (4, 6, 8)]
    for d in cases:
        steps = decompose_generalized_flat(d)
        leaf_of = {c: k for k, (leaf, _shared) in enumerate(steps) for c in leaf.crossings}
        cycles, target = _gate_target(d, steps)
        for cycle in cycles:
            assert len({leaf_of[c] for c, _way in cycle}) == 1
        received = []
        for leaf, _shared in steps:
            share = pipeline._leaf_cycles(leaf, cycles)
            mine = [cycles[i] for i in share]
            assert len(mine) == len(leaf.crossings) - len(leaf.circles) + 1
            assert [[target[i][j] for j in share] for i in share] == diagram_seifert_matrix(d, mine)
            received += mine
        assert sorted(received) == sorted(cycles)


def _rank(m: list[list[int]]) -> int:
    """Exact rank over the rationals."""
    rows = [[Fraction(x) for x in row] for row in m]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / rows[rank][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_leaf_block_gives_its_component_count():
    # Over a basis of a surface's first homology, V - V^T is the intersection
    # form, whose nullity is one less than the boundary's component count.
    # So a candidate whose block of the word's matrix is right also has the
    # leaf's component count, and the word's gate needs no check per leaf.
    cases = [TREFOIL, TREFOIL_NEG, FIG8, K5_2, K9_43] + [WHEELS[size] for size in (4, 6, 8)]
    cases += [d for d, _word in pseudoalternating_diagrams(seed=4242, count=100)]
    checked = 0
    for d in cases:
        steps = decompose_generalized_flat(d)
        cycles, _target = _gate_target(d, steps)
        for leaf, shared in steps:
            fat = leaf.fatgraph
            edge_of = {c: k for k, c in enumerate(leaf.crossings)}
            mine = [tuple([(edge_of[c], way) for c, way in cycles[i]])
                    for i in pipeline._leaf_cycles(leaf, cycles)]
            start = leaf.circle_map[leaf.circles[0] if shared < 0 else shared]
            for pos, order in itertools.islice(realizations(fat, start), 60):
                word = reference.realization_word(fat, pos, order)
                letter_of = {edge: k for k, edge in enumerate(order)}
                mapped = pipeline._carried([e[:2] for e in fat.edges], mine, pos, letter_of)
                v = word_seifert_matrix(word, mapped)
                form = [[a - b for a, b in zip(row, col)] for row, col in zip(v, zip(*v))]
                assert len(mine) - _rank(form) == closure_components(word) - 1
                checked += 1
    assert checked >= 700


def _flatness_cases(seed: int, count: int) -> list[Diagram]:
    """Distinct diagrams of every shape ``is_primitive_flat`` meets.

    Golden knots, the empty diagram and unlinks, seeded closures (untouched
    strands become free unknots), pseudoalternating diagrams and their
    primitive flat leaves, then twice as many disjoint unions of two or three
    of those, with up to two free unknots, half of them of one sign's leaves.
    """
    rng = random.Random(seed)
    pool = [TREFOIL, TREFOIL_NEG, FIG8, K5_2, K9_43, Diagram(), Diagram([], unknots=2)]
    pool += _seeded_closures(seed, count)
    leaves = {1: [], -1: []}
    for d, _word in pseudoalternating_diagrams(seed=seed, count=count):
        pool.append(d)
        for leaf, _shared in decompose_generalized_flat(d):
            leaves[leaf.fatgraph.edges[0][2]].append(leaf.diagram)
    pool += leaves[1] + leaves[-1]
    for k in range(2 * len(pool)):
        parts = rng.sample(pool if k % 2 else leaves[rng.choice((1, -1))], rng.randint(2, 3))
        union = disjoint_union(*parts)
        pool.append(Diagram(union.crossings, unknots=union.unknots + rng.randrange(3)))
    return list(dict.fromkeys(pool))


def test_one_smoothed_region_is_flat():
    # "One sign, and one smoothed region per connected component" gives the
    # nesting reference's answer, on split diagrams and free unknots too;
    # both answers occur among the connected and among the split diagrams.
    cases = _flatness_cases(seed=79, count=500)
    assert len(cases) >= 3000
    seen = set()
    for d in cases:
        flat = is_primitive_flat(d)
        assert flat == reference.is_primitive_flat(d)
        seen.add((len(set(analyze(d).circle_component)) + d.unknots > 1, flat))
    assert seen == {(False, True), (False, False), (True, True), (True, False)}


def test_homogenize_counts_and_oracles():
    cases = [TREFOIL, TREFOIL_NEG, FIG8, K5_2, K9_43,
             closure_diagram(parse_word("s1^3 s2^-3", strands=3))]
    for d in cases:
        st = analyze(d)
        w = homogenize(d)
        assert is_homogeneous(w)
        assert w.strands == len(st.circles)
        assert len(w.letters) == d.crossing_count
        assert closure_components(w) == link_components(d)
        assert alexander_from_braid(w) == alexander_from_diagram(d)


def test_homogenize_random_pseudoalternating():
    for d, source_word in pseudoalternating_diagrams(seed=4242, count=25):
        st = analyze(d)
        w = homogenize(d)
        assert is_homogeneous(w)
        assert w.strands == len(st.circles)
        assert len(w.letters) == d.crossing_count
        assert alexander_from_braid(w) == alexander_from_diagram(d)
        assert closure_components(w) == link_components(d)


def test_homogenize_split_and_crossingless_golden():
    assert homogenize(Diagram(TREFOIL.crossings, unknots=1)) == parse_word("b(1,2)^3", strands=3)
    assert homogenize(disjoint_union(TREFOIL, TREFOIL)) == parse_word(
        "b(1,2)^3 b(3,4)^3", strands=4
    )
    assert homogenize(Diagram([], unknots=1)) == BKLWord(1)
    assert homogenize(Diagram([], unknots=2)) == BKLWord(2)
    with pytest.raises(PipelineError):
        homogenize(Diagram())


def test_homogenize_split_diagrams_with_free_unknots():
    rng = random.Random(606)
    pool = [d for d, _word in pseudoalternating_diagrams(seed=606, count=30)]
    for d in pool:
        union = disjoint_union(d, *rng.sample(pool, rng.randrange(3)))
        union = Diagram(union.crossings, unknots=rng.randrange(3))
        w = homogenize(union)
        assert is_homogeneous(w)
        assert w.strands == len(analyze(union).circles) + union.unknots
        assert len(w.letters) == union.crossing_count
        assert closure_components(w) == link_components(union)
        assert alexander_from_braid(w) == alexander_from_diagram(union)


def test_homogenize_gates_each_leaf_and_the_word_once(monkeypatch):
    # One cycle basis, one plumbing ranking and one diagram-side twist-free
    # form per connected diagram.  When every leaf's first candidate is
    # right, the finished word is the one band word and the one word-side
    # form built; otherwise each round of repair plumbs and builds the
    # word once more, so a leaf that takes the most candidates sets the
    # count.  Neither Alexander engine runs, and neither the twist term T
    # nor the intersection term X is built: the gate compares the stacking
    # term R = 2V - T + X, whose T and X are the same on both sides once
    # the word's signs and its discs' cyclic orders are checked.
    alexander_calls, diagram_sides, word_sides, searches = [], [], [], []
    bases, rankings, band_words, twists, intersections = [], [], [], [], []
    band_word_init, seifert = BKLWord.__init__, invariants._seifert
    build_intersections = invariants._intersections
    diagram_side, word_side = pipeline._diagram_sides, pipeline._word_sides
    fundamental_cycles, plumbing_ranks = pipeline._fundamental_cycles, pipeline._plumbing_ranks

    def counted_realizations(*args, **kwargs):
        leaf = len(searches)
        searches.append(0)
        for found in _realizations(*args, **kwargs):
            searches[leaf] += 1
            yield found

    for module in (invariants, pipeline):
        for name in ("alexander_from_diagram", "alexander_from_braid"):
            monkeypatch.setattr(module, name, lambda *a: alexander_calls.append(a), raising=False)
    monkeypatch.setattr(
        pipeline, "_diagram_sides", lambda d, *a: diagram_sides.append(d) or diagram_side(d, *a)
    )
    monkeypatch.setattr(
        pipeline, "_word_sides", lambda w, *a: word_sides.append(w) or word_side(w, *a)
    )
    monkeypatch.setattr(pipeline, "_fundamental_cycles", lambda *a: bases.append(a) or fundamental_cycles(*a))
    monkeypatch.setattr(pipeline, "_plumbing_ranks", lambda *a: rankings.append(a) or plumbing_ranks(*a))
    monkeypatch.setattr(pipeline, "_realizations", counted_realizations)
    monkeypatch.setattr(BKLWord, "__init__", lambda w, *a: band_words.append(w) or band_word_init(w, *a))
    monkeypatch.setattr(invariants, "_seifert", lambda *a: twists.append(a) or seifert(*a))
    monkeypatch.setattr(
        invariants, "_intersections", lambda *a: intersections.append(a) or build_intersections(*a)
    )
    cases = [TREFOIL, TREFOIL_NEG, FIG8, K5_2, K9_43]
    cases += [d for d, _word in pseudoalternating_diagrams(seed=4242, count=25)]
    first_right = 0
    for d in cases:
        steps = decompose_generalized_flat(d)
        for calls in (diagram_sides, word_sides, searches, bases, rankings, band_words):
            calls.clear()
        w = homogenize(d)
        assert len(diagram_sides) == len(bases) == len(rankings) == 1 and diagram_sides[0] is d
        assert len(searches) == len(steps)
        if set(searches) == {1}:
            assert len(word_sides) == 1 and word_sides[0] is w
            assert len(band_words) == 1 and band_words[0] is w
            first_right += 1
        else:
            assert len(word_sides) == len(band_words) == max(searches)
            assert word_sides[-1] is w and band_words[-1] is w
    assert first_right == len(cases) - 1  # all but 5_2's one leaf
    assert alexander_calls == [] and twists == [] and intersections == []
    word_seifert_matrix(parse_word("b(1,2)^3", strands=2), [((1, 1), (0, -1))])
    assert len(twists) == 1 and len(intersections) == 1  # the public builders still add them


# A homogeneous closure on four strands of three leaves.
FOUR_STRANDS = closure_diagram(parse_word("s1^2 s2^-1 s3^3 s2^-1 s1", strands=4))


def _raises_at_first_candidates(monkeypatch, d: Diagram, fault, message: str) -> None:
    """``homogenize(d)``, with ``fault`` applied to what ``_plumbed`` returns,
    raises ``SoundnessError`` matching ``message`` before any leaf takes a
    second candidate."""
    plumbed, searches = pipeline._plumbed, []

    def counted_realizations(*args, **kwargs):
        leaf = len(searches)
        searches.append(0)
        for found in _realizations(*args, **kwargs):
            searches[leaf] += 1
            yield found

    monkeypatch.setattr(pipeline, "_plumbed", lambda *args: fault(*plumbed(*args)))
    monkeypatch.setattr(pipeline, "_realizations", counted_realizations)
    with pytest.raises(pipeline.SoundnessError, match=message):
        homogenize(d)
    assert searches == [1] * len(decompose_generalized_flat(d))


@pytest.mark.parametrize("d", [TREFOIL, FIG8, closure_diagram(parse_word("s1^3 s2^3", strands=3)),
                               FOUR_STRANDS], ids=["trefoil", "fig8", "granny", "four_strands"])
def test_letter_sign_fault_is_a_soundness_error_at_once(monkeypatch, d):
    # The gate leaves out the twist terms only because each letter carries
    # its crossing's sign.  A letter that does not is a plumbing bug, not a
    # wrong candidate: it raises before any leaf takes a second one.
    def flipped(word, disc_of, letter_cids):
        (r, s, e), *rest = word.letters
        return BKLWord(word.strands, [(r, s, -e), *rest]), disc_of, letter_cids

    _raises_at_first_candidates(monkeypatch, d, flipped, "plumbed word's letter signs differ from its crossings'")


@pytest.mark.parametrize("d", [TREFOIL, FIG8, closure_diagram(parse_word("s1^3 s2^3", strands=3)),
                               FOUR_STRANDS, K9_43], ids=["trefoil", "fig8", "granny", "four_strands", "k9_43"])
def test_disc_order_fault_is_a_soundness_error_at_once(tmp_path, capsys, monkeypatch, d):
    # The gate leaves out the intersection terms X only because each disc's
    # letters run in its circle's cyclic order.  The first two adjacent
    # letters that share a disc of three or more letters, swapped with
    # their signs and crossings, break that order there: a plumbing bug, not
    # a wrong candidate, so it raises before any leaf takes a second one,
    # and the CLI exits 3.
    def swapped(word, disc_of, letter_cids):
        letters, cids = list(word.letters), list(letter_cids)
        degree = Counter(disc for r, s, _e in letters for disc in (r, s))
        k = next(k for k in range(len(letters) - 1)
                 if any(degree[disc] >= 3 for disc in set(letters[k][:2]) & set(letters[k + 1][:2])))
        letters[k], letters[k + 1] = letters[k + 1], letters[k]
        cids[k], cids[k + 1] = cids[k + 1], cids[k]
        return BKLWord(word.strands, letters), disc_of, cids

    _raises_at_first_candidates(monkeypatch, d, swapped, pipeline.OUT_OF_ORDER)
    path = tmp_path / "d.json"
    path.write_text(d.to_json())
    assert run(["homogenize", str(path)]) == 3
    err = capsys.readouterr().err
    assert pipeline.OUT_OF_ORDER in err and "no braided realization" not in err


def test_order_check_takes_rotations_and_closes_each_disc(monkeypatch):
    # A disc's letters may start anywhere in its circle's cyclic order, so a
    # rotated word passes; letters that follow the order but stop short of
    # closing it around the circle do not.
    seen = []
    unfaithful = pipeline._unfaithful
    monkeypatch.setattr(pipeline, "_unfaithful", lambda *a: seen.append(a) or unfaithful(*a))
    for d in (TREFOIL, FIG8, K9_43):
        homogenize(d)
        word, cids, disc_of, signs, after = seen[-1]
        assert unfaithful(word, cids, disc_of, signs, after) is None
        for k in range(1, len(cids)):
            turned = BKLWord(word.strands, word.letters[k:] + word.letters[:k])
            assert unfaithful(turned, cids[k:] + cids[:k], disc_of, signs, after) is None
        short = BKLWord(word.strands, word.letters[:-1])
        assert unfaithful(short, cids[:-1], disc_of, signs, after) == pipeline.OUT_OF_ORDER


def _faulted_first(monkeypatch, d, faulted, searches, only=()):
    """Patch ``_realizations`` so that its call k yields its first candidate
    ``faulted[k % len(faulted)]`` extra times, then its candidates unless
    that index is in ``only``, and ``_word_sides`` so that each extra copy
    shifts its leaf's block of the word's stacking term.  The
    leaves are those of ``d``, and ``searches`` counts the candidates each
    call yields.
    """
    steps = decompose_generalized_flat(d)
    cycles, _target = _gate_target(d, steps)
    firsts = [pipeline._leaf_cycles(leaf, cycles)[0] for leaf, _shared in steps]
    assert len(faulted) == len(steps)
    word_side = pipeline._word_sides

    def candidates(fat, start):
        leaf = len(searches)
        searches.append(0)
        first = next(_realizations(fat, start))
        for _ in range(faulted[leaf % len(faulted)]):
            searches[leaf] += 1
            yield first
        for found in () if leaf % len(faulted) in only else _realizations(fat, start):
            searches[leaf] += 1
            yield found

    def shifted(w, mapped):
        v = word_side(w, mapped)
        for k, taken in enumerate(searches[-len(steps):]):  # this homogenize's leaves
            if taken <= faulted[k]:
                v[firsts[k]][firsts[k]] += 1
        return v

    monkeypatch.setattr(pipeline, "_realizations", candidates)
    monkeypatch.setattr(pipeline, "_word_sides", shifted)


@pytest.mark.parametrize(
    "faulted",
    [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 1, 1), (0, 2, 0)],
    ids=lambda faulted: "-".join(str(k) for k, n in enumerate(faulted) for _ in range(n)),
)
def test_failed_gate_searches_on_only_the_leaves_it_names(monkeypatch, faulted):
    # K9_43 has three leaves, each right at its first candidate.  A faulted
    # candidate shifts only its own leaf's block of the word's Seifert
    # matrix, so each leaf takes one more candidate per faulted one put
    # before its own, and the word is the same.  Each round plumbs and
    # builds the word's matrix once, so the leaf that takes the most
    # candidates sets the count.  The test ids name the faulted candidates'
    # leaves.
    expected = homogenize(K9_43)
    assert len(decompose_generalized_flat(K9_43)) == 3
    searches, word_sides = [], []
    word_side = pipeline._word_sides
    monkeypatch.setattr(
        pipeline, "_word_sides", lambda w, *a: word_sides.append(w) or word_side(w, *a)
    )
    _faulted_first(monkeypatch, K9_43, faulted, searches)
    assert homogenize(K9_43) == expected
    assert searches == [1 + n for n in faulted]
    assert len(word_sides) == max(searches) and word_sides[-1] == expected


def test_leaf_out_of_candidates_mid_repair_is_exit_2(tmp_path, capsys, monkeypatch):
    # K9_43's middle leaf has only two candidates, both faulted: the gate
    # names it twice, and it runs out in the third round.  The first leaf is
    # repaired in the same rounds.
    searches = []
    _faulted_first(monkeypatch, K9_43, (1, 2, 0), searches, only={1})
    with pytest.raises(PipelineError, match=r"\(2 candidates\)"):
        homogenize(K9_43)
    assert searches == [2, 2, 1]
    path = tmp_path / "k9_43.json"
    path.write_text(K9_43.to_json())
    assert run(["homogenize", str(path)]) == 2
    assert "no braided realization matches the diagram's Seifert matrix (2 candidates)" in (
        capsys.readouterr().err
    )


def test_block_change_of_a_kept_leaf_is_exit_3(tmp_path, capsys, monkeypatch):
    # The first leaf's faulted candidate fails round 0 and the first leaf
    # alone takes its next candidate.  In round 1 the last leaf, which kept
    # its candidate, has a changed block: a drift no candidate explains.
    steps = decompose_generalized_flat(K9_43)
    cycles, _target = _gate_target(K9_43, steps)
    i = pipeline._leaf_cycles(steps[2][0], cycles)[0]
    word_side = pipeline._word_sides
    builds, searches = [], []

    def drifting(w, mapped):
        v = word_side(w, mapped)
        builds.append(w)
        if len(builds) % 2 == 0:  # the second build of each homogenize
            v[i][i] += 1
        return v

    monkeypatch.setattr(pipeline, "_word_sides", drifting)
    _faulted_first(monkeypatch, K9_43, (1, 0, 0), searches)
    with pytest.raises(pipeline.SoundnessError, match="plumbed word does not match"):
        homogenize(K9_43)
    assert searches == [2, 1, 1] and len(builds) == 2
    path = tmp_path / "k9_43.json"
    path.write_text(K9_43.to_json())
    assert run(["homogenize", str(path)]) == 3
    assert "plumbed word does not match the diagram's link" in capsys.readouterr().err


def test_mismatch_outside_every_leaf_block_is_exit_3(tmp_path, capsys, monkeypatch):
    # An entry between two leaves' cycles names no leaf to search on.
    steps = decompose_generalized_flat(K9_43)
    cycles, _target = _gate_target(K9_43, steps)
    i, j = (pipeline._leaf_cycles(leaf, cycles)[0] for leaf, _shared in (steps[0], steps[2]))
    word_side = pipeline._word_sides

    def off_block(w, mapped):
        v = word_side(w, mapped)
        v[i][j] += 1
        return v

    monkeypatch.setattr(pipeline, "_word_sides", off_block)
    with pytest.raises(pipeline.SoundnessError, match="plumbed word does not match"):
        homogenize(K9_43)
    path = tmp_path / "k9_43.json"
    path.write_text(K9_43.to_json())
    assert run(["homogenize", str(path)]) == 3
    assert "plumbed word does not match the diagram's link" in capsys.readouterr().err


def _band_word_flat_diagrams(seed: int, count: int):
    """Homogeneous flat diagrams of random homogeneous band words."""
    rng = random.Random(seed)
    while count:
        w = random_bkl_word(rng, max_strands=8, max_len=20, homogeneous=True)
        try:
            d = flat_diagram(fatgraph_of_word(w))
        except PipelineError:  # no letters, disconnected or not bipartite
            continue
        if is_homogeneous_diagram(d).homogeneous:
            count -= 1
            yield d


def _chooser_cases() -> list[Diagram]:
    """Connected homogeneous diagrams of every kind ``homogenize`` meets,
    some of whose leaves take more than one candidate."""
    cases = [TREFOIL, TREFOIL_NEG, FIG8, K5_2, K9_43] + [WHEELS[size] for size in (4, 6, 8)]
    cases += [d for d, _word in pseudoalternating_diagrams(seed=1, count=1000)]
    cases += [d for d in _seeded_closures(seed=5, count=1200)
              if not d.unknots and len(set(analyze(d).circle_component)) == 1
              and is_homogeneous_diagram(d).homogeneous]
    cases += list(_band_word_flat_diagrams(seed=9, count=600))
    return cases


def test_homogenize_matches_the_per_leaf_gated_chooser(monkeypatch):
    # Gating once and searching on only the leaves the gate names gives the
    # words of gating every leaf's candidates in turn, with the same count
    # of candidates taken for each leaf.
    cases = _chooser_cases()
    assert len(cases) >= 2000
    searches = []

    def counted_realizations(*args, **kwargs):
        leaf = len(searches)
        searches.append(0)
        for found in _realizations(*args, **kwargs):
            searches[leaf] += 1
            yield found

    monkeypatch.setattr(pipeline, "_realizations", counted_realizations)
    searched_on = set()  # (discs, bands) of leaves taking more than one candidate
    for d in cases:
        searches.clear()
        word, tried = reference.homogenize_gated(d)
        assert homogenize(d) == word
        assert searches == tried
        for (leaf, _shared), count in zip(decompose_generalized_flat(d), tried):
            if count > 1:
                searched_on.add((leaf.fatgraph.vertex_count, len(leaf.crossings)))
    # 5_2's leaf, the three wheels and a leaf of a band word's flat diagram
    assert {(4, 5), (5, 6), (7, 9), (9, 12), (4, 7)} <= searched_on


def test_plumbing_discs_and_crossings_matches_plumbing_words():
    # Twirling, turning and plumbing the disc map and the crossing order,
    # then reading the word off, gives the word, disc map and crossing order
    # of doing all three to band words, for each leaf's first candidate and
    # for a random one of its first three.
    rng = random.Random(22)
    cases = [TREFOIL, TREFOIL_NEG, FIG8, K5_2, K9_43]
    cases += [d for d, _word in pseudoalternating_diagrams(seed=4242, count=25)]
    cases += _chooser_cases()
    plumbed = later = 0  # plumbing steps; leaves past their first candidate
    for d in cases:
        st = analyze(d)
        steps = decompose_generalized_flat(d)
        options = [list(itertools.islice(realizations(
            leaf.fatgraph, leaf.circle_map[leaf.circles[0] if shared < 0 else shared]), 3))
            for leaf, shared in steps]
        for pick in ([0] * len(steps), [rng.randrange(len(found)) for found in options]):
            realized, by_words = [], []
            for (leaf, _shared), found, k in zip(steps, options, pick):
                pos, order = found[k]
                cids = [leaf.crossings[i] for i in order]
                realized.append((pos, cids))
                by_words.append((reference.realization_word(leaf.fatgraph, pos, order), pos, cids))
            assert pipeline._plumbed(st, steps, realized) == reference.plumbed_by_words(st, steps, by_words)
            plumbed += len(steps) - 1
            later += sum(k > 0 for k in pick)
    assert plumbed >= 4900 and later >= 1000


def test_turn_until_matches_the_one_turn_loop():
    # Random words with distinct letter tags; the wanted order is a rotation
    # of the shared letters, or a shuffle of them that may be none.  The
    # library turns the tags alone; the reference's word-side turn, which
    # ``plumbed_by_words`` uses, turns the word with them.
    rng = random.Random(31)
    for _ in range(2000):
        w = random_bkl_word(rng, max_strands=5, max_len=9)
        cids = rng.sample(range(100), len(w.letters))
        shared = [c for c in cids if rng.random() < 0.5]
        m = rng.randrange(len(shared) + 1)
        want = shared[m:] + shared[:m]
        if rng.random() < 0.3:
            rng.shuffle(want)
        if rng.random() < 0.05 and cids:  # with no letters, the old loop fails on cids[-1]
            want = want[1:] if want else [100]
        args = (w, cids, set(shared), want)
        try:
            expected = reference.turn_until(*args)
        except pipeline.SoundnessError:
            with pytest.raises(pipeline.SoundnessError, match="cannot align the piece"):
                reference.turn_word_until(*args)
            with pytest.raises(pipeline.SoundnessError, match="cannot align the piece"):
                pipeline._turn_until(*args[1:])
        else:
            assert reference.turn_word_until(*args) == expected
            assert pipeline._turn_until(*args[1:]) == expected[1]


def test_single_crossing_leaves_do_not_order_the_stacking():
    # A lone crossing carries no cycle and its one end at a circle
    # interleaves with nothing.  Here two lone crossings on one side of a
    # circle alternate in plumbing order with two leaves on its other side.
    d = Diagram([[1, 4, 2, 3], [4, 1, 5, 2], [5, 7, 6, 6], [7, 9, 8, 10], [10, 12, 11, 11], [12, 8, 9, 3]])
    w = homogenize(d)
    assert is_homogeneous(w) and len(w.letters) == d.crossing_count
    assert closure_components(w) == link_components(d)
    assert alexander_from_braid(w) == alexander_from_diagram(d)


def test_only_interleaving_leaves_order_the_stacking():
    # Circle 0 holds four leaves, sides alternating in plumbing order; the
    # first and the second do not interleave there, so the stacking with the
    # first side outer holds.
    d = Diagram([
        [1, 8, 2, 7], [19, 20, 20, 21], [8, 13, 9, 14], [14, 9, 15, 10], [10, 22, 11, 21],
        [22, 12, 23, 11], [12, 15, 13, 16], [16, 4, 17, 5], [5, 17, 6, 18], [18, 24, 19, 23],
        [24, 3, 7, 2], [3, 6, 4, 1],
    ])
    w = homogenize(d)
    assert is_homogeneous(w) and len(w.letters) == d.crossing_count
    assert closure_components(w) == link_components(d)
    assert alexander_from_braid(w) == alexander_from_diagram(d)


def test_homogenize_leaves_no_cyclic_garbage():
    homogenize(K9_43)
    gc.collect()
    gc.disable()
    try:
        homogenize(K9_43)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_tree_to_obj_shape(tmp_path, capsys):
    steps = decompose_generalized_flat(FIG8)
    path = tmp_path / "fig8.json"
    path.write_text(FIG8.to_json())
    assert run(["homogenize", str(path), "--tree", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)["tree"]
    assert "joint" in obj
    assert "leaf" in obj["joint"]["left"]
    assert obj["joint"] == {
        "circle": steps[1][1],
        "left": steps[0][0].to_obj(),
        "right": steps[1][0].to_obj(),
    }


# sha256 over "<word>/<strands>" lines of homogenize on the golden knots and
# pseudoalternating_diagrams(seed=4242, count=25), in that order.
PINNED_WORDS_SHA256 = "5ff622be55d3a999d9761ca05c5c08dbb23d6d03a389d0a6de054b402ab73be6"


def test_homogenize_words_pinned():
    cases = [TREFOIL, TREFOIL_NEG, FIG8, K5_2, K9_43]
    cases += [d for d, _word in pseudoalternating_diagrams(seed=4242, count=25)]
    lines = [f"{format_word(w)}/{w.strands}" for w in map(homogenize, cases)]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == PINNED_WORDS_SHA256


def _counted_homogenize(monkeypatch, d):
    """``homogenize(d)`` and the number of candidates it tried."""
    seen = []

    def counted_realizations(*args, **kwargs):
        for found in _realizations(*args, **kwargs):
            seen.append(found)
            yield found

    monkeypatch.setattr(pipeline, "_realizations", counted_realizations)
    return homogenize(d), len(seen)


@pytest.mark.parametrize("size, tried, expected", [
    (4, 5, "b(2,3) b(1,2) b(3,4) b(3,5) b(1,5) b(1,4)"),
    (6, 94, "b(1,2) b(5,6) b(5,7) b(3,7) b(2,3) b(1,6) b(4,5) b(1,4) b(3,4)"),
    (8, 714, "b(1,2) b(5,6) b(5,9) b(3,9) b(2,3) b(7,8) b(6,7) b(1,8) b(4,5) b(4,7) b(1,4) b(3,4)"),
])
def test_homogenize_wheels(monkeypatch, size, tried, expected):
    # A wheel is one leaf whose gate rejects many candidates before one
    # passes, so the words pin the gate's rejections as well as its choice.
    d = WHEELS[size]
    assert set(analyze(d).signs) == {1} and is_primitive_flat(d) and is_homogeneous_diagram(d).homogeneous
    w, count = _counted_homogenize(monkeypatch, d)
    assert format_word(w) == expected and w.strands == size + 1
    assert count == tried
    assert alexander_from_braid(w) == alexander_from_diagram(d)


@pytest.mark.parametrize("m", [4, 6, 8, 10, 12])
def test_homogenize_rings(monkeypatch, m):
    # A ring is one leaf of m circles.  Its first accepted candidate is
    # 2^(m/2) - 1: cut 0 on the first half of the discs, cut 1 on the
    # second, the last such combination the enumerator tries.
    d = ring(m)
    assert set(analyze(d).signs) == {1} and is_primitive_flat(d) and is_homogeneous_diagram(d).homogeneous
    w, tried = _counted_homogenize(monkeypatch, d)
    assert tried == 2 ** (m // 2) - 1
    assert w.strands == len(w.letters) == m
    assert closure_components(w) == link_components(d) == 2
    assert alexander_from_braid(w) == alexander_from_diagram(d)


@pytest.mark.xfail(
    strict=True,
    raises=PipelineError,
    reason="rings up to R_24 first match at candidate 2^(m/2) - 1; R_26 finds no match within "
    "REALIZATION_LIMIT (4,096), where a direct cut rule would need one candidate (ROADMAP item 11)",
)
def test_homogenize_ring_of_26():
    d = ring(26)
    assert is_primitive_flat(d) and is_homogeneous_diagram(d).homogeneous
    w = homogenize(d)
    assert w.strands == len(w.letters) == 26
    assert closure_components(w) == link_components(d) == 2


@pytest.mark.xfail(
    strict=True,
    raises=PipelineError,
    reason="the first match is candidate 4,988, past REALIZATION_LIMIT: an unbudgeted "
    "search (ROADMAP item 4) that a direct cut rule would replace (ROADMAP item 11)",
)
def test_homogenize_wheel_of_ten():
    d = WHEELS[10]
    assert is_primitive_flat(d) and is_homogeneous_diagram(d).homogeneous
    w = homogenize(d)
    assert w.strands == 11 and len(w.letters) == 15
    assert closure_components(w) == link_components(d) == 2


# A 9-crossing alternating 2-component link, the medial map of a plane graph
# rather than the closure of a braid word.
ALTERNATING_NINE = Diagram([
    [18, 1, 5, 4], [12, 9, 13, 10], [10, 5, 11, 6], [3, 14, 4, 13], [1, 18, 2, 17],
    [6, 11, 7, 12], [16, 7, 17, 8], [8, 15, 9, 16], [14, 3, 15, 2],
])


@pytest.mark.xfail(
    strict=True,
    raises=SoundnessError,
    reason="the leaves are plumbed in diagrams.blocks' order, which stacks no Seifert "
    "surface of this diagram, while other orders of the same leaves do (ROADMAP item 18)",
)
def test_homogenize_alternating_link_of_nine():
    d = ALTERNATING_NINE
    delta = Laurent({0: -1, 1: 8, 2: -17, 3: 17, 4: -8, 5: 1})
    assert is_homogeneous_diagram(d).homogeneous and link_components(d) == 2
    assert alexander_from_diagram(d) == delta
    w = homogenize(d)
    assert closure_components(w) == 2
    assert alexander_from_braid(w) == delta


def test_homogenize_derives_each_structure_once(monkeypatch):
    # A fresh connected diagram needs one structure, its own: every leaf
    # is read off it, and no piece diagram is built.
    cases = [TREFOIL, TREFOIL_NEG, FIG8, K5_2, K9_43]
    cases += [d for d, _word in pseudoalternating_diagrams(seed=4242, count=25)]
    built, pieces = [], []
    structure_of = diagrams._structure_of
    monkeypatch.setattr(diagrams, "_structure_of", lambda d: built.append(d) or structure_of(d))
    for module in (diagrams, pipeline):
        monkeypatch.setattr(module, "subdiagram", lambda *a, **k: pieces.append(a) or subdiagram(*a, **k))
    for d in cases:
        fresh = Diagram(d.crossings, d.unknots)
        built.clear()
        homogenize(fresh)
        assert len(built) == 1 and built[0] is fresh and pieces == []


def _seeded_closures(seed: int, count: int):
    rng = random.Random(seed)
    for k in range(count):
        w = random_artin_word(rng, max_strands=5, max_len=14)
        if k % 2:  # every other word homogeneous, so that homogenize gets past its refusals
            signs = {i: rng.choice((1, -1)) for i in range(1, w.strands)}
            w = ArtinWord(w.strands, [(i, signs[i]) for i, _e in w.letters])
        yield closure_diagram(w)


def _everything_about(d: Diagram) -> list:
    try:
        word = homogenize(d)
    except PipelineError as exc:
        word = str(exc)
    return [
        seifert_decompose(d),
        is_homogeneous_diagram(d),
        reference.nesting_forest(d),
        is_primitive_flat(d),
        link_components(d),
        alexander_from_diagram(d),
        subdiagram(d, range(0, d.crossing_count, 2)),
        word,
    ]


def test_shared_structure_is_read_only():
    # Every function reads the one structure of a diagram; none may change it.
    for d in [TREFOIL, TREFOIL_NEG, FIG8, K5_2, K9_43, *_seeded_closures(seed=77, count=50)]:
        _everything_about(d)
        assert _everything_about(d) == _everything_about(Diagram(d.crossings, d.unknots))
