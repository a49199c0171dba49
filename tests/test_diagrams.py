import random

import pytest

from braidbands.diagrams import (
    BlockDecomposition,
    Diagram,
    DiagramError,
    SeifertGraph,
    analyze,
    blocks,
    closure_diagram,
    is_homogeneous_diagram,
    is_primitive_flat,
    link_components,
    seifert_decompose,
    subdiagram,
)
from braidbands.words import parse_word

import reference

from corpus import FIG8, K5_2, K9_43, TREFOIL, random_artin_word
from reference import validate


def test_validate_good_and_bad():
    assert validate(TREFOIL).ok
    assert validate(Diagram()).ok
    bad = Diagram([[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 5]])
    diag = validate(bad)
    assert not diag.ok
    assert "multiplicity" in diag.problems[0]
    assert not validate(Diagram([[1, 2, 3, 4]])).ok  # arc 1..8 missing


def test_trefoil_structure():
    circles, bands, graph = seifert_decompose(TREFOIL)
    assert len(circles) == 2
    assert len(bands) == 3
    assert all(s == 1 for (_u, _v, s, _c) in bands)
    assert {frozenset((u, v)) for (u, v, _s, _c) in bands} == {frozenset((0, 1))}
    st = analyze(TREFOIL)
    assert len(st.components) == 1
    assert analyze(TREFOIL) is st  # derived once, then shared


def test_fig8_structure():
    circles, bands, _ = seifert_decompose(FIG8)
    assert len(circles) == 3
    assert sorted(s for (_u, _v, s, _c) in bands) == [-1, -1, 1, 1]


def test_euler_check_rejects_nonplanar_rotation():
    entries = [list(x) for x in K9_43.crossings]
    a, b, c, d = entries[0]
    entries[0] = [a, d, c, b]  # reflect one crossing's rotation
    with pytest.raises(DiagramError):
        analyze(Diagram(entries))


def test_blocks_textbook_cases():
    # two triangles sharing one vertex
    tri2 = SeifertGraph(
        5,
        (
            (0, 1, 1, 0), (1, 2, 1, 1), (2, 0, 1, 2),
            (2, 3, 1, 3), (3, 4, 1, 4), (4, 2, 1, 5),
        ),
    )
    dec = blocks(tri2)
    assert dec.cut_vertices == (2,)
    assert len(dec.blocks) == 2
    # single multi-edge pair
    pair = SeifertGraph(2, ((0, 1, 1, 0), (0, 1, -1, 1), (0, 1, 1, 2)))
    dec = blocks(pair)
    assert dec.cut_vertices == ()
    assert len(dec.blocks) == 1
    # bridge chain: every edge its own block
    chain = SeifertGraph(3, ((0, 1, 1, 0), (1, 2, 1, 1)))
    dec = blocks(chain)
    assert dec.cut_vertices == (1,)
    assert len(dec.blocks) == 2


def test_homogeneous_diagram_predicate():
    assert is_homogeneous_diagram(TREFOIL).homogeneous
    assert is_homogeneous_diagram(FIG8).homogeneous
    report = is_homogeneous_diagram(K9_43)
    assert report.homogeneous
    signs = [
        {s for (_u, _v, s, _c) in block} for block in report.decomposition.blocks
    ]
    assert all(len(ss) == 1 for ss in signs)
    assert {1} in signs and {-1} in signs
    # a mixed single block: the figure-eight braid closure form
    mixed = closure_diagram(parse_word("s1 s1^-1 s1", 2))
    assert not is_homogeneous_diagram(mixed).homogeneous


def test_homogeneity_invariant_under_relabelling():
    # rotating arc labels along the knot keeps every predicate
    c = TREFOIL.crossing_count
    for shift in range(1, 2 * c):
        relabel = lambda a: (a - 1 + shift) % (2 * c) + 1
        d = Diagram([[relabel(x) for x in entry] for entry in TREFOIL.crossings])
        assert validate(d).ok
        assert is_homogeneous_diagram(d).homogeneous
        assert is_primitive_flat(d)


def test_empty_diagram():
    circles, bands, graph = seifert_decompose(Diagram())
    assert circles == [] and bands == [] and graph.vertex_count == 0
    assert reference.nesting_forest(Diagram()) == reference.NestingForest((), (), ())
    assert link_components(Diagram((), unknots=3)) == 3


def test_nesting_and_primitive_flat():
    assert reference.nesting_forest(TREFOIL).max_depth == 0
    assert all(p == -1 for p in reference.nesting_forest(TREFOIL).parent)
    assert is_primitive_flat(TREFOIL)
    assert is_primitive_flat(Diagram())
    assert not is_primitive_flat(FIG8)  # mixed signs
    assert not is_primitive_flat(K9_43)
    # connected sum with a circle inside another: one parent-child pair
    granny = closure_diagram(parse_word("s1^3 s2^3", 3))
    forest = reference.nesting_forest(granny)
    assert forest.max_depth == 1
    assert sum(1 for p in forest.parent if p >= 0) == 1
    assert not is_primitive_flat(granny)
    # positive 5_2 has an unnestable embedding
    assert is_primitive_flat(K5_2)


def test_closure_diagram_components_and_counts():
    rng = random.Random(21)
    for _ in range(60):
        w = random_artin_word(rng, max_strands=4, max_len=7)
        d = closure_diagram(w)
        assert validate(d).ok
        from braidbands.words import closure_components

        assert link_components(d) == closure_components(w)
        assert d.crossing_count == len(w.letters)


def test_closure_diagram_untouched_strands():
    d = closure_diagram(parse_word("s1", 3))
    assert d.unknots == 1
    assert link_components(d) == 2


def test_subdiagram_smoothing():
    st = analyze(TREFOIL)
    # keep two of the three crossings: a Hopf link diagram plus no orphans
    sub = subdiagram(TREFOIL, [0, 1])
    assert validate(sub).ok
    assert sub.crossing_count == 2
    assert link_components(sub) == 2
    # dropping all crossings of one circle pair
    sub0 = subdiagram(TREFOIL, [])
    assert sub0.crossing_count == 0
    assert sub0.unknots == 2
    sub0b = subdiagram(TREFOIL, [], keep_free_circles=False)
    assert sub0b.unknots == 0


def test_subdiagram_blocks_of_composite():
    granny = closure_diagram(parse_word("s1^3 s2^-3", 3))
    report = is_homogeneous_diagram(granny)
    assert report.homogeneous
    for block in report.decomposition.blocks:
        ids = [cid for (_u, _v, _s, cid) in block]
        piece = subdiagram(granny, ids, keep_free_circles=False)
        assert validate(piece).ok
        assert piece.crossing_count == 3
        assert is_primitive_flat(piece)


def test_seifert_graph_counts_match_euler():
    for d in (TREFOIL, FIG8, K5_2, K9_43):
        st = analyze(d)
        s = len(st.circles)
        c = d.crossing_count
        assert len(st.graph.edges) == c
        # chi of the projection surface
        assert s - c == s - len(st.graph.edges)
        for (u, v, _s, _c) in st.graph.edges:
            assert u != v


def test_json_round_trip():
    text = TREFOIL.to_json()
    assert Diagram.from_json(text) == TREFOIL
