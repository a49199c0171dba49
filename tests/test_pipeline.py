import gc
import random

import pytest

from braidbands.diagrams import Diagram, analyze, link_components, validate
from braidbands.invariants import alexander_from_braid, alexander_from_diagram
from braidbands.pipeline import (
    Fatgraph,
    PipelineError,
    PlumbJoint,
    PlumbLeaf,
    braided_realization,
    decompose_generalized_flat,
    fatgraph_of_diagram,
    fatgraph_of_word,
    fatgraphs_isomorphic,
    flat_diagram,
    homogenize,
    primitive_flat_to_bkl,
    realizations,
    realize_word,
)
from braidbands.words import closure_components, is_homogeneous, parse_word

from corpus import (
    FIG8,
    K5_2,
    K9_43,
    TREFOIL,
    TREFOIL_NEG,
    pseudoalternating_diagrams,
    random_bkl_word,
)


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
    fat = fatgraph_of_diagram(K5_2)
    words_seen = [w for w, _p, _t in realizations(fat)]
    assert len(words_seen) >= 2
    assert len({w.letters for w in words_seen}) == len(words_seen)


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
        assert fatgraphs_isomorphic(fatgraph_of_diagram(d), fat)
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
    tree = decompose_generalized_flat(FIG8)
    leaves = tree.leaves()
    assert len(leaves) == 2
    assert isinstance(tree, PlumbJoint)
    for leaf in leaves:
        assert leaf.diagram.crossing_count == 2
        from braidbands.diagrams import is_primitive_flat

        assert is_primitive_flat(leaf.diagram)
    single = decompose_generalized_flat(K5_2)
    assert isinstance(single, PlumbLeaf)
    from braidbands.diagrams import closure_diagram

    granny = closure_diagram(parse_word("s1^3 s2^3", strands=3))
    gtree = decompose_generalized_flat(granny)
    assert len(gtree.leaves()) == 2 and isinstance(gtree, PlumbJoint)
    with pytest.raises(PipelineError):
        decompose_generalized_flat(closure_diagram(parse_word("s1 s1^-1 s1", strands=2)))


def test_homogenize_counts_and_oracles():
    from braidbands.diagrams import closure_diagram

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


def test_homogenize_leaves_no_cyclic_garbage():
    homogenize(K9_43)
    gc.collect()
    gc.disable()
    try:
        homogenize(K9_43)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_braided_realization_rejects_unmatchable():
    # a diagram is required; a disconnected input cannot be realized
    with pytest.raises(PipelineError):
        fatgraph_of_diagram(Diagram())


def test_tree_to_obj_shape():
    tree = decompose_generalized_flat(FIG8)
    obj = tree.to_obj()
    assert "joint" in obj
    assert "leaf" in obj["joint"]["left"]
