"""Acceptance checks, one per criterion, each printing a pass line.

Golden values are exact; randomized clauses run on fixed seeds and demand
zero invariant violations.
"""

import random
from functools import reduce

import pytest

from braidbands.diagrams import Diagram, analyze, link_components
from braidbands.invariants import alexander_from_braid, alexander_from_diagram
from braidbands.laurent import Laurent
from braidbands.plumbing import ShufflePattern, deplumb, plumb
from braidbands.pipeline import PipelineError, homogenize, primitive_flat_to_bkl
from braidbands.stars import Ray, Star, StarError, delta_b, minimize, reduce_step, reduce_to_disc
from braidbands.surfaces import (
    MoveError,
    deflate,
    flip_vertical,
    from_word,
    inflate,
    slide_down,
    slide_up,
    slip,
    to_word,
    turn,
    twirl,
)
from braidbands.words import (
    ArtinWord,
    bkl_to_artin,
    braids_equal,
    closure_components,
    exponent_sum,
    is_homogeneous,
    parse_word,
)

from corpus import (
    FIG8,
    K5_2,
    K9_43,
    PLUMB_RESULT,
    PLUMB_W1,
    PLUMB_W2,
    TREFOIL,
    TREFOIL_NEG,
    WORD_948_ARTIN,
    WORD_948_BKL,
    WORD_SURFACE_GOLDEN,
    pseudoalternating_diagrams,
    random_bkl_word,
    random_homogeneous_surface,
    valid_star_instances,
)
from reference import add, burau_reduced, mul


def _ok(name):
    print(f"PASS {name}")


def test_criterion_1_948_equivalence():
    assert braids_equal(bkl_to_artin(WORD_948_BKL), WORD_948_ARTIN)
    assert is_homogeneous(WORD_948_BKL)
    assert not is_homogeneous(WORD_948_ARTIN)
    assert exponent_sum(WORD_948_ARTIN) == 3
    assert exponent_sum(WORD_948_BKL) == 3
    assert closure_components(WORD_948_ARTIN) == 1
    assert closure_components(WORD_948_BKL) == 1
    _ok("criterion 1: band/Artin presentations of the 9_48 braid")


def test_criterion_2_golden_surface():
    s = from_word(WORD_SURFACE_GOLDEN)
    z1, z6 = s.bands[0], s.bands[5]
    assert (z1[0], z1[1], z1[2]) == (2, 5, -1)
    assert (z6[0], z6[1], z6[2]) == (1, 3, 1)
    assert to_word(s) == WORD_SURFACE_GOLDEN
    _ok("criterion 2: golden braided surface bands")


def test_criterion_3_golden_plumbing():
    out = plumb(PLUMB_W1, PLUMB_W2, ShufflePattern.parse("2121212"))
    assert out == PLUMB_RESULT
    assert from_word(out).discs == 6
    assert from_word(out).band_count == 7
    w1, w2, pattern = deplumb(out, PLUMB_W1.strands)
    assert (w1, w2, str(pattern)) == (PLUMB_W1, PLUMB_W2, "2121212")
    _ok("criterion 3: golden plumbing word, counts, and inverse")


def test_criterion_4_homogeneity_under_plumbing():
    rng = random.Random(1001)
    for _ in range(1000):
        w1 = random_bkl_word(rng, max_strands=4, max_len=5, homogeneous=True)
        w2 = random_bkl_word(rng, max_strands=4, max_len=5, homogeneous=True)
        marks = [1] * len(w1.letters) + [2] * len(w2.letters)
        rng.shuffle(marks)
        pattern = ShufflePattern(marks)
        w = plumb(w1, w2, pattern)
        assert is_homogeneous(w)
        a, b, rec = deplumb(w, w1.strands)
        assert is_homogeneous(a) and is_homogeneous(b)
        assert (a, b, rec) == (w1, w2, pattern)
        assert plumb(a, b, rec) == w
    _ok("criterion 4: plumbing preserves homogeneity both ways, 1000 rounds")


def test_criterion_5_move_soundness():
    rng = random.Random(1002)
    surfaces_checked = 0
    while surfaces_checked < 1000:
        s = random_homogeneous_surface(rng, max_n=4, max_b=5)
        w = to_word(s)
        pos = rng.randrange(max(1, s.band_count - 1)) if s.band_count > 1 else 0
        for move in (slip, slide_up, slide_down):
            if s.band_count < 2:
                break
            try:
                s2 = move(s, pos)
            except MoveError:
                continue
            assert braids_equal(to_word(s2), w)
        a = alexander_from_braid(w)
        c = closure_components(w)
        for unary in (turn, twirl):
            s2 = unary(s)
            assert closure_components(to_word(s2)) == c
            assert alexander_from_braid(to_word(s2)) == a
        strand = rng.randint(1, s.discs)
        height = rng.randint(0, s.band_count)
        s_inf = inflate(s, strand, rng.choice((1, -1)), height)
        assert closure_components(to_word(s_inf)) == c
        assert alexander_from_braid(to_word(s_inf)) == a
        s_def = deflate(s_inf, height)
        assert s_def == s
        assert flip_vertical(flip_vertical(s)) == s
        surfaces_checked += 1
    _ok("criterion 5: move soundness on 1000 random surfaces")


def test_criterion_6_star_reduction():
    # Golden instance: one essential crossing forces an inflation.
    surface = from_word(parse_word("b(1,2) b(1,3) b(1,2)", strands=3))
    star = Star(3, [Ray(((1, "R", "L"),), 1, 3)])
    w0 = to_word(surface)
    s2, star2 = reduce_step(surface, star)
    assert delta_b(star2) == 0
    assert (s2.discs, s2.band_count) == (4, 4)
    assert is_homogeneous(to_word(s2))
    assert alexander_from_braid(to_word(s2)) == alexander_from_braid(w0)
    assert closure_components(to_word(s2)) == closure_components(w0)

    completed = violations = refusals = 0
    for s, st in valid_star_instances(seed=20250809, count=140):
        w = to_word(s)
        a0, c0 = alexander_from_braid(w), closure_components(w)
        try:
            m = minimize(s, st)
            budget = delta_b(m)
            steps_taken = 0
            cur_s, cur_star = s, m
            while delta_b(cur_star) > 0:
                before = delta_b(cur_star)
                nxt_s, nxt_star = reduce_step(cur_s, cur_star)
                steps_taken += 1
                if not (
                    delta_b(nxt_star) < before
                    and nxt_s.discs == cur_s.discs + 1
                    and nxt_s.band_count == cur_s.band_count + 1
                    and is_homogeneous(to_word(nxt_s)) == is_homogeneous(w)
                    and alexander_from_braid(to_word(nxt_s)) == a0
                    and closure_components(to_word(nxt_s)) == c0
                ):
                    violations += 1
                    break
                cur_s, cur_star = nxt_s, minimize(nxt_s, nxt_star)
            else:
                assert steps_taken <= budget
                completed += 1
        except StarError:
            refusals += 1
    assert violations == 0
    assert completed >= 100
    _ok(
        f"criterion 6: star reduction, golden + {completed} generated instances "
        f"(0 violations, {refusals} loud refusals)"
    )


def test_criterion_7_pipeline_oracle_gate():
    # figure-eight is homogeneous but not primitive flat at the top level
    with pytest.raises(PipelineError):
        primitive_flat_to_bkl(FIG8)
    with pytest.raises(PipelineError):
        primitive_flat_to_bkl(K9_43)

    corpus = [TREFOIL, TREFOIL_NEG, FIG8, K5_2, K9_43]
    corpus += [d for d, _w in pseudoalternating_diagrams(seed=4242, count=20)]
    for d in corpus:
        st = analyze(d)
        w = homogenize(d)
        assert is_homogeneous(w)
        assert w.strands == len(st.circles)
        assert len(w.letters) == d.crossing_count
        assert closure_components(w) == link_components(d)
        assert alexander_from_braid(w) == alexander_from_diagram(d)
    assert homogenize(TREFOIL) == parse_word("b(1,2)^3", strands=2)
    _ok(f"criterion 7: pipeline oracle gate on {len(corpus)} diagrams")


def test_criterion_8_oracle_self_consistency():
    pairs = [
        (parse_word("s1^3", 2), TREFOIL),
        (parse_word("s1 s2^-1 s1 s2^-1", 3), FIG8),
        (parse_word("s2^-3 s1^-1 s2 s1^-1", 3), K5_2),
    ]
    for w, d in pairs:
        assert alexander_from_braid(w) == alexander_from_diagram(d)
    for n in (3, 4):
        ident = burau_reduced(ArtinWord(n))
        for i in range(1, n - 1):
            assert burau_reduced(ArtinWord(n, [(i, 1), (i + 1, 1), (i, 1)])) == burau_reduced(
                ArtinWord(n, [(i + 1, 1), (i, 1), (i + 1, 1)])
            )
        for i in range(1, n):
            assert burau_reduced(ArtinWord(n, [(i, 1), (i, -1)])) == ident
        rng = random.Random(n)
        for _ in range(20):
            u = ArtinWord(n, [(rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(4)])
            v = ArtinWord(n, [(rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(4)])
            lhs = burau_reduced(u.concat(v))
            rhs_u, rhs_v = burau_reduced(u), burau_reduced(v)
            prod = [
                [reduce(add, (mul(rhs_u[i][k], rhs_v[k][j]) for k in range(n - 1)), Laurent.zero()) for j in range(n - 1)]
                for i in range(n - 1)
            ]
            assert lhs == prod
    _ok("criterion 8: braid and diagram oracles agree; Burau is a homomorphism")
