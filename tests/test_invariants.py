import random

import pytest
from hypothesis import given, settings, strategies as st

from braidbands import pipeline
from braidbands.laurent import Laurent
from braidbands.invariants import (
    _circle_visits,
    _diagram_sides,
    _fox_minor,
    _intersections,
    _passages,
    _wirtinger_rows,
    _word_sides,
    alexander_from_braid,
    alexander_from_diagram,
    diagram_seifert_matrix,
    word_seifert_matrix,
)
from braidbands.plumbing import plumb
from braidbands.surfaces import from_word, incidence_connected, to_word, word_turn, word_twirl
from braidbands.surfaces import mirror as mirror_surface
from braidbands.words import (
    ArtinWord,
    BKLWord,
    artin_to_bkl,
    closure_components,
    is_homogeneous,
    parse_word,
)
from braidbands.diagrams import (
    Diagram,
    DiagramError,
    analyze,
    closure_diagram,
    is_homogeneous_diagram,
    link_components,
)
from braidbands.invariants import _PRIMES, _poly_det, _prime_above

import reference
from corpus import (
    FIG8,
    K5_2,
    K9_43,
    TREFOIL,
    TREFOIL_NEG,
    pseudoalternating_diagrams,
    random_artin_word,
    random_bkl_word,
)
from reference import (
    add,
    burau_reduced,
    determinant,
    divide_exact,
    monomial,
    mul,
    signature,
    sub,
    substitute_inverse,
)


def alexander_from_diagram_minor(d: Diagram, drop_row: int, drop_col: int) -> Laurent:
    """The library's Fox minor of ``d``'s Wirtinger matrix without one given row and column."""
    if not d.crossings:
        raise DiagramError("empty diagram has no Wirtinger matrix")
    c = len(d.crossings)
    if not (0 <= drop_row < c and 0 <= drop_col < c):
        raise DiagramError(f"minor ({drop_row}, {drop_col}) outside a {c}x{c} Wirtinger matrix")
    if d.unknots:
        return Laurent.zero()
    rows = _wirtinger_rows(d)
    if rows is None:
        return Laurent.zero()
    return _fox_minor(rows, drop_row, drop_col)


def test_laurent_arithmetic():
    t = monomial()
    p = mul(add(t, Laurent.one()), sub(t, Laurent.one()))
    assert p == Laurent({2: 1, 0: -1})
    assert sub(p, p) == Laurent.zero()
    assert Laurent({3: 2}).shift(-3) == Laurent({0: 2})
    assert substitute_inverse(Laurent({-2: 5, 1: -1})) == Laurent({2: 5, -1: -1})
    assert mul(Laurent({0: 1, 1: 1}), Laurent({0: 1, 1: -1})).coeffs == ((0, 1), (2, -1))


def test_laurent_division_and_normalization():
    num = Laurent({0: 1, 3: 1})  # 1 + t^3
    den = Laurent({0: 1, 1: 1})  # 1 + t
    assert divide_exact(num, den) == Laurent({0: 1, 1: -1, 2: 1})
    with pytest.raises(ValueError):
        divide_exact(Laurent({0: 1, 1: 1, 2: 1}), Laurent({0: 2}))
    assert Laurent({-3: -1, -1: -2}).normalized() == Laurent({0: 1, 2: 2})
    assert Laurent.zero().normalized() == Laurent.zero()
    coeffs, offset = Laurent({-1: 3, 1: 5}).coefficient_list()
    assert coeffs == [3, 0, 5] and offset == -1


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=1, max_size=5),
       st.lists(st.integers(-6, 6), min_size=1, max_size=5))
def test_laurent_exact_division_round_trip(a, b):
    p = Laurent.from_list(a, -2)
    q = Laurent.from_list(b, -1)
    if q.is_zero():
        return
    assert divide_exact(mul(p, q), q) == p


def test_determinant_small():
    one, t = Laurent.one(), monomial()
    assert determinant([]) == one
    assert determinant([[t]]) == t
    m = [[one, t], [t, one]]
    assert determinant(m) == sub(one, mul(t, t))
    # singular
    assert determinant([[one, one], [one, one]]) == Laurent.zero()


def test_determinant_multiplicative():
    rng = random.Random(3)
    for _ in range(25):
        u = random_artin_word(rng, max_strands=4, max_len=5)
        v = ArtinWord(u.strands, [(i, e) for i, e in random_artin_word(rng, max_strands=u.strands, max_len=5).letters if i < u.strands])
        du = determinant(burau_reduced(u))
        dv = determinant(burau_reduced(v))
        duv = determinant(burau_reduced(u.concat(v)))
        assert duv == mul(du, dv)


def test_burau_homomorphism_and_relations():
    for n in (3, 4):
        ident = burau_reduced(ArtinWord(n))
        for i in range(1, n - 1):
            lhs = burau_reduced(ArtinWord(n, [(i, 1), (i + 1, 1), (i, 1)]))
            rhs = burau_reduced(ArtinWord(n, [(i + 1, 1), (i, 1), (i + 1, 1)]))
            assert lhs == rhs
        for i in range(1, n):
            inv = burau_reduced(ArtinWord(n, [(i, 1), (i, -1)]))
            assert inv == ident
    m1 = burau_reduced(parse_word("s1 s3", 4))
    m2 = burau_reduced(parse_word("s3 s1", 4))
    assert m1 == m2


def test_alexander_from_braid_values():
    assert alexander_from_braid(parse_word("s1", 2)) == Laurent.one()
    assert alexander_from_braid(parse_word("s1^3", 2)) == Laurent({0: 1, 1: -1, 2: 1})
    assert alexander_from_braid(parse_word("s1 s2^-1 s1 s2^-1", 3)) == Laurent(
        {0: 1, 1: -3, 2: 1}
    )
    # split two-component closure
    assert alexander_from_braid(ArtinWord(2)) == Laurent.zero()
    # Hopf link
    assert alexander_from_braid(parse_word("s1^2", 2)) == Laurent({0: 1, 1: -1}).normalized()


def test_alexander_from_diagram_values():
    assert alexander_from_diagram(TREFOIL) == Laurent({0: 1, 1: -1, 2: 1})
    assert alexander_from_diagram(FIG8) == Laurent({0: 1, 1: -3, 2: 1})
    assert alexander_from_diagram(K5_2) == Laurent({0: 2, 1: -3, 2: 2})
    from braidbands.diagrams import Diagram

    unknot = closure_diagram(parse_word("s1", 2))
    assert alexander_from_diagram(unknot) == Laurent.one()
    assert alexander_from_diagram(Diagram((), unknots=1)) == Laurent.one()
    assert alexander_from_diagram(Diagram((), unknots=2)) == Laurent.zero()


def test_cross_oracle_agreement():
    pairs = [
        ("s1^3", 2, TREFOIL),
        ("s1 s2^-1 s1 s2^-1", 3, FIG8),
        ("s2^-3 s1^-1 s2 s1^-1", 3, K5_2),
    ]
    for text, n, diagram in pairs:
        w = parse_word(text, strands=n)
        assert alexander_from_braid(w) == alexander_from_diagram(diagram)


def test_cross_oracle_on_random_closures():
    rng = random.Random(5)
    done = 0
    while done < 40:
        w = random_artin_word(rng, max_strands=4, max_len=7)
        d = closure_diagram(w)
        if not d.crossings:
            continue
        assert alexander_from_diagram(d) == alexander_from_braid(w)
        done += 1


def test_minor_choice_does_not_matter():
    split = (Diagram(TREFOIL.crossings, unknots=1), Diagram(FIG8.crossings, unknots=2))
    for d in (TREFOIL, FIG8, K5_2) + split:
        base = alexander_from_diagram(d)
        c = d.crossing_count
        for row in range(c):
            for col in range(c):
                assert alexander_from_diagram_minor(d, row, col) == base


def test_conjugation_and_stabilization_invariance():
    from braidbands.surfaces import from_word, to_word, turn, twirl, inflate, deflate
    from braidbands.words import artin_to_bkl

    rng = random.Random(9)
    for _ in range(40):
        w = artin_to_bkl(random_artin_word(rng, max_strands=4, max_len=6))
        s = from_word(w)
        a = alexander_from_braid(w)
        assert alexander_from_braid(to_word(turn(s))) == a
        assert alexander_from_braid(to_word(twirl(s))) == a
        strand = rng.randint(1, s.discs)
        height = rng.randint(0, s.band_count)
        inflated = inflate(s, strand, rng.choice((1, -1)), height)
        assert alexander_from_braid(to_word(inflated)) == a
        back = deflate(inflated, height)
        assert alexander_from_braid(to_word(back)) == a


def test_mirror_inverts_variable():
    from braidbands.surfaces import from_word, to_word, mirror
    from braidbands.words import artin_to_bkl

    rng = random.Random(13)
    for _ in range(40):
        w = artin_to_bkl(random_artin_word(rng, max_strands=4, max_len=6))
        a = alexander_from_braid(w)
        m = alexander_from_braid(to_word(mirror(from_word(w))))
        assert m == substitute_inverse(a).normalized()


def _random_closure_word(rng: random.Random, max_strands: int, max_len: int) -> ArtinWord:
    n = rng.randint(1, max_strands)
    if n == 1:
        return ArtinWord(1)
    # Leaving a generator out splits the closure; strands it isolates become free unknots.
    gens = [i for i in range(1, n) if rng.random() < 0.9] or [1]
    length = rng.randint(0, max_len)
    return ArtinWord(n, [(rng.choice(gens), rng.choice((1, -1))) for _ in range(length)])


def test_engines_match_reference_on_random_closures():
    """Both oracles equal the Laurent-Bareiss Burau reference, up to 60 crossings."""
    rng = random.Random(21)
    kinds = set()
    for _ in range(200):
        w = _random_closure_word(rng, max_strands=6, max_len=60)
        expected = reference.alexander_from_braid(w)
        d = closure_diagram(w)
        kinds.add((w.strands == 1, not w.letters, expected.is_zero(), d.unknots > 0))
        assert alexander_from_braid(w) == expected
        assert alexander_from_diagram(d) == expected
    # n = 1, empty words, split links and free unknots all occurred.
    assert any(k[0] for k in kinds) and any(k[1] for k in kinds)
    assert any(k[2] for k in kinds) and any(k[3] for k in kinds)


def test_fox_engine_matches_reference_wirtinger_determinant():
    rng = random.Random(22)
    diagrams = [TREFOIL, FIG8, K5_2, K9_43, Diagram((), unknots=1), Diagram((), unknots=3)]
    diagrams += [closure_diagram(_random_closure_word(rng, 5, 16)) for _ in range(40)]
    for d in diagrams:
        assert alexander_from_diagram(d) == reference.alexander_from_diagram(d)


def test_every_minor_matches_reference():
    rng = random.Random(23)
    diagrams = [TREFOIL, FIG8, K5_2, K9_43, Diagram(TREFOIL.crossings, unknots=1)]
    diagrams += [closure_diagram(_random_closure_word(rng, 4, 8)) for _ in range(20)]
    for d in diagrams:
        c = d.crossing_count
        for row in range(c):
            for col in range(c):
                assert alexander_from_diagram_minor(d, row, col) == reference.alexander_from_diagram_minor(
                    d, row, col
                )
    with pytest.raises(ValueError):
        alexander_from_diagram_minor(TREFOIL, 3, 0)


def test_burau_matches_reference_up_to_8_strands():
    rng = random.Random(24)
    words = [ArtinWord(1), ArtinWord(3), BKLWord(4)]
    for k in range(80):
        if k % 2:
            words.append(random_bkl_word(rng, max_strands=8, max_len=8))
        else:
            words.append(random_artin_word(rng, max_strands=8, max_len=24))
    mixed = []
    while len(mixed) < 40:
        w = random_bkl_word(rng, max_strands=8, max_len=16)
        if not is_homogeneous(w):
            mixed.append(w)
    for w in words + mixed:
        assert alexander_from_braid(w) == reference.alexander_from_braid(w)


def _strong_probable_prime(n: int, base: int) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(base, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def test_prime_table():
    assert list(_PRIMES) == sorted(set(_PRIMES)) and _PRIMES[0] > 2**32
    for p in _PRIMES:
        assert all(_strong_probable_prime(p, a) for a in (3, 5, 7)), p
    assert not _strong_probable_prime(2**255 - 21, 3)  # the check rejects composites
    # The gap between the Mersenne primes 2^127 - 1 and 2^521 - 1 is filled.
    assert _prime_above(2**150) == 2**192 - 2**64 - 1
    assert _prime_above(2**200) == 2**255 - 19
    assert _prime_above(2**255) == 2**521 - 1
    with pytest.raises(ValueError):
        _prime_above(_PRIMES[-1])


def test_burau_on_single_sign_16_strand_words_matches_reference(monkeypatch):
    # Their coefficient bounds of 150 to 185 bits select the two gap primes.
    import braidbands.invariants as invariants

    chosen = []

    def spy(bound):
        chosen.append(_prime_above(bound))
        return chosen[-1]

    monkeypatch.setattr(invariants, "_prime_above", spy)
    rng = random.Random(3)
    for sign in (1, -1):
        w = ArtinWord(16, [(rng.randint(1, 15), sign) for _ in range(160)])
        assert alexander_from_braid(w) == reference.alexander_from_braid(w)
    assert chosen == [2**192 - 2**64 - 1, 2**255 - 19]


def test_poly_det_matches_bareiss():
    """The evaluation engine on random sparse polynomial matrices, singular ones included.

    Entries such as t - 2 vanish at an evaluation point, so planned pivots
    vanish and rows are swapped.
    """
    rng = random.Random(25)
    for _ in range(150):
        size = rng.randint(1, 6)
        rows = []
        for _i in range(size):
            row = {}
            for j in range(size):
                if rng.random() < 0.5:
                    coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 3))]
                    if any(coeffs):
                        row[j] = (rng.randint(0, 2), tuple(coeffs))
            rows.append(row)
        if size > 1 and rng.random() < 0.2:
            rows[-1] = dict(rows[0])  # duplicate row: determinant 0
        dense = [
            [Laurent.from_list(row[j][1], row[j][0]) if j in row else Laurent.zero() for j in range(size)]
            for row in rows
        ]
        expected = determinant(dense)
        got = Laurent.from_list(_poly_det(rows))
        assert got == expected


# ---------------------------------------------------------------------------
# Seifert matrices
# ---------------------------------------------------------------------------

def _diagram_basis(d: Diagram):
    """The gate's basis: fundamental cycles of the Seifert graph's BFS tree."""
    structure = analyze(d)
    return pipeline._fundamental_cycles(len(structure.circles), [e[:2] for e in structure.graph.edges])


def _word_basis(w: BKLWord):
    return pipeline._fundamental_cycles(w.strands, [(r - 1, s - 1) for r, s, _e in w.letters])


def _seifert_alexander(v: list[list[int]]) -> Laurent:
    """Normalized det(V^T - tV)."""
    rows = [{j: (0, (v[j][i], -v[i][j])) for j in range(len(v)) if v[i][j] or v[j][i]} for i in range(len(v))]
    return Laurent.from_list(_poly_det(rows)).normalized()


def _connected_closures(seed: int, count: int):
    rng = random.Random(seed)
    while count:
        w = random_artin_word(rng, max_strands=6, max_len=20)
        d = closure_diagram(w)
        if d.crossings and not d.unknots and len(set(analyze(d).circle_component)) == 1:
            count -= 1
            yield w, d


def _intersection_form(x, cycles) -> list[list[int]]:
    """X of the surface of ``x``, a diagram or a band word, over ``cycles``."""
    if isinstance(x, Diagram):
        return _intersections(len(cycles), _circle_visits(analyze(x), cycles))
    at = _passages(cycles, x.letters)
    return _intersections(len(cycles), [(disc, len(x.letters), visits) for disc, visits in at.items()])


def _less(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    return [[u - v for u, v in zip(ra, rb)] for ra, rb in zip(a, b)]


def _twice(x, cycles, sides: list[list[int]]) -> list[list[int]]:
    """2V of ``x``'s surface from its stacking term R: R - X, plus the
    reference's twist term T."""
    signs = analyze(x).signs if isinstance(x, Diagram) else [e for _r, _s, e in x.letters]
    twice = _less(sides, _intersection_form(x, cycles))
    reference._add_twists(cycles, twice, signs)
    return twice


def _halved(twice: list[list[int]]) -> list[list[int]]:
    return [[v >> 1 for v in row] for row in twice]


def _final_gate_matrices(d: Diagram, monkeypatch):
    """Both sides of the last Seifert comparison ``homogenize(d)`` makes, as
    Seifert matrices: each stacking term R less its intersection term X,
    with its twist term added, halved."""
    seen = {}

    def spy(name, fn):
        def built(x, cycles, *ranks):
            seen[name] = (x, cycles, fn(x, cycles, *ranks))
            return seen[name][2]
        return built

    for name, fn in (("diagram", _diagram_sides), ("word", _word_sides)):
        monkeypatch.setattr(pipeline, f"_{name}_sides", spy(name, fn))
    w = pipeline.homogenize(d)
    monkeypatch.undo()
    (_d, d_cycles, d_sides), (word, w_cycles, w_sides) = seen["diagram"], seen["word"]
    assert _d is d and word is w
    return (_halved(_twice(d, d_cycles, d_sides)), _halved(_twice(w, w_cycles, w_sides)))


def test_seifert_matrices_golden(monkeypatch):
    # The trefoil is one leaf; the figure-eight plumbs a positive and a
    # negative Hopf band, and of the two entries between them only the one
    # from the band on the positive side of the shared disc is nonzero.
    assert _final_gate_matrices(TREFOIL, monkeypatch) == ([[-1, 0], [-1, -1]],) * 2
    assert _final_gate_matrices(TREFOIL_NEG, monkeypatch) == ([[1, 0], [1, 1]],) * 2
    assert _final_gate_matrices(FIG8, monkeypatch) == ([[1, 1], [0, -1]],) * 2
    assert diagram_seifert_matrix(TREFOIL, _diagram_basis(TREFOIL)) == [[-1, 0], [-1, -1]]
    assert word_seifert_matrix(parse_word("b(1,2)^3", strands=2), [((1, 1), (0, -1))]) == [[-1]]


def _assert_builders_match(x, cycles, *ranks, simple=True) -> None:
    """``x``'s public Seifert builder, a diagram's or a band word's, equals
    the one-body reference, and so does its stacking term R less X, plus
    the reference's T, halved; over ``simple`` cycles that sum is the
    reference matrix doubled."""
    if isinstance(x, Diagram):
        public, ref, sides = diagram_seifert_matrix, reference.diagram_seifert_matrix, _diagram_sides
    else:
        public, ref, sides = word_seifert_matrix, reference.word_seifert_matrix, _word_sides
    expected = ref(x, cycles, *ranks)
    assert public(x, cycles, *ranks) == expected
    twice = _twice(x, cycles, sides(x, cycles, *ranks))
    assert _halved(twice) == expected
    assert twice == [[2 * v for v in row] for row in expected] or not simple


def _builder_cases(monkeypatch):
    """(surface, cycles) or (diagram, cycles, ranks) for the golden knots, connected closures and
    pseudoalternating diagrams, unranked and, when homogeneous, ranked by
    plumbing step; for the words homogenize returns, over the basis its gate
    carried to them and over the word's own; and for the band forms of the
    closures' words, over the closures' bases carried to them."""
    closures = list(_connected_closures(seed=35, count=120))
    cases = [TREFOIL, TREFOIL_NEG, FIG8, K5_2, K9_43] + [d for _w, d in closures]
    cases += [d for d, _word in pseudoalternating_diagrams(seed=4243, count=100)]
    gated = []
    word_sides = pipeline._word_sides
    monkeypatch.setattr(pipeline, "_word_sides", lambda w, cycles: gated.append(cycles) or word_sides(w, cycles))
    words = 0
    for d in cases:
        basis = _diagram_basis(d)
        yield d, basis
        if not is_homogeneous_diagram(d).homogeneous:
            continue
        ranks = pipeline._plumbing_ranks(analyze(d), pipeline.decompose_generalized_flat(d))
        yield d, basis, [ranks[cycle[0][0]] for cycle in basis]
        w = pipeline.homogenize(d)
        yield w, gated[-1]
        yield w, _word_basis(w)
        words += 1
    assert words >= 100
    for w, d in closures:
        ends = [e[:2] for e in analyze(d).graph.edges]
        disc_of = {}
        for (u, v), (i, e) in zip(ends, w.letters):
            disc_of[u], disc_of[v] = (i + 1, i) if e > 0 else (i, i + 1)
        band = artin_to_bkl(w)
        letter_of = {k: k for k in range(len(ends))}
        yield band, reference.carried(ends, _diagram_basis(d), band, disc_of, letter_of)


def _assert_split_matches(x, cycles, *ranks) -> None:
    """``x``'s stacking term R less its intersection term X is the doubled
    twist-free form 2V - T that one body computes, entry by entry."""
    rest, sides = ((reference._diagram_rest, _diagram_sides) if isinstance(x, Diagram)
                   else (reference._word_rest, _word_sides))
    assert _less(sides(x, cycles, *ranks), _intersection_form(x, cycles)) == rest(x, cycles, *ranks)


def test_seifert_builders_match_the_references(monkeypatch):
    # On every surface of _builder_cases.
    for case in _builder_cases(monkeypatch):
        _assert_builders_match(*case)


def test_sides_less_intersections_equal_the_one_body_forms(monkeypatch):
    # homogenize's gate compares the stacking terms R alone, since its
    # order check makes X the same on both sides.  R - X must still be the
    # one-body 2V - T: for diagrams ranked and unranked, and for words
    # over the carried basis and over their own.
    surfaces = 0
    for case in _builder_cases(monkeypatch):
        _assert_split_matches(*case)
        surfaces += 1
    assert surfaces >= 400


BAND_LETTERS = st.integers(2, 7).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(
        st.tuples(st.integers(1, n - 1), st.integers(1, n - 1), st.sampled_from((1, -1)))
        .map(lambda t: (t[0], t[0] + 1 + (t[1] - 1) % (n - t[0]), t[2])),
        max_size=16,
    ))
)


@settings(max_examples=150, deadline=None)
@given(BAND_LETTERS, st.lists(st.tuples(st.integers(1, 5), st.sampled_from((1, -1))), max_size=16))
def test_seifert_builders_match_the_references_on_random_inputs(band, artin):
    # Band words also over closed walks that turn back: along a letter and
    # back, and around a basis cycle and back.  R less X is the one-body
    # 2V - T on these too.
    w = BKLWord(*band)
    if incidence_connected(from_word(w)):
        basis = _word_basis(w)
        _assert_builders_match(w, basis)
        walks = [((k, 1), (k, -1)) for k in range(len(w.letters))]
        walks += [cycle + tuple([(k, -way) for k, way in reversed(cycle)]) for cycle in basis]
        _assert_builders_match(w, basis + walks, simple=False)
        _assert_split_matches(w, basis + walks)
    d = closure_diagram(ArtinWord(6, artin))
    if d.crossings and not d.unknots and len(set(analyze(d).circle_component)) == 1:
        basis = _diagram_basis(d)
        _assert_builders_match(d, basis)
        _assert_split_matches(d, basis)
        if is_homogeneous_diagram(d).homogeneous:
            ranks = pipeline._plumbing_ranks(analyze(d), pipeline.decompose_generalized_flat(d))
            _assert_builders_match(d, basis, [ranks[cycle[0][0]] for cycle in basis])
            _assert_split_matches(d, basis, [ranks[cycle[0][0]] for cycle in basis])


def test_seifert_signature_changes_sign_under_mirroring():
    def sig(d):
        v = diagram_seifert_matrix(d, _diagram_basis(d))
        return signature([[a + b for a, b in zip(row, col)] for row, col in zip(v, zip(*v))])

    assert sig(TREFOIL) == -2 and sig(TREFOIL_NEG) == 2
    for text in ("b(1,2)^3 b(2,3)^2", "b(1,3)^3 b(2,3)^-1 b(1,2)^2"):
        w = parse_word(text, strands=3)
        mirror = to_word(mirror_surface(from_word(w)))
        v, m = (word_seifert_matrix(x, _word_basis(x)) for x in (w, mirror))
        assert signature([[a + b for a, b in zip(row, col)] for row, col in zip(v, zip(*v))]) == -signature(
            [[a + b for a, b in zip(row, col)] for row, col in zip(m, zip(*m))]
        ) != 0


def test_seifert_gate_rejects_the_mirror_trefoil_word():
    # The trefoil is one leaf; its realization with homogenize's maps
    # meets the final gate, which ranks the crossings by plumbing step.
    steps = pipeline.decompose_generalized_flat(TREFOIL)
    ((leaf, _shared),) = steps
    structure = analyze(TREFOIL)
    cycles = _diagram_basis(TREFOIL)
    ranks = pipeline._plumbing_ranks(structure, steps)
    target = diagram_seifert_matrix(TREFOIL, cycles, [ranks[cycle[0][0]] for cycle in cycles])
    word, pos, cids, _tried = reference.realized_leaf(leaf, leaf.circles[0], cycles, target)
    assert word == pipeline.homogenize(TREFOIL)
    disc_of = {c: pos[leaf.circle_map[c]] for c in leaf.circles}
    letter_of = {c: k for k, c in enumerate(cids)}
    mirror = BKLWord(2, [(r, s, -e) for r, s, e in word.letters])
    assert mirror == parse_word("b(1,2)^-3", strands=2)
    # Component count and Alexander polynomial cannot tell them apart ...
    assert closure_components(mirror) == link_components(TREFOIL)
    assert alexander_from_braid(mirror) == alexander_from_diagram(TREFOIL)
    # ... the Seifert matrix can.
    ends = [edge[:2] for edge in structure.graph.edges]
    gate = reference.gate(ends, cycles, target, link_components(TREFOIL))
    assert gate(word, disc_of, letter_of)
    assert not gate(mirror, disc_of, letter_of)


def test_seifert_determinant_is_fox():
    cases = [TREFOIL, TREFOIL_NEG, FIG8, K5_2, K9_43]
    cases += [d for _w, d in _connected_closures(seed=31, count=100)]
    cases += [d for d, _word in pseudoalternating_diagrams(seed=4242, count=25)]
    for d in cases:
        v = diagram_seifert_matrix(d, _diagram_basis(d))
        assert _seifert_alexander(v) == alexander_from_diagram(d)
    # Stacking the surface by the plumbing order keeps it a surface of the link.
    for d in cases[:5] + cases[-25:]:
        structure = analyze(d)
        ranks = pipeline._plumbing_ranks(structure, pipeline.decompose_generalized_flat(d))
        basis = _diagram_basis(d)
        v = diagram_seifert_matrix(d, basis, [ranks[cycle[0][0]] for cycle in basis])
        assert _seifert_alexander(v) == alexander_from_diagram(d)


def test_seifert_determinant_is_burau():
    rng = random.Random(32)
    done = 0
    while done < 100:
        w = random_bkl_word(rng, max_strands=8, max_len=16, homogeneous=True)
        if not incidence_connected(from_word(w)):
            continue
        done += 1
        assert _seifert_alexander(word_seifert_matrix(w, _word_basis(w))) == alexander_from_braid(w)


def test_braided_surface_of_an_artin_word_is_the_surface_of_its_closure():
    # Strand i of the closed braid is a Seifert circle and disc i; crossing k
    # is letter k.  Any word, homogeneous or not.
    for w, d in _connected_closures(seed=33, count=100):
        ends = [e[:2] for e in analyze(d).graph.edges]
        disc_of = {}
        for (u, v), (i, e) in zip(ends, w.letters):
            disc_of[u], disc_of[v] = (i + 1, i) if e > 0 else (i, i + 1)
        basis = _diagram_basis(d)
        carried = [
            tuple([(c, way if disc_of[ends[c][0]] < disc_of[ends[c][1]] else -way) for c, way in cycle])
            for cycle in basis
        ]
        assert word_seifert_matrix(artin_to_bkl(w), carried) == diagram_seifert_matrix(d, basis)


def test_word_seifert_matrix_under_moves_and_plumbing():
    rng = random.Random(34)
    done = 0
    while done < 60:
        w1 = random_bkl_word(rng, max_strands=4, max_len=7)
        w2 = random_bkl_word(rng, max_strands=4, max_len=7)
        if not (incidence_connected(from_word(w1)) and incidence_connected(from_word(w2))):
            continue
        done += 1
        b1, b2 = _word_basis(w1), _word_basis(w2)
        v1, v2 = word_seifert_matrix(w1, b1), word_seifert_matrix(w2, b2)
        # Twirls and turns are isotopies; carry the basis along.
        kept = [r > 1 for r, _s, _e in w1.letters]  # disc 1 moves past disc n
        twirled = [tuple([(k, way if kept[k] else -way) for k, way in c]) for c in b1]
        assert word_seifert_matrix(word_twirl(w1), twirled) == v1
        turned = [tuple([((k + 1) % len(w1.letters), way) for k, way in c]) for c in b1]
        assert word_seifert_matrix(word_turn(w1), turned) == v1
        # Plumbing puts w2 on the positive side of the shared disc: the
        # summands keep their matrices and w1's cycles do not link w2's pushoffs.
        marks = [1] * len(w1.letters) + [2] * len(w2.letters)
        rng.shuffle(marks)
        at = {1: [k for k, m in enumerate(marks) if m == 1], 2: [k for k, m in enumerate(marks) if m == 2]}
        basis = [tuple([(at[side][k], way) for k, way in c]) for side, b in ((1, b1), (2, b2)) for c in b]
        v = word_seifert_matrix(plumb(w1, w2, marks), basis)
        g1 = len(b1)
        assert [row[:g1] for row in v[:g1]] == v1 and [row[g1:] for row in v[g1:]] == v2
        assert all(x == 0 for row in v[:g1] for x in row[g1:])
