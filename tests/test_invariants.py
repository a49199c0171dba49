import random

import pytest
from hypothesis import given, settings, strategies as st

from braidbands.laurent import Laurent
from braidbands.invariants import (
    alexander_from_braid,
    alexander_from_diagram,
    alexander_from_diagram_minor,
    burau_reduced,
)
from braidbands.words import ArtinWord, parse_word
from braidbands.diagrams import Diagram, closure_diagram
from braidbands.invariants import _PRIMES, _poly_det, _prime_above

import reference
from corpus import FIG8, K5_2, K9_43, TREFOIL, random_artin_word, random_bkl_word
from reference import determinant


def test_laurent_arithmetic():
    t = Laurent.t()
    p = (t + Laurent.one()) * (t - Laurent.one())
    assert p == Laurent({2: 1, 0: -1})
    assert p - p == Laurent.zero()
    assert Laurent({3: 2}).shift(-3) == Laurent({0: 2})
    assert Laurent({-2: 5, 1: -1}).substitute_inverse() == Laurent({2: 5, -1: -1})
    assert (Laurent({0: 1, 1: 1}) * Laurent({0: 1, 1: -1})).coeffs == ((0, 1), (2, -1))


def test_laurent_division_and_normalization():
    num = Laurent({0: 1, 3: 1})  # 1 + t^3
    den = Laurent({0: 1, 1: 1})  # 1 + t
    assert num.divide_exact(den) == Laurent({0: 1, 1: -1, 2: 1})
    with pytest.raises(ValueError):
        Laurent({0: 1, 1: 1, 2: 1}).divide_exact(Laurent({0: 2}))
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
    assert (p * q).divide_exact(q) == p


def test_determinant_small():
    one, t = Laurent.one(), Laurent.t()
    assert determinant([]) == one
    assert determinant([[t]]) == t
    m = [[one, t], [t, one]]
    assert determinant(m) == one - t * t
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
        assert duv == du * dv


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
        assert m == a.substitute_inverse().normalized()


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
    for k in range(80):
        if k % 2:
            w = random_bkl_word(rng, max_strands=8, max_len=8)
        else:
            w = random_artin_word(rng, max_strands=8, max_len=24)
        assert burau_reduced(w) == reference.burau_reduced(w)
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
