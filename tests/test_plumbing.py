import random

import pytest

from braidbands.plumbing import PlumbingError, ShufflePattern, deplumb, plumb
from braidbands.words import BKLWord, braids_equal, bkl_to_artin, is_homogeneous, parse_word

from corpus import PLUMB_RESULT, PLUMB_W1, PLUMB_W2, random_bkl_word


def test_relabel_second():
    # Plumbing onto a word with no letters is the second word's strands
    # shifted up by the first word's strand count less one.
    assert plumb(BKLWord(3), PLUMB_W2) == parse_word(
        "b(3,6)^-1 b(3,5) b(4,5)^-1 b(3,6)^-1", strands=6
    )
    assert plumb(BKLWord(4), BKLWord(3)) == BKLWord(6)
    w = parse_word("b(1,2) b(2,3)", strands=3)
    assert plumb(BKLWord(1), w) == w


def test_plumb_golden():
    out = plumb(PLUMB_W1, PLUMB_W2, ShufflePattern.parse("2121212"))
    assert out == PLUMB_RESULT
    assert out.strands == 6
    assert len(out.letters) == 7


def test_plumb_default_pattern_and_empty():
    w1 = parse_word("b(1,2)^2", strands=2)
    w2 = parse_word("b(1,2)^3", strands=2)
    out = plumb(w1, w2)
    assert out == parse_word("b(1,2)^2 b(2,3)^3", strands=3)
    assert plumb(BKLWord(2), w2) == parse_word("b(2,3)^3", strands=3)
    assert plumb(w1, BKLWord(4)) == parse_word("b(1,2)^2", strands=5)


def test_pattern_validation():
    with pytest.raises(PlumbingError):
        ShufflePattern((1, 3))
    with pytest.raises(PlumbingError):
        plumb(PLUMB_W1, PLUMB_W2, ShufflePattern.parse("21212"))


def test_deplumb_golden_and_errors():
    w1, w2, pattern = deplumb(PLUMB_RESULT, 3)
    assert w1 == PLUMB_W1
    assert w2 == PLUMB_W2
    assert str(pattern) == "2121212"
    with pytest.raises(PlumbingError):
        deplumb(BKLWord(3, [(1, 3, 1)]), 2)


def test_round_trip_random():
    rng = random.Random(31)
    for _ in range(1000):
        w1 = random_bkl_word(rng, max_strands=4, max_len=5)
        w2 = random_bkl_word(rng, max_strands=4, max_len=5)
        marks = [1] * len(w1.letters) + [2] * len(w2.letters)
        rng.shuffle(marks)
        pattern = ShufflePattern(marks)
        w = plumb(w1, w2, pattern)
        assert w.strands == w1.strands + w2.strands - 1
        assert len(w.letters) == len(w1.letters) + len(w2.letters)
        a, b, rec = deplumb(w, w1.strands)
        assert (a, b) == (w1, w2)
        assert rec == pattern


def test_homogeneity_closure_under_plumbing():
    rng = random.Random(32)
    for _ in range(1000):
        w1 = random_bkl_word(rng, max_strands=4, max_len=5, homogeneous=True)
        w2 = random_bkl_word(rng, max_strands=4, max_len=5, homogeneous=True)
        marks = [1] * len(w1.letters) + [2] * len(w2.letters)
        rng.shuffle(marks)
        w = plumb(w1, w2, ShufflePattern(marks))
        assert is_homogeneous(w)
        a, b, _p = deplumb(w, w1.strands)
        assert is_homogeneous(a) and is_homogeneous(b)


def test_same_shared_order_patterns_give_equal_braids():
    # Patterns that only reorder letters away from the shared disc produce
    # the same braid element; the shared disc's letter order is what
    # matters.  (Different shared orders genuinely change the closure.)
    w1 = parse_word("b(1,2) b(1,2)", strands=2)
    w2 = parse_word("b(1,2) b(1,2)", strands=2)
    base = plumb(w1, w2, ShufflePattern.parse("1122"))
    from braidbands.words import closure_components

    assert closure_components(base) == 3
    interleaved = plumb(w1, w2, ShufflePattern.parse("1212"))
    assert closure_components(interleaved) == 1  # a different link
    # words on disjoint strand intervals commute across the pattern
    u1 = parse_word("b(1,2)", strands=3)
    u2 = parse_word("b(2,3)", strands=3)  # relabels to (4,5) past disc 3
    x = plumb(u1, u2, ShufflePattern.parse("12"))
    y = plumb(u1, u2, ShufflePattern.parse("21"))
    assert braids_equal(bkl_to_artin(x), bkl_to_artin(y))
