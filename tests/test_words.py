import itertools
import random
import re
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from braidbands import words
from braidbands.words import (
    ArtinWord,
    BKLWord,
    Permutation,
    WordError,
    artin_to_bkl,
    bkl_to_artin,
    braids_equal,
    closure_components,
    exponent_sum,
    format_word,
    handle_reduce,
    homogeneity_report,
    is_homogeneous,
    is_trivial_braid,
    parse_word,
    permutation_of,
)

import reference
from corpus import (
    WORD_948_ARTIN,
    WORD_948_BKL,
    handle_reduction_words,
    random_artin_word,
    random_bkl_word,
    scrambled,
)

# Unicode decimal digits (category Nd) other than ASCII, which the grammar refuses.
_ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
_FULLWIDTH = str.maketrans("0123456789", "０１２３４５６７８９")
_MALFORMED = ("s", "s1^", "s1^+1", "s1^2^3", "b(1,2", "b(1,2,3)", "b(,2)", "s1_0")


def test_word_validation():
    with pytest.raises(WordError):
        ArtinWord(2, [(2, 1)])
    with pytest.raises(WordError):
        BKLWord(3, [(2, 2, 1)])
    with pytest.raises(WordError):
        BKLWord(3, [(1, 2, 0)])
    for bad in ([(0, 1)], [(1, 2)], [[1, 0]], [(1.0, -2)]):
        with pytest.raises(WordError):
            ArtinWord(3, bad)
    for bad in ([(0, 2, 1)], [(1, 4, 1)], [(2, 1, 1)], [(1, 2, -2)], [[1, 2, False]]):
        with pytest.raises(WordError):
            BKLWord(3, bad)
    assert len(ArtinWord(1)) == 0


def test_translation_examples():
    assert bkl_to_artin(BKLWord(2, [(1, 2, 1)])).letters == ((1, 1),)
    assert bkl_to_artin(BKLWord(3, [(1, 3, 1)])).letters == ((1, -1), (2, 1), (1, 1))
    w = parse_word("s2^-3 s1^-1 s2 s1^-1", strands=3)
    assert artin_to_bkl(w) == parse_word(
        "b(2,3)^-3 b(1,2)^-1 b(2,3) b(1,2)^-1", strands=3
    )
    assert artin_to_bkl(ArtinWord(3)) == BKLWord(3)
    assert artin_to_bkl(parse_word("s1 s2^-1", 3)) == parse_word("b(1,2) b(2,3)^-1", 3)


def test_948_translation_equals_artin_form():
    translated = bkl_to_artin(WORD_948_BKL)
    assert braids_equal(translated, WORD_948_ARTIN)


def test_homogeneity():
    assert is_homogeneous(WORD_948_BKL)
    report = homogeneity_report(WORD_948_ARTIN)
    assert not report.homogeneous
    assert 3 in report.mixed
    assert is_homogeneous(ArtinWord(4))
    # all-positive words are homogeneous
    rng = random.Random(1)
    for _ in range(50):
        w = random_bkl_word(rng)
        pos = BKLWord(w.strands, [(r, s, 1) for r, s, _ in w.letters])
        assert is_homogeneous(pos)


def test_permutation_and_components():
    perm = permutation_of(parse_word("s1", 2))
    assert perm.image == (2, 1) and perm.cycle_count() == 1
    perm = permutation_of(ArtinWord(3))
    assert perm.image == (1, 2, 3) and perm.cycle_count() == 3
    perm = permutation_of(WORD_948_BKL)
    assert perm.cycle_count() == 1 and sorted(perm.cycles()[0]) == [1, 2, 3, 4]
    assert closure_components(WORD_948_ARTIN) == 1


def test_exponent_sums():
    assert exponent_sum(ArtinWord(3)) == 0
    assert exponent_sum(WORD_948_ARTIN) == 3
    assert exponent_sum(WORD_948_BKL) == 3
    assert exponent_sum(bkl_to_artin(WORD_948_BKL)) == 3


def test_braids_equal_basics():
    assert braids_equal(parse_word("s1 s2 s1", 3), parse_word("s2 s1 s2", 3))
    assert braids_equal(parse_word("s1^-1 s2 s1", 3), parse_word("s2 s1 s2^-1", 3))
    assert not braids_equal(parse_word("s1", 2), parse_word("s1^-1", 2))
    with pytest.raises(WordError):
        braids_equal(parse_word("s1", 2), parse_word("s1", 3))


def test_handle_reduction_is_terminating_and_sound():
    rng = random.Random(7)
    for _ in range(200):
        w = random_artin_word(rng)
        reduced = handle_reduce(w)
        assert braids_equal(reduced, w)
        conj = w.concat(w.inverse())
        assert is_trivial_braid(conj)


def test_handle_reduce_matches_reference():
    # Every step of the local reduction must give the word the rescanning
    # reduction gives, so the reducts agree letter for letter.
    seen = set()
    for w, trivial in handle_reduction_words(seed=2024, count=1200):
        reduced = handle_reduce(w)
        assert reduced == reference.handle_reduce(w), format_word(w)
        if trivial is not None:
            assert (len(reduced) == 0) == trivial, format_word(w)
        seen.add((w.strands, trivial))
    assert {n for n, _ in seen} == set(range(2, 11))
    assert {t for _, t in seen} == {None, True, False}


def test_handle_reduce_matches_reference_on_benchmark_sized_words():
    # u has 50 to 200 Artin letters, as in the braid_equal benchmark, so the
    # words reach the lengths where the two stacks hold hundreds of letters.
    kinds = set()
    for w, trivial in handle_reduction_words(seed=12, count=40, lengths=(50, 200)):
        reduced = handle_reduce(w)
        assert reduced == reference.handle_reduce(w), format_word(w)
        if trivial is not None:
            assert (len(reduced) == 0) == trivial, format_word(w)
        kinds.add(trivial)
    assert kinds == {None, True, False}


def test_handle_reduce_matches_reference_on_12_to_16_strands():
    # Letters of index 10 and up have codes above 19, so both the look-back
    # bound and the decoding are checked past the 10 strands of the corpus
    # above.
    strands, indices = set(), set()
    for w, trivial in handle_reduction_words(seed=1216, count=150, strands=(12, 16)):
        reduced = handle_reduce(w)
        assert reduced == reference.handle_reduce(w), format_word(w)
        if trivial is not None:
            assert (len(reduced) == 0) == trivial, format_word(w)
            strands.add(w.strands)
        indices.update(i for i, _ in reduced.letters)
    assert strands == set(range(12, 17))
    assert max(indices) >= 12


@st.composite
def word_pairs(draw):
    """(u, v) on 2 to 6 strands, each in Artin or band letters, up to 40
    letters; v is u rewritten by braid relations or a word of its own."""
    n = draw(st.integers(2, 6))
    artin = st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1)))
    band = st.integers(1, n - 1).flatmap(
        lambda r: st.tuples(st.just(r), st.integers(r + 1, n), st.sampled_from((1, -1)))
    )

    def word():
        if draw(st.booleans()):
            return ArtinWord(n, draw(st.lists(artin, max_size=40)))
        return BKLWord(n, draw(st.lists(band, max_size=40)))

    u = word()
    if draw(st.booleans()):
        letters = words._as_artin(u).letters
        rng = draw(st.randoms(use_true_random=False))
        return u, ArtinWord(n, scrambled(rng, n, letters, len(letters) // 2))
    return u, word()


@settings(max_examples=300, deadline=None)
@given(word_pairs())
def test_handle_reduce_and_braids_equal_match_reference(pair):
    u, v = pair
    for w in (words._as_artin(u), words._as_artin(v)):
        assert handle_reduce(w) == reference.handle_reduce(w)
    quotient = words._as_artin(u).concat(words._as_artin(v).inverse())
    assert braids_equal(u, v) == (len(reference.handle_reduce(quotient)) == 0)


def test_braids_equal_reduces_once(monkeypatch):
    calls = []

    def recording(w):
        calls.append(w)
        return real(w)

    real = words.handle_reduce
    monkeypatch.setattr(words, "handle_reduce", recording)
    u = parse_word("b(1,3) b(2,4)^-1 b(1,2)", 4)
    v = parse_word("s3 s1 s2", 4)
    for a, b in ((u, v), (v, u), (u, u), (v, v)):
        calls.clear()
        assert braids_equal(a, b) == (a is b)
        assert calls == [words._as_artin(a).concat(words._as_artin(b).inverse())]


def test_bkl_first_relation():
    # Commuting band generators: strand pairs that do not separate each other.
    n = 5
    quads = []
    for s in range(1, n):
        for t in range(s + 1, n + 1):
            for q in range(1, n):
                for r in range(q + 1, n + 1):
                    if (t - r) * (t - q) * (s - r) * (s - q) > 0 and (q, r) != (s, t):
                        quads.append(((s, t), (q, r)))
    assert quads
    for (s, t), (q, r) in quads[:40]:
        a = bkl_to_artin(BKLWord(n, [(s, t, 1), (q, r, 1)]))
        b = bkl_to_artin(BKLWord(n, [(q, r, 1), (s, t, 1)]))
        assert braids_equal(a, b), ((s, t), (q, r))


def test_bkl_second_relation():
    for n in (3, 4, 5):
        for r in range(1, n + 1):
            for s in range(r + 1, n + 1):
                for t in range(s + 1, n + 1):
                    w1 = bkl_to_artin(BKLWord(n, [(s, t, 1), (r, s, 1)]))
                    w2 = bkl_to_artin(BKLWord(n, [(r, t, 1), (s, t, 1)]))
                    w3 = bkl_to_artin(BKLWord(n, [(r, s, 1), (r, t, 1)]))
                    assert braids_equal(w1, w2)
                    assert braids_equal(w2, w3)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.data())
def test_round_trip_artin_bkl(n, data):
    letters = data.draw(
        st.lists(
            st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1))), max_size=8
        )
    )
    w = ArtinWord(n, letters)
    back = bkl_to_artin(artin_to_bkl(w))
    assert braids_equal(back, w)


def test_round_trip_many_random():
    rng = random.Random(42)
    for _ in range(1000):
        w = random_artin_word(rng, max_strands=4, max_len=6)
        assert braids_equal(bkl_to_artin(artin_to_bkl(w)), w)


def test_translation_invariants_random():
    rng = random.Random(11)
    for _ in range(300):
        w = random_bkl_word(rng)
        a = bkl_to_artin(w)
        assert exponent_sum(a) == exponent_sum(w)
        assert permutation_of(a) == permutation_of(w)


def test_permutation_matches_reference():
    rng = random.Random(31)
    for k in range(300):
        if k % 2:
            w = random_bkl_word(rng, max_strands=10, max_len=40)
        else:
            w = random_artin_word(rng, max_strands=10, max_len=60)
        assert permutation_of(w) == reference.permutation_of(w)


def test_parsed_letters_are_shared():
    for text in (
        "s1 s1 s1^2 s1^1 s2^-1 s2^-3 s1^-1 s3",
        "b(1,3) b(1,3)^2 b(1,3)^1 b(2,4)^-1 b(2,4)^-2 b(1,3)^-1",
        " ".join(format_word(random_artin_word(random.Random(k), 8, 40)) for k in range(20)),
    ):
        w = parse_word(text)
        assert len({id(x) for x in w.letters}) <= len(set(w.letters))
    w = parse_word("s1^3 s2 s1")
    assert ArtinWord(w.strands, w.letters).letters[0] is w.letters[0]
    assert handle_reduce(w).letters[0] is w.letters[0]
    # Every letter of a reduct that the input has is the input's own tuple;
    # only a letter the input lacks is a new one.
    new = 0
    for u, _ in handle_reduction_words(seed=99, count=200, strands=(2, 16)):
        w = parse_word(format_word(u), u.strands)
        shared = {x: x for x in w.letters}
        for x in handle_reduce(w).letters:
            if x in shared:
                assert x is shared[x], format_word(w)
            else:
                assert type(x) is tuple and all(type(v) is int for v in x)
                new += 1
    assert new > 0


def test_word_operations_keep_the_presentation():
    a = ArtinWord(3, [(1, 1), (2, -1)])
    b = BKLWord(3, [(1, 3, 1), (2, 3, -1)])
    for w in (a, b):
        assert type(w.inverse()) is type(w) and type(w.concat(w)) is type(w)
        assert w.inverse().inverse() == w and len(w.concat(w)) == 2 * len(w)
        with pytest.raises(WordError, match="strand counts differ"):
            w.concat(type(w)(4))
    assert repr(a) == "ArtinWord(strands=3, letters=((1, 1), (2, -1)))"
    assert str(a.inverse()) == "s2 s1^-1" and str(b.inverse()) == "b(2,3) b(1,3)^-1"
    # Only empty words have equal fields in both presentations; they differ.
    artin, band = ArtinWord(2), BKLWord(2)
    assert (artin.strands, artin.letters) == (band.strands, band.letters)
    assert artin != band and band != artin


def test_constructors_coerce_letters():
    a = ArtinWord(3, [[1, True], (2.0, -1), (1, 1)])
    assert a.letters == ((1, 1), (2, -1), (1, 1))
    b = BKLWord(4, [[1, 3, True], (2, 4.0, -1), (1, 2, 1)])
    assert b.letters == ((1, 3, 1), (2, 4, -1), (1, 2, 1))
    for letter in a.letters + b.letters:
        assert type(letter) is tuple and all(type(v) is int for v in letter)
    assert ArtinWord(3, iter([(1, 1)])).letters == ((1, 1),)
    with pytest.raises(ValueError):
        ArtinWord(3, [(1, 1, 1)])
    with pytest.raises(ValueError):
        BKLWord(3, [(1, 2)])


def test_constructors_name_the_first_bad_letter():
    # Distinct letters are checked in set order; a failed check goes back to
    # word order, so the message names the first bad letter of the word.
    artin = [(1, 1), (5, 1), (1, -1), (0, 1), (2, 3)]
    messages = {
        (5, 1): "generator index 5 out of range for 3 strands",
        (0, 1): "generator index 0 out of range for 3 strands",
        (2, 3): "sign must be +1 or -1, got 3",
    }
    for order in itertools.permutations(artin):
        bad = next(x for x in order if x in messages)
        with pytest.raises(WordError, match=re.escape(messages[bad])):
            ArtinWord(3, order)
    band = [(1, 2, 1), (3, 5, 1), (1, 3, -1), (2, 2, 1), (1, 2, 0)]
    messages = {
        (3, 5, 1): "band generator (3,5) out of range for 4 strands",
        (2, 2, 1): "band generator (2,2) out of range for 4 strands",
        (1, 2, 0): "sign must be +1 or -1, got 0",
    }
    for order in itertools.permutations(band):
        bad = next(x for x in order if x in messages)
        with pytest.raises(WordError, match=re.escape(messages[bad])):
            BKLWord(4, order)


def test_constructors_share_equal_letters():
    # Each letter becomes the first letter of the word equal to it, so a
    # letter that equals a tuple of ints without being one is replaced.
    first = (1, 1)
    a = ArtinWord(3, [first, (1, True), (1.0, 1), (2, -1), (2, -1.0)])
    assert all(x is first for x in a.letters[:3]) and a.letters[3] is a.letters[4]
    assert format_word(a) == "s1 s1 s1 s2^-1 s2^-1"
    b = BKLWord(4, [(1, 3, 1), (True, 3, 1.0), (2, 4, -1)])
    assert b.letters[0] is b.letters[1] and format_word(b) == "b(1,3) b(1,3) b(2,4)^-1"
    # A first letter that is not a tuple of ints has the word coerced.
    for w in (ArtinWord(3, [(1, True), (1, 1)]), BKLWord(3, [(1.0, 2, 1), (1, 2, 1)])):
        for letter in w.letters:
            assert type(letter) is tuple and all(type(v) is int for v in letter)


def test_grammar_round_trip_random():
    rng = random.Random(17)
    for k in range(200):
        if k % 2:
            w = random_bkl_word(rng, max_strands=8, max_len=30)
        else:
            w = random_artin_word(rng, max_strands=8, max_len=30)
        kind = "bkl" if isinstance(w, BKLWord) else None
        text = format_word(w)
        assert parse_word(text, strands=w.strands, kind=kind) == w
        # Runs of equal letters written with one exponent give the same word.
        runs: list[list] = []
        for token in text.split():
            if runs and runs[-1][0] == token:
                runs[-1][1] += 1
            else:
                runs.append([token, 1])
        grouped = " ".join(
            t if m == 1 else f"{t.partition('^')[0]}^{-m if '^' in t else m}" for t, m in runs
        )
        assert parse_word(grouped, strands=w.strands, kind=kind) == w


def test_permutation_type():
    with pytest.raises(WordError):
        Permutation((1, 1))
    p = Permutation((2, 3, 1))
    assert p.cycle_count() == 1
    assert Permutation.identity(4).cycle_count() == 4


def test_grammar_round_trip():
    for text, n in [
        ("s1 s2^-1 s1^3", 3),
        ("b(1,3)^-2 b(2,3)", 3),
        ("e", 1),
    ]:
        w = parse_word(text, strands=n)
        again = parse_word(format_word(w), strands=n, kind="bkl" if isinstance(w, BKLWord) else None)
        assert again == w


def test_grammar_errors_and_inference():
    with pytest.raises(WordError):
        parse_word("s1 b(1,2)")
    with pytest.raises(WordError):
        parse_word("s1^0")
    with pytest.raises(WordError):
        parse_word("nonsense")
    # A word past MAX_WORD_LETTERS unit letters is refused before it is expanded.
    for token in (f"s1^{2**62}", f"b(1,3)^-{2**62}", f"s2^{2**70}", "s1^1000001"):
        with pytest.raises(WordError, match=re.escape(token)):
            parse_word(f"s1 {token}", 3)
    with pytest.raises(WordError, match="longer than 1000000 letters"):
        parse_word("s1^999999 s2 s1", 3)
    # Digits are counted before int() sees them, which refuses thousands of
    # digits with its own ValueError; leading zeros do not count.
    for power in ("9" * 5000, "-" + "9" * 5000, "0" * 5000 + "12345678"):
        with pytest.raises(WordError, match="longer than 1000000 letters"):
            parse_word(f"s1^{power}")
    assert parse_word("s1^00000002").letters == ((1, 1), (1, 1))
    assert parse_word("s1^-" + "0" * 5000 + "2").letters == ((1, -1), (1, -1))
    assert parse_word("s2").strands == 3
    assert parse_word("b(1,4)").strands == 4
    assert parse_word("e").strands == 1
    assert isinstance(parse_word("e", kind="bkl"), BKLWord)
    # ``kind`` chooses only the empty word's type: letters keep theirs.
    assert parse_word("s1 s2", kind="bkl") == ArtinWord(3, [(1, 1), (2, 1)])
    assert parse_word("b(1,2)", kind="artin") == BKLWord(2, [(1, 2, 1)])


def test_generator_indices_and_strands_are_bounded():
    # An index or a strand count above MAX_WORD_LETTERS is refused before a
    # word on that many strands is built, and thousands of digits before
    # int() refuses them with its own ValueError; leading zeros do not count.
    for token in ("s" + "9" * 5000, "b(1," + "9" * 5000 + ")", "s99999999999", "s1000001",
                  "b(1,1000001)", "b(" + "9" * 5000 + ",1)^-1"):
        with pytest.raises(WordError, match="generator index above 1000000"):
            parse_word(f"e {token}")
    with pytest.raises(WordError, match="more than 1000000 strands"):
        parse_word("s1", strands=1000001)
    assert parse_word("s" + "0" * 5000 + "7").letters == ((7, 1),)
    assert parse_word("b(1,1000000)").strands == 1000000
    assert parse_word("s1", strands=1000000).strands == 1000000


def _numeral(draw, value: int) -> str:
    """``value``'s decimal digits with 0-3 leading zeros, in ASCII or, one time
    in 20, in other Nd digits (a token with those is malformed)."""
    text = "0" * draw(st.integers(0, 3)) + str(value)
    return text.translate(draw(st.sampled_from([{}] * 38 + [_ARABIC_INDIC, _FULLWIDTH])))


# Indices and runs past the bounds, zero exponents and non-ASCII digits are
# drawn rarely, so that many words parse and most examples stay small.
_INDICES = st.sampled_from([*range(13)] * 3 + [10**6, 10**6 + 1, 10**8])
_POWERS = st.sampled_from([*range(1, 5)] * 8 + [0, 999_999, 10**6, 10**6 + 1, 12_345_678])


@st.composite
def _tokens(draw, shapes):
    shape = draw(st.sampled_from(shapes))
    if shape == "e":
        return "e"
    if shape == "malformed":
        return draw(st.sampled_from(_MALFORMED))
    if shape == "artin":
        token = "s" + _numeral(draw, draw(_INDICES))
    else:
        r, s = draw(_INDICES), draw(_INDICES)
        if draw(st.booleans()):
            r, s = sorted((r, s))
        token = f"b({_numeral(draw, r)},{_numeral(draw, s)})"
    if draw(st.booleans()):
        token += "^" + draw(st.sampled_from(["", "-"])) + _numeral(draw, draw(_POWERS))
    return token


@st.composite
def _texts(draw):
    """Artin, band or mixed tokens, with some ``e`` and malformed ones, between
    runs of the separators tab, newline, \\x1c and space."""
    kinds = draw(st.sampled_from([["artin"], ["band"], ["artin", "band"]]))
    shapes = kinds * (12 // len(kinds)) + ["e", "malformed"]
    separators = st.text(alphabet="\t\n\x1c ", min_size=1, max_size=2)
    parts = [draw(st.sampled_from(["", " ", "\n"]))]
    for token in draw(st.lists(_tokens(shapes), max_size=8)):
        parts += [token, draw(separators)]
    return "".join(parts)


def _parsed_or_message(parse, text, strands, kind):
    try:
        return parse(text, strands, kind)
    except WordError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(_texts(), st.none() | st.integers(-1, 12), st.sampled_from([None, "artin", "bkl"]))
# The word passes 10^6 letters before a malformed token, after one, and
# before a token of the other kind, or reaches 10^6 exactly before a
# malformed one: the first error in word order wins.
@example("s1^1000000 s1 x", None, None)
@example("s1 x s1^1000000", None, None)
@example("s1^1000000 s2 b(1,2)", None, None)
@example("b(1,2)^999999 b(1,2)^-1 s1^+1 s1", 3, None)
def test_parse_word_matches_reference(text, strands, kind):
    want = _parsed_or_message(reference.parse_word, text, strands, kind)
    for _ in range(2):  # the second parse reads the tokens the first left in the memo
        got = _parsed_or_message(parse_word, text, strands, kind)
        if isinstance(want, str):
            assert got == want
            continue
        assert type(got) is type(want) and got.strands == want.strands and got.letters == want.letters
        assert len({id(x) for x in got.letters}) == len(set(got.letters))


def test_token_memo_keeps_no_failure():
    # A token that raises is read again each time and leaves nothing in the
    # memo; nor does a token longer than any without leading zeros.
    words._parse_token.cache_clear()
    for token in (*_MALFORMED, "s0^0", "s1^12345678", "b(1,1000001)", "s1" + "0" * 5000 + "x"):
        messages = {_parsed_or_message(parse_word, f"e {token}", None, None) for _ in range(2)}
        assert len(messages) == 1 and messages.pop().endswith(f"token {token!r}")
    long = "s" + "0" * words.MEMO_TOKEN_CHARS + "7"
    assert parse_word(long).letters == parse_word(long).letters == ((7, 1),)
    assert words._parse_token.cache_info().currsize == 0
    parse_word("s1 s1^2 s01")
    assert words._parse_token.cache_info().currsize == 3


def test_token_memo_is_bounded():
    words._parse_token.cache_clear()
    text = " ".join(f"s{i}" for i in range(1, 10**4 + 1))
    w = parse_word(text)
    assert len(w) == 10**4 and w.strands == 10**4 + 1
    assert words._parse_token.cache_info().currsize == words.TOKEN_MEMO_SIZE
    assert parse_word(text) == w  # every token missed again: the newest pushed out the oldest
    assert words._parse_token.cache_info().currsize == words.TOKEN_MEMO_SIZE


def test_words_share_one_tuple_per_letter_with_the_memo_warm():
    # Equal letters from different tokens ("s1", "s1^2", "s01") are one tuple
    # in each word, whether the tokens were read for it or read from the memo.
    texts = ("s1 s1^2 s01 s2^-1 s02^-2 s1^001", "b(1,3) b(01,3)^2 b(1,03) b(2,4)^-1 b(2,4)^-2",
             " ".join(format_word(random_artin_word(random.Random(k), 8, 40)) for k in range(20)))
    for warm in (False, True):
        if not warm:
            words._parse_token.cache_clear()
        for text in texts:
            w = parse_word(text)
            assert len({id(x) for x in w.letters}) == len(set(w.letters)), (warm, text[:20])


def test_digits_are_ascii_only():
    # Arabic-Indic zeros before an index or an exponent once read as part of
    # its value ("generator index 0 out of range", "word longer than ...").
    for text, strands in (("s٠٠٠٠٠٠٠٠7", 9), ("s1^٠٠٠٠٠٠٠2", None), ("b(１,２)", None)):
        with pytest.raises(WordError, match=re.escape(f"cannot parse token {text!r}")):
            parse_word(text, strands)


def test_long_malformed_tokens_are_refused_in_linear_time():
    # A pattern that matched leading zeros apart from the other digits,
    # 0*(\d+), backtracked cubically on the band token: 14 s at 1,000 zeros.
    zeros = "0" * 2000
    for token in ("s" + zeros + "x", "s1^-" + zeros + "x", "b(" + zeros + "," + zeros + "x"):
        start = time.perf_counter()
        with pytest.raises(WordError, match="cannot parse token"):
            parse_word(token)
        assert time.perf_counter() - start < 1, token[:8]


@st.composite
def _band_words(draw, max_strands=16, max_size=40):
    n = draw(st.integers(2, max_strands))
    band = st.integers(1, n - 1).flatmap(
        lambda r: st.tuples(st.just(r), st.integers(r + 1, n), st.sampled_from((1, -1)))
    )
    return BKLWord(n, draw(st.lists(band, max_size=max_size)))


@settings(max_examples=200, deadline=None)
@given(_band_words())
def test_bkl_to_artin_matches_reference(w):
    got = bkl_to_artin(w)
    assert type(got) is ArtinWord and got == reference.bkl_to_artin(w)
    assert len({id(x) for x in got.letters}) == len(set(got.letters))


@st.composite
def _words(draw):
    if draw(st.booleans()):
        return draw(_band_words(max_strands=8))
    n = draw(st.integers(2, 8))
    artin = st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1)))
    return ArtinWord(n, draw(st.lists(artin, max_size=40)))


def _round_trips(w):
    kind = "bkl" if isinstance(w, BKLWord) else None
    return parse_word(format_word(w), strands=w.strands, kind=kind) == w


@settings(max_examples=200, deadline=None)
@given(_words())
def test_format_word_round_trips(w):
    assert _round_trips(w)


def test_format_word_round_trips_long_words():
    rng = random.Random(23)
    n = 12
    artin = ArtinWord(n, [(rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(10**5)])
    pairs = [sorted(rng.sample(range(1, n + 1), 2)) for _ in range(10**5)]
    band = BKLWord(n, [(r, s, rng.choice((1, -1))) for r, s in pairs])
    for w in (artin, band):
        assert _round_trips(w)
