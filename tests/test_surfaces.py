import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from braidbands.surfaces import (
    BraidedSurface,
    deflate,
    euler_genus,
    flip_vertical,
    from_word,
    incidence_connected,
    inflate,
    mirror,
    render_svg,
    slide_down,
    slide_up,
    slip,
    to_word,
    turn,
    twirl,
    word_turn,
    word_twirl,
    MoveError,
)
from braidbands.words import MAX_WORD_LETTERS, braids_equal, closure_components, is_homogeneous, parse_word

import reference
from corpus import WORD_SURFACE_GOLDEN, random_bkl_word


def test_from_word_golden():
    s = from_word(WORD_SURFACE_GOLDEN)
    assert s.discs == 5
    z1 = s.bands[0]
    z6 = s.bands[5]
    assert (z1[0], z1[1], z1[2]) == (2, 5, -1)
    assert (z6[0], z6[1], z6[2]) == (1, 3, 1)
    assert to_word(s) == WORD_SURFACE_GOLDEN


def test_word_surface_bijection_random():
    rng = random.Random(2)
    for _ in range(1000):
        w = random_bkl_word(rng)
        assert to_word(from_word(w)) == w


def test_empty_word_surface():
    s = from_word(parse_word("e", strands=3, kind="bkl"))
    assert s.discs == 3 and s.band_count == 0


def test_turn_twirl_slide_examples():
    s = from_word(parse_word("b(1,3) b(1,2)^-1 b(1,3)^-1", strands=3))
    assert to_word(turn(s)) == parse_word("b(1,3)^-1 b(1,3) b(1,2)^-1", strands=3)
    s2 = from_word(parse_word("b(1,3) b(1,2)", strands=3))
    assert to_word(twirl(s2)) == parse_word("b(2,3) b(1,3)", strands=3)
    s3 = from_word(parse_word("b(2,3) b(1,2)", strands=3))
    assert to_word(slide_up(s3, 0)) == parse_word("b(1,3) b(2,3)", strands=3)


def test_counted_twirl_and_turn_match_single_moves():
    # k moves at once equal k single moves, for every k up to twice the
    # disc count or the band count, on empty and one-disc surfaces too.  A
    # word rotated by a whole number of turns round is the word itself.
    rng = random.Random(17)
    surfaces = [BraidedSurface(1), BraidedSurface(4)]
    surfaces += [from_word(random_bkl_word(rng, max_strands=7, max_len=10)) for _ in range(300)]
    for s in surfaces:
        twirled = turned = s
        w = to_word(s)
        for k in range(2 * max(s.discs, s.band_count) + 1):
            assert twirl(s, k) == twirled and turn(s, k) == turned
            assert word_twirl(w, k) == to_word(twirled)
            assert word_turn(w, k) == to_word(turned)
            assert (word_twirl(w, k) is w) == (k % s.discs == 0)
            assert (word_turn(w, k) is w) == (not s.bands or k % s.band_count == 0)
            twirled, turned = reference.twirl_once(twirled), reference.turn_once(turned)
        assert twirl(s) == reference.twirl_once(s) and turn(s) == reference.turn_once(s)


def test_inflate_deflate():
    s = from_word(parse_word("b(1,3) b(1,2)", strands=3))
    s2 = inflate(s, 1, 1, height=1)
    assert s2.discs == 4 and s2.band_count == 3
    assert to_word(s2) == parse_word("b(1,4) b(1,2) b(1,3)", strands=4)
    assert deflate(s2, 1) == s
    with pytest.raises(MoveError):
        deflate(s2, 0)  # not an adjacent pair
    s3 = inflate(s, 3, -1, height=0)
    assert to_word(s3) == parse_word("b(3,4)^-1 b(1,3) b(1,2)", strands=4)
    with pytest.raises(MoveError):
        inflate(s, 5, 1)


def test_slip_preconditions():
    s = from_word(parse_word("b(1,2) b(3,4)", strands=4))
    assert to_word(slip(s, 0)) == parse_word("b(3,4) b(1,2)", strands=4)
    linked = from_word(parse_word("b(1,3) b(2,4)", strands=4))
    with pytest.raises(MoveError):
        slip(linked, 0)
    shared = from_word(parse_word("b(1,2) b(2,3)", strands=3))
    with pytest.raises(MoveError):
        slip(shared, 0)


def test_slides_preserve_braid_and_invert():
    rng = random.Random(14)
    checked = 0
    while checked < 300:
        s = from_word(random_bkl_word(rng, max_strands=5, max_len=6))
        w = to_word(s)
        for pos in range(s.band_count - 1):
            for fwd, back in ((slide_up, slide_down), (slide_down, slide_up)):
                try:
                    s2 = fwd(s, pos)
                except MoveError:
                    continue
                assert braids_equal(to_word(s2), w)
                assert back(s2, pos) == s
                checked += 1


def test_slide_down_matches_its_own_patterns():
    # slide_down is slide_up conjugated by inversion; on every ordered pair
    # of band letters on up to 7 strands it gives the hand-written slide
    # down's pair, or refuses where that matches no pattern.
    for n in range(2, 8):
        letters = [(l, r, e) for l in range(1, n) for r in range(l + 1, n + 1) for e in (1, -1)]
        defined = 0
        for upper in letters:
            for lower in letters:
                expected = reference.slide_down_pair(upper, lower)
                s = BraidedSurface(n, (upper, lower))
                if expected is None:
                    with pytest.raises(MoveError, match="pair matches no slide pattern"):
                        slide_down(s, 0)
                else:
                    assert slide_down(s, 0).bands == expected, (upper, lower)
                    defined += 1
    assert defined == 280  # at n = 7


def test_flip_vertical_involution_and_reverse():
    rng = random.Random(15)
    for _ in range(100):
        s = from_word(random_bkl_word(rng))
        f = flip_vertical(s)
        assert to_word(f).letters == tuple(reversed(to_word(s).letters))
        assert flip_vertical(f) == s


def test_mirror_shape():
    s = from_word(parse_word("b(1,3) b(2,4)^-1", strands=4))
    assert to_word(mirror(s)) == parse_word("b(2,4)^-1 b(1,3)", strands=4)
    assert mirror(mirror(s)) == s


def test_moves_preserve_homogeneity():
    # Every kind except the slides; a slide can merge a fresh generator with
    # an existing opposite-sign occurrence elsewhere in the word.
    rng = random.Random(16)
    for _ in range(200):
        w = random_bkl_word(rng, homogeneous=True)
        s = from_word(w)
        assert is_homogeneous(to_word(turn(s)))
        assert is_homogeneous(to_word(twirl(s)))
        assert is_homogeneous(to_word(flip_vertical(s)))
        assert is_homogeneous(to_word(mirror(s)))
        strand = rng.randint(1, s.discs)
        assert is_homogeneous(
            to_word(inflate(s, strand, rng.choice((1, -1)), rng.randint(0, s.band_count)))
        )
        for pos in range(s.band_count - 1):
            try:
                s2 = slip(s, pos)
            except MoveError:
                continue
            assert is_homogeneous(to_word(s2))


def test_slide_can_break_homogeneity():
    w = parse_word("b(2,3) b(1,2) b(1,3)^-1", strands=3)
    assert is_homogeneous(w)
    s2 = slide_up(from_word(w), 0)
    assert not is_homogeneous(to_word(s2))


def test_euler_genus():
    assert euler_genus(from_word(parse_word("b(1,2)^3", strands=2))) == (-1, 1, 1)
    assert euler_genus(from_word(parse_word("e", strands=1, kind="bkl"))) == (1, 1, 0)
    assert euler_genus(from_word(parse_word("b(1,2)", strands=2))) == (1, 1, 0)
    disconnected = from_word(parse_word("b(1,2)", strands=3))
    assert not incidence_connected(disconnected)
    with pytest.raises(ValueError):
        euler_genus(disconnected)


def test_svg_smoke():
    svg = render_svg(from_word(parse_word("b(1,3) b(1,2)^-1", strands=3)))
    assert svg.startswith("<svg") and "path" in svg


def test_json_round_trip():
    s = from_word(parse_word("b(1,3) b(1,2)^-1", strands=3))
    assert BraidedSurface.from_json(s.to_json()) == s


def test_from_json_bounds_the_disc_count():
    # More discs than a word has letters would make the genus, the star
    # reduction and the SVG build a list or a shape per disc.
    text = json.dumps({"discs": MAX_WORD_LETTERS, "bands": []})
    assert BraidedSurface.from_json(text).discs == MAX_WORD_LETTERS
    for discs in (MAX_WORD_LETTERS + 1, 10**18):
        with pytest.raises(MoveError, match=f"more than {MAX_WORD_LETTERS} discs"):
            BraidedSurface.from_json(json.dumps({"discs": discs, "bands": []}))


# Integers in and out of range, and the JSON values that are no integer.
_SURFACE_VALUES = st.sampled_from([*range(-1, 7)] * 4 + [0, 10**6, 10**6 + 1, 10**18,
                                                         True, False, 2.0, "2", None, [1]])


@st.composite
def _surface_objects(draw):
    """Surface JSON, mostly well formed: a key can be missing and any value
    can be of the wrong type or out of range."""
    if draw(st.integers(0, 19)) == 0:
        return draw(st.sampled_from([[], 3, "surface", None, [{"discs": 1}]]))
    data = {}
    if draw(st.integers(0, 9)):
        data["discs"] = draw(st.sampled_from([*range(1, 7)] * 6)) if draw(st.booleans()) else draw(_SURFACE_VALUES)
    if draw(st.integers(0, 9)) == 0:
        data["bands"] = draw(st.sampled_from([5, "ab", {"l": 1}, None]))
    elif draw(st.integers(0, 9)):
        bands = []
        for _ in range(draw(st.integers(0, 5))):
            if draw(st.integers(0, 19)) == 0:
                bands.append(draw(st.sampled_from([[1, 2, 1], 3, "x", None])))
                continue
            band = {}
            for key in "lre":
                if draw(st.integers(0, 29)):
                    band[key] = draw(st.integers(1, 6)) if draw(st.booleans()) else draw(_SURFACE_VALUES)
            bands.append(band)
        data["bands"] = bands
    return data


def _read_or_error(read, text):
    try:
        return read(text)
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(_surface_objects().map(json.dumps))
@example('{"discs": true, "bands": []}')
@example('{"discs": 3, "bands": [{"l": 1, "r": 2.0, "e": 1}]}')
@example('{"discs": 3, "bands": [{"l": 1, "r": 2, "e": false}]}')
@example('{"discs": 3, "bands": [{"l": 2, "r": 5, "e": 1}, {"l": 1, "r": "2", "e": 1}]}')  # non-integer after out of range
@example('{"discs": 3, "bands": [{"l": 1, "r": 2, "e": 2}, {"l": 2, "r": 5, "e": 1}]}')
@example('{"discs": 1000001, "bands": [{"l": 1, "r": 2, "e": 1}]}')
@example('{"discs": 1000001, "bands": [{"l": 1, "r": 2, "e": 1.5}]}')
@example('{"discs": 1000001, "bands": [{"l": 3, "r": 2, "e": 1}]}')
@example('{"discs": 0, "bands": [{"l": 1, "r": 2, "e": 1}]}')
@example('{"discs": -3, "bands": []}')
@example('{"bands": [{"l": 1, "r": 2, "e": 1}]}')
@example('{"discs": 3, "bands": [{"l": 1, "e": 1}]}')
@example('{"discs": 3, "bands": [{"l": 1, "r": 2.5, "e": 1}, {"l": 1, "r": 2}]}')
@example('[{"discs": 3}]')
@example('{"discs": 4, "bands": [{"l": 1, "r": 3, "e": 1}, {"l": 2, "r": 4, "e": -1}]}')
def test_from_json_matches_reference(text):
    # The one-pass reader builds the surface from the values it checked; the
    # reference type-checks them all before its constructor coerces them.
    want = _read_or_error(reference.surface_from_json, text)
    got = _read_or_error(BraidedSurface.from_json, text)
    assert got == want
    if isinstance(want, BraidedSurface):
        assert type(got) is BraidedSurface and type(got.bands) is tuple
        assert all(type(x) is int for band in got.bands for x in band)
