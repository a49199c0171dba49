import copy
import hashlib
import json
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from braidbands import stars
from braidbands.invariants import alexander_from_braid
from braidbands.stars import (
    Ray,
    Star,
    StarError,
    check_star,
    delta_b,
    minimize,
    reduce_step,
    reduce_to_disc,
    reductions,
)
from braidbands.surfaces import BraidedSurface, from_word, to_word
from braidbands.words import closure_components, is_homogeneous, parse_word

import reference
from corpus import random_homogeneous_surface, random_star, valid_star_instances, wide_span_star
from reference import (
    check_state_by_chords,
    chords_by_disc,
    classify_ray,
    landing_slots,
    minimize_state_by_restarts,
    mirror_state,
    normalize_by_single_moves,
    order_on_disc_scan,
    reduce_state_by_whole_passes,
    reductions_by_freezing,
    relabel_discs,
    remove_slack_by_restarts,
    reverse_discs,
    transfer_region,
    twirl_state,
    twirl_state_once,
    upside_down_state,
)

# sha256 of every check_star verdict, minimize result, reductions step and
# StarError message on the stars of ``_pinned_star_lines``.
PINNED_STARS_SHA256 = "005b79dc64fd216b46fcc32d30b6443b75cc11df5c150399c3006beb7de96bf6"

GOLDEN_SURFACE = from_word(parse_word("b(1,2) b(1,3) b(1,2)", strands=3))
GOLDEN_STAR = Star(3, [Ray(((1, "R", "L"),), 1, 3)])


def test_star_json_round_trip():
    text = GOLDEN_STAR.to_json()
    assert Star.from_json(text) == GOLDEN_STAR


# Integers in and out of range, and the JSON values that are no integer.
_STAR_VALUES = st.sampled_from([*range(-1, 5)] * 4 + [10**6, True, False, 1.0, "1", None, []])
_STAR_ENDS = st.sampled_from(["L", "R"] * 10 + ["X", "l", 1, None, ["L"]])


@st.composite
def _star_objects(draw):
    """Star JSON, mostly well formed: a key can be missing, a step the wrong
    length and any value of the wrong type."""
    if draw(st.integers(0, 19)) == 0:
        return draw(st.sampled_from([[], 3, "star", None, [{"center": 1}]]))

    def whole():
        return draw(st.integers(0, 4)) if draw(st.booleans()) else draw(_STAR_VALUES)

    data = {}
    if draw(st.integers(0, 9)):
        data["center"] = whole()
    if draw(st.integers(0, 14)) == 0:
        data["rays"] = draw(st.sampled_from([5, "ab", {"tip": 1}, None]))
    elif draw(st.integers(0, 9)):
        rays = []
        for _ in range(draw(st.integers(0, 3))):
            if draw(st.integers(0, 19)) == 0:
                rays.append(draw(st.sampled_from([[1, 2], 3, "ray", None])))
                continue
            ray = {}
            if draw(st.integers(0, 14)) == 0:
                ray["steps"] = draw(st.sampled_from([4, "LR", None, {"a": 1}]))
            elif draw(st.integers(0, 9)):
                steps = []
                for _ in range(draw(st.integers(0, 4))):
                    if draw(st.integers(0, 19)) == 0:
                        steps.append(draw(st.sampled_from([[1, "L"], [1, "L", "R", "R"], 7, "abc", None])))
                    else:
                        steps.append([whole(), draw(_STAR_ENDS), draw(_STAR_ENDS)])
                ray["steps"] = steps
            if draw(st.integers(0, 14)) == 0:
                ray["tip"] = draw(st.sampled_from([[1, 0], "tip", 2, None]))
            elif draw(st.integers(0, 14)):
                ray["tip"] = {key: whole() for key in ("disc", "gap") if draw(st.integers(0, 14))}
            rays.append(ray)
        data["rays"] = rays
    return data


def _read_or_error(read, text):
    try:
        return read(text)
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(_star_objects().map(json.dumps))
@example('{"center": true, "rays": []}')
@example('{"center": 1.0, "rays": []}')
@example('{"center": 1, "rays": [{"steps": [[false, "L", "R"]], "tip": {"disc": 1, "gap": 0}}]}')
@example('{"center": 1, "rays": [{"steps": [[0, "L", "X"]], "tip": {"disc": 1, "gap": 0}}]}')  # bad step end
@example('{"center": 1, "rays": [{"steps": [[0, "L", "X"]], "tip": {"disc": 1.5, "gap": 0}}]}')
@example('{"center": 1, "rays": [{"steps": [[0, "L", "X"], [1, "R"]], "tip": {"disc": 1, "gap": 0}}]}')
@example('{"center": 1, "rays": [{"steps": [["0", "L", "R"], [1, "R"]], "tip": {"disc": 1, "gap": 0}}]}')
@example('{"center": 1, "rays": [{"steps": [[0, "L", "X"]], "tip": {"disc": 1, "gap": 0}},'
         ' {"steps": [[null, "L", "R"]], "tip": {"disc": 1, "gap": 0}}]}')
@example('{"center": 1, "rays": [{"steps": [], "tip": {"gap": 0}}]}')
@example('{"center": 1, "rays": [{"steps": []}]}')
@example('{"rays": [{"steps": [[0, "X", "L"]], "tip": {"disc": 1, "gap": 0}}]}')
@example('{"center": 1, "rays": ["ray"]}')
@example('[{"center": 1}]')
@example('{"center": 3, "rays": [{"steps": [[1, "R", "L"]], "tip": {"disc": 1, "gap": 3}}]}')
def test_star_from_json_matches_reference(text):
    # One loop per ray checks its steps' shape and bands; the reference calls
    # a function per integer.  The same star, or the same first error.
    want = _read_or_error(reference.star_from_json, text)
    got = _read_or_error(Star.from_json, text)
    assert got == want
    if isinstance(want, Star):
        assert type(got.rays) is tuple and all(type(ray.steps) is tuple for ray in got.rays)
        assert [ray.steps for ray in got.rays] == [ray.steps for ray in want.rays]


def test_check_star_rejects_bad_rays():
    with pytest.raises(StarError):
        # step chain hops discs without a band
        check_star(GOLDEN_SURFACE, Star(3, [Ray(((0, "L", "R"),), 1, 0)]))
    with pytest.raises(StarError):
        check_star(GOLDEN_SURFACE, Star(3, [Ray((), 1, 9)]))
    with pytest.raises(StarError):
        check_star(GOLDEN_SURFACE, Star(9, []))
    for ends in (("X", "R"), ("L", "l")):
        with pytest.raises(StarError, match="step ends must be 'L' or 'R'"):
            Ray(((0, *ends),), 1, 0)


@pytest.mark.parametrize("center", [0, 3, 99, -1])
def test_every_entry_point_checks_the_center(center):
    s = from_word(parse_word("b(1,2) b(1,2)", strands=2))
    star = Star(center, [Ray(((0, "L", "R"),), 2, 0)])
    for entry in (check_star, minimize, reduce_step, reduce_to_disc,
                  lambda s, star: next(reductions(s, star))):
        with pytest.raises(StarError, match="^center disc out of range$"):
            entry(s, star)


def test_delta_b_counts():
    assert delta_b(GOLDEN_STAR) == 1
    star = Star(1, [Ray((), 1, 0), Ray(((0, "L", "R"),), 2, 0),
                    Ray(((0, "L", "R"), (1, "R", "L")), 1, 0)])
    assert delta_b(star) == 3
    assert delta_b(star.rays[0]) == 0
    assert delta_b(star.rays[2]) == 2


def test_classification_golden():
    cls = classify_ray(GOLDEN_SURFACE, GOLDEN_STAR, 0)
    assert cls.long and not cls.slack and not cls.loose


def test_slack_detection():
    s = from_word(parse_word("b(1,2) b(1,2)", strands=2))
    u_turn = Star(1, [Ray(((0, "L", "L"),), 1, 0)])
    cls = classify_ray(s, u_turn, 0)
    assert cls.slack
    assert delta_b(minimize(s, u_turn)) == 0


def test_loose_detection_and_minimize():
    s = from_word(parse_word("b(1,2) b(1,2)", strands=2))
    star = Star(1, [Ray(((1, "L", "R"),), 2, 2)])
    check_star(s, star)
    cls = classify_ray(s, star, 0)
    assert cls.long and cls.loose
    reduced = minimize(s, star)
    assert delta_b(reduced) == 0
    # minimize is a fixpoint on the golden minimal star
    assert minimize(GOLDEN_SURFACE, GOLDEN_STAR) == GOLDEN_STAR


def test_reduce_step_golden_trace():
    s2, star2 = reduce_step(GOLDEN_SURFACE, GOLDEN_STAR)
    w2 = to_word(s2)
    assert w2 == parse_word("b(1,3) b(2,4) b(3,4) b(1,2)", strands=4)
    assert star2 == Star(4, [Ray((), 4, 1)])
    assert s2.discs == GOLDEN_SURFACE.discs + 1
    assert s2.band_count == GOLDEN_SURFACE.band_count + 1
    assert delta_b(star2) == 0
    assert is_homogeneous(w2)
    w1 = to_word(GOLDEN_SURFACE)
    assert alexander_from_braid(w2) == alexander_from_braid(w1)
    assert closure_components(w2) == closure_components(w1)


def test_reduce_step_preconditions():
    with pytest.raises(StarError):
        reduce_step(GOLDEN_SURFACE, Star(3, [Ray((), 3, 0)]))  # delta_b == 0
    loose_surface = from_word(parse_word("b(1,2) b(1,2)", strands=2))
    loose_star = Star(1, [Ray(((1, "L", "R"),), 2, 2)])
    with pytest.raises(StarError):
        reduce_step(loose_surface, loose_star)  # not minimal
    inhom = from_word(parse_word("b(1,2) b(1,2)^-1", strands=2))
    with pytest.raises(StarError):
        reduce_step(inhom, Star(1, [Ray(((0, "L", "R"),), 2, 0)]))


def test_reduce_to_disc_golden():
    s2, star2 = reduce_to_disc(GOLDEN_SURFACE, GOLDEN_STAR)
    assert delta_b(star2) == 0
    assert s2.discs == 4 and s2.band_count == 4
    # already-in-disc star is untouched
    s3, star3 = reduce_to_disc(GOLDEN_SURFACE, Star(2, [Ray((), 2, 0)]))
    assert s3 == GOLDEN_SURFACE and delta_b(star3) == 0


def test_reduce_to_disc_random_contracts():
    completed = 0
    refused = 0
    for s, star in valid_star_instances(seed=20250809, count=150):
        w0 = to_word(s)
        a0 = alexander_from_braid(w0)
        c0 = closure_components(w0)
        try:
            budget = delta_b(minimize(s, star))
            s2, star2 = reduce_to_disc(s, star)
        except StarError:
            refused += 1
            continue
        w2 = to_word(s2)
        assert delta_b(star2) == 0
        assert is_homogeneous(w2) == is_homogeneous(w0)
        assert alexander_from_braid(w2) == a0
        assert closure_components(w2) == c0
        assert s2.discs - s.discs == s2.band_count - s.band_count <= budget
        completed += 1
    assert completed >= 120
    assert refused <= 10


def test_reduce_step_contract_per_step():
    stepped = 0
    for s, star in valid_star_instances(seed=777, count=140):
        try:
            star_m = minimize(s, star)
            if delta_b(star_m) == 0:
                continue
            before = delta_b(star_m)
            w0 = to_word(s)
            s2, star2 = reduce_step(s, star_m)
        except StarError:
            continue
        assert delta_b(star2) < before
        assert s2.discs == s.discs + 1
        assert s2.band_count == s.band_count + 1
        assert is_homogeneous(to_word(s2)) == is_homogeneous(w0)
        assert alexander_from_braid(to_word(s2)) == alexander_from_braid(w0)
        assert closure_components(to_word(s2)) == closure_components(w0)
        stepped += 1
    assert stepped >= 35


def test_known_hard_shape_fails_loud():
    # A ray weaving twice through one band with another parallel ray: the
    # slot-level model refuses rather than guessing an embedding.
    s = BraidedSurface(2, ((1, 2, -1), (1, 2, -1), (1, 2, -1), (1, 2, -1)))
    star = Star(
        1,
        (
            Ray(((2, "L", "R"), (3, "R", "L"), (2, "L", "R")), 2, 1),
            Ray(((1, "L", "R"), (2, "R", "L"), (2, "L", "R")), 2, 0),
        ),
    )
    check_star(s, star)
    with pytest.raises(StarError):
        reduce_to_disc(s, star)


def _pinned_star_lines(seed: int, valid: int):
    """One line per fact about seeded stars of up to 6 rays of up to 8 steps
    on surfaces of up to 10 discs and 30 bands, until ``valid`` stars pass
    ``check_star``."""
    rng = random.Random(seed)
    passed = 0
    while passed < valid:
        s = random_homogeneous_surface(rng, max_n=10, max_b=30)
        star = random_star(rng, s, max_rays=6, max_steps=8)
        yield f"draw {s.to_json()} {star.to_json()}"
        try:
            check_star(s, star)
        except StarError as exc:
            yield f"invalid {exc}"
            continue
        passed += 1
        try:
            yield f"minimize {minimize(s, star).to_json()}"
            for s2, star2 in reductions(s, star):
                yield f"step {s2.to_json()} {star2.to_json()}"
        except StarError as exc:
            yield f"refused {exc}"


def test_star_reductions_pinned():
    digest = hashlib.sha256()
    for line in _pinned_star_lines(seed=20261018, valid=1000):
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == PINNED_STARS_SHA256


REFUSED_STARS = Path(__file__).parent / "data" / "refused_stars.json"


def test_refused_stars_keep_their_messages():
    # The check_star-valid stars that minimize or reduce_to_disc refused while
    # the star_reduce benchmark drew its corpora at seeds 1-3.  A fix that
    # reduces some of them shows up as an edit of this file.
    cases = json.loads(REFUSED_STARS.read_text())
    assert len(cases) == 259
    for case in cases:
        s = BraidedSurface.from_json(json.dumps(case["surface"]))
        star = Star.from_json(json.dumps(case["star"]))
        check_star(s, star)
        if case["refused_by"] == "reduce_to_disc":
            minimize(s, star)
            refuse = reduce_to_disc
        else:
            refuse = minimize
        with pytest.raises(StarError) as info:
            refuse(s, star)
        assert str(info.value) == case["message"]


@st.composite
def crowded_stars(draw):
    """A homogeneous surface and a star whose rays, ending on one disc, mostly
    share a gap there, so that several tips split one gap."""
    n = draw(st.integers(2, 5))
    signs: dict = {}
    bands = []
    for _ in range(draw(st.integers(1, 10))):
        l = draw(st.integers(1, n - 1))
        r = draw(st.integers(l + 1, n))
        bands.append((l, r, signs.setdefault((l, r), draw(st.sampled_from((1, -1))))))
    center = draw(st.integers(1, n))
    shared: dict = {}
    rays = []
    for _ in range(draw(st.integers(2, 6))):
        disc, steps = center, []
        for _ in range(draw(st.integers(0, 4))):
            attached = [
                (k, "L" if l == disc else "R") for k, (l, r, _e) in enumerate(bands) if disc in (l, r)
            ]
            if not attached:
                break
            k, end = draw(st.sampled_from(attached))
            exit_ = "R" if end == "L" else "L"
            steps.append((k, end, exit_))
            disc = bands[k][1] if exit_ == "R" else bands[k][0]
        regions = sum(1 for l, r, _e in bands if disc in (l, r))
        gap = shared.setdefault(disc, draw(st.integers(0, regions)))
        if draw(st.integers(0, 3)) == 0:
            gap = draw(st.integers(0, regions))
        rays.append(Ray(tuple(steps), disc, gap))
    return BraidedSurface(n, bands), Star(center, rays)


def _outcome(pairs) -> list:
    out = []
    try:
        for s, star in pairs:
            out.append((s, star))
    except StarError as exc:
        out.append(str(exc))
    return out


# After its first step this star has two tips in one gap out of ray order;
# the live state must re-spread them before minimizing, or it refuses with
# "no innermost ray found" where the frozen round trip reduces the star.
_TIPS_OUT_OF_RAY_ORDER = (
    BraidedSurface(3, ((1, 2, 1), (1, 2, 1), (1, 3, 1), (2, 3, 1), (1, 3, 1), (2, 3, 1), (1, 3, 1))),
    Star(2, (
        Ray((), 2, 0),
        Ray((), 2, 0),
        Ray(((3, "L", "R"), (6, "R", "L")), 1, 0),
        Ray(((5, "L", "R"), (3, "R", "L")), 2, 0),
    )),
)


@settings(max_examples=300, deadline=None)
@given(crowded_stars())
@example(_TIPS_OUT_OF_RAY_ORDER)
def test_live_reductions_match_the_frozen_round_trip(case):
    s, star = case
    assert _outcome(reductions(s, star)) == _outcome(reductions_by_freezing(s, star))


def _heights(state) -> tuple:
    bands = {bid: band.h for bid, band in state.bands.items()}
    return state.scale, bands, [ray.tip_h for ray in state.rays]


def test_skipped_respreads_would_change_no_height(monkeypatch):
    # A step that starts without a re-spread must see the heights one would
    # give: re-spreading a copy changes no height and no scale.
    renormalize, minimize_state, reduce_state = (
        stars._renormalize, stars._minimize_state, stars._reduce_state)
    respread = [False]  # whether the last call before a step was a re-spread
    steps = {"respread": 0, "skipped": 0}

    def renormalized(state):
        renormalize(state)
        respread[0] = True

    def minimized(state):
        respread[0] = False
        return minimize_state(state)

    def checked(state):
        if not respread[0]:
            spread = copy.deepcopy(state)
            renormalize(spread)
            assert _heights(spread) == _heights(state)
        steps["respread" if respread[0] else "skipped"] += 1
        respread[0] = False
        return reduce_state(state)

    monkeypatch.setattr(stars, "_renormalize", renormalized)
    monkeypatch.setattr(stars, "_minimize_state", minimized)
    monkeypatch.setattr(stars, "_reduce_state", checked)
    for _line in _pinned_star_lines(seed=20261018, valid=1000):
        pass
    assert steps["skipped"] >= 1000 and steps["respread"] >= 300


def _ends(pairs, d: int) -> list:
    """``(height, band id, side)`` of a disc's ``(band, id)`` pairs, the side
    read off the band as the library reads it."""
    return [(band.h, bid, "L" if band.l == d else "R") for band, bid in pairs]


def _assert_order_matches_scan(state) -> None:
    # Keys are discs 1..n with a band end; an absent disc has no bands.
    assert all(1 <= d <= state.discs and ends for d, ends in state.order.items())
    for d in range(1, state.discs + 1):
        ends = state.order.get(d, [])
        stored = _ends(ends, d)
        assert stored == _ends(order_on_disc_scan(state, d), d)
        assert all(band is state.bands[bid] for band, bid in ends)
        assert all(state.bands[bid].end_disc(side) == d for _h, bid, side in stored)


def test_stored_disc_order_follows_every_mutation(monkeypatch):
    # Inside a step, check the order after the fresh band's insertion, the
    # carry of step 3 and the slides of steps 4 and 6 too: the carry and
    # every slide follow the insertion.
    def order_checked(move):
        def wrapped(state, *args):
            _assert_order_matches_scan(state)
            out = move(state, *args)
            _assert_order_matches_scan(state)
            return out
        return wrapped

    monkeypatch.setattr(stars, "_slide_end", order_checked(stars._slide_end))
    monkeypatch.setattr(stars, "_carry_span", order_checked(stars._carry_span))
    checked = 0
    for s, star in valid_star_instances(seed=4242, count=80):
        state = stars._materialize(s, star)
        _assert_order_matches_scan(state)
        for mutate in (lambda state: twirl_state(state, 1), upside_down_state, mirror_state):
            mutate(state)
            _assert_order_matches_scan(state)
        # Two twirls as one, and a relabelling that reverses every band.
        n = state.discs
        for mutate, one_by_one in (
            (lambda state: twirl_state(state, 2),
             lambda state: [twirl_state_once(state) for _ in range(2)]),
            (lambda state: stars._relabel_discs(state, lambda d: n + 1 - d), reverse_discs),
        ):
            expected = copy.deepcopy(state)
            one_by_one(expected)
            mutate(state)
            _assert_order_matches_scan(state)
            assert stars._freeze(state) == stars._freeze(expected)
            assert state.order == expected.order
        state.discs += 1
        stars._relabel_discs(state, lambda d: d if d < 2 else d + 1)  # an inflation at disc 1
        _assert_order_matches_scan(state)
        try:
            for live in stars._reduce_states(stars._materialize(s, star)):
                _assert_order_matches_scan(live)  # holds the bands each step inserted
                checked += live.next_id > len(s.bands)
        except StarError:
            pass
    assert checked >= 20


def test_counted_twirl_state_matches_single_twirls():
    # Frozen, k twirls at once equal k single twirls, for k up to 2n.
    for s, star in valid_star_instances(seed=77, count=60):
        for k in range(2 * s.discs + 1):
            state, expected = stars._materialize(s, star), stars._materialize(s, star)
            twirl_state(state, k)
            for _ in range(k):
                twirl_state_once(expected)
            _assert_order_matches_scan(state)
            assert stars._freeze(state) == stars._freeze(expected)
            assert state.order == expected.order


def test_reduce_to_disc_materializes_and_freezes_once(monkeypatch):
    calls = {"_materialize": 0, "_freeze": 0}
    for name in calls:
        def counted(*args, _name=name, _f=getattr(stars, name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(stars, name, counted)
    s2, star2 = reduce_to_disc(GOLDEN_SURFACE, GOLDEN_STAR)
    assert delta_b(star2) == 0 and s2.discs == GOLDEN_SURFACE.discs + 1
    assert calls == {"_materialize": 1, "_freeze": 1}


def _check_outcome(check, state):
    try:
        check(state)
    except StarError as exc:
        return str(exc)
    return None


@pytest.fixture
def compared_checks(monkeypatch):
    """``_check_state`` replaced by itself asserting that it agrees with the
    chord check; counts the states that passed and that raised."""
    check_state = stars._check_state
    outcomes = {"passed": 0, "raised": 0}

    def compared(state):
        expected = _check_outcome(check_state_by_chords, state)
        assert _check_outcome(check_state, state) == expected
        outcomes["raised" if expected else "passed"] += 1
        if expected:
            raise StarError(expected)

    monkeypatch.setattr(stars, "_check_state", compared)
    return outcomes


@settings(max_examples=300, deadline=None)
@given(crowded_stars())
def test_check_state_matches_the_chord_check_on_crowded_stars(case):
    s, star = case
    state = stars._materialize(s, star)
    assert _check_outcome(stars._check_state, state) == _check_outcome(check_state_by_chords, state)


def test_check_state_matches_the_chord_check_on_refused_stars(compared_checks):
    # Every state their refusals check: the stars and each landing candidate.
    for case in json.loads(REFUSED_STARS.read_text()):
        s = BraidedSurface.from_json(json.dumps(case["surface"]))
        star = Star.from_json(json.dumps(case["star"]))
        check_star(s, star)
        with pytest.raises(StarError):
            reduce_to_disc(s, star)
    assert compared_checks["passed"] >= 259 and compared_checks["raised"] >= 259


def test_check_state_matches_the_chord_check_through_every_reduction(compared_checks):
    # Every state checked while the pinned corpus is drawn, minimized and
    # reduced: the draws, each landing candidate and each finished step.
    for _line in _pinned_star_lines(seed=20261018, valid=1000):
        pass
    assert compared_checks["passed"] >= 5000 and compared_checks["raised"] >= 1000


def test_the_mirror_relabelling_keeps_every_chord(monkeypatch):
    # No embeddedness check follows a mirrored step: step 7's landing check
    # saw the same chords that the finished step has, each on the disc the
    # mirror renames it to.
    normalize, relabel, reduce_state = stars._normalize, stars._relabel_discs, stars._reduce_state
    mirror = {"next": False, "expected": None, "seen": 0}

    def noting_the_mirror(state, ray):
        x0, mirror["next"] = normalize(state, ray)
        return x0, mirror["next"]

    def renaming_the_chords(state, f):
        if mirror["next"]:  # the relabelling after a mirrored step 0
            mirror["next"] = False
            assert all(f(d) == state.discs + 1 - d for d in state.order)
            mirror["expected"] = {f(d): chords for d, chords in chords_by_disc(state).items()}
        relabel(state, f)

    def compared(state):
        mirror["next"], mirror["expected"] = False, None
        reduce_state(state)
        if mirror["expected"] is not None:
            # A ray left hopping between discs is an assertion, not a refusal.
            assert _check_outcome(chords_by_disc, state) is None
            assert chords_by_disc(state) == mirror["expected"]
            mirror["seen"] += 1

    monkeypatch.setattr(stars, "_normalize", noting_the_mirror)
    monkeypatch.setattr(stars, "_relabel_discs", renaming_the_chords)
    monkeypatch.setattr(stars, "_reduce_state", compared)
    for _line in _pinned_star_lines(seed=20261018, valid=1000):
        pass
    assert mirror["seen"] >= 700


def test_landing_scan_matches_the_reference(monkeypatch):
    # Every landing scan made while the pinned corpus is drawn, minimized and
    # reduced, and while the refused corpus is refused, matches the scan with
    # its two sides written out.
    scan = stars._landing_slots
    calls = {True: 0, False: 0}

    def compared(state, disc, h, above):
        out = scan(state, disc, h, above)
        assert out == landing_slots(state, disc, h, above)
        calls[above] += 1
        return out

    monkeypatch.setattr(stars, "_landing_slots", compared)
    for _line in _pinned_star_lines(seed=20261018, valid=1000):
        pass
    for case in json.loads(REFUSED_STARS.read_text()):
        s = BraidedSurface.from_json(json.dumps(case["surface"]))
        star = Star.from_json(json.dumps(case["star"]))
        with pytest.raises(StarError):
            reduce_to_disc(s, star)
    assert calls[True] >= 2500 and calls[False] >= 2500


# Two slack steps that enter and leave band 0 by one end, (0, "R", "R") and
# (0, "L", "L"): a relabelling that swaps the band's ends must flip each to
# the other end, which swapping enter and exit ends would not.
_SAME_END_STEP = (
    BraidedSurface(3, ((1, 2, 1), (2, 3, 1), (1, 3, 1))),
    Star(2, (Ray(((0, "R", "R"), (1, "L", "R")), 3, 1), Ray(((0, "L", "L"),), 1, 0))),
)


def test_relabel_discs_matches_moving_the_bands_first():
    cases = [_SAME_END_STEP, *valid_star_instances(seed=31, count=60)]
    rng = random.Random(5)
    for s, star in cases:
        n = s.discs
        shuffled = list(range(1, n + 1))
        rng.shuffle(shuffled)
        bijections = [(n, lambda d, k=k: (d - 1 - k) % n + 1) for k in range(n)]  # rotations
        bijections.append((n, lambda d: n + 1 - d))  # the reversal
        for x0 in range(1, n + 1):  # the inflation's shift at disc x0
            bijections.append((n + 1, lambda d, x0=x0: d if d <= x0 else d + 1))
        bijections.append((n, lambda d: shuffled[d - 1]))  # a random permutation
        for discs, f in bijections:
            state, expected = stars._materialize(s, star), stars._materialize(s, star)
            state.discs = expected.discs = discs
            stars._relabel_discs(state, f)
            relabel_discs(expected, f)
            _assert_order_matches_scan(state)
            assert state.center == expected.center
            assert [(r.steps, r.tip_disc, r.tip_h) for r in state.rays] == [
                (r.steps, r.tip_disc, r.tip_h) for r in expected.rays
            ]
            assert stars._freeze(state) == stars._freeze(expected)
            assert state.order == expected.order
    # The reversal swaps band 0's ends and flips both labels of each step.
    state = stars._materialize(*_SAME_END_STEP)
    stars._relabel_discs(state, lambda d: 4 - d)
    assert [ray.steps for ray in state.rays] == [
        [[0, "L", "L"], [1, "R", "L"]], [[0, "R", "R"]]
    ]


def _slack_state(rays):
    return stars._State(1, {}, 1, [stars._Ray([list(step) for step in steps], 1, 0) for steps in rays],
                        0, 1, {})


_STEPS = st.lists(st.tuples(st.integers(0, 2), st.sampled_from("LR"), st.sampled_from("LR")), max_size=12)


@settings(max_examples=500, deadline=None)
@given(st.lists(_STEPS, min_size=1, max_size=4))
@example([[(0, "L", "R"), (0, "R", "L")]])  # cancels to nothing
@example([[(0, "L", "R"), (1, "R", "L"), (1, "L", "R"), (0, "R", "L"), (2, "L", "L")]])
@example([[(0, "L", "R"), (0, "R", "R"), (0, "R", "L"), (0, "L", "R")], []])
def test_one_pass_slack_normal_form_matches_the_restart_loop(rays):
    state, expected = _slack_state(rays), _slack_state(rays)
    assert stars._remove_slack(state.rays) == remove_slack_by_restarts(expected)
    assert [ray.steps for ray in state.rays] == [ray.steps for ray in expected.rays]
    assert not any(stars._has_slack(ray) for ray in state.rays)


def test_normalize_matches_the_single_moves():
    # Flip, mirror and twirl each apply or not; all eight cases occur.
    cases: dict[tuple, int] = {}
    for s, star in valid_star_instances(seed=2718, count=120):
        for k, ray in enumerate(star.rays):
            if not ray.steps:
                continue
            state, expected = stars._materialize(s, star), stars._materialize(s, star)
            live = state.rays[k]
            band = state.bands[live.steps[-1][0]]
            flip, mirror = live.tip_h < band.h, band.e != 1
            case = (flip, mirror, (live.steps[-1][2] == "R") != (flip != mirror))
            cases[case] = cases.get(case, 0) + 1
            assert stars._normalize(state, live) == normalize_by_single_moves(expected, expected.rays[k])
            _assert_order_matches_scan(state)
            assert stars._freeze(state) == stars._freeze(expected)
            assert state == expected
    assert len(cases) == 8 and min(cases.values()) >= 10


@pytest.mark.parametrize("discs", [10**4, 10**6])
def test_golden_star_costs_nothing_per_disc(discs):
    # The golden reduction on a surface with many empty discs: the same
    # answer, and a traced peak far below one list per disc.
    s = BraidedSurface(discs, GOLDEN_SURFACE.bands)
    tracemalloc.start()
    try:
        s2, star2 = reduce_to_disc(s, GOLDEN_STAR)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = discs + 1
    assert s2 == BraidedSurface(n, ((1, 3, 1), (2, n, 1), (3, n, 1), (1, 2, 1)))
    assert star2 == Star(n, [Ray((), n, 1)])
    assert peak < 64 * 1024


def _stepwise(s, star, minimize_state, reduce_state) -> list:
    """``_reduce_states`` run with these two functions: each minimization's
    ``changed`` flag and frozen pair, and each step's frozen pair, ending
    with the message of the ``StarError`` that stopped it, if any."""
    out: list = []
    try:
        state = stars._materialize(s, star)
        out.append((minimize_state(state), stars._freeze(state)))
        while delta_b(state):
            stars._renormalize(state)
            reduce_state(state)
            out.append(stars._freeze(state))
            stars._renormalize(state)
            out.append((minimize_state(state), stars._freeze(state)))
    except StarError as exc:
        out.append(str(exc))
    return out


def _assert_matches_whole_state_passes(s, star) -> list:
    """The per-ray minimization and reduction against the restart loop, the
    whole-state slack passes, the tagged transfer and the landing scan that
    sorts every height; returns the reference's steps."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stars, "_landing_slots", landing_slots)
        expected = _stepwise(s, star, minimize_state_by_restarts, reduce_state_by_whole_passes)
    assert _stepwise(s, star, stars._minimize_state, stars._reduce_state) == expected
    return expected


def test_per_ray_passes_match_the_whole_state_passes_on_valid_stars():
    changed = steps = 0
    for s, star in valid_star_instances(seed=1729, count=400):
        out = _assert_matches_whole_state_passes(s, star)
        changed += out[0][0] if isinstance(out[0], tuple) else 0
        steps += (len(out) - 1) // 2
    assert changed >= 200 and steps >= 100


@settings(max_examples=300, deadline=None)
@given(crowded_stars())
@example(_TIPS_OUT_OF_RAY_ORDER)
def test_per_ray_passes_match_the_whole_state_passes_on_crowded_stars(case):
    _assert_matches_whole_state_passes(*case)


def test_per_ray_passes_match_the_whole_state_passes_on_refused_stars():
    for case in json.loads(REFUSED_STARS.read_text()):
        s = BraidedSurface.from_json(json.dumps(case["surface"]))
        star = Star.from_json(json.dumps(case["star"]))
        assert _assert_matches_whole_state_passes(s, star)[-1] == case["message"]


@pytest.mark.parametrize("n", [4, 5, 6, 10, 40, 300])
def test_wide_span_stars_match_the_whole_state_passes(n):
    # The reference slides the span's n - 3 bands one at a time.
    _changed, (_surface, star) = _assert_matches_whole_state_passes(*wide_span_star(n))[-1]
    assert star == Star(3, [Ray((), 3, n - 1)])


@pytest.mark.parametrize("n", [10, 100, 1000])
def test_a_step_walks_each_ray_once_per_transfer(monkeypatch, n):
    # One step of the wide-span star carries n - 3 bands.  It walks the
    # rays in three transfers, the carry's and steps 4 and 6's, and
    # rebuilds a disc's list only for the fresh band and those two slides,
    # whatever n is.
    calls = {"_transfer_region": 0, "_drop_ends": 0, "_insert_ends": 0, "_reduce_state": 0}
    for name in calls:
        def counted(*args, _name=name, _f=getattr(stars, name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(stars, name, counted)
    s, star = reduce_to_disc(*wide_span_star(n))
    assert star == Star(3, [Ray((), 3, n - 1)]) and len(s.bands) == n + 1
    assert calls == {"_transfer_region": 3, "_drop_ends": 2, "_insert_ends": 3, "_reduce_state": 1}


def test_a_band_at_the_tip_height_stays_above_the_carried_span(monkeypatch):
    # A band off the tip disc may sit at exactly the chosen tip's height.
    # It is outside the span, and the carry leaves it above every carried
    # band, in every disc's order.
    carry = stars._carry_span
    seen = {"carries": 0, "at_tip": 0}

    def checked(state, btau, x0, h_new, h_tip, new_id):
        at_tip = [band for band in state.bands.values() if band.h == h_tip]
        assert all(band.l != x0 and band.r != x0 for band in at_tip)
        carry(state, btau, x0, h_new, h_tip, new_id)
        assert all(band.h == h_tip > state.bands[bid].h for band in at_tip for bid in btau)
        _assert_order_matches_scan(state)
        seen["carries"] += 1
        seen["at_tip"] += bool(at_tip)

    monkeypatch.setattr(stars, "_carry_span", checked)
    _locality_corpus()
    assert seen["carries"] >= 300 and seen["at_tip"] >= 40


def _same_up_to_scale(h_before: int, before, h_after: int, after) -> bool:
    return h_after * before.scale == h_before * after.scale


def _locality_corpus():
    """Live states from the seeded valid stars and the pinned corpus, through
    every minimization and reduction step."""
    for s, star in valid_star_instances(seed=99, count=150):
        try:
            reduce_to_disc(s, star)
        except StarError:
            pass
    for _line in _pinned_star_lines(seed=20261018, valid=150):
        pass


def test_a_retraction_moves_only_its_own_ray(monkeypatch):
    # The per-ray minimization rests on this: retracting ray k changes no
    # band and no other ray's steps, tip or looseness, and scales every
    # height by one factor.
    retract = stars._remove_loose_once
    calls = {"landed": 0, "refused": 0}

    def checked(state, k, side):
        before = copy.deepcopy(state)
        loose = [stars._ray_loose_removable(state, ray) for ray in state.rays]
        try:
            retract(state, k, side)
            calls["landed"] += 1
        except StarError:
            calls["refused"] += 1
            raise
        finally:
            assert state.bands.keys() == before.bands.keys()
            for bid, band in state.bands.items():
                old = before.bands[bid]
                assert (band.l, band.r, band.e) == (old.l, old.r, old.e)
                assert _same_up_to_scale(old.h, before, band.h, state)
            assert {d: [bid for _b, bid in ends] for d, ends in state.order.items()} == {
                d: [bid for _b, bid in ends] for d, ends in before.order.items()}
            for j, (ray, old) in enumerate(zip(state.rays, before.rays)):
                if j != k:
                    assert (ray.steps, ray.tip_disc) == (old.steps, old.tip_disc)
                    assert _same_up_to_scale(old.tip_h, before, ray.tip_h, state)
                    assert stars._ray_loose_removable(state, ray) == loose[j]

    monkeypatch.setattr(stars, "_remove_loose_once", checked)
    _locality_corpus()
    assert calls["landed"] >= 800 and calls["refused"] >= 5


def test_a_slide_reports_exactly_the_rays_it_reroutes(monkeypatch):
    # Each transfer's reported rays are those whose steps changed.  A
    # one-band transfer (steps 4 and 6) equals the tagged reference.  Step
    # 3's one-walk transfer of the whole span equals the reference's
    # transfers band by band, then slack: it leaves no slack to clear.
    transfer = stars._transfer_region
    calls = {"rerouted": 0, "kept": 0, "carried": 0, "detours": 0}

    def checked(state, moving, bridge):
        expected = copy.deepcopy(state)
        before = [copy.deepcopy(ray.steps) for ray in state.rays]
        disc, rerouted = transfer(state, moving, bridge)
        for bid, end in moving.items():
            assert disc == transfer_region(expected, bid, end, bridge)
        changed = [ray for ray, steps in zip(state.rays, before) if ray.steps != steps]
        assert [id(ray) for ray in rerouted] == [id(ray) for ray in changed]
        if len(moving) == 1:
            assert [ray.steps for ray in state.rays] == [ray.steps for ray in expected.rays]
        else:
            # Band by band, an arc between two moving ends gains a detour
            # over the bridge and back, which slack cancels.
            calls["carried"] += 1
            calls["detours"] += sum(len(ray.steps) < len(slid.steps)
                                    for ray, slid in zip(state.rays, expected.rays))
            stars._remove_slack(expected.rays)
            assert [ray.steps for ray in state.rays] == [ray.steps for ray in expected.rays]
        calls["rerouted"] += len(rerouted)
        calls["kept"] += len(state.rays) - len(rerouted)
        return disc, rerouted

    monkeypatch.setattr(stars, "_transfer_region", checked)
    _locality_corpus()
    assert calls["rerouted"] >= 300 and calls["kept"] >= 1500
    assert calls["carried"] >= 100 and calls["detours"] >= 5
