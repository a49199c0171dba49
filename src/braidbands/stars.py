"""Transverse stars on braided surfaces and the crossing-count reduction.

A star is a center in one disc together with rays running through the
surface to boundary points (tips).  Combinatorially a ray is the sequence
of bands it crosses: each step records the band and through which of its
two ends the ray enters and leaves; the tip is a gap in the front-edge
order of its final disc.  Arcs between crossings are chords of discs,
recoverable from consecutive step endpoints, and a star is embedded iff
the chords in every disc are non-crossing.

The reduction eliminates band crossings: slack arcs (same attaching
region twice) and loose rays (whose tail cuts off a band-free piece of
disc) retract for free, and one inflation plus a controlled cascade of
slides trades a crossing of an essential ray for a fresh disc-band pair
while keeping the word homogeneous and the boundary link fixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import json
from typing import Iterable, Iterator, Optional, Union

from .surfaces import BraidedSurface
from .words import BKLWord, is_homogeneous


class StarError(ValueError):
    pass


L, R = "L", "R"


@dataclass(frozen=True)
class Ray:
    """Band crossings from the center outward plus the tip gap."""

    steps: tuple[tuple[int, str, str], ...]  # (band index, enter end, exit end)
    tip_disc: int
    tip_gap: int

    def __post_init__(self):
        for band, enter, exit_ in self.steps:
            if enter not in (L, R) or exit_ not in (L, R):
                raise StarError("step ends must be 'L' or 'R'")


@dataclass(frozen=True)
class Star:
    center: int
    rays: tuple[Ray, ...]

    def __init__(self, center: int, rays: Iterable[Ray] = ()):
        object.__setattr__(self, "center", int(center))
        object.__setattr__(self, "rays", tuple(rays))

    def to_json(self) -> str:
        return json.dumps(
            {
                "center": self.center,
                "rays": [
                    {
                        "steps": [[b, e, x] for b, e, x in ray.steps],
                        "tip": {"disc": ray.tip_disc, "gap": ray.tip_gap},
                    }
                    for ray in self.rays
                ],
            }
        )

    @staticmethod
    def from_json(text: str) -> "Star":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise StarError("a star must be a JSON object")

        def whole(x) -> int:
            if type(x) is not int:
                raise TypeError(f"expected an integer, got {x!r}")
            return x

        try:
            rays = [
                Ray(
                    tuple((whole(b), e, x) for b, e, x in r.get("steps", [])),
                    whole(r["tip"]["disc"]),
                    whole(r["tip"]["gap"]),
                )
                for r in data.get("rays", [])
            ]
            return Star(whole(data["center"]), rays)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise StarError(f"malformed star: {exc!r}") from exc


# ---------------------------------------------------------------------------
# Internal state: bands with stable ids and rational heights
# ---------------------------------------------------------------------------

_CENTER = ("center",)


@dataclass
class _Band:
    l: int
    r: int
    e: int
    h: Fraction

    def end_disc(self, end: str) -> int:
        return self.l if end == L else self.r


@dataclass
class _Ray:
    steps: list[list]  # [band id, enter end, exit end]
    tip_disc: int
    tip_h: Fraction


@dataclass
class _State:
    discs: int
    bands: dict[int, _Band]
    center: int
    rays: list[_Ray]
    next_id: int

    def order_on_disc(self, d: int) -> list[tuple[Fraction, int, str]]:
        out = []
        for bid, band in self.bands.items():
            if band.l == d:
                out.append((band.h, bid, L))
            if band.r == d:
                out.append((band.h, bid, R))
        out.sort(key=lambda t: -t[0])
        return out

    def word(self) -> BKLWord:
        seq = sorted(self.bands.items(), key=lambda kv: -kv[1].h)
        return BKLWord(self.discs, tuple((b.l, b.r, b.e) for _i, b in seq))


def _materialize(surface: BraidedSurface, star: Star) -> _State:
    bands = {
        k: _Band(l, r, e, Fraction(len(surface.bands) - k))
        for k, (l, r, e) in enumerate(surface.bands)
    }
    state = _State(surface.discs, bands, star.center, [], len(surface.bands))
    # Tips sharing a gap receive distinct heights, earlier rays higher, so
    # that the chord tests see a definite order.
    per_gap: dict[tuple[int, int], int] = {}
    for ray in star.rays:
        per_gap[(ray.tip_disc, ray.tip_gap)] = per_gap.get((ray.tip_disc, ray.tip_gap), 0) + 1
    counter: dict[tuple[int, int], int] = {}
    for ray in star.rays:
        for bid, _e, _x in ray.steps:
            if bid not in bands:
                raise StarError(f"ray references band {bid} not on the surface")
        lo, hi = _gap_bounds(state, ray.tip_disc, ray.tip_gap)
        key = (ray.tip_disc, ray.tip_gap)
        k = counter.get(key, 0)
        counter[key] = k + 1
        tip_h = hi - (hi - lo) * Fraction(k + 1, per_gap[key] + 1)
        state.rays.append(_Ray([list(s) for s in ray.steps], ray.tip_disc, tip_h))
    return state


def _gap_bounds(state: _State, disc: int, gap: int) -> tuple[Fraction, Fraction]:
    if not 1 <= disc <= state.discs:
        raise StarError(f"no disc {disc}")
    regions = state.order_on_disc(disc)
    if not 0 <= gap <= len(regions):
        raise StarError(f"gap {gap} out of range on disc {disc}")
    if not regions:
        return Fraction(-1), Fraction(1)
    hi = regions[gap - 1][0] if gap > 0 else regions[0][0] + 2
    lo = regions[gap][0] if gap < len(regions) else regions[-1][0] - 2
    return lo, hi


def _freeze(state: _State) -> tuple[BraidedSurface, Star]:
    order = sorted(state.bands.items(), key=lambda kv: -kv[1].h)
    index_of = {bid: k for k, (bid, _b) in enumerate(order)}
    surface = BraidedSurface(state.discs, tuple((b.l, b.r, b.e) for _i, b in order))
    rays = []
    for ray in state.rays:
        regions = state.order_on_disc(ray.tip_disc)
        gap = sum(1 for h, _b, _e in regions if h > ray.tip_h)
        steps = tuple((index_of[bid], e, x) for bid, e, x in ray.steps)
        rays.append(Ray(steps, ray.tip_disc, gap))
    return surface, Star(state.center, rays)


# ---------------------------------------------------------------------------
# Chords and validity
# ---------------------------------------------------------------------------

def _ray_chords(state: _State, ray: _Ray):
    """Disc arcs of one ray: (disc, endpoint, endpoint) with endpoints either
    ('center',), ('tip', height) or ('region', band id, end)."""
    chords = []
    points = [(_CENTER, state.center)]
    for bid, enter, exit_ in ray.steps:
        band = state.bands[bid]
        points.append((("region", bid, enter), band.end_disc(enter)))
        points.append((("region", bid, exit_), band.end_disc(exit_)))
    points.append((("tip", ray.tip_h), ray.tip_disc))
    for k in range(0, len(points), 2):
        (p, dp), (q, dq) = points[k], points[k + 1]
        if dp != dq:
            raise StarError("ray arcs hop between discs without a band")
        chords.append((dp, p, q))
    return chords


def _point_height(state: _State, point) -> Optional[Fraction]:
    if point[0] == "region":
        return state.bands[point[1]].h
    if point[0] == "tip":
        return point[1]
    return None  # center


def check_star(surface: BraidedSurface, star: Star) -> None:
    """Raise StarError when the star is not an embedded transverse star."""
    if not 1 <= star.center <= surface.discs:
        raise StarError("center disc out of range")
    state = _materialize(surface, star)
    _check_state(state)


def _check_state(state: _State) -> None:
    """Embeddedness under the linear slot order.

    Per disc: boundary chords must not strictly interleave, and the center
    (anchored behind the front edge) reaches a slot without crossing a
    chord only when that slot is not strictly inside the chord's span.
    Shared slots count as parallel strands, never as crossings.
    """
    all_chords = []
    for ray in state.rays:
        all_chords.extend(_ray_chords(state, ray))
    by_disc: dict[int, list] = {}
    for chord in all_chords:
        by_disc.setdefault(chord[0], []).append(chord)
    for disc, chords in by_disc.items():
        fan = [_point_height(state, q) for _d, p, q in chords if p == _CENTER]
        boundary = [
            tuple(sorted((_point_height(state, p), _point_height(state, q))))
            for _d, p, q in chords
            if p != _CENTER
        ]
        for i, (s1, s2) in enumerate(boundary):
            for t1, t2 in boundary[i + 1 :]:
                if {s1, s2} & {t1, t2}:
                    continue
                if (s1 < t1 < s2 < t2) or (t1 < s1 < t2 < s2):
                    raise StarError(f"ray arcs cross inside disc {disc}")
            for f in fan:
                if s1 < f < s2:
                    raise StarError(f"ray arcs cross inside disc {disc}")


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def delta_b(obj: Union[Ray, Star, _Ray]) -> int:
    """Number of band crossings of a ray, or their sum over a star."""
    if isinstance(obj, Star):
        return sum(len(r.steps) for r in obj.rays)
    return len(obj.steps)


@dataclass(frozen=True)
class RayClass:
    long: bool
    slack: bool
    loose: bool


def _slack_step(ray: _Ray) -> Optional[tuple[int, int, list]]:
    """First slack arc of a ray as (start, stop, replacement steps), or None.

    A step entering and leaving its band through the same end is dropped;
    two consecutive steps through one band, the second entering where the
    first left, merge into one.
    """
    for k, (_bid, enter, exit_) in enumerate(ray.steps):
        if enter == exit_:
            return k, k + 1, []
    for k in range(len(ray.steps) - 1):
        b1, e1, x1 = ray.steps[k]
        b2, e2, x2 = ray.steps[k + 1]
        if b1 == b2 and x1 == e2:
            return k, k + 2, [[b1, e1, x2]]
    return None


def _tail_sides(state: _State, ray: _Ray):
    """Regions beside the tail on the tip disc: (between interval, outside)."""
    bid, _e, exit_ = ray.steps[-1]
    h_c = state.bands[bid].h
    h_t = ray.tip_h
    lo, hi = min(h_c, h_t), max(h_c, h_t)
    between, outside = [], []
    for h, b, end in state.order_on_disc(ray.tip_disc):
        if b == bid:
            continue
        if lo < h < hi:
            between.append((h, b, end))
        else:
            outside.append((h, b, end))
    return between, outside


def _ray_loose(state: _State, ray: _Ray) -> bool:
    if not ray.steps:
        return False
    between, outside = _tail_sides(state, ray)
    return not between or not outside


def _ray_loose_removable(state: _State, ray: _Ray) -> bool:
    """Loose rays whose free side can actually be swept in this model.

    When only the side wrapping the disc's back is band-free and the star's
    center sits on the same disc, the center fan occupies that side and the
    pull is blocked; such rays are reduced by the inflation step instead.
    """
    return _ray_loose(state, ray) and (
        state.center != ray.tip_disc or not _tail_sides(state, ray)[0]
    )


def classify_ray(surface: BraidedSurface, star: Star, ray_index: int) -> RayClass:
    state = _materialize(surface, star)
    ray = state.rays[ray_index]
    return RayClass(bool(ray.steps), _slack_step(ray) is not None, _ray_loose(state, ray))


# ---------------------------------------------------------------------------
# Minimization: slack and loose removal
# ---------------------------------------------------------------------------

def _remove_slack_once(state: _State) -> bool:
    for ray in state.rays:
        slack = _slack_step(ray)
        if slack is not None:
            start, stop, replacement = slack
            ray.steps[start:stop] = replacement
            return True
    return False


def _remove_slack(state: _State) -> None:
    while _remove_slack_once(state):
        pass


def _landing_slots(state: _State, disc: int, h: Fraction, above: bool) -> list[Fraction]:
    """Candidate tip heights beside ``h``, nearest first, on one side."""
    occupied = sorted({hh for hh, _b, _e in state.order_on_disc(disc)}
                      | {r.tip_h for r in state.rays if r.tip_disc == disc})
    out: list[Fraction] = []
    if above:
        side = [x for x in occupied if x > h]
        prev = h
        for x in side:
            out.append((prev + x) / 2)
            prev = x
        out.append(prev + 1)
    else:
        side = [x for x in occupied if x < h]
        prev = h
        for x in reversed(side):
            out.append((prev + x) / 2)
            prev = x
        out.append(prev - 1)
    return out


def _remove_loose_once(state: _State, ray_index: int) -> int:
    """Retract one loose crossing; returns the ray retracted.

    The tip pulls back through the last band and lands beside the far
    region; when arcs of other rays hug that region the tip slides outward
    until the star stays embedded.  Parallel rays through the same band
    retract from the outside in, so the scan always finds the right slot.
    """
    ray = state.rays[ray_index]
    if not ray.steps:
        raise StarError("ray is not long")
    between, outside = _tail_sides(state, ray)
    if between and outside:
        raise StarError("ray is not loose")
    bid, enter, _exit = ray.steps[-1]
    band = state.bands[bid]
    h_c = band.h
    # The free side determines along which rail the tip pulls back: a free
    # side above the coccyx emerges below the far region and vice versa.
    if not between:
        above_free = ray.tip_h > h_c
    else:
        above_free = ray.tip_h < h_c
    far_disc = band.end_disc(enter)
    old_step = ray.steps.pop()
    old_disc, old_h = ray.tip_disc, ray.tip_h
    ray.tip_disc = far_disc
    for candidate in _landing_slots(state, far_disc, h_c, above=not above_free):
        ray.tip_h = candidate
        try:
            _check_state(state)
            return ray_index
        except StarError:
            continue
    ray.steps.append(old_step)
    ray.tip_disc, ray.tip_h = old_disc, old_h
    raise StarError("no embedded landing for the retracted tip")


def minimize(surface: BraidedSurface, star: Star) -> Star:
    """Fixpoint of slack and loose removal; never increases the crossing count."""
    state = _materialize(surface, star)
    _minimize_state(state)
    _surface, out = _freeze(state)
    return out


def _minimize_state(state: _State) -> None:
    while True:
        if _remove_slack_once(state):
            continue
        loose = next(
            (k for k, ray in enumerate(state.rays) if _ray_loose_removable(state, ray)),
            None,
        )
        if loose is None:
            _check_state(state)
            return
        _remove_loose_once(state, loose)


# ---------------------------------------------------------------------------
# The reduction step
# ---------------------------------------------------------------------------

def _transfer_region(state: _State, bid: int, end: str, bridge: int) -> None:
    """Re-route ray arcs tied to a band end that is about to change disc.

    Every disc arc with exactly one endpoint on the moving region gains a
    crossing through the bridge band; slack cleanup afterwards cancels the
    detours of arcs whose both endpoints travel.
    """
    moving = ("region", bid, end)
    old_disc = state.bands[bid].end_disc(end)
    bridge_band = state.bands[bridge]
    if bridge_band.l == old_disc:
        near, far = L, R
    elif bridge_band.r == old_disc:
        near, far = R, L
    else:
        raise StarError("bridge band does not reach the moving region's disc")
    for ray in state.rays:
        k = 0
        while k <= len(ray.steps):
            prev_pt = _CENTER if k == 0 else ("region", ray.steps[k - 1][0], ray.steps[k - 1][2])
            next_pt = (
                ("tip",) if k == len(ray.steps) else ("region", ray.steps[k][0], ray.steps[k][1])
            )
            prev_moves = prev_pt == moving
            next_moves = next_pt == moving
            if prev_moves != next_moves:
                if prev_moves:
                    # Ray sits on the new disc after the move; bridge back.
                    ray.steps.insert(k, [bridge, far, near])
                else:
                    ray.steps.insert(k, [bridge, near, far])
                k += 2
            else:
                k += 1


def _relabel_discs(state: _State, f) -> None:
    state.center = f(state.center)
    for band in state.bands.values():
        band.l, band.r = f(band.l), f(band.r)
        if band.l > band.r:
            band.l, band.r = band.r, band.l
    for ray in state.rays:
        ray.tip_disc = f(ray.tip_disc)


def _reverse_indices(state: _State) -> None:
    n = state.discs
    for band in state.bands.values():
        band.l, band.r = n + 1 - band.r, n + 1 - band.l
    state.center = n + 1 - state.center
    for ray in state.rays:
        ray.tip_disc = n + 1 - ray.tip_disc
        for step in ray.steps:
            step[1] = L if step[1] == R else R
            step[2] = L if step[2] == R else R


def _upside_down_state(state: _State) -> None:
    # Rotation about the front-back axis: heights and disc order both
    # reverse, twist signs stay.  Reversing heights alone is not an isotopy.
    for band in state.bands.values():
        band.h = -band.h
    for ray in state.rays:
        ray.tip_h = -ray.tip_h
    _reverse_indices(state)


def _mirror_state(state: _State) -> None:
    _reverse_indices(state)
    for band in state.bands.values():
        band.e = -band.e


def _twirl_state(state: _State) -> None:
    n = state.discs

    def f(d: int) -> int:
        return n if d == 1 else d - 1

    for bid, band in state.bands.items():
        wraps = band.l == 1
        band.l, band.r = f(band.l), f(band.r)
        if wraps:
            band.l, band.r = band.r, band.l  # old left end is now the right end
            for ray in state.rays:
                for step in ray.steps:
                    if step[0] == bid:
                        step[1] = L if step[1] == R else R
                        step[2] = L if step[2] == R else R
    state.center = f(state.center)
    for ray in state.rays:
        ray.tip_disc = f(ray.tip_disc)


def _pick_ray(state: _State) -> int:
    """Innermost long ray: no other tip inside its tail span, smallest span."""
    candidates = []
    for idx, ray in enumerate(state.rays):
        if not ray.steps:
            continue
        bid = ray.steps[-1][0]
        h_c = state.bands[bid].h
        lo, hi = min(h_c, ray.tip_h), max(h_c, ray.tip_h)
        tips_inside = sum(
            1
            for j, other in enumerate(state.rays)
            if j != idx and other.tip_disc == ray.tip_disc and lo < other.tip_h < hi
        )
        regions_inside = sum(
            1 for h, _b, _e in state.order_on_disc(ray.tip_disc) if lo < h < hi
        )
        candidates.append((tips_inside, regions_inside, idx))
    if not candidates:
        raise StarError("no long ray to reduce")
    candidates.sort()
    if candidates[0][0] != 0:
        raise StarError("no innermost ray found")
    return candidates[0][2]


def reduce_step(surface: BraidedSurface, star: Star) -> tuple[BraidedSurface, Star]:
    """Trade one band crossing for a disc-band pair, keeping homogeneity.

    Requires a homogeneous word, a minimal star (no slack or loose rays)
    and at least one crossing.  Adds exactly one disc and one band, and
    strictly decreases the total crossing count.
    """
    word = BKLWord(surface.discs, surface.bands)
    if not is_homogeneous(word):
        raise StarError("surface word is not homogeneous")
    if delta_b(star) == 0:
        raise StarError("star already lies in the discs")
    state = _materialize(surface, star)
    if any(
        _slack_step(ray) is not None or _ray_loose_removable(state, ray) for ray in state.rays
    ):
        raise StarError("star is not minimal")
    before = delta_b(star)

    idx = _pick_ray(state)

    # Step 0: normalize so the tail points up, the crossed band is positive
    # and the tip disc is its left disc.  Flips and twirls are isotopies;
    # mirroring is not, so a negative crossed band is handled by running the
    # whole construction inside a mirror sandwich and mirroring back at the
    # end.
    ray = state.rays[idx]
    b0 = ray.steps[-1][0]
    if ray.tip_h < state.bands[b0].h:
        _upside_down_state(state)
    mirrored = state.bands[b0].e != 1
    if mirrored:
        _mirror_state(state)
    guard = 0
    while state.bands[b0].end_disc(state.rays[idx].steps[-1][2]) != state.bands[b0].l:
        _twirl_state(state)
        guard += 1
        if guard > state.discs:
            raise StarError("twirl normalization failed")

    ray = state.rays[idx]
    band0 = state.bands[b0]
    x0 = band0.l
    h0 = band0.h
    h_tip = ray.tip_h

    # Step 1: bands across the tail span; the ones at the tip disc exist
    # because the ray is not loose.
    btau = [bid for bid, b in state.bands.items() if h0 < b.h < h_tip]
    btau.sort(key=lambda bid: -state.bands[bid].h)
    if not any(state.bands[b].l == x0 or state.bands[b].r == x0 for b in btau):
        raise StarError("chosen ray's span carries no band at the tip disc")

    # Step 2: inflate positively at the tip disc, just above the span.
    def f(d: int) -> int:
        return d if d <= x0 else d + 1

    state.discs += 1
    _relabel_discs(state, f)
    occupied = [state.bands[b].h for b in btau]
    top = max(occupied)
    new_id = state.next_id
    state.next_id += 1
    h_new = (top + h_tip) / 2
    state.bands[new_id] = _Band(x0, x0 + 1, 1, h_new)

    # Step 3: carry the span above the fresh band, preserving order.
    slot_hi = h_tip
    step_count = len(btau) + 1
    for k, bid in enumerate(btau):
        band = state.bands[bid]
        new_h = h_new + (h_tip - h_new) * Fraction(len(btau) - k, step_count)
        band.h = new_h
        if band.l == x0:
            _transfer_region(state, bid, L, new_id)
            band.l = x0 + 1
            if band.l > band.r:
                raise StarError("slide produced an inverted band")
        elif band.r == x0:
            _transfer_region(state, bid, R, new_id)
            band.r = x0 + 1
            band.l, band.r = min(band.l, band.r), max(band.l, band.r)
    _remove_slack(state)

    # Step 4: slide the crossed band over the fresh one.
    _transfer_region(state, b0, L, new_id)
    band0 = state.bands[b0]
    band0.l = x0 + 1
    if band0.l > band0.r:
        raise StarError("crossed band inverted during the slide")
    band0.h = (h_new + min(state.bands[b].h for b in btau)) / 2 if btau else (
        h_new + h_tip
    ) / 2
    _remove_slack(state)

    # Step 5: the chosen ray is loose at the fresh band; retract it.
    ray = state.rays[idx]
    if not (ray.steps and ray.steps[-1][0] == new_id and _ray_loose(state, ray)):
        raise StarError("reduction invariant broken before the first retraction")
    if _remove_loose_once(state, idx) != idx:
        raise StarError("another ray blocked the first retraction")

    # Step 6: slide the fresh band over the crossed band.
    _transfer_region(state, new_id, R, b0)
    fresh = state.bands[new_id]
    fresh.r = band0.r
    fresh.h = (band0.h + min(state.bands[b].h for b in btau)) / 2 if btau else (
        band0.h + h_tip
    ) / 2
    _remove_slack(state)

    # Step 7: the ray is loose again at the crossed band; retract.
    ray = state.rays[idx]
    if not (ray.steps and ray.steps[-1][0] == b0 and _ray_loose(state, ray)):
        raise StarError("reduction invariant broken before the second retraction")
    if _remove_loose_once(state, idx) != idx:
        raise StarError("another ray blocked the second retraction")
    _remove_slack(state)

    if mirrored:
        _mirror_state(state)
    new_surface, new_star = _freeze(state)
    _check_state(state)
    if delta_b(new_star) >= before:
        raise StarError("reduction failed to decrease the crossing count")
    return new_surface, new_star


def reductions(surface: BraidedSurface, star: Star) -> Iterator[tuple[BraidedSurface, Star]]:
    """Yield the minimized star, then each reduced and minimized (surface, star).

    Stops once the star misses all bands.  Every step removes at least one
    crossing, so more steps than the first minimized star has crossings
    raise StarError.
    """
    star = minimize(surface, star)
    budget = delta_b(star)
    yield surface, star
    while delta_b(star):
        if budget == 0:
            raise StarError("reduction exceeded its crossing budget")
        budget -= 1
        surface, star = reduce_step(surface, star)
        star = minimize(surface, star)
        yield surface, star


def reduce_to_disc(surface: BraidedSurface, star: Star) -> tuple[BraidedSurface, Star]:
    """Minimize and reduce until the star misses all bands."""
    for surface, star in reductions(surface, star):
        pass
    return surface, star
