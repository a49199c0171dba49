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

A whole reduction runs on one mutable state, built once from the input and
frozen back into a surface and a star once at the end.  Every public entry
point builds it through ``_checked``, so ``check_star``, ``minimize``,
``reductions`` and ``reduce_to_disc`` refuse a star that is not embedded
with the same message, before any minimization.  The state keeps
band orders only for the discs that hold a band end, as bare ``(band, id)``
pairs in height order: the side of an end is read off the band.  Every
pass over the state touches bands, tips and the center, never every disc,
so a step's cost does not grow with the disc count.  Before and after each
step the heights are re-spread to the order that freezing and rebuilding
the state would give, so the result is the same as stepping through
frozen ``(surface, star)`` pairs.  A step's flip, mirror, twirl and
inflation are one composed relabelling through ``_relabel_discs``, which
moves each occupied disc's list whole.  The bands across the chosen ray's
tail are carried in one pass: one walk re-routes every ray, and only two
discs' lists change.  Slack leaves each ray in one stack pass.
Embeddedness is checked by one walk over each ray that reads band and tip
heights straight into per-disc chords.

Slack and looseness are properties of one ray: its own steps and tip, the
bands and the center, never another ray.  A retraction moves only its own
ray and scales every height by one factor, and popping a ray's last step
leaves a slack-free ray slack-free.  So minimization clears slack once and
then minimizes the rays one after another, and a reduction step, which
starts minimal, removes slack only from the rays a slide rerouted.
"""

from __future__ import annotations

import bisect
import json
import math
from collections.abc import Iterable, Iterator

from .surfaces import BraidedSurface
from .words import _Record, _Value


class StarError(ValueError):
    pass


L, R = "L", "R"


class Ray(_Value):
    """Band crossings from the center outward plus the tip gap."""

    __slots__ = ("steps", "tip_disc", "tip_gap")

    def __init__(self, steps: tuple[tuple[int, str, str], ...], tip_disc: int, tip_gap: int):
        for band, enter, exit_ in steps:  # (band index, enter end, exit end)
            if enter not in (L, R) or exit_ not in (L, R):
                raise StarError("step ends must be 'L' or 'R'")
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "tip_disc", tip_disc)
        object.__setattr__(self, "tip_gap", tip_gap)


class Star(_Value):
    __slots__ = ("center", "rays")

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
        """The star of ``{"center": c, "rays": [{"steps": [[band, enter, exit], ...],
        "tip": {"disc": d, "gap": g}}, ...]}``.

        Each value is checked once, ray by ray: one loop over a ray's steps
        checks that each has three entries and an integer band, then the
        tip's disc and gap are checked, then ``Ray``'s constructor checks
        the step ends; the center comes last.  The first failure in that
        order raises, as a ``StarError``.
        """
        data = json.loads(text)
        if not isinstance(data, dict):
            raise StarError("a star must be a JSON object")
        try:
            rays = []
            for r in data.get("rays", []):
                steps = []
                for b, e, x in r.get("steps", []):
                    if type(b) is not int:
                        raise TypeError(f"expected an integer, got {b!r}")
                    steps.append((b, e, x))
                tip = r["tip"]
                rays.append(Ray(tuple(steps), _whole(tip["disc"]), _whole(tip["gap"])))
            return Star(_whole(data["center"]), rays)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise StarError(f"malformed star: {exc!r}") from exc


def _whole(x) -> int:
    if type(x) is not int:
        raise TypeError(f"expected an integer, got {x!r}")
    return x


# ---------------------------------------------------------------------------
# Internal state: bands with stable ids and integer heights
# ---------------------------------------------------------------------------

def _div(a: int, b: int) -> int:
    """``a / b`` for heights the state's scale makes divisible.

    A remainder means a rescale was missed: a bug, not a refused star, so
    it raises ArithmeticError rather than StarError.
    """
    q, rem = divmod(a, b)
    if rem:
        raise ArithmeticError(f"height {a} is not divisible by {b}")
    return q


class _Band(_Record):
    __slots__ = ("l", "r", "e", "h")

    def __init__(self, l: int, r: int, e: int, h: int):
        self.l, self.r, self.e, self.h = l, r, e, h

    def end_disc(self, end: str) -> int:
        return self.l if end == L else self.r


class _Ray(_Record):
    __slots__ = ("steps", "tip_disc", "tip_h")

    def __init__(self, steps: list[list], tip_disc: int, tip_h: int):
        self.steps, self.tip_disc, self.tip_h = steps, tip_disc, tip_h  # steps: [band id, enter end, exit end]


class _State(_Record):
    """Bands and rays under reduction, ordered by integer heights.

    Every stored height (``_Band.h``, ``_Ray.tip_h``) is ``scale`` times the
    band's or tip's height on the rational slot line, where the input's
    bands sit at whole heights.  The values matter, not only their order:
    a band off the tip disc may sit at exactly the chosen tip's height,
    outside the open span of ``_reduce_state``'s step 1, and steps 2-4 set
    the carried bands' heights by fixed fractions of the gap to that tip,
    which can move another ray's tip past a band on its own disc.  A step
    that splits a gap first multiplies every height by enough
    (``rescale``) for the split to land on integers.

    ``order`` maps each disc with a band end, and no other, to those bands
    as bare ``(band, id)`` pairs, highest first; the end is ``L`` if
    ``band.l == d`` and ``R`` otherwise.  Read it as ``order.get(d, ())``.
    It holds the bands themselves, so rescaling and re-spreading, which keep
    the height order, keep it valid; the helpers that move a band end or
    change a height update it, and relabelling discs moves each list to its
    new key whole.
    """

    __slots__ = ("discs", "bands", "center", "rays", "next_id", "scale", "order")

    def __init__(self, discs: int, bands: dict[int, _Band], center: int, rays: list[_Ray],
                 next_id: int, scale: int, order: dict[int, list[tuple[_Band, int]]]):
        self.discs, self.bands, self.center, self.rays = discs, bands, center, rays
        self.next_id, self.scale, self.order = next_id, scale, order

    def rescale(self, q: int) -> None:
        for band in self.bands.values():
            band.h *= q
        for ray in self.rays:
            ray.tip_h *= q
        self.scale *= q


def _materialize(surface: BraidedSurface, star: Star) -> _State:
    if not 1 <= star.center <= surface.discs:
        raise StarError("center disc out of range")
    bands = {k: _Band(l, r, e, len(surface.bands) - k) for k, (l, r, e) in enumerate(surface.bands)}
    order: dict[int, list] = {}
    for bid, band in bands.items():
        order.setdefault(band.l, []).append((band, bid))
        order.setdefault(band.r, []).append((band, bid))
    state = _State(surface.discs, bands, star.center, [], len(surface.bands), 1, order)
    for ray in star.rays:
        for bid, _e, _x in ray.steps:
            if bid not in bands:
                raise StarError(f"ray references band {bid} not on the surface")
        _gap_bounds(state, ray.tip_disc, ray.tip_gap)  # rejects a tip outside the disc's gaps
        state.rays.append(_Ray([list(s) for s in ray.steps], ray.tip_disc, 0))
    _spread(state, [(ray.tip_disc, ray.tip_gap) for ray in star.rays])
    return state


def _spread(state: _State, gaps: list[tuple[int, int]]) -> None:
    """Place bands at whole heights in their current order and the tips in ``gaps``.

    Tips sharing a gap receive distinct heights, earlier rays higher, so
    that the chord tests see a definite order: n tips split their gap into
    n + 1 equal parts, so the scale is the lcm of those part counts.
    """
    per_gap: dict[tuple[int, int], int] = {}
    for key in gaps:
        per_gap[key] = per_gap.get(key, 0) + 1
    state.scale = math.lcm(*(n + 1 for n in per_gap.values()))
    ranked = sorted(state.bands.values(), key=lambda band: -band.h)
    for k, band in enumerate(ranked):
        band.h = (len(ranked) - k) * state.scale
    counter: dict[tuple[int, int], int] = {}
    for ray, key in zip(state.rays, gaps):
        lo, hi = _gap_bounds(state, *key)
        k = counter.get(key, 0) + 1
        counter[key] = k
        ray.tip_h = hi - _div((hi - lo) * k, per_gap[key] + 1)


def _tip_gap(state: _State, ray: _Ray) -> int:
    return sum(1 for band, _b in state.order.get(ray.tip_disc, ()) if band.h > ray.tip_h)


def _renormalize(state: _State) -> None:
    """Re-spread every height exactly as ``_materialize(*_freeze(state))`` would."""
    _spread(state, [(ray.tip_disc, _tip_gap(state, ray)) for ray in state.rays])


def _gap_bounds(state: _State, disc: int, gap: int) -> tuple[int, int]:
    if not 1 <= disc <= state.discs:
        raise StarError(f"no disc {disc}")
    regions = state.order.get(disc, ())
    if not 0 <= gap <= len(regions):
        raise StarError(f"gap {gap} out of range on disc {disc}")
    if not regions:
        return -state.scale, state.scale
    hi = regions[gap - 1][0].h if gap > 0 else regions[0][0].h + 2 * state.scale
    lo = regions[gap][0].h if gap < len(regions) else regions[-1][0].h - 2 * state.scale
    return lo, hi


def _freeze(state: _State) -> tuple[BraidedSurface, Star]:
    order = sorted(state.bands.items(), key=lambda kv: -kv[1].h)
    index_of = {bid: k for k, (bid, _b) in enumerate(order)}
    surface = BraidedSurface(state.discs, [(b.l, b.r, b.e) for _i, b in order])
    rays = [
        Ray(tuple([(index_of[bid], e, x) for bid, e, x in ray.steps]), ray.tip_disc, _tip_gap(state, ray))
        for ray in state.rays
    ]
    return surface, Star(state.center, rays)


def _relabel_discs(state: _State, f) -> None:
    """Carry the state along a bijection ``f`` of its discs, evaluated only
    at the discs with a band end, the tips and the center.  A band whose
    ends change order swaps ``l`` and ``r``, and every ray step through it
    flips both its end labels.  Each disc's list moves to its new key
    unchanged."""
    to = {d: f(d) for d in state.order}
    state.center = f(state.center)
    swapped = set()
    for bid, band in state.bands.items():
        l, r = to[band.l], to[band.r]
        if l > r:
            l, r = r, l
            swapped.add(bid)
        band.l, band.r = l, r
    for ray in state.rays:
        ray.tip_disc = f(ray.tip_disc)
        if swapped:
            for step in ray.steps:
                if step[0] in swapped:
                    step[1] = R if step[1] == L else L
                    step[2] = R if step[2] == L else L
    state.order = {to[d]: ends for d, ends in state.order.items()}


def _drop_ends(state: _State, bid: int) -> None:
    band = state.bands[bid]
    for d in (band.l, band.r):
        state.order[d] = [end for end in state.order[d] if end[1] != bid]


def _insert_ends(state: _State, bid: int) -> None:
    band = state.bands[bid]
    for d in (band.l, band.r):
        bisect.insort(state.order.setdefault(d, []), (band, bid), key=lambda t: -t[0].h)


# ---------------------------------------------------------------------------
# Chords and validity
# ---------------------------------------------------------------------------

def check_star(surface: BraidedSurface, star: Star) -> None:
    """Raise StarError when the star is not an embedded transverse star."""
    _checked(surface, star)


def _checked(surface: BraidedSurface, star: Star) -> _State:
    """The live state of ``star`` on ``surface``, which every entry point
    starts from, refused as ``check_star`` refuses it."""
    _check_state(state := _materialize(surface, star))
    return state


def _check_state(state: _State) -> None:
    """Embeddedness under the linear slot order.

    Each ray is walked once: its first arc joins the center to a point of
    the center disc (a fan height), every later arc joins two boundary
    points of one disc (an ordered pair of heights).  An arc that would hop
    between discs is refused before any crossing test.  Then per disc, in
    the order the walk first reached them: boundary chords must not
    strictly interleave, and the center (anchored behind the front edge)
    reaches a slot without crossing a chord only when that slot is not
    strictly inside the chord's span.  The inequalities are strict, so
    shared slots count as parallel strands, never as crossings.
    """
    bands = state.bands
    by_disc: dict[int, tuple[list, list]] = {}
    for ray in state.rays:
        disc, h = state.center, None
        for bid, enter, exit_ in ray.steps:
            band = bands[bid]
            if (band.l if enter == L else band.r) != disc:
                raise StarError("ray arcs hop between discs without a band")
            fan, chords = by_disc.setdefault(disc, ([], []))
            if h is None:
                fan.append(band.h)
            else:
                chords.append((h, band.h) if h < band.h else (band.h, h))
            disc, h = (band.l if exit_ == L else band.r), band.h
        if ray.tip_disc != disc:
            raise StarError("ray arcs hop between discs without a band")
        fan, chords = by_disc.setdefault(disc, ([], []))
        if h is None:
            fan.append(ray.tip_h)
        else:
            chords.append((h, ray.tip_h) if h < ray.tip_h else (ray.tip_h, h))
    for disc, (fan, chords) in by_disc.items():
        for i, (s1, s2) in enumerate(chords):
            for t1, t2 in chords[i + 1 :]:
                if s1 < t1 < s2 < t2 or t1 < s1 < t2 < s2:
                    raise StarError(f"ray arcs cross inside disc {disc}")
            for f in fan:
                if s1 < f < s2:
                    raise StarError(f"ray arcs cross inside disc {disc}")


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def delta_b(obj: Ray | Star | _Ray | _State) -> int:
    """Number of band crossings of a ray, or their sum over a star."""
    if isinstance(obj, (Star, _State)):
        return sum(len(r.steps) for r in obj.rays)
    return len(obj.steps)


def _has_slack(ray: _Ray) -> bool:
    """Whether ``_remove_slack`` would take a step off the ray."""
    steps = ray.steps
    return any(e == x for _b, e, x in steps) or any(
        b1 == b2 and x1 == e2 for (b1, _e1, x1), (b2, e2, _x2) in zip(steps, steps[1:]))


def _tail_sides(state: _State, ray: _Ray) -> tuple[int, int]:
    """Regions beside the tail on the tip disc, counted: (between, outside)."""
    bid = ray.steps[-1][0]
    h_c = state.bands[bid].h
    lo, hi = min(h_c, ray.tip_h), max(h_c, ray.tip_h)
    between = outside = 0
    for band, b in state.order.get(ray.tip_disc, ()):
        if b == bid:
            continue
        if lo < band.h < hi:
            between += 1
        else:
            outside += 1
    return between, outside


def _ray_loose(state: _State, ray: _Ray) -> str | None:
    """The band-free side of a ray's tail on the tip disc: "between" the
    crossed band and the tip, else "outside" them; None when the ray is not
    long or neither side is free."""
    if not ray.steps:
        return None
    between, outside = _tail_sides(state, ray)
    return "between" if not between else "outside" if not outside else None


def _ray_loose_removable(state: _State, ray: _Ray) -> str | None:
    """``_ray_loose``'s side for loose rays whose free side can actually be
    swept in this model, else None.

    When only the side wrapping the disc's back is band-free and the star's
    center sits on the same disc, the center fan occupies that side and the
    pull is blocked; such rays are reduced by the inflation step instead.
    """
    side = _ray_loose(state, ray)
    return None if side == "outside" and state.center == ray.tip_disc else side


# ---------------------------------------------------------------------------
# Minimization: slack and loose removal
# ---------------------------------------------------------------------------

def _remove_slack(rays: Iterable[_Ray]) -> bool:
    """Bring each of ``rays`` to its slack normal form; whether any step went.

    Steps through one band compose like arrows between its two ends, so one
    stack pass per ray reaches the unique normal form: a step entering where
    the stacked step through its band left folds into it, and a step that
    enters and leaves by one end goes."""
    changed = False
    for ray in rays:
        out: list[list] = []
        for step in ray.steps:
            bid, enter, exit_ = step
            if out and out[-1][0] == bid and out[-1][2] == enter:
                enter = out.pop()[1]
                step = [bid, enter, exit_]
            if enter != exit_:
                out.append(step)
        if len(out) != len(ray.steps):
            ray.steps = out
            changed = True
    return changed


def _landing_slots(state: _State, disc: int, h: int, above: bool) -> list[int]:
    """Candidate tip heights beside ``h``, nearest first, on one side.

    A candidate is the midpoint between consecutive band or tip heights on
    the landing side, so only the heights beyond ``h`` on that side are
    sorted.  The midpoints are exact when every height is even.  A landing
    is checked against the other rays, and they are slack-free whenever a
    retraction runs: minimization clears every ray before its first
    retraction, and a reduction step clears each ray a slide re-routed,
    the only rays that can gain slack.  So the landings are those that
    whole-state slack passes would give.
    """
    occupied = {band.h for band, _b in state.order.get(disc, ())}
    occupied.update(r.tip_h for r in state.rays if r.tip_disc == disc)
    if above:
        beyond = sorted(x for x in occupied if x > h)
    else:
        beyond = sorted((x for x in occupied if x < h), reverse=True)
    out: list[int] = []
    prev = h
    for x in beyond:
        out.append(_div(prev + x, 2))
        prev = x
    out.append(prev + (state.scale if above else -state.scale))
    return out


def _remove_loose_once(state: _State, ray_index: int, side: str) -> None:
    """Retract one loose crossing of the ray ``ray_index``, whose tail has
    the band-free ``side`` that ``_ray_loose`` reported.

    The tip pulls back through the last band and lands beside the far
    region; when arcs of other rays hug that region the tip slides outward
    until the star stays embedded.  Parallel rays through the same band
    retract from the outside in, so the scan always finds the right slot.
    """
    state.rescale(2)  # every height even, so the landing midpoints are exact
    ray = state.rays[ray_index]
    bid, enter, _exit = ray.steps[-1]
    band = state.bands[bid]
    h_c = band.h
    # The free side determines along which rail the tip pulls back: a free
    # side above the coccyx emerges below the far region and vice versa.
    above_free = ray.tip_h > h_c if side == "between" else ray.tip_h < h_c
    far_disc = band.end_disc(enter)
    old_step = ray.steps.pop()
    old_disc, old_h = ray.tip_disc, ray.tip_h
    ray.tip_disc = far_disc
    for candidate in _landing_slots(state, far_disc, h_c, above=not above_free):
        ray.tip_h = candidate
        try:
            _check_state(state)
            return
        except StarError:
            continue
    ray.steps.append(old_step)
    ray.tip_disc, ray.tip_h = old_disc, old_h
    raise StarError("no embedded landing for the retracted tip")


def minimize(surface: BraidedSurface, star: Star) -> Star:
    """Fixpoint of slack and loose removal; never increases the crossing count."""
    state = _checked(surface, star)
    _minimize_state(state)
    _surface, out = _freeze(state)
    return out


def _minimize_state(state: _State) -> bool:
    """Remove slack and loose arcs to a fixpoint; whether any was removed.

    Slack goes from every ray first, so that each landing is checked against
    slack-free rays.  Then each ray in turn retracts while it is loose.
    Looseness depends only on the ray's own steps and tip, the bands and the
    center, and a retraction moves only its own ray and scales every height
    alike: so no earlier ray becomes loose again, and the retractions come
    in the order a rescan from the first ray would give.  Popping a
    slack-free ray's last step leaves it slack-free, and the last landing
    was checked on the final state, so neither pass is repeated.  A state
    that lost only slack is checked here; one that nothing left is not, and
    its caller checks it if it has not already.
    """
    changed = _remove_slack(state.rays)
    retracted = False
    for k, ray in enumerate(state.rays):
        while (side := _ray_loose_removable(state, ray)) is not None:
            _remove_loose_once(state, k, side)
            retracted = True
    if changed and not retracted:
        _check_state(state)
    return changed or retracted


# ---------------------------------------------------------------------------
# The reduction step
# ---------------------------------------------------------------------------

def _transfer_region(state: _State, moving: dict[int, str], bridge: int) -> tuple[int, list[_Ray]]:
    """Re-route ray arcs tied to the band ends, all on one disc, that are
    about to change disc (``moving`` maps each band to its end); returns the
    disc across the bridge band, where the ends go, and the rays that were
    re-routed, in ray order.

    Every disc arc with exactly one endpoint on a moving region gains a
    crossing through the bridge band; an arc with both endpoints on moving
    regions travels with them.  The center and the tips never move, so only
    a ray with a step through a moving band can change.
    """
    old_disc = next(state.bands[bid].end_disc(end) for bid, end in moving.items())
    bridge_band = state.bands[bridge]
    if bridge_band.l == old_disc:
        near, far = L, R
    elif bridge_band.r == old_disc:
        near, far = R, L
    else:
        raise StarError("bridge band does not reach the moving region's disc")
    rerouted = []
    for ray in state.rays:
        out: list[list] = []
        prev_moves = False  # the center never moves
        for step in ray.steps:
            moved = moving.get(step[0])
            if prev_moves != (moved == step[1]):
                # Leaving the moving region, the ray sits on the new disc; bridge back.
                out.append([bridge, far, near] if prev_moves else [bridge, near, far])
            out.append(step)
            prev_moves = moved == step[2]
        if prev_moves:  # the tip never moves
            out.append([bridge, far, near])
        if len(out) != len(ray.steps):
            ray.steps = out
            rerouted.append(ray)
    return bridge_band.end_disc(far), rerouted


def _move_end(band: _Band, end: str, disc: int) -> None:
    band.l, band.r = (disc, band.r) if end == L else (band.l, disc)
    if not band.l < band.r:
        raise StarError("slide produced an inverted band")


def _slide_end(state: _State, bid: int, h: int, end: str, bridge: int) -> list[_Ray]:
    """Slide band ``bid``'s ``end`` over the ``bridge`` band to the bridge's
    other disc and move the band to height ``h``; returns the rays the
    slide re-routed."""
    _drop_ends(state, bid)
    band = state.bands[bid]
    disc, rerouted = _transfer_region(state, {bid: end}, bridge)
    _move_end(band, end, disc)
    band.h = h
    _insert_ends(state, bid)
    return rerouted


def _carry_span(state: _State, btau: list[int], x0: int, h_new: int, h_tip: int, new_id: int) -> None:
    """Step 3 of ``_reduce_state`` in one pass: the span ``btau``, highest
    first, moves into (h_new, h_tip) in order, and its ends at the tip disc
    ``x0`` slide over the fresh band to ``x0 + 1``, re-routing the rays in
    one walk.  No other band lies strictly between ``band0.h`` and ``h_tip``
    (a band at exactly ``h_tip`` is outside the span and stays above it), so
    no other disc's order changes: ``x0`` loses the moved ends, and
    ``x0 + 1`` gets them above the fresh band.
    """
    bands = state.bands
    moving = {bid: L if bands[bid].l == x0 else R for bid in btau if x0 in (bands[bid].l, bands[bid].r)}
    disc, _rerouted = _transfer_region(state, moving, new_id)
    for k, bid in enumerate(btau):
        band = bands[bid]
        band.h = h_new + _div((h_tip - h_new) * (len(btau) - k), len(btau) + 1)
        if bid in moving:
            _move_end(band, moving[bid], disc)
    state.order[x0] = [end for end in state.order[x0] if end[1] not in moving]
    state.order[disc] = [(bands[bid], bid) for bid in moving] + state.order[disc]


def _normalize(state: _State, ray: _Ray) -> tuple[int, bool]:
    """Steps 0 and 2 of ``_reduce_state`` as one disc relabelling; returns
    the tip disc and whether the state was mirrored.

    Upside down when the tail points down (heights and disc order reverse,
    twist signs stay; heights alone would not be an isotopy), mirrored when
    the crossed band is negative (disc order and twist signs reverse), the
    two disc reversals cancelling when both apply; then a twirl wraps the
    band's left disc round to n and an inflation adds an empty disc after
    the tip disc.
    """
    band0 = state.bands[ray.steps[-1][0]]
    n = state.discs
    flip = ray.tip_h < band0.h
    if flip:
        for band in state.bands.values():
            band.h = -band.h
        for r in state.rays:
            r.tip_h = -r.tip_h
        for ends in state.order.values():
            ends.reverse()
    mirror = band0.e != 1
    if mirror:
        for band in state.bands.values():
            band.e = -band.e
    reverse = flip != mirror  # one disc reversal, or two that cancel
    left = n + 1 - band0.r if reverse else band0.l
    exits_right = (ray.steps[-1][2] == R) != reverse
    times = left if exits_right else 0  # the band's left disc wraps round to n

    def g(d: int) -> int:
        return ((n + 1 - d if reverse else d) - 1 - times) % n + 1

    x0 = min(g(band0.l), g(band0.r))
    state.discs += 1
    _relabel_discs(state, lambda d: (e := g(d)) + (e > x0))  # g once per disc
    return x0, mirror


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
        candidates.append((tips_inside, _tail_sides(state, ray)[0], idx))
    if not candidates:
        raise StarError("no long ray to reduce")
    candidates.sort()
    if candidates[0][0] != 0:
        raise StarError("no innermost ray found")
    return candidates[0][2]


def _reduce_state(state: _State) -> None:
    """Trade one band crossing for a disc-band pair, keeping homogeneity.

    Requires a homogeneous word, a minimal star (no slack or loose rays)
    and at least one crossing.  Adds exactly one disc and one band, and
    strictly decreases the total crossing count.
    """
    signs: dict[tuple[int, int], int] = {}
    for band in state.bands.values():
        if signs.setdefault((band.l, band.r), band.e) != band.e:
            raise StarError("surface word is not homogeneous")
    before = delta_b(state)
    if before == 0:
        raise StarError("star already lies in the discs")
    if any(_has_slack(ray) or _ray_loose_removable(state, ray) is not None for ray in state.rays):
        raise StarError("star is not minimal")

    idx = _pick_ray(state)

    # Step 0: one relabelling makes the tail point up, the crossed band
    # positive and the tip disc its left disc, and inflates step 2's disc.
    # Mirroring is not an isotopy, so a negative crossed band runs the whole
    # construction inside a mirror sandwich.
    ray = state.rays[idx]
    b0 = ray.steps[-1][0]
    x0, mirrored = _normalize(state, ray)
    band0 = state.bands[b0]

    # Step 1: bands across the tail span; the ones at the tip disc exist
    # because the ray is not loose.
    btau = [bid for bid, b in state.bands.items() if band0.h < b.h < ray.tip_h]
    btau.sort(key=lambda bid: -state.bands[bid].h)
    if not any(state.bands[b].l == x0 or state.bands[b].r == x0 for b in btau):
        raise StarError("chosen ray's span carries no band at the tip disc")
    # Steps 2-4 halve a gap, split the rest into len(btau) + 1 parts and
    # halve a gap again; this scale keeps all three exact.  Step 6 halves
    # once more after step 5's retraction has doubled every height.
    state.rescale(4 * (len(btau) + 1))
    h_tip = ray.tip_h

    # Step 2: a positive band from the tip disc to the fresh one, above the span.
    top = max(state.bands[b].h for b in btau)
    new_id = state.next_id
    state.next_id += 1
    h_new = _div(top + h_tip, 2)
    state.bands[new_id] = _Band(x0, x0 + 1, 1, h_new)
    _insert_ends(state, new_id)

    # Step 3: carry the whole span above the fresh band in one pass.  The
    # star was minimal and the relabelling kept it so.  The carry leaves it
    # slack-free: its one walk adds single steps through the fresh band,
    # which no ray crossed before, between a ray's steps.  A retraction
    # leaves a slack-free ray slack-free, so after a later slide only the
    # rays it re-routed can hold slack.
    _carry_span(state, btau, x0, h_new, h_tip, new_id)

    # Step 4: slide the crossed band over the fresh one.
    _remove_slack(_slide_end(state, b0, _div(h_new + min(state.bands[b].h for b in btau), 2), L, new_id))

    # Step 5: the chosen ray is loose at the fresh band; retract it.
    side = _ray_loose(state, state.rays[idx])
    if side is None or state.rays[idx].steps[-1][0] != new_id:
        raise StarError("reduction invariant broken before the first retraction")
    _remove_loose_once(state, idx, side)

    # Step 6: slide the fresh band over the crossed band.
    _remove_slack(_slide_end(state, new_id, _div(band0.h + min(state.bands[b].h for b in btau), 2), R, b0))

    # Step 7: the ray is loose again at the crossed band; retract.
    side = _ray_loose(state, state.rays[idx])
    if side is None or state.rays[idx].steps[-1][0] != b0:
        raise StarError("reduction invariant broken before the second retraction")
    _remove_loose_once(state, idx, side)

    # Step 7's landing was checked.  The mirror renames discs and flips
    # signs and end labels together, so it keeps the same chords embedded.
    if mirrored:
        _relabel_discs(state, lambda d: state.discs + 1 - d)
        for band in state.bands.values():
            band.e = -band.e
    if delta_b(state) >= before:
        raise StarError("reduction failed to decrease the crossing count")


def _reduce_states(state: _State) -> Iterator[_State]:
    """Minimize the live state, spread as ``_materialize`` leaves it, then
    reduce and minimize it in place until the star misses all bands,
    yielding it after each minimization.

    Heights are re-spread to the ``_materialize(*_freeze(state))`` order
    before and after each step, so every step sees the state that a round
    trip through frozen objects would give.  Re-spreading a spread state
    changes nothing, so the spread before a step is skipped when the
    minimization after the last spread removed nothing.  The input state
    was checked when it was built; a re-spread state that minimization
    leaves unchanged is checked here.
    """
    spread = not _minimize_state(state)
    budget = delta_b(state)
    yield state
    while delta_b(state):
        if budget == 0:
            raise StarError("reduction exceeded its crossing budget")
        budget -= 1
        if not spread:
            _renormalize(state)
        _reduce_state(state)
        _renormalize(state)
        spread = not _minimize_state(state)
        if spread:
            _check_state(state)
        yield state


def reductions(surface: BraidedSurface, star: Star) -> Iterator[tuple[BraidedSurface, Star]]:
    """Yield the minimized star, then each reduced and minimized (surface, star).

    The whole reduction runs on one live state and only the yielded pairs
    are frozen.  Its heights are re-spread to the ``_materialize(*_freeze())``
    order before each step, so the pairs are those of reducing one step and
    minimizing on frozen pairs.  Stops once the star misses all bands.
    Every step removes at least one crossing, so more steps than the first
    minimized star has crossings raise StarError.  The star is checked first,
    as ``check_star`` does, on the state the reduction runs on.
    """
    for state in _reduce_states(_checked(surface, star)):
        yield _freeze(state)


def reduce_to_disc(surface: BraidedSurface, star: Star) -> tuple[BraidedSurface, Star]:
    """Minimize and reduce until the star misses all bands.

    Runs on one live state from one ``_materialize`` to one ``_freeze``,
    checked first as ``check_star`` does and re-spread before each step as
    ``reductions`` does; the result is the last pair ``reductions`` yields.
    """
    state = _checked(surface, star)
    for _ in _reduce_states(state):
        pass
    return _freeze(state)
