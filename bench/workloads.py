"""The three seeded workloads: input generation, the timed call, answer checks.

Each workload generates a corpus from the seed with the library it will
measure (generation is not timed), serializes every input in the library's
own formats, and knows how to parse one input back (timed as set-up), run
one operation on it, reduce the result to plain data, and check that data
against a reference fixed at generation time.

Input sizes are stratified (Latin blocks of sizes for the closures, fixed
counts per crossing number for the stars, equal counts per strand count and
kind with stratified lengths for the braid pairs), so the size mix a run consumes
barely depends on the seed and the spread between seeds comes from input
structure, not from the size draw.  ``generate`` adds to a ``Counter`` the
message of every drawn input the library refused and left out; only the
star workload has any.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter

import oracle


def _hist(values) -> dict:
    return dict(sorted(Counter(values).items()))


def _bucket(value: int, width: int) -> str:
    lo = value // width * width
    return f"{lo}-{lo + width - 1}"


# ---------------------------------------------------------------------------
# closures_long: pipeline.homogenize on braid closures
# ---------------------------------------------------------------------------


def _homogeneous_artin(rng, strands: int, length: int):
    """Random homogeneous Artin word with every generator present."""
    sign = {i: rng.choice((1, -1)) for i in range(1, strands)}
    gens = list(range(1, strands)) + [rng.randint(1, strands - 1) for _ in range(length - strands + 1)]
    rng.shuffle(gens)
    return [(i, sign[i]) for i in gens]


class Closures:
    """``pipeline.homogenize`` on closure diagrams of homogeneous braids.

    The diagram of a closed n-strand braid has n Seifert circles and one
    crossing per letter, so the band word must have n strands, one letter
    per input letter, one sign per generator, and the input braid's
    component count and Alexander polynomial.
    """

    def __init__(self, name: str, strands, offsets: int, letters, count: int, why: str, predicted):
        self.name = name
        self.strands = strands
        self.offsets = offsets  # letter-count steps, each walked once per block
        self.letters = letters  # (strands, step) -> letter count
        self.count = count
        self.why = why
        self.predicted = predicted  # span name -> predicted share of operation time

    def generate(self, lib, rng, refused):
        """Latin blocks: each block has every letter step once, and each run
        of len(strands) blocks has every (strands, step) pair once."""
        cases = []
        while len(cases) < self.count:
            steps = list(range(self.offsets))
            rng.shuffle(steps)
            for block in range(len(self.strands)):
                for j, step in enumerate(steps):
                    strands = self.strands[(block + j) % len(self.strands)]
                    letters = _homogeneous_artin(rng, strands, self.letters(strands, step))
                    d = lib.diagrams.closure_diagram(lib.words.ArtinWord(strands, letters))
                    cases.append((d.to_json(), (strands, letters)))
        return cases[: self.count]

    def parse(self, lib, text):
        return lib.diagrams.Diagram.from_json(text)

    def run(self, lib, diagram):
        return lib.pipeline.homogenize(diagram)

    def answer(self, word):
        return word.strands, word.letters

    def check(self, reference, answer, rng):
        strands, artin = reference
        out_strands, bands = answer
        if out_strands != strands:
            return f"{out_strands} strands, expected {strands} Seifert circles"
        if len(bands) != len(artin):
            return f"{len(bands)} letters for {len(artin)} crossings"
        if not oracle.homogeneous(bands):
            return "band word is not homogeneous"
        if oracle.components(strands, bands) != oracle.components(strands, artin):
            return "component count changed"
        if not oracle.same_alexander((strands, artin), (strands, oracle.band_to_artin(bands)), rng):
            return "Alexander polynomial changed"
        return None

    def shape(self, cases):
        return {
            "strands": _hist(ref[0] for _text, ref in cases),
            "letters": _hist(len(ref[1]) for _text, ref in cases),
        }


# ---------------------------------------------------------------------------
# star_reduce: stars.reduce_to_disc on transverse stars
# ---------------------------------------------------------------------------


# Share of reducible stars per crossing count left after ``stars.minimize``
# (bucket lower bounds), as this generator draws them (measured on 3000
# stars; the share of stars that minimize refuses is left out).  An operation costs about 0.9 ms per remaining crossing and half the
# stars minimize to none, so the operation median sits where cost jumps; fixed
# counts per bucket keep the corpus mix, and with it that median, the same for
# every seed.
MINIMIZED_SHARES = (
    (0, 0.517), (1, 0.126), (2, 0.106), (3, 0.080), (4, 0.062),
    (5, 0.039), (6, 0.033), (7, 0.015), (8, 0.022),
)


class StarReduce:
    """``stars.reduce_to_disc`` on random homogeneous surfaces and stars.

    A reduced star misses every band, the surface word stays homogeneous,
    and the closure keeps its component count and Alexander polynomial.
    Stars that ``reduce_to_disc`` refuses (``StarError``) are counted by
    reason while the corpus is drawn and left out of it, so no timed
    operation fails and the refusal counts stay visible.
    """

    name = "star_reduce"
    why = (
        "reduce_to_disc, up to 10 discs/30 bands, 6 rays of 8 steps; stars "
        "layer alone, no invariant call timed; ms ops, heavy tail; refusals counted at draw"
    )
    predicted = {"stars.reduce_step": 0.6, "stars.minimize": 0.35, "invariants.fox": 0.0, "invariants.burau": 0.0}
    MAX_DISCS, MAX_BANDS, MAX_RAYS, MAX_STEPS = 10, 30, 6, 8

    def __init__(self, count: int):
        self.count = count

    def _surface(self, rng, discs):
        sign = {}
        bands = []
        for _ in range(rng.randint(1, self.MAX_BANDS)):
            l = rng.randint(1, discs - 1)
            r = rng.randint(l + 1, discs)
            bands.append((l, r, sign.setdefault((l, r), rng.choice((1, -1)))))
        return bands

    def _star(self, rng, discs, bands):
        """Rays as (steps, tip disc, tip gap) walked from a random center."""
        attached = {d: [] for d in range(1, discs + 1)}
        for k, (l, r, _e) in enumerate(bands):
            attached[l].append((k, "L", "R", r))
            attached[r].append((k, "R", "L", l))
        center = rng.randint(1, discs)
        rays = []
        for _ in range(rng.randint(1, self.MAX_RAYS)):
            disc = center
            steps = []
            for _ in range(rng.randint(0, self.MAX_STEPS)):
                if not attached[disc]:
                    break
                k, end, other, disc = rng.choice(attached[disc])
                steps.append((k, end, other))
            rays.append((tuple(steps), disc, rng.randint(0, len(attached[disc]))))
        return center, rays

    def generate(self, lib, rng, refused):
        """Stars that pass ``check_star`` and reduce, in fixed numbers per
        minimized crossing count.  A refusal of ``minimize`` (for every
        ``check_star``-valid star drawn) or of ``reduce_to_disc`` (for those
        that fill a free place) adds its message to ``refused``."""
        quota = [round(share * self.count) for _lowest, share in MINIMIZED_SHARES]
        quota[0] += self.count - sum(quota)
        lowest = [m for m, _share in MINIMIZED_SHARES]
        cases = []
        while len(cases) < self.count:
            discs = rng.randint(2, self.MAX_DISCS)
            bands = self._surface(rng, discs)
            center, rays = self._star(rng, discs, bands)
            surface = lib.surfaces.BraidedSurface(discs, bands)
            star = lib.stars.Star(center, [lib.stars.Ray(*ray) for ray in rays])
            try:
                lib.stars.check_star(surface, star)
            except lib.stars.StarError:
                continue
            try:
                minimized = lib.stars.delta_b(lib.stars.minimize(surface, star))
                bucket = bisect_right(lowest, minimized) - 1
                if not quota[bucket]:
                    continue
                lib.stars.reduce_to_disc(surface, star)
            except lib.stars.StarError as exc:
                refused[str(exc)] += 1
                continue
            quota[bucket] -= 1
            steps = [len(ray[0]) for ray in rays]
            cases.append(((surface.to_json(), star.to_json()), (discs, tuple(bands), steps, minimized)))
        return cases

    def parse(self, lib, texts):
        surface_text, star_text = texts
        return lib.surfaces.BraidedSurface.from_json(surface_text), lib.stars.Star.from_json(star_text)

    def run(self, lib, item):
        return lib.stars.reduce_to_disc(*item)

    def answer(self, result):
        surface, star = result
        return surface.discs, surface.bands, sum(len(ray.steps) for ray in star.rays)

    def check(self, reference, answer, rng):
        discs, bands, _steps, _minimized = reference
        out_discs, out_bands, crossings = answer
        if crossings:
            return f"reduced star still crosses {crossings} bands"
        if not oracle.homogeneous(out_bands):
            return "surface word lost homogeneity"
        if oracle.components(out_discs, out_bands) != oracle.components(discs, bands):
            return "component count changed"
        if (out_discs, out_bands) != (discs, bands) and not oracle.same_alexander(
            (discs, oracle.band_to_artin(bands)), (out_discs, oracle.band_to_artin(out_bands)), rng
        ):
            return "Alexander polynomial changed"
        return None

    def shape(self, cases):
        refs = [ref for _texts, ref in cases]
        return {
            "discs": _hist(r[0] for r in refs),
            "bands": _hist(_bucket(len(r[1]), 10) for r in refs),
            "rays": _hist(len(r[2]) for r in refs),
            "steps_per_ray": _hist(s for r in refs for s in r[2]),
            "crossings": _hist(_bucket(sum(r[2]), 10) for r in refs),
            "minimized_crossings": _hist(r[3] for r in refs),
        }


# ---------------------------------------------------------------------------
# braid_equal: words.braids_equal on scrambled pairs
# ---------------------------------------------------------------------------


def _format(letters) -> str:
    parts = []
    for letter in letters:
        head = f"s{letter[0]}" if len(letter) == 2 else f"b({letter[0]},{letter[1]})"
        parts.append(head if letter[-1] > 0 else head + "^-1")
    return " ".join(parts) or "e"


def _commute(x, y) -> bool:
    if len(x) == 2:
        return abs(x[0] - y[0]) >= 2
    (a, b), (c, d) = x[:2], y[:2]
    if {a, b} & {c, d}:
        return False
    return not (a < c < b < d or c < a < d < b)


def _triangle_forms(x, y):
    """Equal band pairs for a pair sharing one endpoint, or None.

    With r < s < t: b(s,t) b(r,s) = b(r,s) b(r,t) = b(r,t) b(s,t), and
    the reversed pairs for negative letters.
    """
    if len(x) == 2 or x[2] != y[2]:
        return None
    points = sorted({x[0], x[1], y[0], y[1]})
    if len(points) != 3:
        return None
    r, s, t = points
    forms = [((s, t), (r, s)), ((r, s), (r, t)), ((r, t), (s, t))]
    if x[2] < 0:
        forms = [(b, a) for a, b in forms]
    return forms if (x[:2], y[:2]) in forms else None


SCAN = 24  # letters searched for a place to apply a rewrite


def _scramble(rng, letters, strands: int, moves: int):
    """Rewrite by free insertions, far commutations and braid relations."""
    w = list(letters)
    band = len(w[0]) == 3 if w else False
    for _ in range(moves):
        roll = rng.random()
        if roll < 0.1 or len(w) < 3:
            e = rng.choice((1, -1))
            if band:
                r = rng.randint(1, strands - 1)
                s = rng.randint(r + 1, strands)
                pair = [(r, s, e), (r, s, -e)]
            else:
                i = rng.randint(1, strands - 1)
                pair = [(i, e), (i, -e)]
            p = rng.randint(0, len(w))
            w[p:p] = pair
            continue
        start = rng.randrange(len(w) - 2)
        for p in range(start, min(start + SCAN, len(w) - 2)):
            if roll < 0.55:
                if _commute(w[p], w[p + 1]):
                    w[p], w[p + 1] = w[p + 1], w[p]
                    break
            elif band:
                forms = _triangle_forms(w[p], w[p + 1])
                if forms:
                    x, y = rng.choice([f for f in forms if f != (w[p][:2], w[p + 1][:2])])
                    e = w[p][2]
                    w[p : p + 2] = [x + (e,), y + (e,)]
                    break
            else:
                (a, x), (b, y), (c, z) = w[p : p + 3]
                if a == c and abs(a - b) == 1 and x == y == z:
                    w[p : p + 3] = [(b, x), (a, x), (b, x)]
                    break
    return w


class BraidEqual:
    """``words.braids_equal`` on pairs whose answer is known by construction.

    Equal pairs: v is u rewritten by relations.  Unequal pairs: the pure
    commutator [x^2, y^2] of two generators sharing a strand is inserted
    into u before rewriting, so permutation and exponent sum still agree.
    A third of the pairs of each kind are given in band generators; their length
    counts the Artin letters they expand to, so both presentations cost
    handle reduction alike.
    """

    name = "braid_equal"
    why = (
        "braids_equal, 4-10 strands, 50-200 letters, half equal, a third in band "
        "generators; the only workload on handle reduction and bkl_to_artin"
    )
    predicted = {"words.handle_reduce": 0.98, "words.bkl_to_artin": 0.01}
    MIN_STRANDS, MAX_STRANDS, MIN_LETTERS, MAX_LETTERS = 4, 10, 50, 200

    def __init__(self, count: int):
        self.count = count

    def generate(self, lib, rng, refused):
        """Every (strands, kind) pair equally often, each with its letter
        counts stratified over the range, in random order."""
        kinds = [(equal, band) for equal in (True, False) for band in (False, False, True)]
        cells = [(strands, kind) for strands in range(self.MIN_STRANDS, self.MAX_STRANDS + 1) for kind in kinds]
        per = self.count // len(cells)
        span = self.MAX_LETTERS - self.MIN_LETTERS + 1
        plan = [
            (strands, equal, band, self.MIN_LETTERS + int((j + rng.random()) / per * span))
            for strands, (equal, band) in cells
            for j in range(per)
        ]
        rng.shuffle(plan)
        cases = []
        for strands, equal, band, length in plan:
            if band:
                u, expanded = [], 0
                while expanded < length:
                    r = rng.randint(1, strands - 1)
                    s = rng.randint(r + 1, strands)
                    u.append((r, s, rng.choice((1, -1))))
                    expanded += 2 * (s - r) - 1
            else:
                u = [(rng.randint(1, strands - 1), rng.choice((1, -1))) for _ in range(length)]
            v = list(u)
            if not equal:
                if band:
                    r, s, t = sorted(rng.sample(range(1, strands + 1), 3))
                    x, y = (r, s), (s, t)
                else:
                    i = rng.randint(1, strands - 2)
                    x, y = (i,), (i + 1,)
                c = [x + (1,)] * 2 + [y + (1,)] * 2 + [x + (-1,)] * 2 + [y + (-1,)] * 2
                p = rng.randint(0, len(v))
                v[p:p] = c
            v = _scramble(rng, v, strands, length)
            size = len(oracle.band_to_artin(u)) if band else len(u)
            cases.append(((_format(u), _format(v), strands), (equal, band, strands, size, len(v))))
        return cases

    def parse(self, lib, texts):
        u, v, strands = texts
        return lib.words.parse_word(u, strands), lib.words.parse_word(v, strands)

    def run(self, lib, pair):
        return lib.words.braids_equal(*pair)

    def answer(self, result):
        return bool(result)

    def check(self, reference, answer, rng):
        if answer != reference[0]:
            return f"braids_equal returned {answer}, expected {reference[0]}"
        return None

    def shape(self, cases):
        refs = [ref for _texts, ref in cases]
        return {
            "strands": _hist(r[2] for r in refs),
            "artin_letters_u": _hist(_bucket(r[3], 50) for r in refs),
            "letters_v": _hist(_bucket(r[4], 50) for r in refs),
            "mix": _hist(
                ("equal" if r[0] else "unequal") + ("/band" if r[1] else "/artin") for r in refs
            ),
        }


WORKLOADS = {
    w.name: w
    for w in (
        Closures(
            "closures_long",
            strands=(3, 4, 5),
            offsets=17,
            letters=lambda strands, step: 16 + step,
            count=102,
            why=(
                "homogenize, 3-5 strands, 16-32 letters, every generator present; "
                "Fox side dominates (predicted Fox 89%, Burau 7% of homogenize)"
            ),
            predicted={"invariants.fox": 0.89, "invariants.burau": 0.07},
        ),
        StarReduce(1200),
        BraidEqual(588),
    )
}
