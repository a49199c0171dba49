"""Reference oracles for differential tests.

These are the straightforward forms of the library's oracles: full reduced
Burau matrices multiplied letter by letter, a dense Wirtinger matrix, and a
fraction-free (Bareiss) determinant over Laurent polynomials, with the
Laurent sum, product and exact division as plain functions here.  They are
slow but share no arithmetic with the library's evaluation engine.  The braid
permutation is kept in its O(L * n) form, rescanning every strand per letter,
and handle reduction in its O(L) per step form, rescanning the whole word for
the first handle and free-reducing all of it after every step.  A plumbing
leaf is its own sub-diagram, analysed from scratch, and realizations are
enumerated with a full acyclicity check on a copy of the height graph per cut.
Primitive flatness is the nesting definition: for each connected component,
every choice of outer region is tried, and the circles must all sit at
nesting depth 0 for the best one.  A connected diagram's fatgraph is read off
its Seifert circles' traversal orders directly.  A star reduction round-trips
through frozen ``(surface, star)`` pairs between steps, a disc's band order
is a scan of every band, sorted, and a star state's embeddedness is checked
on explicit chords with tagged endpoints.  Slack leaves a star state one
edit at a time, each search starting again from the first ray.  A star
state is minimized by restarts, every ray rescanned after each retraction,
and a reduction step removes slack from every ray after each slide and
retraction; a slide's transfer tags every point of a ray.  A
reduction step's flip, mirror, twirl and inflation are four relabellings.  A retracted tip's landing
candidates are scanned above and below in two written-out branches, and a
slide down is its own table of patterns, not a slide up conjugated by
inversion.  Twirls and turns are applied one move at a time, on surfaces
and on star states, a disc relabelling moves the bands first and rebuilds
every disc's order after, and a leaf is turned one letter at a time until
it lines up.  Diagram validity and ray classes are
read off ``analyze`` and a materialized state.  Plumbing acts on band words:
the running word is twirled, each piece's word turned and the two plumbed by
a shuffle pattern, with the disc map and the crossing list carried beside and
checked against the letters.  ``homogenize`` chooses each leaf's realization
by gating every candidate against the leaf's own block and the component
count of the leaf's own diagram.  Each Seifert builder is one body per
surface that adds its twist term and halves; the library builds the twist
term apart, so that its gate can leave it out.  Words are parsed token by
token, with two regular expressions and a running length, and a band word
is translated to Artin letters one band letter at a time.  The surface and
star readers type-check every value in a pass of its own and build through
the checking constructors.
"""

from __future__ import annotations

import heapq
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from braidbands import pipeline, stars
from braidbands.diagrams import (
    Diagram,
    DiagramError,
    DiagramStructure,
    _UnionFind,
    analyze,
    link_components,
    subdiagram,
)
from braidbands.laurent import Laurent
from braidbands.pipeline import Fatgraph, PipelineError, SoundnessError, _disc_positions
from braidbands.plumbing import ShufflePattern, plumb
from braidbands.stars import (
    L,
    R,
    Ray,
    Star,
    StarError,
    _div,
    _materialize,
    _ray_loose,
    _relabel_discs,
    _Ray,
    _State,
    check_star,
    delta_b,
    minimize,
    reduce_step,
)
from braidbands.surfaces import BraidedSurface, MoveError, from_word, to_word, word_turn, word_twirl
from braidbands.words import (
    MAX_WORD_LETTERS,
    ArtinWord,
    BKLWord,
    Permutation,
    Word,
    WordError,
    closure_components,
)

Matrix = list[list[Laurent]]


# ---------------------------------------------------------------------------
# Laurent arithmetic for the references and the tests; the library only negates and shifts
# ---------------------------------------------------------------------------

def monomial(exponent: int = 1, coeff: int = 1) -> Laurent:
    return Laurent({exponent: coeff})


def add(a: Laurent, b: Laurent) -> Laurent:
    d = dict(a.coeffs)
    for k, c in b.coeffs:
        d[k] = d.get(k, 0) + c
    return Laurent(d)


def sub(a: Laurent, b: Laurent) -> Laurent:
    return add(a, -b)


def mul(a: Laurent, b: Laurent) -> Laurent:
    d: dict[int, int] = {}
    for k1, c1 in a.coeffs:
        for k2, c2 in b.coeffs:
            d[k1 + k2] = d.get(k1 + k2, 0) + c1 * c2
    return Laurent(d)


def substitute_inverse(a: Laurent) -> Laurent:
    """The polynomial with t replaced by 1/t."""
    return Laurent({-k: c for k, c in a.coeffs})


def divide_exact(a: Laurent, divisor: Laurent) -> Laurent:
    """Exact division; raises ValueError when the division leaves a remainder."""
    if divisor.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if a.is_zero():
        return Laurent.zero()
    # Shift both to ordinary polynomials, divide, shift back.
    num, num_off = a.coefficient_list()
    den, den_off = divisor.coefficient_list()
    if len(num) < len(den):
        raise ValueError("non-exact Laurent division")
    quot = [0] * (len(num) - len(den) + 1)
    rem = list(num)
    lead = den[-1]
    for i in range(len(quot) - 1, -1, -1):
        q, r = divmod(rem[i + len(den) - 1], lead)
        if r:
            raise ValueError("non-exact Laurent division")
        quot[i] = q
        if q:
            for j, dc in enumerate(den):
                rem[i + j] -= q * dc
    if any(rem):
        raise ValueError("non-exact Laurent division")
    return Laurent.from_list(quot, num_off - den_off)


def _identity(n: int) -> Matrix:
    return [[Laurent.one() if i == j else Laurent.zero() for j in range(n)] for i in range(n)]


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    m = len(b[0]) if b else 0
    k = len(b)
    out = [[Laurent.zero() for _ in range(m)] for _ in range(n)]
    for i in range(n):
        for j in range(m):
            acc = Laurent.zero()
            for x in range(k):
                if a[i][x].is_zero() or b[x][j].is_zero():
                    continue
                acc = add(acc, mul(a[i][x], b[x][j]))
            out[i][j] = acc
    return out


def determinant(m: Matrix) -> Laurent:
    """Fraction-free (Bareiss) determinant over Laurent polynomials.

    Every division in the elimination is exact, so the computation stays in
    integer Laurent polynomials throughout.
    """
    n = len(m)
    if n == 0:
        return Laurent.one()
    a = [row[:] for row in m]
    sign = 1
    prev = Laurent.one()
    for k in range(n - 1):
        if a[k][k].is_zero():
            pivot_row = next((i for i in range(k + 1, n) if not a[i][k].is_zero()), None)
            if pivot_row is None:
                return Laurent.zero()
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = divide_exact(sub(mul(a[k][k], a[i][j]), mul(a[i][k], a[k][j])), prev)
            a[i][k] = Laurent.zero()
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return -det if sign < 0 else det


def _burau_generator(n: int, i: int, sign: int) -> Matrix:
    """Reduced Burau matrix of the i-th Artin generator of B_n, size (n-1)."""
    m = _identity(n - 1)
    t = monomial()
    tinv = monomial(-1)
    one = Laurent.one()
    if n == 2:
        m[0][0] = monomial(1, -1) if sign > 0 else monomial(-1, -1)
        return m
    if sign > 0:
        if i == 1:
            m[0][0] = -t
            m[1][0] = one
        elif i == n - 1:
            m[n - 3][n - 2] = t
            m[n - 2][n - 2] = -t
        else:
            k = i - 1
            m[k - 1][k] = t
            m[k][k] = -t
            m[k + 1][k] = one
    else:
        if i == 1:
            m[0][0] = -tinv
            m[1][0] = tinv
        elif i == n - 1:
            m[n - 3][n - 2] = one
            m[n - 2][n - 2] = -tinv
        else:
            k = i - 1
            m[k - 1][k] = one
            m[k][k] = -tinv
            m[k + 1][k] = tinv
    return m


def burau_reduced(w: Word) -> Matrix:
    """Product of full reduced Burau generator matrices in word order."""
    word = w if isinstance(w, ArtinWord) else bkl_to_artin(w)
    out = _identity(word.strands - 1)
    for i, e in word.letters:
        out = _mat_mul(out, _burau_generator(word.strands, i, e))
    return out


def alexander_from_braid(w: Word) -> Laurent:
    word = w if isinstance(w, ArtinWord) else bkl_to_artin(w)
    n = word.strands
    if n == 1:
        return Laurent.one()
    b = burau_reduced(word)
    m = [[sub(x, y) for x, y in zip(rb, ri)] for rb, ri in zip(b, _identity(n - 1))]
    det = determinant(m)
    if det.is_zero():
        return Laurent.zero()
    return divide_exact(det, Laurent.from_list([1] * n)).normalized()


def wirtinger_matrix(d: Diagram) -> Matrix | None:
    """Dense Wirtinger Fox matrix over Laurent values; None for more arcs than crossings."""
    st = analyze(d)
    uf = _UnionFind(st.succ)
    for _a, b, _c, dd in d.crossings:
        uf.union(b, dd)
    gens = sorted({uf.find(x) for x in st.succ})
    gen_index = {g: k for k, g in enumerate(gens)}
    c = len(d.crossings)
    if len(gens) != c:
        return None
    t, one = monomial(), Laurent.one()
    rows = []
    for idx, (a, b, cc, _dd) in enumerate(d.crossings):
        over, src, dst = gen_index[uf.find(b)], gen_index[uf.find(a)], gen_index[uf.find(cc)]
        row = [Laurent.zero() for _ in range(c)]
        if st.signs[idx] > 0:
            row[over] = add(row[over], sub(one, t))
            row[src] = add(row[src], t)
            row[dst] = sub(row[dst], one)
        else:
            row[over] = add(row[over], sub(t, one))
            row[src] = add(row[src], one)
            row[dst] = sub(row[dst], t)
        rows.append(row)
    return rows


def alexander_from_diagram_minor(d: Diagram, drop_row: int, drop_col: int) -> Laurent:
    if d.unknots:
        return Laurent.zero()
    rows = wirtinger_matrix(d)
    if rows is None:
        return Laurent.zero()
    minor = [
        [entry for j, entry in enumerate(row) if j != drop_col]
        for i, row in enumerate(rows)
        if i != drop_row
    ]
    return determinant(minor).normalized()


def alexander_from_diagram(d: Diagram) -> Laurent:
    if not d.crossings:
        return Laurent.one() if d.unknots == 1 else Laurent.zero()
    return alexander_from_diagram_minor(d, 0, 0)


def signature(m: list[list[int]]) -> int:
    """Signature of a symmetric integer matrix, by exact congruence diagonalization."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    total = 0
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][i]), None)
        if pivot is None:
            pair = next(((i, j) for i in range(k, n) for j in range(i + 1, n) if a[i][j]), None)
            if pair is None:
                break
            i, j = pair  # row and column j added to i make a[i][i] = 2 a[i][j]
            for r in range(n):
                a[i][r] += a[j][r]
            for r in range(n):
                a[r][i] += a[r][j]
            pivot = i
        a[k], a[pivot] = a[pivot], a[k]
        for row in a:
            row[k], row[pivot] = row[pivot], row[k]
        total += 1 if a[k][k] > 0 else -1
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f:
                for r in range(n):
                    a[i][r] -= f * a[k][r]
                for r in range(n):
                    a[r][i] -= f * a[r][k]
    return total


# ---------------------------------------------------------------------------
# Seifert matrices: one body per surface, each adding its own twist term,
# and each surface's doubled twist-free form 2V - T in one body
# ---------------------------------------------------------------------------

def _passages(cycles, ends) -> dict:
    """Each vertex's passages: (cycle index, edge in, edge out) per visit."""
    at: dict = {}
    for i, cycle in enumerate(cycles):
        edge_in, way_in = cycle[-1]
        for edge, way in cycle:
            v = ends[edge_in][way_in > 0]
            if v != ends[edge][way < 0]:
                raise ValueError(f"cycle {i} is not a closed walk")
            at.setdefault(v, []).append((i, edge_in, edge))
            edge_in, way_in = edge, way
    return at


def _add_twists(cycles, twice: list[list[int]], signs) -> None:
    users: dict = {}
    for i, cycle in enumerate(cycles):
        for edge, way in cycle:
            users.setdefault(edge, []).append((i, way))
    for edge, pairs in users.items():
        e = signs[edge]
        for i, a in pairs:
            row = twice[i]
            for j, b in pairs:
                row[j] -= e * a * b


def _diagram_rest(d: Diagram, cycles, ranks=None) -> list[list[int]]:
    """2V - T of ``invariants.diagram_seifert_matrix(d, cycles, ranks)`` in
    one body: the stacking and the intersection terms of every pair of
    visits at each circle."""
    st = analyze(d)
    regions = [st.crossing_region[cycle[0][0]] for cycle in cycles]
    twice = [[0] * len(cycles) for _ in cycles]
    for v, visits in _passages(cycles, [edge[:2] for edge in st.graph.edges]).items():
        deg = len(st.passages[v])
        place = {cid: k for k, cid in enumerate(st.passages[v])}
        spots = [(i, place[edge_in], place[edge_out]) for i, edge_in, edge_out in visits]
        for i, p, q in spots:
            span = (q - p) % deg
            row = twice[i]
            for j, p2, q2 in spots:
                x = (0 < (p2 - p) % deg <= span) - ((q2 - p) % deg < span)
                if not x:
                    continue
                if regions[i] == regions[j]:
                    row[j] -= x
                elif (ranks[i] > ranks[j]) if ranks else (regions[i] == st.circle_left[v]):
                    row[j] -= 2 * x
    return twice


def _word_rest(w: BKLWord, cycles) -> list[list[int]]:
    """2V - T of ``invariants.word_seifert_matrix(w, cycles)`` in one body:
    the intersection term of every pair of visits at each disc and the
    bands across it."""
    letters = w.letters
    length = len(letters)
    twice = [[0] * len(cycles) for _ in cycles]
    # Letter k, run in direction a by cycle i, passes discs r + 1 .. s.
    passing: dict = {}
    for i, cycle in enumerate(cycles):
        for k, a in cycle:
            for disc in range(letters[k][0] + 1, letters[k][1] + 1):
                passing.setdefault(disc, []).append((k, i, a))
    for disc, visits in _passages(cycles, letters).items():
        over = passing.get(disc, ())
        for i, p, q in visits:
            span = (q - p) % length
            row = twice[i]
            for j, p2, q2 in visits:
                if 0 < (p2 - p) % length <= span:
                    if (q2 - p) % length >= span:
                        row[j] -= 1
                elif (q2 - p) % length < span:
                    row[j] += 1
            # The bands across this disc cross the chord p -> q where their
            # letter lies between its ends; an end letter counts on one side
            # only, since the pushed-off chord runs beside its band.
            for k, j, a in over:
                t = (k - p) % length
                if t < span:
                    twice[j][i] -= a
                    if t:
                        row[j] -= a
                elif t == span and span:
                    row[j] -= a
    return twice


def diagram_seifert_matrix(d: Diagram, cycles, ranks=None) -> list[list[int]]:
    """``invariants.diagram_seifert_matrix`` with the twist term built in."""
    st = analyze(d)
    ends = [(u, v) for u, v, _s, _c in st.graph.edges]
    regions = [st.crossing_region[cycle[0][0]] for cycle in cycles]
    g = len(cycles)
    twice = [[0] * g for _ in range(g)]
    _add_twists(cycles, twice, st.signs)
    for v, visits in _passages(cycles, ends).items():
        deg = len(st.passages[v])
        place = {cid: k for k, cid in enumerate(st.passages[v])}
        left = st.circle_left[v]
        spots = [(i, place[edge_in], place[edge_out]) for i, edge_in, edge_out in visits]
        for i, p, q in spots:
            span = (q - p) % deg
            row = twice[i]
            for j, p2, q2 in spots:
                x = (0 < (p2 - p) % deg <= span) - ((q2 - p) % deg < span)
                if not x:
                    continue
                if regions[i] == regions[j]:
                    row[j] -= x
                elif (ranks[i] > ranks[j]) if ranks else (regions[i] == left):
                    row[j] -= 2 * x
    return [[x >> 1 for x in row] for row in twice]


def word_seifert_matrix(w: BKLWord, cycles) -> list[list[int]]:
    """``invariants.word_seifert_matrix`` with the twist term built in and
    each pair's chord and band-across-disc tests as two-sided comparisons."""
    letters = w.letters
    length = len(letters)
    g = len(cycles)
    twice = [[0] * g for _ in range(g)]
    _add_twists(cycles, twice, [e for _r, _s, e in letters])
    passing: dict = {}
    for i, cycle in enumerate(cycles):
        for k, a in cycle:
            for disc in range(letters[k][0] + 1, letters[k][1] + 1):
                passing.setdefault(disc, []).append((k, i, a))
    for disc, visits in _passages(cycles, letters).items():
        over = passing.get(disc, ())
        for i, p, q in visits:
            span = (q - p) % length
            row = twice[i]
            for j, p2, q2 in visits:
                row[j] -= (0 < (p2 - p) % length <= span) - ((q2 - p) % length < span)
            for k, j, a in over:
                t = (k - p) % length
                if t < span:
                    twice[j][i] -= a
                if 0 < t <= span:
                    row[j] -= a
    return [[x >> 1 for x in row] for row in twice]


_INDEX_DIGITS = len(str(MAX_WORD_LETTERS)) + 1
_ARTIN_TOKEN = re.compile(r"^s(\d+)(?:\^(-?\d+))?$", re.ASCII)
_BKL_TOKEN = re.compile(r"^b\((\d+),(\d+)\)(?:\^(-?\d+))?$", re.ASCII)


def _parse_token(token: str, shared: dict) -> tuple[bool, tuple, int]:
    """(band?, unit letter, count) of one token; equal letters come from ``shared``."""
    m = _ARTIN_TOKEN.match(token)
    band = m is None
    if band:
        m = _BKL_TOKEN.match(token)
        if m is None:
            raise WordError(f"cannot parse token {token!r}")
    *indices, power = m.groups()
    k = 1
    if power:
        digits = power.lstrip("-").lstrip("0")
        if len(digits) > len(str(MAX_WORD_LETTERS)):
            raise WordError(f"word longer than {MAX_WORD_LETTERS} letters at token {token!r}")
        k = int(digits or "0") * (-1 if power[0] == "-" else 1)
    if k == 0:
        raise WordError(f"zero exponent in token {token!r}")
    letter = [int(x) if len(x) < _INDEX_DIGITS else int(x.lstrip("0")[:_INDEX_DIGITS] or "0")
              for x in indices]
    if max(letter) > MAX_WORD_LETTERS:
        raise WordError(f"generator index above {MAX_WORD_LETTERS} in token {token!r}")
    letter = tuple(letter + [1 if k > 0 else -1])
    return band, shared.setdefault(letter, letter), abs(k)


def parse_word(text: str, strands: int | None = None, kind: str | None = None) -> Word:
    """The token grammar read token by token, each run extended as it is read."""
    if strands is not None and strands > MAX_WORD_LETTERS:
        raise WordError(f"more than {MAX_WORD_LETTERS} strands")
    artin: list[tuple[int, int]] = []
    bkl: list[tuple[int, int, int]] = []
    tokens: dict[str, tuple[bool, tuple, int]] = {}
    shared: dict[tuple, tuple] = {}
    for token in text.split():
        if token == "e":
            continue
        parsed = tokens.get(token)
        if parsed is None:
            parsed = tokens[token] = _parse_token(token, shared)
        band, letter, count = parsed
        if len(artin) + len(bkl) + count > MAX_WORD_LETTERS:
            raise WordError(f"word longer than {MAX_WORD_LETTERS} letters at token {token!r}")
        (bkl if band else artin).extend([letter] * count)
    if artin and bkl:
        raise WordError("word mixes Artin and band tokens")
    if bkl or (kind == "bkl" and not artin):
        n = strands if strands is not None else max((s for _, s, _ in bkl), default=1)
        return BKLWord(n, tuple(bkl))
    n = strands if strands is not None else (max((i for i, _ in artin), default=0) + 1)
    return ArtinWord(n, tuple(artin))


def surface_from_json(text: str) -> BraidedSurface:
    """``BraidedSurface.from_json``, type-checking every value before the constructor coerces it."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise MoveError("from_json", "surface", "not a JSON object")
    try:
        bands = [(b["l"], b["r"], b["e"]) for b in data.get("bands", [])]
        if type(data["discs"]) is not int or any(type(x) is not int for band in bands for x in band):
            raise TypeError("discs and band ends must be integers")
        if data["discs"] > MAX_WORD_LETTERS:
            raise ValueError(f"more than {MAX_WORD_LETTERS} discs")
        return BraidedSurface(data["discs"], bands)
    except (KeyError, TypeError, ValueError) as exc:
        raise MoveError("from_json", "surface", f"malformed: {exc!r}") from exc


def star_from_json(text: str) -> Star:
    """``Star.from_json``, checking each integer through a function call."""
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
                tuple([(whole(b), e, x) for b, e, x in r.get("steps", [])]),
                whole(r["tip"]["disc"]),
                whole(r["tip"]["gap"]),
            )
            for r in data.get("rays", [])
        ]
        return Star(whole(data["center"]), rays)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise StarError(f"malformed star: {exc!r}") from exc


def bkl_to_artin(w: BKLWord) -> ArtinWord:
    """Each band letter expanded in turn into its conjugate Artin word."""
    letters: list[tuple[int, int]] = []
    for r, s, e in w.letters:
        conj = list(range(s - 2, r - 1, -1))
        letters.extend((j, -1) for j in reversed(conj))
        letters.append((s - 1, e))
        letters.extend((j, 1) for j in conj)
    return ArtinWord(w.strands, tuple(letters))


def permutation_of(w: Word) -> Permutation:
    pos = list(range(w.strands + 1))  # pos[k] = current position of strand k
    for letter in w.letters:
        if isinstance(w, ArtinWord):
            i, _ = letter
            a, b = i, i + 1
        else:
            a, b, _ = letter
        for k in range(1, w.strands + 1):
            if pos[k] == a:
                pos[k] = b
            elif pos[k] == b:
                pos[k] = a
    return Permutation(tuple(pos[1:]))


def _free_reduce(letters: list[tuple[int, int]]) -> list[tuple[int, int]]:
    out: list[tuple[int, int]] = []
    for i, e in letters:
        if out and out[-1][0] == i and out[-1][1] == -e:
            out.pop()
        else:
            out.append((i, e))
    return out


def _find_handle(letters: list[tuple[int, int]]):
    for q, (i, e) in enumerate(letters):
        for p in range(q - 1, -1, -1):
            j, d = letters[p]
            if j > i:
                continue
            if j == i and d == -e:
                return p, q
            break
    return None


def _reduce_handle(letters: list[tuple[int, int]], p: int, q: int) -> list[tuple[int, int]]:
    i, e = letters[p]
    middle: list[tuple[int, int]] = []
    for j, d in letters[p + 1 : q]:
        if j == i + 1:
            middle.extend([(i + 1, -e), (i, d), (i + 1, e)])
        else:
            middle.append((j, d))
    return letters[:p] + middle + letters[q + 1 :]


def handle_reduce(w: ArtinWord) -> ArtinWord:
    """Dehornoy handle reduction: reduce the first handle, free-reduce, repeat."""
    letters = _free_reduce(list(w.letters))
    while True:
        found = _find_handle(letters)
        if found is None:
            return ArtinWord(w.strands, tuple(letters))
        letters = _free_reduce(_reduce_handle(letters, *found))


def piece(d: Diagram, crossing_ids):
    """A leaf's sub-diagram and the map from source circles to its circles."""
    keep = sorted(set(crossing_ids))
    sub = subdiagram(d, keep, keep_free_circles=False)
    st, pst = analyze(d), analyze(sub)
    circle_map: dict[int, int] = {}
    for k, cid in enumerate(keep):
        a = d.crossings[cid][0]
        pa = sub.crossings[k][0]
        circle_map[st.circle_of[a]] = pst.circle_of[pa]
        c = d.crossings[cid][2]
        pc = sub.crossings[k][2]
        circle_map[st.circle_of[c]] = pst.circle_of[pc]
    return sub, circle_map


def realization_word(fat: Fatgraph, pos, order) -> BKLWord:
    """The band word of a realization (disc position map, edge order)."""
    letters = []
    for e in order:
        u, v, sign = fat.edges[e]
        letters.append((min(pos[u], pos[v]), max(pos[u], pos[v]), sign))
    return BKLWord(fat.vertex_count, letters)


def realizations(fat: Fatgraph, start_vertex: int = 0, limit: int = 4096):
    """``pipeline.realizations``, checking each cut on a copy of the whole graph."""
    fat.check()
    n = fat.vertex_count
    pos = _disc_positions(fat, start_vertex)
    m = len(fat.edges)
    vertices = sorted(range(n), key=lambda v: pos[v])
    adj: list[list[int]] = [[] for _ in range(m)]
    emitted = 0

    def acyclic(extra: list[tuple[int, int]]) -> bool:
        graph = [list(a) for a in adj]
        for a, b in extra:
            graph[a].append(b)
        state = [0] * m
        for s in range(m):
            if state[s]:
                continue
            stack = [(s, iter(graph[s]))]
            state[s] = 1
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    if state[nxt] == 1:
                        return False
                    if state[nxt] == 0:
                        state[nxt] = 1
                        stack.append((nxt, iter(graph[nxt])))
                        advanced = True
                        break
                if not advanced:
                    state[node] = 2
                    stack.pop()
        return True

    def constraints_for(v: int, cut: int) -> list[tuple[int, int]]:
        order = fat.orders[v]
        lin = [order[(cut + k) % len(order)][0] for k in range(len(order))]
        return [(lin[k], lin[k + 1]) for k in range(len(lin) - 1)]

    def topo_word():
        indeg = [0] * m
        for a in range(m):
            for b in adj[a]:
                indeg[b] += 1
        heap = [e for e in range(m) if indeg[e] == 0]
        heapq.heapify(heap)
        topo: list[int] = []
        while heap:
            e = heapq.heappop(heap)
            topo.append(e)
            for b in adj[e]:
                indeg[b] -= 1
                if indeg[b] == 0:
                    heapq.heappush(heap, b)
        if len(topo) != m:
            return None
        return realization_word(fat, pos, topo), topo

    def search(idx: int):
        nonlocal emitted
        if emitted >= limit:
            return
        if idx == len(vertices):
            built = topo_word()
            if built is not None:
                emitted += 1
                word, topo = built
                yield word, dict(pos), tuple(topo)
            return
        v = vertices[idx]
        for cut in range(max(1, len(fat.orders[v]))):
            extra = constraints_for(v, cut)
            if acyclic(extra):
                for a, b in extra:
                    adj[a].append(b)
                yield from search(idx + 1)
                for a, b in extra:
                    adj[a].remove(b)

    return search(0)


@dataclass(frozen=True)
class NestingForest:
    parent: tuple[int, ...]  # -1 for roots
    depth: tuple[int, ...]
    root_regions: tuple[int, ...]

    @property
    def max_depth(self) -> int:
        return max(self.depth, default=0)


def _region_tree(st: DiagramStructure) -> dict[int, list[tuple[int, int]]]:
    """Adjacency of smoothed regions: region -> [(neighbor region, circle)]."""
    tree: dict[int, list[tuple[int, int]]] = {r: [] for r in range(st.region_count)}
    for ci in range(len(st.circles)):
        a, b = st.circle_left[ci], st.circle_right[ci]
        tree[a].append((b, ci))
        tree[b].append((a, ci))
    return tree


def _forest_from_root(st: DiagramStructure, tree, root: int, parent_circle, depth) -> None:
    seen = {root}
    queue = [(root, -1, 0)]
    while queue:
        region, above, dep = queue.pop()
        for nbr, circle in tree[region]:
            if nbr in seen:
                continue
            seen.add(nbr)
            parent_circle[circle] = above
            depth[circle] = dep
            queue.append((nbr, circle, dep + 1))


def nesting_forest(d: Diagram) -> NestingForest:
    """Containment forest of Seifert circles for the best outer-region choices.

    PD codes fix an embedding on the sphere only; per connected component the
    outer region is chosen to minimize nesting depth (then total, then id).
    """
    st = analyze(d)
    tree = _region_tree(st)
    # Group regions by diagram component (via any adjacent circle).
    region_component: dict[int, int] = {}
    for ci in range(len(st.circles)):
        region_component[st.circle_left[ci]] = st.circle_component[ci]
        region_component[st.circle_right[ci]] = st.circle_component[ci]
    n_comp = max(st.circle_component, default=-1) + 1
    parent = [-1] * len(st.circles)
    depth = [0] * len(st.circles)
    roots = []
    for comp in range(n_comp):
        candidates = sorted(r for r, k in region_component.items() if k == comp)
        best = None
        for root in candidates:
            p = [-1] * len(st.circles)
            dp = [0] * len(st.circles)
            _forest_from_root(st, tree, root, p, dp)
            members = [ci for ci in range(len(st.circles)) if st.circle_component[ci] == comp]
            key = (max(dp[ci] for ci in members), sum(dp[ci] for ci in members), root)
            if best is None or key < best[0]:
                best = (key, root, p, dp)
        _key, root, p, dp = best
        roots.append(root)
        for ci in range(len(st.circles)):
            if st.circle_component[ci] == comp:
                parent[ci] = p[ci]
                depth[ci] = dp[ci]
    return NestingForest(tuple(parent), tuple(depth), tuple(roots))


def is_primitive_flat(d: Diagram) -> bool:
    """Single-sign diagram whose circles can all sit unnested in the plane."""
    if len(set(analyze(d).signs)) > 1:
        return False
    return nesting_forest(d).max_depth == 0


def fatgraph_of_diagram(d: Diagram) -> Fatgraph:
    """Fatgraph of a connected diagram.

    Each circle's cyclic order is its traversal sequence; the link
    orientation alternates against nesting in exactly the way that makes
    this reading match the braided-surface convention at every circle.
    """
    st = analyze(d)
    if len(set(st.circle_component)) != 1:
        raise PipelineError("fatgraph requires a connected diagram")
    edges = []
    end_at: dict[tuple[int, int], tuple[int, int]] = {}
    for eid, (u, v, sign, cid) in enumerate(st.graph.edges):
        edges.append((u, v, sign))
        end_at[(cid, u)] = (eid, 0)
        end_at[(cid, v)] = (eid, 1)
    orders = []
    for ci, passage in enumerate(st.passages):
        orders.append(tuple([end_at[(cid, ci)] for cid in passage]))
    return Fatgraph(len(st.circles), tuple(edges), tuple(orders))


def reductions_by_freezing(surface: BraidedSurface, star: Star):
    """``stars.reductions`` as public calls on frozen objects: ``minimize``,
    then ``reduce_step`` and ``minimize`` until no crossing is left, after
    ``check_star``."""
    check_star(surface, star)
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


def landing_slots(state: _State, disc: int, h: int, above: bool) -> list[int]:
    """``stars._landing_slots`` with the two sides written out: candidate tip
    heights beside ``h``, nearest first.  Every height on the disc is sorted,
    not only those beyond ``h`` on the landing side."""
    occupied = sorted({band.h for band, _b in state.order.get(disc, ())}
                      | {r.tip_h for r in state.rays if r.tip_disc == disc})
    out: list[int] = []
    if above:
        side = [x for x in occupied if x > h]
        prev = h
        for x in side:
            out.append(_div(prev + x, 2))
            prev = x
        out.append(prev + state.scale)
    else:
        side = [x for x in occupied if x < h]
        prev = h
        for x in reversed(side):
            out.append(_div(prev + x, 2))
            prev = x
        out.append(prev - state.scale)
    return out


def minimize_state_by_restarts(state: _State) -> bool:
    """``stars._minimize_state`` as a restart loop: slack leaves every ray,
    then the first loose ray, scanning from the first, retracts once, and
    both start again until no ray is loose; whether anything was removed."""
    changed = False
    while True:
        changed |= stars._remove_slack(state.rays)
        loose = next(
            ((k, side) for k, ray in enumerate(state.rays)
             if (side := stars._ray_loose_removable(state, ray)) is not None),
            None,
        )
        if loose is None:
            stars._check_state(state)
            return changed
        stars._remove_loose_once(state, *loose)
        changed = True


_CENTER = ("center",)


def transfer_region(state: _State, bid: int, end: str, bridge: int) -> int:
    """``stars._transfer_region`` with every point of a ray as a tagged tuple,
    steps inserted into the ray's own list, and no report of the rays it
    re-routed; returns the disc where the moving end goes."""
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
                    ray.steps.insert(k, [bridge, far, near])
                else:
                    ray.steps.insert(k, [bridge, near, far])
                k += 2
            else:
                k += 1
    return bridge_band.end_disc(far)


def slide_end(state: _State, bid: int, h: int, end: str | None, bridge: int) -> None:
    """``stars._slide_end`` through ``transfer_region``."""
    stars._drop_ends(state, bid)
    band = state.bands[bid]
    if end is not None:
        disc = transfer_region(state, bid, end, bridge)
        if end == L:
            band.l = disc
        else:
            band.r = disc
        if not band.l < band.r:
            raise StarError("slide produced an inverted band")
    band.h = h
    stars._insert_ends(state, bid)


def reduce_state_by_whole_passes(state: _State) -> None:
    """``stars._reduce_state`` with slack removed from every ray after each
    slide step and after the second retraction, and slides through
    ``slide_end``."""
    signs: dict[tuple[int, int], int] = {}
    for band in state.bands.values():
        if signs.setdefault((band.l, band.r), band.e) != band.e:
            raise StarError("surface word is not homogeneous")
    before = delta_b(state)
    if before == 0:
        raise StarError("star already lies in the discs")
    if any(stars._has_slack(ray) or stars._ray_loose_removable(state, ray) is not None
           for ray in state.rays):
        raise StarError("star is not minimal")
    idx = stars._pick_ray(state)
    ray = state.rays[idx]
    b0 = ray.steps[-1][0]
    x0, mirrored = stars._normalize(state, ray)
    band0 = state.bands[b0]
    btau = [bid for bid, b in state.bands.items() if band0.h < b.h < ray.tip_h]
    btau.sort(key=lambda bid: -state.bands[bid].h)
    if not any(state.bands[b].l == x0 or state.bands[b].r == x0 for b in btau):
        raise StarError("chosen ray's span carries no band at the tip disc")
    state.rescale(4 * (len(btau) + 1))
    h_tip = ray.tip_h
    top = max(state.bands[b].h for b in btau)
    new_id = state.next_id
    state.next_id += 1
    h_new = _div(top + h_tip, 2)
    state.bands[new_id] = stars._Band(x0, x0 + 1, 1, h_new)
    stars._insert_ends(state, new_id)
    for k, bid in enumerate(btau):
        band = state.bands[bid]
        end = L if band.l == x0 else R if band.r == x0 else None
        slide_end(state, bid, h_new + _div((h_tip - h_new) * (len(btau) - k), len(btau) + 1),
                  end, new_id)
    stars._remove_slack(state.rays)
    slide_end(state, b0, _div(h_new + min(state.bands[b].h for b in btau), 2), L, new_id)
    stars._remove_slack(state.rays)
    ray = state.rays[idx]
    side = _ray_loose(state, ray)
    if not (ray.steps and ray.steps[-1][0] == new_id and side is not None):
        raise StarError("reduction invariant broken before the first retraction")
    stars._remove_loose_once(state, idx, side)
    slide_end(state, new_id, _div(band0.h + min(state.bands[b].h for b in btau), 2), R, b0)
    stars._remove_slack(state.rays)
    ray = state.rays[idx]
    side = _ray_loose(state, ray)
    if not (ray.steps and ray.steps[-1][0] == b0 and side is not None):
        raise StarError("reduction invariant broken before the second retraction")
    stars._remove_loose_once(state, idx, side)
    stars._remove_slack(state.rays)
    if mirrored:
        _relabel_discs(state, lambda d: state.discs + 1 - d)
        for band in state.bands.values():
            band.e = -band.e
    stars._check_state(state)
    if delta_b(state) >= before:
        raise StarError("reduction failed to decrease the crossing count")


def order_on_disc_scan(state: _State, d: int) -> list[tuple]:
    """Bands with an end on disc ``d`` as ``(band, id)`` pairs, highest first."""
    out = [(band, bid) for bid, band in state.bands.items() if d in (band.l, band.r)]
    out.sort(key=lambda t: -t[0].h)
    return out


def _ray_chords(state: _State, ray):
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


def _point_height(state: _State, point) -> Optional[int]:
    if point[0] == "region":
        return state.bands[point[1]].h
    if point[0] == "tip":
        return point[1]
    return None  # center


def chords_by_disc(state: _State) -> dict[int, tuple[list, list]]:
    """Every ray's chords, built before any is grouped, as each disc's fan
    heights (the chords from the center) and its other chords' sorted
    height pairs, discs in the order their first chord appeared."""
    all_chords = []
    for ray in state.rays:
        all_chords.extend(_ray_chords(state, ray))
    by_disc: dict[int, tuple[list, list]] = {}
    for disc, p, q in all_chords:
        fan, boundary = by_disc.setdefault(disc, ([], []))
        if p == _CENTER:
            fan.append(_point_height(state, q))
        else:
            boundary.append(tuple(sorted((_point_height(state, p), _point_height(state, q)))))
    return by_disc


def check_state_by_chords(state: _State) -> None:
    """``stars._check_state`` on explicit chords: each disc's chords from
    ``chords_by_disc`` are tested pair by pair, skipping pairs that share
    an endpoint."""
    for disc, (fan, boundary) in chords_by_disc(state).items():
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
# Diagram validity and ray classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Diagnostics:
    ok: bool
    problems: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def validate(d: Diagram) -> Diagnostics:
    """Check the PD invariants, reporting the first violated rule."""
    try:
        analyze(d)
    except DiagramError as exc:
        return Diagnostics(False, (str(exc),))
    return Diagnostics(True)


@dataclass(frozen=True)
class RayClass:
    long: bool
    slack: bool
    loose: bool


def classify_ray(surface: BraidedSurface, star: Star, ray_index: int) -> RayClass:
    state = _materialize(surface, star)
    ray = state.rays[ray_index]
    return RayClass(bool(ray.steps), slack_step(ray) is not None, _ray_loose(state, ray) is not None)


# ---------------------------------------------------------------------------
# Slides
# ---------------------------------------------------------------------------

def slide_down_pair(upper, lower):
    """``surfaces._slide_down_pair`` as its own patterns: slide the upper
    band down under its neighbour, or None."""
    (l1, r1, e1), (l2, r2, e2) = upper, lower
    if r1 == r2 and l1 < l2 and e2 == 1:
        i, j, k = l1, l2, r2  # (ik)^{±1} (jk)^{+1} -> (jk)^{+1} (ij)^{±1}
        return (j, k, 1), (i, j, e1)
    if l1 == l2 and r1 > r2 and e2 == -1:
        i, j, k = l1, r2, r1  # (ik)^{±1} (ij)^{-1} -> (ij)^{-1} (jk)^{±1}
        return (i, j, -1), (j, k, e1)
    if l1 == r2 and e2 == 1:
        i, j, k = l2, r2, r1  # (jk)^{±1} (ij)^{+1} -> (ij)^{+1} (ik)^{±1}
        return (i, j, 1), (i, k, e1)
    if r1 == l2 and e2 == -1:
        i, j, k = l1, r1, r2  # (ij)^{±1} (jk)^{-1} -> (jk)^{-1} (ik)^{±1}
        return (j, k, -1), (i, k, e1)
    return None


# ---------------------------------------------------------------------------
# Twirls and turns, one move at a time
# ---------------------------------------------------------------------------

def twirl_once(s: BraidedSurface) -> BraidedSurface:
    """Pass the leftmost disc to the rightmost position."""
    if s.band_count == 0 and s.discs == 1:
        return s
    n = s.discs
    bands = []
    for l, r, e in s.bands:
        if l != 1:
            bands.append((l - 1, r - 1, e))
        else:
            bands.append((r - 1, n, e))
    return BraidedSurface(n, bands)


def turn_once(s: BraidedSurface) -> BraidedSurface:
    """Slide the lowest band around the back to the highest position."""
    if s.band_count == 0:
        return s
    bands = (s.bands[-1],) + s.bands[:-1]
    return BraidedSurface(s.discs, bands)


def relabel_order(state: _State, f) -> None:
    """Rebuild each disc's band order along a disc relabelling ``f`` that the
    bands have already followed, pair by pair; a disc without bands gets no
    key."""
    order: dict[int, list] = {}
    for d, ends in state.order.items():
        if ends:
            order[f(d)] = [(band, bid) for band, bid in ends]
    state.order = order


def relabel_discs(state: _State, f) -> None:
    """``stars._relabel_discs`` band by band: move each band's ends along
    ``f``, swap ends that change order and flip both end labels of every
    step through a swapped band, then move the center, the tips and the
    disc orders."""
    for bid, band in state.bands.items():
        band.l, band.r = f(band.l), f(band.r)
        if band.l > band.r:
            band.l, band.r = band.r, band.l
            for ray in state.rays:
                for step in ray.steps:
                    if step[0] == bid:
                        step[1] = L if step[1] == R else R
                        step[2] = L if step[2] == R else R
    state.center = f(state.center)
    for ray in state.rays:
        ray.tip_disc = f(ray.tip_disc)
    relabel_order(state, f)


def twirl_state_once(state: _State) -> None:
    """One twirl of a star state: disc 1 becomes disc n, the others move left;
    each disc's ``(band, id)`` pairs follow it."""
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
    relabel_order(state, f)


def reverse_discs(state: _State) -> None:
    """Number a star state's discs right to left: every band swaps its ends,
    and each disc's ``(band, id)`` pairs follow it."""
    n = state.discs
    for band in state.bands.values():
        band.l, band.r = n + 1 - band.r, n + 1 - band.l
    state.center = n + 1 - state.center
    for ray in state.rays:
        ray.tip_disc = n + 1 - ray.tip_disc
        for step in ray.steps:
            step[1] = L if step[1] == R else R
            step[2] = L if step[2] == R else R
    relabel_order(state, lambda d: n + 1 - d)


def twirl_state(state: _State, times: int) -> None:
    """``times`` twirls as one relabelling: disc d becomes d - times, mod n."""
    _relabel_discs(state, lambda d: (d - 1 - times) % state.discs + 1)


def upside_down_state(state: _State) -> None:
    """Rotation about the front-back axis: heights and disc order both
    reverse, twist signs stay."""
    for band in state.bands.values():
        band.h = -band.h
    for ray in state.rays:
        ray.tip_h = -ray.tip_h
    _relabel_discs(state, lambda d: state.discs + 1 - d)
    for ends in state.order.values():
        ends.reverse()


def mirror_state(state: _State) -> None:
    """Disc order and twist signs reverse."""
    _relabel_discs(state, lambda d: state.discs + 1 - d)
    for band in state.bands.values():
        band.e = -band.e


def inflate_state(state: _State, x0: int) -> None:
    """A fresh empty disc right of disc ``x0``."""
    state.discs += 1
    _relabel_discs(state, lambda d: d if d <= x0 else d + 1)


def normalize_by_single_moves(state: _State, ray: _Ray) -> tuple[int, bool]:
    """``stars._normalize`` one move at a time: upside down when the tail
    points down, mirrored when the crossed band is negative, twirled when
    the ray leaves that band by its right end, then inflated at the tip disc.
    Returns the tip disc and whether the state was mirrored."""
    b0 = ray.steps[-1][0]
    if ray.tip_h < state.bands[b0].h:
        upside_down_state(state)
    mirrored = state.bands[b0].e != 1
    if mirrored:
        mirror_state(state)
    if ray.steps[-1][2] == R:
        twirl_state(state, state.bands[b0].l)
    x0 = state.bands[b0].l
    inflate_state(state, x0)
    return x0, mirrored


def turn_until(word: BKLWord, cids: list[int], at_shared: set, want: list[int]):
    """Turn ``word`` one letter at a time until its letters in ``at_shared``
    read ``want``; ``cids`` tag its letters and turn with them."""
    for _ in range(max(1, len(word.letters))):
        if [c for c in cids if c in at_shared] == want:
            return word, cids
        word = to_word(turn_once(from_word(word)))
        cids = [cids[-1]] + cids[:-1]
    raise SoundnessError("cannot align the piece with the shared circle's cyclic order")


# ---------------------------------------------------------------------------
# Slack, one edit at a time
# ---------------------------------------------------------------------------

def slack_step(ray: _Ray) -> tuple[int, int, list] | None:
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


def remove_slack_once(state: _State) -> bool:
    """Make the first slack edit of the first ray that has one."""
    for ray in state.rays:
        slack = slack_step(ray)
        if slack is not None:
            start, stop, replacement = slack
            ray.steps[start:stop] = replacement
            return True
    return False


def remove_slack_by_restarts(state: _State) -> bool:
    """``stars._remove_slack`` as the fixpoint of single edits, each search
    starting again from the first ray; whether any step went."""
    changed = False
    while remove_slack_once(state):
        changed = True
    return changed


# ---------------------------------------------------------------------------
# Plumbing on words
# ---------------------------------------------------------------------------

def plumbed_by_words(st, steps, realized):
    """``pipeline._plumbed`` on band words: each realized leaf is (word, disc
    position map, letters' source crossings), and the running word is
    twirled, the piece's word turned and the two plumbed by a
    ``ShufflePattern``, with the disc map and crossing list carried beside."""
    word, pos, letter_cids = realized[0]
    first_leaf = steps[0][0]
    disc_of = {orig: pos[first_leaf.circle_map[orig]] for orig in first_leaf.circles}
    for (leaf, shared), (piece_word, piece_pos, piece_cids) in zip(steps[1:], realized[1:]):
        twirls = disc_of[shared] % word.strands
        word = word_twirl(word, twirls)
        disc_of = {c: (p - twirls - 1) % word.strands + 1 for c, p in disc_of.items()}
        sigma = st.passages[shared]
        sigma_set = set(sigma)
        mine = [cid for cid in letter_cids if cid in sigma_set]
        mine_set = set(mine)
        theirs_set = set(leaf.crossings) & sigma_set
        schedule = pipeline._cut_at(sigma, mine, mine_set, theirs_set)
        want_piece = [cid for cid in schedule if cid in theirs_set]
        piece_word, piece_cids = turn_word_until(piece_word, piece_cids, theirs_set, want_piece)
        pattern = _merge_pattern(letter_cids, piece_cids, schedule, mine_set, theirs_set)
        n1 = word.strands
        word = plumb(word, piece_word, pattern)
        letter_cids = _merge_lists(letter_cids, piece_cids, pattern)
        for orig in leaf.circles:
            if orig != shared:
                disc_of[orig] = piece_pos[leaf.circle_map[orig]] + n1 - 1
    return word, disc_of, letter_cids


def turn_word_until(word: BKLWord, cids: list[int], at_shared: set, want: list[int]):
    """Turn ``word`` the fewest times that lists its letters in ``at_shared``
    in the order ``want``; ``cids`` are its letters' distinct tags."""
    at = [k for k, c in enumerate(cids) if c in at_shared]
    order = [cids[k] for k in at]
    m = order.index(want[0]) if want and want[0] in order else 0
    if order[m:] + order[:m] != want:
        raise SoundnessError("cannot align the piece with the shared circle's cyclic order")
    cut = at[m] if m else len(cids)  # the turns bring the letters from order[m] on to the top
    return word_turn(word, len(cids) - cut), cids[cut:] + cids[:cut]


def _merge_pattern(mine_cids, piece_cids, schedule, mine_set, theirs_set) -> ShufflePattern:
    marks: list[int] = []
    i = j = 0
    for cid in schedule:
        if cid in mine_set:
            while True:
                marks.append(1)
                i += 1
                if mine_cids[i - 1] == cid:
                    break
        elif cid in theirs_set:
            while True:
                marks.append(2)
                j += 1
                if piece_cids[j - 1] == cid:
                    break
    marks.extend([1] * (len(mine_cids) - i))
    marks.extend([2] * (len(piece_cids) - j))
    return ShufflePattern(marks)


def _merge_lists(a: list[int], b: list[int], pattern: ShufflePattern) -> list[int]:
    out: list[int] = []
    i = j = 0
    for m in pattern.marks:
        if m == 1:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    return out


def carried(ends, cycles, word: BKLWord, disc_of, letter_of):
    """``cycles`` carried to ``word``'s letters through (disc_of, letter_of),
    or None unless each edge's letter joins its two ends' discs."""
    if len(word.letters) != len(ends):
        return None
    way = []
    for c, (u, v) in enumerate(ends):
        a, b = disc_of[u], disc_of[v]
        if word.letters[letter_of[c]][:2] != ((a, b) if a < b else (b, a)):
            return None
        way.append(1 if a < b else -1)
    return [tuple([(letter_of[c], w * way[c]) for c, w in cycle]) for cycle in cycles]


# ---------------------------------------------------------------------------
# The per-leaf gated chooser
# ---------------------------------------------------------------------------

def gate(ends, cycles, target, components: int):
    """Predicate on (word, disc_of, letter_of): each letter joins its edge's
    discs, the closure has ``components`` components and the braided surface
    has Seifert matrix ``target`` over ``cycles`` carried through the maps.
    """

    def matches(word: BKLWord, disc_of, letter_of) -> bool:
        if closure_components(word) != components:
            return False
        mapped = carried(ends, cycles, word, disc_of, letter_of)
        return mapped is not None and word_seifert_matrix(word, mapped) == target

    return matches


def realized_leaf(leaf: pipeline.PlumbLeaf, start_circle: int, cycles, target):
    """Realize one leaf gated alone, from source circle ``start_circle``.

    The first enumerated candidate wins whose closure has the component
    count of the leaf's own diagram and whose braided surface has the leaf's
    block of ``target``, the source's Seifert matrix over ``cycles``.
    Returns the word, its disc positions, its letters' source crossings and
    the count of candidates tried.
    """
    fat = leaf.fatgraph
    edge_of = {c: k for k, c in enumerate(leaf.crossings)}
    share = [i for i, cycle in enumerate(cycles) if cycle[0][0] in edge_of]
    mine = [tuple([(edge_of[c], way) for c, way in cycles[i]]) for i in share]
    block = [[target[i][j] for j in share] for i in share]
    matches = gate([(u, v) for u, v, _s in fat.edges], mine, block, link_components(leaf.diagram))
    candidates = realizations(fat, leaf.circle_map[start_circle], pipeline.REALIZATION_LIMIT)
    count = 0
    for word, pos, order in candidates:
        count += 1
        if matches(word, pos, {c: k for k, c in enumerate(order)}):
            return word, pos, [leaf.crossings[k] for k in order], count
    raise PipelineError(pipeline.NO_MATCH.format(count))


def homogenize_gated(d: Diagram):
    """``pipeline.homogenize`` on a connected diagram, each leaf gated alone.

    Every leaf takes its ``realized_leaf``; the plumbed word is then gated
    against the whole matrix.  Returns the word and each leaf's count of
    candidates tried.
    """
    st = analyze(d)
    steps = pipeline.decompose_generalized_flat(d)
    ends = [(u, v) for u, v, _s, _c in st.graph.edges]
    cycles = pipeline._fundamental_cycles(len(st.circles), ends)
    rank = pipeline._plumbing_ranks(st, steps)
    target = diagram_seifert_matrix(d, cycles, [rank[cycle[0][0]] for cycle in cycles])
    realized, tried = [], []
    for leaf, shared in steps:
        *found, count = realized_leaf(leaf, leaf.circles[0] if shared < 0 else shared, cycles, target)
        realized.append(tuple(found))
        tried.append(count)
    word, disc_of, letter_cids = plumbed_by_words(st, steps, realized)
    letter_of = {c: k for k, c in enumerate(letter_cids)}
    if not gate(ends, cycles, target, link_components(d))(word, disc_of, letter_of):
        raise SoundnessError("plumbed word does not match the diagram's link")
    return word, tried
