"""Link invariants: Seifert matrices and Alexander polynomials.

Seifert matrices
----------------
The Seifert form of an oriented surface F is V(a, b) = lk(a, b+), where b+
is b pushed off F along its positive normal.  Two builders compute it in
plain ints over a cycle basis chosen by the caller: one for the surface
that Seifert's algorithm gives a diagram (a disc per Seifert circle, a
half-twisted band per crossing) and one for the braided surface of a band
word (a disc per strand, a band per letter).  Both surfaces are fatgraphs,
so a cycle is a closed walk of bands: (edge, +1) runs from the edge's first
end to its second, (edge, -1) back.

Both builders write 2V = S - X:

* X(a, b) is the intersection number of a with b pushed to its own left
  inside the surface.  It depends only on the cyclic order of the band ends
  at each disc: a chord p -> q and the pushed chord p' -> q' cross where
  their ends interleave.
* S = V + V^T.  Each half-twisted band of sign e that a and b run along
  adds -e * a_e * b_e, where a_e is +1 or -1 as a runs along it.  Inside
  one smoothed region of a diagram the discs and bands lie flat and that
  is all of S.  Two cycles in different regions share at most one circle,
  and the surface is a Murasugi sum along its disc: V(a, b) = -X(a, b) if a
  lies on the positive side of the disc and 0 if b does (Gabai, *The
  Murasugi sum is a natural geometric operation*, 1983).  Seifert's
  algorithm leaves free which pieces lie on which side; every choice bounds
  the diagram's link, and each gives its own matrix.  On a braided surface,
  seen along the axis of the stack, a band from disc r to disc s lies
  across discs r + 1 to s and crosses there each chord whose span in word
  order holds its letter; each crossing adds -a_e.

Since the Alexander polynomial is det(V^T - tV) up to a unit, equal
matrices give equal polynomials, and the signature of V + V^T changes sign
under mirroring (Rudolph, *Braided surfaces and Seifert ribbons for closed
braids*, 1983; J. Collins, *An algorithm for computing the Seifert matrix
of a link from a braid representation*, 2007).

Alexander polynomials
---------------------
Two routes compute the one-variable Alexander polynomial of a link, both
exact over the integers, and both take one Fox minor: the Fox Jacobian of a
presentation of the link group, abelianized to t, without one row and one
column.

* From a diagram, the Wirtinger presentation: a generator per arc and a
  relation per crossing.
* From a braid word w on n strands, the presentation x_i = w(x_i) of the
  group of its closure.  Its Fox matrix is I - B(w), where B(w) is the
  unreduced Burau matrix, and the minor without the last row and column is
  the polynomial (Birman, *Braids, Links and Mapping Class Groups*, 1974,
  section 3).  For n = 1 it is the 0 x 0 minor, 1.

Values are compared after normalization (lowest exponent 0, positive
leading coefficient), which quotients out the unit ambiguity.  For links of
more than one component both routes produce the one-variable polynomial
that carries the extra ``t - 1`` factor, so they agree on links as well as
knots.  Split links give 0.

Engine
------
Both routes end in the determinant of a square matrix of integer
polynomials in t.  It is computed in plain Python ints by evaluation and
interpolation; a ``Laurent`` is built only for the final polynomial.

* Degree.  The determinant has degree at most D, the smaller of the sum of
  the row degrees and the sum of the column degrees.  The matrix is
  evaluated at the D + 1 points 0, 1, ..., D.
* Elimination.  Each evaluated matrix is eliminated sparsely modulo a
  prime p.  The pivot order is chosen once, from the sparsity pattern: at
  each step the entry whose row and column have the fewest other entries
  (Markowitz, *The elimination form of the inverse*, 1957), with the fill
  it causes added to the pattern.  Where that pivot vanishes at a point,
  another row with a nonzero entry in its column takes its place, and the
  sign is that of the row-to-column permutation actually used.  A pattern
  with no row-to-column matching has determinant 0 and is not evaluated.
* Interpolation.  The D + 1 values are interpolated in Newton form and each
  coefficient is lifted from [0, p) to the symmetric range.
* Bound.  Expanding the determinant over permutations, the absolute values
  of all its coefficients sum to at most the product over the rows of the
  row's 1-norm (the sum of |c| over every coefficient of every entry in the
  row).  p is the first prime of a fixed table above twice that product, so
  the symmetric lift of every coefficient is exact (von zur Gathen and
  Gerhard, *Modern Computer Algebra*, ch. 5).  One prime above the bound
  decides every coefficient, so no Chinese remaindering over several primes
  is needed, and the table holds known primes, so no primality test runs
  either.

The Wirtinger minor is a pencil A + tB with at most three nonzeros per
row, so D is at most its size and the elimination stays sparse.  On the
braid side the running product is kept as dense Laurent coefficient lists:
a generator rebuilds two neighbouring columns of the product from each
other.  Both minors end in one routine, which divides each row and then
each column by the lowest power of t it holds, so every entry is a
polynomial; the determinant then differs from the minor by a power of t,
which normalization removes.
"""

from __future__ import annotations

from .diagrams import Diagram, _UnionFind, analyze
from .laurent import Laurent
from .words import ArtinWord, BKLWord, Word, bkl_to_artin

# A dense Laurent entry: (exponent of the first coefficient, coefficients).
# Entries are never mutated once built, so the zero entry is shared.
_ZERO = (0, ())

# Known primes for the elimination, increasing: the Mersenne primes 2^q - 1
# from the first above 2^32 to 2^4423 - 1, and between 2^127 - 1 and
# 2^521 - 1, where no Mersenne prime lies, 2^192 - 2^64 - 1 (NIST P-192) and
# 2^255 - 19 (Curve25519).  A bound past the last entry means a Fox matrix of
# more than 2000 crossings or a Burau word of thousands of letters, whose
# elimination would take many minutes; the table stops where a Miller-Rabin
# check of every entry still takes about a second.
_PRIMES = (
    2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1, 2**192 - 2**64 - 1, 2**255 - 19,
    2**521 - 1, 2**607 - 1, 2**1279 - 1, 2**2203 - 1, 2**2281 - 1, 2**3217 - 1,
    2**4253 - 1, 2**4423 - 1,
)


# ---------------------------------------------------------------------------
# Determinants of polynomial matrices
# ---------------------------------------------------------------------------

def _prime_above(bound: int) -> int:
    for p in _PRIMES:
        if p > bound:
            return p
    raise ValueError("determinant coefficients exceed the prime table")


def _pivot_order(pattern: list[set[int]]) -> list[tuple[int, int]]:
    """Markowitz pivots (row, column) for a square sparsity pattern.

    Fill is added to the pattern as the elimination proceeds.  The list is
    shorter than the pattern exactly when the rows cannot be matched to
    distinct columns, in which case the determinant is identically zero.
    """
    rows = [set(r) for r in pattern]
    cols: list[set[int]] = [set() for _ in rows]
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
    active = set(range(len(rows)))
    order = []
    while active:
        best = None
        for i in active:
            weight = len(rows[i]) - 1
            for j in rows[i]:
                key = (weight * (len(cols[j]) - 1), i, j)
                if best is None or key < best:
                    best = key
        if best is None:
            break
        _cost, r, c = best
        order.append((r, c))
        active.remove(r)
        for j in rows[r]:
            cols[j].discard(r)
        fill = rows[r] - {c}
        for i in cols[c]:
            rows[i].discard(c)
            rows[i] |= fill
            for j in fill:
                cols[j].add(i)
        cols[c] = set()
    return order


def _det_mod(rows: list[dict[int, int]], order: list[tuple[int, int]], p: int) -> int:
    """Determinant mod p of a square matrix given as sparse rows of residues.

    Columns are eliminated in ``order``; its row is the pivot when its entry
    is nonzero, otherwise the lowest-numbered remaining row that has one.
    The rows are consumed.
    """
    col_rows: list[set[int]] = [set() for _ in rows]
    for i, row in enumerate(rows):
        for j in row:
            col_rows[j].add(i)
    det = 1
    col_of = [0] * len(rows)
    for r, c in order:
        candidates = col_rows[c]
        if r not in candidates:
            if not candidates:
                return 0
            r = min(candidates)
        candidates.discard(r)
        pivot = rows[r]
        for j in pivot:
            if j != c:
                col_rows[j].discard(r)
        col_of[r] = c
        pv = pivot.pop(c)
        det = det * pv % p
        inv = pow(pv, -1, p)
        for i in candidates:
            row = rows[i]
            f = row.pop(c) * inv % p
            for j, v in pivot.items():
                nv = (row.get(j, 0) - f * v) % p
                if nv:
                    if j not in row:
                        col_rows[j].add(i)
                    row[j] = nv
                elif j in row:
                    del row[j]
                    col_rows[j].discard(i)
        col_rows[c] = set()
    # Sign of the row -> column permutation, from its cycle lengths.
    seen = [False] * len(rows)
    for start in range(len(rows)):
        length = 0
        k = start
        while not seen[k]:
            seen[k] = True
            k = col_of[k]
            length += 1
        if length and not length % 2:
            det = -det
    return det % p


def _interpolate(values: list[int], p: int) -> list[int]:
    """Coefficients mod p of the polynomial taking ``values[k]`` at k = 0, 1, ..."""
    d = list(values)
    n = len(d)
    for j in range(1, n):  # Newton divided differences; x_i - x_(i-j) = j
        inv = pow(j, -1, p)
        for i in range(n - 1, j - 1, -1):
            d[i] = (d[i] - d[i - 1]) * inv % p
    coeffs = [d[-1]]
    for k in range(n - 2, -1, -1):  # coeffs <- coeffs * (t - k) + d[k]
        nxt = [0] + coeffs
        for i, c in enumerate(coeffs):
            nxt[i] = (nxt[i] - k * c) % p
        nxt[0] = (nxt[0] + d[k]) % p
        coeffs = nxt
    return coeffs


def _evaluate(rows: list[dict[int, tuple]], x: int, p: int) -> list[dict[int, int]]:
    out = []
    for row in rows:
        vals = {}
        for j, (shift, coeffs) in row.items():
            v = 0
            for a in reversed(coeffs):
                v = v * x + a
            v = v * x**shift % p
            if v:
                vals[j] = v
        out.append(vals)
    return out


def _poly_det(rows: list[dict[int, tuple]]) -> list[int]:
    """Integer coefficients, lowest first, of the determinant of a polynomial matrix.

    Row i maps column j to ``(shift, coeffs)``, the entry
    ``t**shift * sum(coeffs[k] * t**k)``; absent entries are zero.  The zero
    polynomial is the empty list.
    """
    if not rows:
        return [1]
    order = _pivot_order([set(row) for row in rows])
    if len(order) < len(rows):
        return []
    row_deg = 0
    col_deg = [0] * len(rows)
    bound = 1
    for row in rows:
        top = 0
        norm = 0
        for j, (shift, coeffs) in row.items():
            deg = shift + len(coeffs) - 1
            top = max(top, deg)
            col_deg[j] = max(col_deg[j], deg)
            norm += sum(abs(a) for a in coeffs)
        row_deg += top
        bound *= norm
    p = _prime_above(2 * bound)
    values = [
        _det_mod(_evaluate(rows, x, p), order, p)
        for x in range(min(row_deg, sum(col_deg)) + 1)
    ]
    half = p >> 1
    coeffs = [a - p if a > half else a for a in _interpolate(values, p)]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _alexander_det(rows: list[dict[int, tuple]]) -> Laurent:
    """Normalized determinant of sparse rows of dense entries with nonzero first coefficients.

    Each row, then each column, is first divided by its lowest power of t.
    """
    row_lo = [min((off for off, _c in row.values()), default=0) for row in rows]
    col_lo: dict[int, int] = {}
    for row, lo in zip(rows, row_lo):
        for j, (off, _c) in row.items():
            col_lo[j] = min(col_lo.get(j, off - lo), off - lo)
    det = _poly_det(
        [
            {j: (off - lo - col_lo[j], coeffs) for j, (off, coeffs) in row.items()}
            for row, lo in zip(rows, row_lo)
        ]
    )
    return Laurent.from_list(det).normalized()


# ---------------------------------------------------------------------------
# Fox minor of a closed braid: I - B(w) for the unreduced Burau matrix
# ---------------------------------------------------------------------------

def _combine(terms) -> tuple:
    """Sum of ``sign * t**shift * entry`` over (sign, shift, entry) as a dense entry."""
    live = [(sign, shift + off, coeffs) for sign, shift, (off, coeffs) in terms if coeffs]
    if not live:
        return _ZERO
    lo = min(off for _sign, off, _c in live)
    out = [0] * (max(off + len(c) for _sign, off, c in live) - lo)
    for sign, off, coeffs in live:
        if sign > 0:
            for k, a in enumerate(coeffs, off - lo):
                out[k] += a
        else:
            for k, a in enumerate(coeffs, off - lo):
                out[k] -= a
    start, end = 0, len(out)
    while start < end and not out[start]:
        start += 1
    while end > start and not out[end - 1]:
        end -= 1
    return (lo + start, out[start:end]) if start < end else _ZERO


def alexander_from_braid(w: Word) -> Laurent:
    """Normalized Alexander polynomial of the closure of a braid word.

    The unreduced Burau product B(w) is kept as n dense columns, each
    without its last row, which the minor drops.  Right multiplication by
    the i-th generator rebuilds columns k = i - 1 and k + 1: ``c[k] - t*c[k]
    + c[k+1]`` and ``t*c[k]`` for a positive letter, ``c[k+1]/t`` and
    ``c[k] + c[k+1] - c[k+1]/t`` for a negative one.
    """
    word = w if isinstance(w, ArtinWord) else bkl_to_artin(w)
    size = word.strands - 1
    one = (0, (1,))
    cols = [[one if r == k else _ZERO for r in range(size)] for k in range(size + 1)]
    for i, e in word.letters:
        k = i - 1
        left, right = cols[k], cols[k + 1]
        if e > 0:
            cols[k] = [_combine(((1, 0, a), (-1, 1, a), (1, 0, b))) for a, b in zip(left, right)]
            cols[k + 1] = [(off + 1, c) if c else _ZERO for off, c in left]
        else:
            cols[k] = [(off - 1, c) if c else _ZERO for off, c in right]
            cols[k + 1] = [
                _combine(((1, 0, a), (1, 0, b), (-1, -1, b))) for a, b in zip(left, right)
            ]
    # B - I differs from I - B by the sign that normalization removes.
    rows = []
    for i in range(size):
        row = {}
        for j in range(size):
            entry = _combine(((1, 0, cols[j][i]), (-1, 0, one))) if i == j else cols[j][i]
            if entry[1]:
                row[j] = entry
        rows.append(row)
    return _alexander_det(rows)


# ---------------------------------------------------------------------------
# Fox minor of a diagram: the Wirtinger presentation
# ---------------------------------------------------------------------------

def _wirtinger_rows(d: Diagram) -> list[dict[int, tuple[int, int]]] | None:
    """Fox Jacobian of the Wirtinger presentation, abelianized to t.

    Arcs between under-passes form the generators (columns) and each
    crossing contributes one relation (row).  Entry ``(a, b)`` is a + b*t.
    None when there are more arcs than crossings: some component never
    passes under, so the link splits.
    """
    st = analyze(d)
    uf = _UnionFind(st.succ)
    for _a, b, _c, dd in d.crossings:
        uf.union(b, dd)
    gens = sorted({uf.find(x) for x in st.succ})
    if len(gens) != len(d.crossings):
        return None
    column = {g: k for k, g in enumerate(gens)}
    rows = []
    for (a, b, c, _dd), sign in zip(d.crossings, st.signs):
        if sign > 0:
            # relation x_c = x_b x_a x_b^{-1}
            terms = ((b, 1, -1), (a, 0, 1), (c, -1, 0))
        else:
            # relation x_c = x_b^{-1} x_a x_b; row scaled by t
            terms = ((b, -1, 1), (a, 1, 0), (c, 0, -1))
        row: dict[int, tuple[int, int]] = {}
        for arc, const, lin in terms:
            j = column[uf.find(arc)]
            c0, c1 = row.get(j, (0, 0))
            row[j] = (c0 + const, c1 + lin)
        rows.append(row)
    return rows


def _fox_minor(rows: list[dict[int, tuple[int, int]]], drop_row: int, drop_col: int) -> Laurent:
    minor = []
    for i, row in enumerate(rows):
        if i == drop_row:
            continue
        entries = {}
        for j, (const, lin) in row.items():
            if j == drop_col or not (const or lin):
                continue
            if not const:
                entries[j - (j > drop_col)] = (1, (lin,))
            else:
                entries[j - (j > drop_col)] = (0, (const, lin) if lin else (const,))
        minor.append(entries)
    return _alexander_det(minor)


def alexander_from_diagram(d: Diagram) -> Laurent:
    """Normalized Alexander polynomial of a diagram's link via Fox derivatives.

    Deleting the first relation and the first generator of the Wirtinger
    presentation leaves a square matrix whose determinant is the polynomial
    up to units.  Split configurations (free unknots next to crossings, or
    components that never pass under) give 0.
    """
    if not d.crossings:
        if d.unknots == 1:
            return Laurent.one()
        return Laurent.zero()
    if d.unknots:
        return Laurent.zero()
    rows = _wirtinger_rows(d)
    if rows is None:
        return Laurent.zero()
    return _fox_minor(rows, 0, 0)


# ---------------------------------------------------------------------------
# Seifert matrices
# ---------------------------------------------------------------------------

def _passages(cycles, ends) -> dict:
    """Each vertex's passages: (cycle index, edge in, edge out) per visit.

    ``ends[edge]`` is the edge's (first end, second end).
    """
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


def _twists(cycles, twice: list[list[int]], signs) -> None:
    """Add the half twists of the bands shared by each cycle pair to 2V."""
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


def _halved(twice: list[list[int]]) -> list[list[int]]:
    return [[x >> 1 for x in row] for row in twice]


def diagram_seifert_matrix(d: Diagram, cycles, ranks=None) -> list[list[int]]:
    """Seifert matrix of a connected diagram's surface over ``cycles``.

    A cycle walks crossings: (c, +1) runs from crossing c's first Seifert
    circle ``analyze(d).graph.edges[c][0]`` to its second.  Every crossing of
    a simple cycle lies in one smoothed region.  Two cycles in different
    regions share at most one circle; the one on the positive side of its
    disc is the one in the region on the circle's left or, given ``ranks``,
    the one of higher rank.
    """
    st = analyze(d)
    ends = [(u, v) for u, v, _s, _c in st.graph.edges]
    regions = [st.crossing_region[cycle[0][0]] for cycle in cycles]
    g = len(cycles)
    twice = [[0] * g for _ in range(g)]
    _twists(cycles, twice, st.signs)
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
    return _halved(twice)


def word_seifert_matrix(w: BKLWord, cycles) -> list[list[int]]:
    """Seifert matrix of a band word's braided surface over ``cycles``.

    A cycle walks letters: (k, +1) runs along letter k from disc r to disc s,
    (k, -1) back.  Each disc's band ends are in word order, so letter
    indices modulo the word length give their cyclic order.
    """
    letters = w.letters
    length = len(letters)
    g = len(cycles)
    twice = [[0] * g for _ in range(g)]
    _twists(cycles, twice, [e for _r, _s, e in letters])
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
                row[j] -= (0 < (p2 - p) % length <= span) - ((q2 - p) % length < span)
            # The bands across this disc cross the chord p -> q where their
            # letter lies between its ends; an end letter counts on one side
            # only, since the pushed-off chord runs beside its band.
            for k, j, a in over:
                t = (k - p) % length
                if t < span:
                    twice[j][i] -= a
                if 0 < t <= span:
                    row[j] -= a
    return _halved(twice)
