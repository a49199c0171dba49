"""Reference oracles for differential tests.

These are the straightforward forms of the library's oracles: full reduced
Burau matrices multiplied letter by letter, a dense Wirtinger matrix, and a
fraction-free (Bareiss) determinant over Laurent polynomials.  They are slow
but share no arithmetic with the library's evaluation engine.  The braid
permutation is kept in its O(L * n) form, rescanning every strand per letter,
and handle reduction in its O(L) per step form, rescanning the whole word for
the first handle and free-reducing all of it after every step.  A plumbing
leaf is its own sub-diagram, analysed from scratch, and realizations are
enumerated with a full acyclicity check on a copy of the height graph per cut.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

from braidbands.diagrams import Diagram, _UnionFind, analyze, subdiagram
from braidbands.laurent import Laurent
from braidbands.pipeline import Fatgraph, _disc_positions
from braidbands.words import ArtinWord, BKLWord, Permutation, Word, bkl_to_artin

Matrix = list[list[Laurent]]


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
                acc = acc + a[i][x] * b[x][j]
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
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]).divide_exact(prev)
            a[i][k] = Laurent.zero()
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return -det if sign < 0 else det


def _burau_generator(n: int, i: int, sign: int) -> Matrix:
    """Reduced Burau matrix of the i-th Artin generator of B_n, size (n-1)."""
    m = _identity(n - 1)
    t = Laurent.t()
    tinv = Laurent.t(-1)
    one = Laurent.one()
    if n == 2:
        m[0][0] = Laurent.t(1, -1) if sign > 0 else Laurent.t(-1, -1)
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
    m = [[x - y for x, y in zip(rb, ri)] for rb, ri in zip(b, _identity(n - 1))]
    det = determinant(m)
    if det.is_zero():
        return Laurent.zero()
    return det.divide_exact(Laurent.from_list([1] * n)).normalized()


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
    t, one = Laurent.t(), Laurent.one()
    rows = []
    for idx, (a, b, cc, _dd) in enumerate(d.crossings):
        over, src, dst = gen_index[uf.find(b)], gen_index[uf.find(a)], gen_index[uf.find(cc)]
        row = [Laurent.zero() for _ in range(c)]
        if st.signs[idx] > 0:
            row[over] = row[over] + (one - t)
            row[src] = row[src] + t
            row[dst] = row[dst] - one
        else:
            row[over] = row[over] + (t - one)
            row[src] = row[src] + one
            row[dst] = row[dst] - t
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
        letters = []
        for e in topo:
            u0, v0, s = fat.edges[e]
            a, b = pos[u0], pos[v0]
            letters.append((min(a, b), max(a, b), s))
        return BKLWord(n, tuple(letters)), topo

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
