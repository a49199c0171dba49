"""Shared fixtures: golden words, PD codes, and seeded random generators.

Fixture diagrams are also written from band words: a word's fatgraph, when
planar, is the projection surface of a flat diagram (``flat_diagram``).
"""

from __future__ import annotations

import random

from braidbands.diagrams import Diagram, DiagramError, _renumber, analyze, closure_diagram
from braidbands.pipeline import Fatgraph, PipelineError, _disc_positions
from braidbands.stars import Ray, Star, StarError, check_star
from braidbands.surfaces import BraidedSurface
from braidbands.words import ArtinWord, BKLWord, bkl_to_artin, parse_word
from reference import check_fatgraph

# The inequivalent-presentations example: a 4-strand braid whose closure is
# the knot 9_48, inhomogeneous as an Artin word but homogeneous in band
# generators.
WORD_948_ARTIN = parse_word("s3^2 s2 s3^-1 s2 s3 s1^-1 s2 s3^-1 s2 s1^-1", strands=4)
WORD_948_BKL = parse_word(
    "b(3,4) b(2,4) b(2,3) b(1,2)^-1 b(2,4) b(2,3) b(1,2)^-1", strands=4
)

# Golden braided surface word and the plumbing example words.
WORD_SURFACE_GOLDEN = parse_word(
    "b(2,5)^-1 b(1,5) b(2,4) b(1,5) b(3,4)^-1 b(1,3) b(2,5)^-1", strands=5
)
PLUMB_W1 = parse_word("b(1,3) b(1,2)^-1 b(1,3)^-1", strands=3)
PLUMB_W2 = parse_word("b(1,4)^-1 b(1,3) b(2,3)^-1 b(1,4)^-1", strands=4)
PLUMB_RESULT = parse_word(
    "b(3,6)^-1 b(1,3) b(3,5) b(1,2)^-1 b(4,5)^-1 b(1,3)^-1 b(3,6)^-1", strands=6
)

# Standard PD codes (arc labels consecutive along each component).
TREFOIL = Diagram([[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]])
FIG8 = Diagram([[4, 2, 5, 1], [8, 6, 1, 5], [6, 3, 7, 4], [2, 7, 3, 8]])
K5_2 = Diagram([[1, 4, 2, 5], [3, 8, 4, 9], [5, 10, 6, 1], [9, 6, 10, 7], [7, 2, 8, 3]])

# ---------------------------------------------------------------------------
# Band words as fatgraphs, and planar fatgraphs as flat diagrams
# ---------------------------------------------------------------------------

def fatgraph_of_word(w: BKLWord) -> Fatgraph:
    edges = tuple([(l - 1, r - 1, e) for l, r, e in w.letters])
    orders: list[list[tuple[int, int]]] = [[] for _ in range(w.strands)]
    for eid, (l, r, _e) in enumerate(w.letters):
        orders[l - 1].append((eid, 0))
        orders[r - 1].append((eid, 1))
    return Fatgraph(w.strands, edges, tuple([tuple(o) for o in orders]))


def _two_colour(fat: Fatgraph) -> list[int]:
    colour = [-1] * fat.vertex_count
    for start in range(fat.vertex_count):
        if colour[start] != -1:
            continue
        colour[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            for eid, end in fat.orders[v]:
                u0, v0, _s = fat.edges[eid]
                other = (u0, v0)[1 - end]
                if colour[other] == -1:
                    colour[other] = 1 - colour[v]
                    queue.append(other)
                elif colour[other] == colour[v]:
                    raise PipelineError("fatgraph is not bipartite (odd circle cycle)")
    return colour


def flat_diagram(fat: Fatgraph) -> Diagram:
    """Write a flat PD diagram whose projection surface realizes the fatgraph.

    The fatgraph must be connected, planar and bipartite (all of which hold
    for fatgraphs read off diagrams).  Each circle is traversed in its
    stored order; at every crossing the edge's first endpoint supplies the
    under-in arc.  The emitted PD is validated structurally here and the
    callers' Seifert-matrix gates keep the construction honest.
    """
    check_fatgraph(fat)
    if not fat.edges:
        raise PipelineError("cannot emit a diagram with no crossings")
    _disc_positions(fat, 0)  # connectivity: isolated discs have no PD trace
    _two_colour(fat)  # domain check: odd circle cycles never come from diagrams

    # Arc tokens: (vertex, k) is the arc leaving passage k toward passage k+1.
    where: dict[tuple[int, int], tuple[int, int]] = {}
    for v in range(fat.vertex_count):
        for k, (eid, end) in enumerate(fat.orders[v]):
            where[(eid, end)] = (v, k)

    entries: list[tuple] = []
    succ: dict = {}
    for eid, (u, v, sign) in enumerate(fat.edges):
        pu, ku = where[(eid, 0)]
        pv, kv = where[(eid, 1)]
        du, dv = len(fat.orders[pu]), len(fat.orders[pv])
        a_u = (pu, (ku - 1) % du)
        o_u = (pu, ku)
        a_v = (pv, (kv - 1) % dv)
        o_v = (pv, kv)
        if sign > 0:
            entries.append((a_u, a_v, o_v, o_u))
        else:
            entries.append((a_u, o_u, o_v, a_v))
        succ[a_u] = o_v
        succ[a_v] = o_u

    d = _renumber(entries, succ)
    try:
        st = analyze(d)
    except DiagramError as exc:
        raise PipelineError(f"fatgraph has no flat diagram: {exc}") from exc
    if st.signs != tuple([s for _u, _v, s in fat.edges]):
        raise PipelineError("emitted diagram has wrong crossing signs")
    return d


# Mirror trefoil: the flat diagram of the all-negative 2-circle bundle.
TREFOIL_NEG = flat_diagram(fatgraph_of_word(parse_word("b(1,2)^-3", strands=2)))

# A 9-crossing homogeneous closed-braid diagram of the knot 9_43: the
# closure of a homogeneous 4-strand word with the right Alexander
# polynomial (determinant 13, genus 3).
WORD_943_BRAID = parse_word("s1 s1 s1 s2 s1 s1 s3^-1 s2 s3^-1", strands=4)
K9_43 = closure_diagram(WORD_943_BRAID)

# Flat wheels, keyed by 2k: a ring of 2k Seifert circles with one circle
# inside, joined to every other ring circle.  Each is positive, primitive
# flat and homogeneous, with 3k crossings.
WHEELS = {
    4: Diagram([[1, 5, 2, 6], [8, 2, 5, 3], [9, 7, 10, 8], [6, 10, 7, 11], [11, 4, 12, 1], [3, 12, 4, 9]]),
    6: Diagram([[1, 13, 2, 14], [18, 2, 13, 3], [9, 17, 10, 18], [16, 10, 17, 11], [5, 15, 6, 16],
                [14, 6, 15, 7], [7, 12, 8, 1], [3, 8, 4, 9], [11, 4, 12, 5]]),
    8: Diagram([[1, 9, 2, 10], [16, 2, 9, 3], [17, 15, 18, 16], [14, 18, 15, 19], [5, 13, 6, 14],
                [12, 6, 13, 7], [21, 11, 22, 12], [10, 22, 11, 23], [23, 8, 24, 1], [3, 24, 4, 17],
                [19, 4, 20, 5], [7, 20, 8, 21]]),
    10: Diagram([[1, 21, 2, 22], [30, 2, 21, 3], [13, 29, 14, 30], [28, 14, 29, 15], [5, 27, 6, 28],
                 [26, 6, 27, 7], [17, 25, 18, 26], [24, 18, 25, 19], [9, 23, 10, 24], [22, 10, 23, 11],
                 [11, 20, 12, 1], [3, 12, 4, 13], [15, 4, 16, 5], [7, 16, 8, 17], [19, 8, 20, 9]]),
}


def ring(m: int) -> Diagram:
    """The ring R_m, m even: m Seifert circles in a cycle, each joined to the
    next by one positive crossing, every edge oriented from its even circle
    to its odd one.  It is positive, primitive flat and homogeneous."""
    edges = tuple([(k, k + 1, 1) if k % 2 == 0 else ((k + 1) % m, k, 1) for k in range(m)])
    orders: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    for eid, (u, v, _s) in enumerate(edges):
        orders[u].append((eid, 0))
        orders[v].append((eid, 1))
    return flat_diagram(Fatgraph(m, edges, tuple([tuple(o) for o in orders])))


def random_bkl_word(rng: random.Random, max_strands=5, max_len=8, homogeneous=False) -> BKLWord:
    n = rng.randint(2, max_strands)
    sign_of: dict = {}
    letters = []
    for _ in range(rng.randint(0, max_len)):
        r = rng.randint(1, n - 1)
        s = rng.randint(r + 1, n)
        e = rng.choice((1, -1))
        if homogeneous:
            e = sign_of.setdefault((r, s), e)
        letters.append((r, s, e))
    return BKLWord(n, letters)


def random_artin_word(rng: random.Random, max_strands=5, max_len=8) -> ArtinWord:
    n = rng.randint(2, max_strands)
    letters = [
        (rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(rng.randint(0, max_len))
    ]
    return ArtinWord(n, letters)


def random_homogeneous_surface(rng: random.Random, max_n=4, max_b=6) -> BraidedSurface:
    n = rng.randint(2, max_n)
    sign_of: dict = {}
    bands = []
    for _ in range(rng.randint(1, max_b)):
        l = rng.randint(1, n - 1)
        r = rng.randint(l + 1, n)
        e = sign_of.setdefault((l, r), rng.choice((1, -1)))
        bands.append((l, r, e))
    return BraidedSurface(n, bands)


def random_star(rng: random.Random, s: BraidedSurface, max_rays=3, max_steps=3) -> Star:
    center = rng.randint(1, s.discs)
    rays = []
    for _ in range(rng.randint(1, max_rays)):
        disc = center
        steps = []
        for _ in range(rng.randint(0, max_steps)):
            attached = [
                (k, "L" if l == disc else "R")
                for k, (l, r, e) in enumerate(s.bands)
                if disc in (l, r)
            ]
            if not attached:
                break
            k, end = rng.choice(attached)
            other = "R" if end == "L" else "L"
            steps.append((k, end, other))
            l, r, _ = s.bands[k]
            disc = r if other == "R" else l
        regions = sum(1 for (l, r, e) in s.bands if disc in (l, r))
        rays.append(Ray(tuple(steps), disc, rng.randint(0, regions)))
    return Star(center, rays)


def valid_star_instances(seed: int, count: int):
    """Yield (surface, star) pairs that pass the embeddedness check."""
    rng = random.Random(seed)
    produced = 0
    while produced < count:
        s = random_homogeneous_surface(rng)
        star = random_star(rng, s)
        try:
            check_star(s, star)
        except StarError:
            continue
        produced += 1
        yield s, star


def random_block_word(rng: random.Random) -> BKLWord:
    """A homogeneous word whose Seifert-style blocks are single-signed.

    Built from a random tree of bundles, optionally closed into one
    even-length single-sign ring, so its flat diagram is a homogeneous
    diagram.
    """
    n = rng.randint(2, 6)
    edges = []  # (u, v, size, sign) bundles, vertices 1..n
    for v in range(2, n + 1):
        u = rng.randint(1, v - 1)
        edges.append((u, v, rng.randint(1, 3), rng.choice((1, -1))))
    if n >= 4 and rng.random() < 0.4:
        # Close a ring through vertices at odd tree distance and force a
        # single sign along it so the resulting block stays homogeneous.
        parent = {1: None}
        depth = {1: 0}
        adj = {v: [] for v in range(1, n + 1)}
        for u, v, _k, _s in edges:
            adj[u].append(v)
            adj[v].append(u)
        order = [1]
        seen = {1}
        while order:
            x = order.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    depth[y] = depth[x] + 1
                    parent[y] = x
                    order.append(y)
        candidates = [
            (a, b)
            for a in range(1, n + 1)
            for b in range(a + 1, n + 1)
            if (depth[a] + depth[b]) % 2 == 1
        ]
        if candidates:
            a, b = rng.choice(candidates)
            ring_sign = rng.choice((1, -1))
            # Recolour the tree path a..b to the ring's sign.
            path = set()
            for x in (a, b):
                while x is not None:
                    path.add(x)
                    x = parent[x]
            edges = [
                (u, v, k, ring_sign if (u in path and v in path) else s)
                for u, v, k, s in edges
            ]
            edges.append((a, b, rng.randint(1, 2), ring_sign))
    letters = []
    for u, v, k, s in edges:
        letters.extend([(min(u, v), max(u, v), s)] * k)
    rng.shuffle(letters)
    return BKLWord(n, letters)


def pseudoalternating_diagrams(seed: int, count: int):
    """Yield homogeneous diagrams built by plumbing flat single-sign pieces."""
    from braidbands.diagrams import is_homogeneous_diagram
    from braidbands.pipeline import PipelineError
    from braidbands.diagrams import DiagramError

    rng = random.Random(seed)
    produced = 0
    while produced < count:
        word = random_block_word(rng)
        if not word.letters:
            continue
        try:
            d = flat_diagram(fatgraph_of_word(word))
        except (PipelineError, DiagramError):
            continue
        if not is_homogeneous_diagram(d).homogeneous:
            continue
        produced += 1
        yield d, word


def disjoint_union(*parts: Diagram) -> Diagram:
    """The split diagram of ``parts`` side by side, arc labels shifted apart."""
    crossings, offset = [], 0
    for d in parts:
        crossings += [[arc + offset for arc in entry] for entry in d.crossings]
        offset += 2 * d.crossing_count
    return Diagram(crossings, sum(d.unknots for d in parts))


def scrambled(rng: random.Random, strands: int, letters, moves: int) -> list:
    """Artin letters rewritten ``moves`` times without changing the braid.

    Each move inserts a cancelling pair, swaps two far-apart neighbours or
    applies the braid relation s_i s_j s_i = s_j s_i s_j (|i - j| = 1, equal
    signs) at the first place after a random start where it fits.
    """
    w = list(letters)
    for _ in range(moves):
        roll = rng.random()
        if roll < 0.2 or len(w) < 3:
            i, e = rng.randint(1, strands - 1), rng.choice((1, -1))
            p = rng.randint(0, len(w))
            w[p:p] = [(i, e), (i, -e)]
            continue
        for p in range(rng.randrange(len(w) - 2), len(w) - 2):
            (a, x), (b, y), (c, z) = w[p : p + 3]
            if roll < 0.6 and abs(a - b) >= 2:
                w[p], w[p + 1] = w[p + 1], w[p]
                break
            if roll >= 0.6 and a == c and abs(a - b) == 1 and x == y == z:
                w[p : p + 3] = [(b, x), (a, x), (b, x)]
                break
    return w


def handle_reduction_words(seed: int, count: int, lengths=(1, 80), strands=(2, 10)):
    """Yield (word, trivial) pairs: seeded Artin words on ``strands`` strands.

    The kinds take turns: a random word of up to 200 letters (``trivial`` is
    None, not known); ``u v^-1`` with v a scramble of u, u having a number of
    Artin letters drawn from ``lengths`` (a band word's expansion may pass
    the top by less than one band), in Artin letters or
    expanded from band letters (trivial); and the same with the commutator
    [x^2, y^2] of two generators sharing a strand inserted into v first
    (nontrivial, with the permutation and exponent sum of a trivial word).
    ``strands`` bounds the strand count; the commutator needs at least 3.
    """
    rng = random.Random(seed)
    low, high = strands
    for k in range(count):
        kind = k % 5
        n = rng.randint(low if kind < 3 else max(low, 3), high)
        if kind == 0:
            yield random_artin_word(rng, max_strands=n, max_len=200), None
            continue
        length = rng.randint(*lengths)
        if kind % 2:
            u = [(rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(length)]
        else:
            bands = []
            while sum(2 * (s - r) - 1 for r, s, _ in bands) < length:
                r = rng.randint(1, n - 1)
                bands.append((r, rng.randint(r + 1, n), rng.choice((1, -1))))
            u = list(bkl_to_artin(BKLWord(n, bands)).letters)
        v = list(u)
        if kind >= 3:
            i = rng.randint(1, n - 2)
            x, y = (i, 1), (i + 1, 1)
            p = rng.randint(0, len(v))
            v[p:p] = [x, x, y, y, (i, -1), (i, -1), (i + 1, -1), (i + 1, -1)]
        v = scrambled(rng, n, v, length // 2)
        yield ArtinWord(n, u).concat(ArtinWord(n, v).inverse()), kind < 3


def wide_span_star(n: int) -> tuple[BraidedSurface, Star]:
    """The star on ``b(1,2)^n`` whose one ray crosses the second-lowest band
    and ends just below the top band: its tail spans the n - 3 bands between
    (n >= 4), which one reduction step carries over the fresh band."""
    return BraidedSurface(2, [(1, 2, 1)] * n), Star(1, [Ray(((n - 2, "L", "R"),), 2, 1)])
