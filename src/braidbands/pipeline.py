"""Homogeneous diagrams to homogeneous band words via plumbing.

The engine is a signed ribbon graph (fatgraph): one vertex per Seifert
circle carrying a cyclic order of its crossings, one signed edge per
crossing.  Both braided surfaces and projection surfaces of diagrams
reduce to this data: a band word orders each disc's letters from highest
to lowest, and a diagram orders each circle's crossings along its
traversal.  Link orientation alternates against nesting in exactly the
way that makes the two readings line up, so no per-circle correction is
needed.

Realizing a fatgraph as a word chooses a disc order and band heights whose
per-vertex orders reproduce the cyclic data.  The pipeline splits a
homogeneous diagram into single-sign pieces at the cut circles of its
Seifert graph, one per block, and orders them as a list of plumbing
steps: each piece with the circle it shares with the pieces before it.
It realizes each piece and plumbs them together in that order, each
after one counted twirl of the running surface and one counted turn of
the piece.  Plumbing, twirls and turns act on a map from circles to discs
and an order of crossings, and the word is read off them once.  A piece
is read off the input diagram's one structure, not built as a diagram of
its own.
``homogenize`` is the one public path from a diagram to its word: each
leaf's realizations come from ``_realizations``, at most
``REALIZATION_LIMIT`` of them per leaf.
Soundness is not assumed: the finished word's closure must have the
diagram's component count, and its braided surface the diagram's Seifert
form over the fundamental cycles of one spanning tree of the Seifert
graph, a basis of first homology on both.  Signs fix the twist term T and
the discs' cyclic orders the intersection term X, so both are checked
first, and then 2V - T + X is compared entry by entry.  Each leaf takes
its first realization.  Plumbing is a Murasugi sum, and twirls and turns
are isotopies, so a leaf's block of the word's matrix, its rows and
columns over the cycles through its crossings, is the matrix of the leaf's
own surface.  When the comparison fails, only the leaves whose blocks
differ take their next realization, and the word is plumbed and compared
again, until it passes.
"""

from __future__ import annotations

import heapq

from .diagrams import (
    Diagram,
    analyze,
    in_one_region,
    is_homogeneous_diagram,
    link_components,
    subdiagram,
)
from .invariants import _diagram_sides, _word_sides
from .words import BKLWord, _Value, closure_components


class PipelineError(ValueError):
    pass


class SoundnessError(Exception):
    """An internal invariant failed: a bug, not invalid input."""


REALIZATION_LIMIT = 4096  # candidates ``_realizations`` yields per leaf at most
NO_MATCH = "no braided realization matches the diagram's Seifert matrix ({} candidates)"
OUT_OF_ORDER = "plumbed word's band ends are out of their circles' cyclic order"


# ---------------------------------------------------------------------------
# Fatgraphs
# ---------------------------------------------------------------------------

class Fatgraph(_Value):
    """Signed ribbon graph with page-counterclockwise cyclic orders."""

    __slots__ = ("vertex_count", "edges", "orders")

    def __init__(self, vertex_count: int, edges: tuple[tuple[int, int, int], ...],
                 orders: tuple[tuple[tuple[int, int], ...], ...]):
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", edges)  # (u, v, sign), u != v
        object.__setattr__(self, "orders", orders)  # per vertex: (edge id, end)


# ---------------------------------------------------------------------------
# Realization: fatgraph -> band word
# ---------------------------------------------------------------------------

def _disc_positions(fat: Fatgraph, start_vertex: int) -> dict[int, int]:
    """Depth-first disc order following cyclic orders; start vertex is disc 1."""
    pos: dict[int, int] = {}
    stack = [start_vertex]
    while stack:
        v = stack.pop()
        if v in pos:
            continue
        pos[v] = len(pos) + 1
        for eid, end in reversed(fat.orders[v]):
            u0, v0, _s = fat.edges[eid]
            other = (u0, v0)[1 - end]
            if other not in pos:
                stack.append(other)
    if len(pos) != fat.vertex_count:
        raise PipelineError("fatgraph is disconnected")
    return pos


def _height_order(adj: list[list[int]]) -> list[int]:
    """Kahn's order of the acyclic graph ``adj``, the least free node first."""
    indeg = [0] * len(adj)
    for targets in adj:
        for b in targets:
            indeg[b] += 1
    heap = [a for a, k in enumerate(indeg) if k == 0]
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        a = heapq.heappop(heap)
        order.append(a)
        for b in adj[a]:
            indeg[b] -= 1
            if indeg[b] == 0:
                heapq.heappush(heap, b)
    return order


def _reach(adj: list[list[int]]) -> list[int]:
    """Each node's bit set of the nodes it reaches in the acyclic graph ``adj``."""
    reach = [0] * len(adj)
    for a in reversed(_height_order(adj)):
        r = 0
        for b in adj[a]:
            r |= reach[b] | 1 << b
        reach[a] = r
    return reach


def _chain_keeps_acyclic(reach: list[int], chain: list[int]) -> bool:
    """Whether the path ``chain`` of distinct nodes, added to the acyclic graph
    whose bit sets are ``reach``, closes no cycle: no node of it reaches one
    placed before it.  On a cycle, the last-placed chain node must be left by
    an old arc, and the cycle goes on to an earlier-placed chain node."""
    placed = 0
    for e in chain:
        if reach[e] & placed:
            return False
        placed |= 1 << e
    return True


def _realizations(fat: Fatgraph, start_vertex: int):
    """Yield (disc position map, edge order) realizing the fatgraph.

    A realization cuts each vertex's cyclic order so that the resulting
    linear orders embed in one global band-height order; edge ``e`` of the
    order is the band joining its two ends' discs, with the edge's sign.
    Cut combinations are enumerated disc by disc, in a deterministic order,
    up to ``REALIZATION_LIMIT`` candidates; the fatgraph does not determine
    the braided embedding on its own, so ``homogenize`` takes the
    realizations whose word passes its gate.  Each disc reads one
    reachability pass of the height-order graph its predecessors built, and
    keeps a cut when no edge of the cut's order reaches an edge placed
    before it, the exact rule for the order to add no cycle.  The search
    keeps one entry per disc on its own stacks, not a call frame, so no
    recursion depth grows with the disc count.  The fatgraph is a leaf's,
    built by ``_leaf`` from an analysed diagram, so each edge end is listed
    once, at its own vertex.
    """
    n = fat.vertex_count
    if not 0 <= start_vertex < n:
        raise PipelineError("start vertex out of range")
    pos = _disc_positions(fat, start_vertex)

    m = len(fat.edges)
    rings = [[eid for eid, _end in fat.orders[v]] for v in sorted(range(n), key=lambda v: pos[v])]
    adj: list[list[int]] = [[] for _ in range(m)]
    placed: list[list[int]] = []  # the order cut at each disc before the one being cut
    cuts = [0]  # the next cut to try at each disc up to the one being cut
    reaches = [[0] * m]  # and the bit sets its cuts are checked on; disc 1 meets no constraint
    emitted = 0
    while cuts and emitted < REALIZATION_LIMIT:
        idx = len(placed)
        ring = rings[idx]
        cut = cuts[-1]
        if cut == max(1, len(ring)):
            cuts.pop()
            reaches.pop()
            if placed:
                for a in placed.pop()[:-1]:
                    adj[a].pop()
            continue
        cuts[-1] += 1
        lin = ring[cut:] + ring[:cut]
        if not _chain_keeps_acyclic(reaches[-1], lin):
            continue
        for a, b in zip(lin, lin[1:]):
            adj[a].append(b)
        if idx + 1 == n:
            emitted += 1
            yield dict(pos), tuple(_height_order(adj))
            for a in lin[:-1]:
                adj[a].pop()
        else:
            placed.append(lin)
            cuts.append(0)
            reaches.append(_reach(adj) if len(rings[idx + 1]) > 1 else [0] * m)


# ---------------------------------------------------------------------------
# Pipeline operations
# ---------------------------------------------------------------------------

class PlumbLeaf(_Value):
    """One block of ``source``'s Seifert graph, read off ``source``'s structure.

    Its fatgraph (edge k for crossing ``crossings[k]``) is that of
    ``diagram``, the source with the other crossings smoothed and their
    circles dropped, which is built on request.  Equality and the hash
    leave out ``circle_map`` and ``fatgraph``.
    """

    __slots__ = ("source", "crossings", "circles", "circle_map", "fatgraph")
    _compared = ("source", "crossings", "circles")

    def __init__(self, source: Diagram, crossings: tuple[int, ...], circles: tuple[int, ...],
                 circle_map: dict[int, int], fatgraph: Fatgraph):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "crossings", crossings)  # crossing ids in the source diagram
        object.__setattr__(self, "circles", circles)  # circle ids in the source diagram
        object.__setattr__(self, "circle_map", circle_map)  # source circle -> fatgraph vertex
        object.__setattr__(self, "fatgraph", fatgraph)

    @property
    def diagram(self) -> Diagram:
        return subdiagram(self.source, self.crossings)

    def to_obj(self):
        piece = self.diagram
        diagram = {"crossings": [list(x) for x in piece.crossings], "unknots": piece.unknots}
        return {"leaf": {"crossings": list(self.crossings), "circles": list(self.circles),
                         "diagram": diagram}}


def _fundamental_cycles(vertex_count: int, ends) -> list[tuple[tuple[int, int], ...]]:
    """Fundamental cycles of a breadth-first spanning tree of a connected multigraph.

    The tree grows from vertex 0 through edges in index order.  Each other
    edge gives one cycle: the edge from its first end to its second, then
    the tree path back, as (edge, +1 or -1) steps, -1 where a step runs from
    an edge's second end to its first.
    """
    adjacent: list[list[tuple[int, int]]] = [[] for _ in range(vertex_count)]
    for edge, (u, v) in enumerate(ends):
        adjacent[u].append((edge, v))
        adjacent[v].append((edge, u))
    up: list = [None] * vertex_count  # (edge to the parent, parent, step from it)
    depth = [0] * vertex_count
    up[0] = (-1, 0, None)
    queue = [0]
    for x in queue:
        for edge, y in adjacent[x]:
            if up[y] is None:
                up[y] = (edge, x, (edge, 1 if ends[edge][0] == y else -1))
                depth[y] = depth[x] + 1
                queue.append(y)
    cycles = []
    for edge, (u, v) in enumerate(ends):
        if up[v][0] == edge or up[u][0] == edge:
            continue
        rise, fall = [], []  # v up to the common ancestor; u up to it
        while v != u:
            if depth[v] >= depth[u]:
                rise.append(up[v][2])
                v = up[v][1]
            else:
                fall.append(up[u][2])
                u = up[u][1]
        cycles.append(((edge, 1), *rise, *[(e, -way) for e, way in reversed(fall)]))
    return cycles


def _carried(ends, cycles, disc_of, letter_of):
    """``cycles`` carried to the word's letters: crossing ``c`` is letter
    ``letter_of[c]``, run from its lower disc in ``disc_of`` to its higher."""
    way = [1 if disc_of[u] < disc_of[v] else -1 for u, v in ends]
    return [tuple([(letter_of[c], w * way[c]) for c, w in cycle]) for cycle in cycles]


def _plumbing_ranks(st, steps) -> list[int]:
    """Each crossing's plumbing step, checked to rank a surface of the diagram.

    Plumbing puts each leaf on the positive side of its shared disc, past
    the leaves plumbed before it, so a cycle of a later leaf lies on the
    positive side of a circle shared with a cycle of an earlier one.
    Seifert's algorithm stacks the diagram's surface that way when some
    region can be the outer one such that at each circle every inner leaf
    comes after all the outer leaves whose band ends interleave with its
    own there, or before all of them: the outer leaves stay level with the
    circle's disc, and the inner leaf goes on the side of its rank.  Leaves
    whose ends do not interleave never cross there, which holds for any two
    on one side of a circle and for a single crossing, so they do not
    constrain the order.
    """
    rank = [0] * len(st.signs)
    at: dict[int, list[tuple[int, int, list[int]]]] = {}  # circle -> (step, region, ends)
    for k, (leaf, _shared) in enumerate(steps):
        for c in leaf.crossings:
            rank[c] = k
        region = st.crossing_region[leaf.crossings[0]]
        mine = set(leaf.crossings)
        for circle in leaf.circles:
            ends = [i for i, c in enumerate(st.passages[circle]) if c in mine]
            at.setdefault(circle, []).append((k, region, ends))

    def interleave(a: list[int], b: list[int]) -> bool:
        marks = sorted([(i, 0) for i in a] + [(i, 1) for i in b])
        return sum(marks[i][1] != marks[i - 1][1] for i in range(len(marks))) > 2

    outer_sides = {}
    for circle, leaves in at.items():
        outer_sides[circle] = {
            outer
            for outer in (st.circle_left[circle], st.circle_right[circle])
            if all(
                len({k < j for j, r, b in leaves if r == outer and interleave(ends, b)}) < 2
                for k, region, ends in leaves
                if region != outer
            )
        }
    adjacent: list[list[tuple[int, int]]] = [[] for _ in range(st.region_count)]
    for circle, (a, b) in enumerate(zip(st.circle_left, st.circle_right)):
        adjacent[a].append((circle, b))
        adjacent[b].append((circle, a))
    for outer in range(st.region_count):
        toward = {}  # circle -> its region on the side of ``outer``
        queue = [outer]
        for x in queue:
            for circle, y in adjacent[x]:
                if circle not in toward:
                    toward[circle] = x
                    queue.append(y)
        if all(toward[c] in ok for c, ok in outer_sides.items()):
            return rank
    raise SoundnessError("plumbing order stacks no Seifert surface of the diagram")


def _leaf(d: Diagram, ids: tuple[int, ...], circles: tuple[int, ...]) -> PlumbLeaf:
    """The block of ``d`` on crossings ``ids``, as its own diagram reads.

    Circles keep their cyclic orders, restricted to ``ids``.  A boundary run
    entering crossing x on one circle leaves x on the other and enters that
    circle's next block crossing.  Walks start from the runs entering each
    crossing of ``ids``, under then over, in the order ``subdiagram``
    numbers arcs, so circles are numbered by their first run and each
    cyclic order starts at the crossing that run enters.
    """
    st = analyze(d)
    edges = st.graph.edges
    mine = set(ids)
    kept = {u: [c for c in st.passages[u] if c in mine] for u in circles}
    after = {(c, u): n for u, order in kept.items() for c, n in zip(order, order[1:] + order[:1])}
    first: dict[int, int] = {}  # circle -> the crossing its first run enters
    seen: set[tuple[int, int]] = set()
    for c in ids:
        for run in ((c, edges[c][0]), (c, edges[c][1])):
            while run not in seen:
                seen.add(run)
                x, u = run
                first.setdefault(u, x)
                v = edges[x][0] + edges[x][1] - u
                run = (after[(x, v)], v)
    vertex = {u: k for k, u in enumerate(first)}
    end = {(c, edges[c][j]): (k, j) for k, c in enumerate(ids) for j in (0, 1)}
    orders = []
    for u, x in first.items():
        at = kept[u].index(x)
        orders.append(tuple([end[(c, u)] for c in kept[u][at:] + kept[u][:at]]))
    fat_edges = tuple([(vertex[edges[c][0]], vertex[edges[c][1]], edges[c][2]) for c in ids])
    fat = Fatgraph(len(first), fat_edges, tuple(orders))
    return PlumbLeaf(d, ids, circles, vertex, fat)


def decompose_generalized_flat(d: Diagram) -> list[tuple[PlumbLeaf, int]]:
    """Split a homogeneous diagram into primitive flat pieces at cut circles.

    Each block of the Seifert graph becomes one leaf.  The result is the
    sequence of plumbing steps: each leaf paired with the one source circle
    it shares with the leaves before it, ``-1`` for the first leaf.  Every
    block's crossings lie in one smoothed region of ``d`` (``in_one_region``,
    the rule of ``is_primitive_flat``), so its diagram is primitive flat; a
    block that does not is a bug.
    """
    report = is_homogeneous_diagram(d)
    if not report.homogeneous:
        raise PipelineError("diagram is not homogeneous")
    st = analyze(d)
    if len(set(st.circle_component)) > 1:
        raise PipelineError("decomposition requires a connected diagram")

    leaves: list[PlumbLeaf] = []
    for block in report.decomposition.blocks:
        ids = tuple(sorted(cid for (_u, _v, _s, cid) in block))
        verts = tuple(sorted({x for (u, v, _s, _c) in block for x in (u, v)}))
        if not in_one_region(st, ids):
            raise SoundnessError("unsupported nesting pattern inside a block")
        leaves.append(_leaf(d, ids, verts))
    if not leaves:
        raise PipelineError("no blocks to fold")

    # Each later leaf attaches at a circle the steps before it reached.
    steps = [(leaves.pop(0), -1)]
    reached = set(steps[0][0].circles)
    while leaves:
        for k, leaf in enumerate(leaves):
            shared = [v for v in leaf.circles if v in reached]
            if shared:
                if len(shared) > 1:
                    raise SoundnessError("blocks share more than one circle")
                steps.append((leaves.pop(k), shared[0]))
                reached.update(leaf.circles)
                break
        else:
            raise SoundnessError("block structure is disconnected")
    return steps


def homogenize(d: Diagram) -> BKLWord:
    """Band word of a homogeneous diagram: plumb its leaves in order.

    The running surface is twirled to put the shared circle rightmost.
    Each leaf is realized with that circle as its first disc, turned the
    fewest times that line up its crossings there with the diagram's cyclic
    order, and plumbed in by the shuffle that reproduces that order.  The
    moves act on the circles' discs and the crossings' order, and the word
    is read off them.  Each leaf takes its first realization, and the word
    is gated against ``d`` on 2V - T + X.  Plumbing, twirls and turns keep
    each leaf's block of it, so a failed gate names the leaves whose blocks
    differ: only those take their next realization, and the word is plumbed
    and gated again.  A named leaf out of realizations raises
    ``PipelineError``; a wrongly signed letter, a disc out of order, a
    mismatch naming no leaf or a leaf that kept its realization,
    ``SoundnessError``.  A split diagram gives the direct sum of its parts'
    words, and a free unknot a bare disc.
    """
    return _homogenize(d)[0]


def _homogenize(d: Diagram):
    """``homogenize``'s word and plumbing steps, ``None`` if split or with free unknots."""
    st = analyze(d)
    parts = sorted(set(st.circle_component))
    if d.unknots or len(parts) > 1:
        # A split link is the closure of the direct sum of its parts' words;
        # a free unknot is the closure of a disc with no bands.
        if d.unknots:
            pieces = [Diagram(d.crossings)] if d.crossings else []
        else:
            part_of = [st.circle_component[u] for u, _v, _s, _c in st.graph.edges]
            pieces = [subdiagram(d, [c for c, p in enumerate(part_of) if p == part]) for part in parts]
        strands, letters = 0, []
        for w in map(homogenize, pieces):
            letters += [(r + strands, s + strands, e) for r, s, e in w.letters]
            strands += w.strands
        return BKLWord(strands + d.unknots, letters), None

    steps = decompose_generalized_flat(d)
    ends = [(u, v) for u, v, _s, _c in st.graph.edges]
    cycles = _fundamental_cycles(len(st.circles), ends)
    rank = _plumbing_ranks(st, steps)
    target = _diagram_sides(d, cycles, [rank[cycle[0][0]] for cycle in cycles])
    after = [dict(zip(order, order[1:] + order[:1])) for order in st.passages]
    components = link_components(d)
    starts = [leaf.circles[0] if shared < 0 else shared for leaf, shared in steps]
    searches = [_realizations(leaf.fatgraph, leaf.circle_map[start])
                for (leaf, _shared), start in zip(steps, starts)]
    tried = [0] * len(steps)
    realized: list = [None] * len(steps)
    advance, shares = range(len(steps)), None
    while True:
        for k in advance:
            found = next(searches[k], None)
            if found is None:
                raise PipelineError(NO_MATCH.format(tried[k]))
            tried[k] += 1
            pos, order = found
            realized[k] = (pos, [steps[k][0].crossings[i] for i in order])
        word, disc_of, letter_cids = _plumbed(st, steps, realized)
        if fault := _unfaithful(word, letter_cids, disc_of, st.signs, after):
            raise SoundnessError(fault)
        mapped = _carried(ends, cycles, disc_of, {c: k for k, c in enumerate(letter_cids)})
        seifert = _word_sides(word, mapped)
        if seifert == target and closure_components(word) == components:
            return word, steps
        # The leaves whose rows and columns differ take their next candidate.
        shares = shares or [_leaf_cycles(leaf, cycles) for leaf, _shared in steps]
        wrong = [k for k, share in enumerate(shares)
                 if any(seifert[i][j] != target[i][j] for i in share for j in share)]
        if not wrong or not set(wrong) <= set(advance):
            raise SoundnessError("plumbed word does not match the diagram's link")
        advance = wrong


def _plumbed(st, steps, realized):
    """Plumb realized leaves in step order on the circles' discs and the
    crossings' order, and read the word off them once: the word, each
    source circle's disc and each letter's source crossing."""
    pos, letter_cids = realized[0]
    first_leaf = steps[0][0]
    disc_of = {orig: pos[first_leaf.circle_map[orig]] for orig in first_leaf.circles}
    n = len(disc_of)
    for (leaf, shared), (piece_pos, piece_cids) in zip(steps[1:], realized[1:]):
        # Twirl the running surface so that the shared circle is rightmost.
        twirls = disc_of[shared] % n
        disc_of = {c: (p - twirls - 1) % n + 1 for c, p in disc_of.items()}

        # Schedule the shared circle's crossings in the diagram's cyclic order.
        sigma = st.passages[shared]
        sigma_set = set(sigma)
        mine = [cid for cid in letter_cids if cid in sigma_set]
        mine_set = set(mine)
        theirs_set = set(leaf.crossings) & sigma_set
        schedule = _cut_at(sigma, mine, mine_set, theirs_set)
        want_piece = [cid for cid in schedule if cid in theirs_set]
        piece_cids = _turn_until(piece_cids, theirs_set, want_piece)

        # Plumb: the piece's discs go up by n - 1, its crossings shuffle in.
        letter_cids = _merge(letter_cids, piece_cids, schedule, mine_set)
        for orig in leaf.circles:
            if orig != shared:
                disc_of[orig] = piece_pos[leaf.circle_map[orig]] + n - 1
        n += len(leaf.circles) - 1
    bands = [st.graph.edges[c] for c in letter_cids]  # (circle, circle, sign, crossing)
    pairs = [(disc_of[u], disc_of[v], s) for u, v, s, _c in bands]
    letters = [(a, b, s) if a < b else (b, a, s) for a, b, s in pairs]
    return BKLWord(n, letters), disc_of, letter_cids


def _unfaithful(word: BKLWord, letter_cids, disc_of, signs, after) -> str | None:
    """The fault, if any, in what the fatgraph fixes: letters' signs, and each
    disc's letters, in word order, running once around its circle's
    crossings in their cyclic order, ``after[circle]`` mapping each to the next."""
    succ = [{}] * (word.strands + 1)
    for circle, disc in disc_of.items():
        succ[disc] = after[circle]
    first, due = [None] * len(succ), [None] * len(succ)
    for (r, s, e), cid in zip(word.letters, letter_cids):
        if e != signs[cid]:
            return "plumbed word's letter signs differ from its crossings'"
        for disc in (r, s):
            if due[disc] is None:
                first[disc] = cid
            elif due[disc] != cid:
                return OUT_OF_ORDER
            due[disc] = succ[disc].get(cid, -1)
    return None if due == first else OUT_OF_ORDER


def _leaf_cycles(leaf: PlumbLeaf, cycles) -> list[int]:
    """Indices of the cycles through ``leaf``'s crossings, a basis of its surface."""
    mine = set(leaf.crossings)
    return [i for i, cycle in enumerate(cycles) if cycle[0][0] in mine]


def _cut_at(sigma: tuple[int, ...], mine: list[int], mine_set: set, theirs: set) -> list[int]:
    """Linearize the cyclic order of the shared circle, compatibly with ``mine``."""
    relevant = [cid for cid in sigma if cid in theirs or cid in mine_set]
    if not mine:
        return relevant
    k = relevant.index(mine[0])
    schedule = relevant[k:] + relevant[:k]
    if [cid for cid in schedule if cid in mine_set] != mine:
        raise SoundnessError("accumulated word is out of cyclic order at the shared circle")
    return schedule


def _turn_until(cids: list[int], at_shared: set, want: list[int]) -> list[int]:
    """Turn a piece's crossing order ``cids`` the fewest times that lists its
    crossings in ``at_shared`` in the order ``want``."""
    at = [k for k, c in enumerate(cids) if c in at_shared]
    order = [cids[k] for k in at]
    m = order.index(want[0]) if want and want[0] in order else 0
    if order[m:] + order[:m] != want:
        raise SoundnessError("cannot align the piece with the shared circle's cyclic order")
    cut = at[m] if m else 0  # the turns bring the crossings from order[m] on to the top
    return cids[cut:] + cids[:cut]


def _merge(mine: list[int], piece: list[int], schedule: list[int], mine_set: set) -> list[int]:
    """Shuffle ``mine`` and ``piece``, each kept in order, so that the shared
    circle's crossings come in the order ``schedule``: each one waits for
    the crossings listed before it in its own list."""
    out: list[int] = []
    i = j = 0
    for cid in schedule:
        if cid in mine_set:
            k = mine.index(cid, i) + 1
            out += mine[i:k]
            i = k
        else:
            k = piece.index(cid, j) + 1
            out += piece[j:k]
            j = k
    return out + mine[i:] + piece[j:]
