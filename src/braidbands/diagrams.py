"""Oriented link diagrams as PD codes, Seifert circles, and the Seifert graph.

A diagram is a list of crossing entries ``(a, b, c, d)`` listing the four
arc labels counterclockwise starting at the incoming under-arc.  Arc labels
run 1..2c, consecutively along each component in orientation order.  The
over-strand runs ``b -> d`` at a positive crossing and ``d -> b`` at a
negative one.

Seifert circles are the orbits of arcs under orientation-respecting
smoothing.  The planar embedding carried by the PD rotation system yields
faces; merged across the channel between the two smoothed strands at each
crossing, they are the smoothed regions, the regions of the smoothed
picture.  Each crossing lies in one of them.  PD codes determine an
embedding on the sphere only, where which circles nest inside which
depends on the choice of outer region, so flatness is read off the
smoothed regions instead: a connected piece's circles can all sit
unnested exactly when its crossings lie in one region.

All of this is one ``DiagramStructure`` per diagram: ``analyze`` computes
it on the first call and keeps it on the ``Diagram``, and every function
here and in the other modules reads that shared copy.  Callers must not
mutate its dicts.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence

from .words import MAX_WORD_LETTERS, ArtinWord, _Value


class DiagramError(ValueError):
    """Raised when a PD code violates the diagram invariants."""


# Seifert smoothing by crossing sign, in the slots 0-3 of an entry (a, b, c, d):
# the (in, out) slot pairs it joins, positive a->d, b->c and negative a->b,
# d->c, and the two slots whose faces it merges into the channel between them.
_SMOOTHED = {1: ((0, 3), (1, 2)), -1: ((0, 1), (3, 2))}
_CHANNEL = {1: (1, 3), -1: (0, 2)}
# The over-strand's (in, out) slots; the under-strand runs 0 -> 2 at every crossing.
_OVER = {1: (1, 3), -1: (3, 1)}


class Diagram(_Value):
    """A PD-coded oriented link diagram plus a count of free unknot components."""

    __slots__ = ("crossings", "unknots", "_structure")
    _fields = ("crossings", "unknots")  # _structure, analyze's cache, is not compared

    def __init__(self, crossings: Iterable[Sequence[int]] = (), unknots: int = 0):
        entries = tuple([tuple([int(x) for x in entry]) for entry in crossings])
        for entry in entries:
            if len(entry) != 4:
                raise DiagramError(f"crossing entry needs 4 arcs, got {entry}")
        if unknots < 0:
            raise DiagramError("unknot count must be >= 0")
        object.__setattr__(self, "crossings", entries)
        object.__setattr__(self, "unknots", int(unknots))
        object.__setattr__(self, "_structure", None)

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)

    def to_json(self) -> str:
        return json.dumps(
            {"crossings": [list(x) for x in self.crossings], "unknots": self.unknots}
        )

    @staticmethod
    def from_json(text: str) -> "Diagram":
        """The diagram of ``{"crossings": [[a, b, c, d], ...], "unknots": k}``.  It has
        at most 2c Seifert circles, so bounding k + 2c by ``MAX_WORD_LETTERS``
        keeps its homogenized word within ``parse_word``'s strand bound."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise DiagramError("a diagram must be a JSON object")
        try:
            crossings, unknots = data.get("crossings", []), data.get("unknots", 0)
            if type(unknots) is not int or any(type(x) is not int for entry in crossings for x in entry):
                raise TypeError("crossing arcs and unknots must be integers")
            if unknots + 2 * len(crossings) > MAX_WORD_LETTERS:
                raise ValueError(f"unknots plus twice the crossings exceed MAX_WORD_LETTERS ({MAX_WORD_LETTERS})")
            return Diagram(crossings, unknots)
        except (TypeError, ValueError) as exc:
            raise DiagramError(f"malformed diagram: {exc}") from exc


# ---------------------------------------------------------------------------
# Core structure: successors, signs, circles, faces, regions
# ---------------------------------------------------------------------------

def _build_successors(d: Diagram) -> tuple[dict[int, int], list[int]]:
    """Return (succ, over direction per crossing).

    succ maps each arc to the next arc along the link.  The under-strand
    contributes a -> c at every crossing; over pairs are oriented first by
    bijection constraints and then, on a component that never passes under,
    by the convention that labels run up by one along a component and wrap
    from its largest label to its smallest.  The over direction doubles as
    the crossing sign: +1 means b -> d.
    """
    n_arcs = 2 * len(d.crossings)
    succ: dict[int, int] = {}
    pred: dict[int, int] = {}

    def link(x: int, y: int, why: str) -> None:
        if succ.get(x, y) != y or pred.get(y, x) != x:
            raise DiagramError(f"inconsistent successor structure at {why}")
        succ[x] = y
        pred[y] = x

    for idx, (a, b, c, dd) in enumerate(d.crossings):
        link(a, c, f"crossing {idx} under-strand")

    over_dir: dict[int, int] = {}
    unresolved = set(range(len(d.crossings)))
    component = None  # root per arc label, built at the first fallback
    while unresolved:
        progressed = False
        for idx in sorted(unresolved):
            a, b, c, dd = d.crossings[idx]
            forward_blocked = b in succ or dd in pred
            backward_blocked = dd in succ or b in pred
            if forward_blocked and backward_blocked:
                raise DiagramError(f"over-strand at crossing {idx} cannot be oriented")
            if not forward_blocked and not backward_blocked:
                continue
            if backward_blocked:
                link(b, dd, f"crossing {idx} over-strand")
                over_dir[idx] = 1
            else:
                link(dd, b, f"crossing {idx} over-strand")
                over_dir[idx] = -1
            unresolved.discard(idx)
            progressed = True
        if progressed:
            continue
        # Fall back to the numbering convention for one crossing, then re-propagate.
        idx = min(unresolved)
        a, b, c, dd = d.crossings[idx]
        if component is None:  # the link components: cycles of the a-c and b-d pairings
            uf = _UnionFind(range(1, n_arcs + 1))
            for a0, b0, c0, d0 in d.crossings:
                uf.union(a0, c0)
                uf.union(b0, d0)
            component = [uf.find(x) for x in range(n_arcs + 1)]
        labels = [x for x in range(1, n_arcs + 1) if component[x] == component[b]]
        lo, hi = labels[0], labels[-1]
        if dd == (lo if b == hi else b + 1):
            link(b, dd, f"crossing {idx} over-strand")
            over_dir[idx] = 1
        elif b == (lo if dd == hi else dd + 1):
            link(dd, b, f"crossing {idx} over-strand")
            over_dir[idx] = -1
        else:
            raise DiagramError(f"cannot orient over-strand at crossing {idx}")
        unresolved.discard(idx)

    if len(succ) != n_arcs:
        raise DiagramError("successor structure incomplete")
    return succ, [over_dir[i] for i in range(len(d.crossings))]


def _cycles_of(succ: dict[int, int]) -> list[tuple[int, ...]]:
    seen: set[int] = set()
    cycles = []
    for start in sorted(succ):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        x = succ[start]
        while x != start:
            cyc.append(x)
            seen.add(x)
            x = succ[x]
        cycles.append(tuple(cyc))
    return cycles


class _UnionFind:
    def __init__(self, items: Iterable = ()):
        self.parent: dict = {x: x for x in items}

    def add(self, x) -> None:
        self.parent.setdefault(x, x)

    def find(self, x):
        self.add(x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx


class SeifertGraph(_Value):
    """Signed multigraph: one vertex per Seifert circle, one edge per crossing."""

    __slots__ = ("vertex_count", "edges")  # edges: (u, v, sign, crossing id)


class DiagramStructure(_Value):
    """Derived combinatorial data of a valid diagram."""

    # components and circles: arc cycles along the link and after smoothing; passages: crossing
    # ids along each circle; circle_left, circle_right and circle_component: the regions left and
    # right of each circle's traversal and its connected component; crossing_region: each crossing's channel.
    __slots__ = ("succ", "signs", "components", "circles", "circle_of", "passages", "graph",
                 "region_count", "circle_left", "circle_right", "circle_component", "crossing_region")


def analyze(d: Diagram) -> DiagramStructure:
    """The derived structure of ``d``; raises DiagramError when invalid.

    It is computed on the first call and kept on ``d``, so every caller of
    the same diagram shares one structure.  Callers must not mutate its
    dicts.
    """
    if d._structure is None:
        object.__setattr__(d, "_structure", _structure_of(d))
    return d._structure


def _structure_of(d: Diagram) -> DiagramStructure:
    # Occurrences of each arc among crossing slots.
    occ: dict[int, list[tuple[int, int]]] = {}
    for idx, entry in enumerate(d.crossings):
        for slot, arc in enumerate(entry):
            occ.setdefault(arc, []).append((idx, slot))
    bad = [a for a, places in occ.items() if len(places) != 2]
    if bad:
        raise DiagramError(f"arc multiplicity: arc {min(bad)} occurs {len(occ[min(bad)])} time(s)")
    if sorted(occ) != list(range(1, 2 * len(d.crossings) + 1)):
        raise DiagramError("arc labels must be exactly 1..2c")

    succ, over_dir = _build_successors(d)
    components = tuple(_cycles_of(succ))
    signs = tuple(over_dir)

    # Seifert smoothing.  An arc's head occurrence (its in slot) carries the
    # face left of the arc's orientation, its tail occurrence the face right.
    smooth: dict[int, int] = {}
    head_occ: dict[int, tuple[int, int]] = {}
    tail_occ: dict[int, tuple[int, int]] = {}
    for idx, entry in enumerate(d.crossings):
        for i, o in _SMOOTHED[signs[idx]]:
            smooth[entry[i]] = entry[o]
            head_occ[entry[i]] = (idx, i)
            tail_occ[entry[o]] = (idx, o)
    circles = tuple(_cycles_of(smooth))
    circle_of = {arc: ci for ci, cyc in enumerate(circles) for arc in cyc}
    passages = tuple(tuple([head_occ[arc][0] for arc in cyc]) for cyc in circles)

    edges = []
    for idx, (a, b, c, dd) in enumerate(d.crossings):
        u = circle_of[a]
        v = circle_of[c]
        if u == v:
            raise DiagramError(f"crossing {idx} joins a Seifert circle to itself")
        edges.append((u, v, signs[idx], idx))
    graph = SeifertGraph(len(circles), tuple(edges))

    def other_occurrence(idx: int, slot: int) -> tuple[int, int]:
        arc = d.crossings[idx][slot]
        first, second = occ[arc]
        return second if first == (idx, slot) else first

    # Connected components of the underlying 4-valent graph.
    cross_uf = _UnionFind(range(len(d.crossings)))
    for places in occ.values():
        (i1, _), (i2, _) = places
        cross_uf.union(i1, i2)
    comp_ids = sorted({cross_uf.find(i) for i in range(len(d.crossings))})
    comp_index = {root: k for k, root in enumerate(comp_ids)}
    n_graph_components = len(comp_ids)
    circle_component = tuple(
        comp_index[cross_uf.find(passages[ci][0])] if passages[ci] else 0
        for ci in range(len(circles))
    )

    # Face tracing.  A face dart (idx, slot) means: walking along the slot's
    # arc into the crossing, with the face on the left.  The next dart exits
    # through the clockwise-previous slot.
    face_of: dict[tuple[int, int], int] = {}
    face_count = 0
    for idx in range(len(d.crossings)):
        for slot in range(4):
            if (idx, slot) in face_of:
                continue
            fid = face_count
            face_count += 1
            cur = (idx, slot)
            while cur not in face_of:
                face_of[cur] = fid
                ci, cs = cur
                cur = other_occurrence(ci, (cs - 1) % 4)
    # Per sphere component: V - E + F = 2, so F = c + 2 per component.
    if face_count != len(d.crossings) + 2 * n_graph_components:
        raise DiagramError("not a planar diagram")

    # Smoothed regions: faces merged across the channel between the two
    # smoothed strands at each crossing.
    uf = _UnionFind(range(face_count))
    channel = []
    for idx in range(len(d.crossings)):
        s1, s2 = _CHANNEL[signs[idx]]
        uf.union(face_of[(idx, s1)], face_of[(idx, s2)])
        channel.append(face_of[(idx, s1)])
    region_ids: dict[int, int] = {}
    region_of_face = []
    for f in range(face_count):
        root = uf.find(f)
        if root not in region_ids:
            region_ids[root] = len(region_ids)
        region_of_face.append(region_ids[root])
    region_count = len(region_ids)
    if region_count != len(circles) + n_graph_components:
        raise DiagramError("smoothed region count mismatch (embedding error)")

    # Sides of each circle, read at its arcs' head and tail occurrences.
    circle_left = []
    circle_right = []
    for cyc in circles:
        lefts = {region_of_face[face_of[head_occ[arc]]] for arc in cyc}
        rights = {region_of_face[face_of[tail_occ[arc]]] for arc in cyc}
        if len(lefts) != 1 or len(rights) != 1:
            raise DiagramError("inconsistent circle sides (embedding error)")
        circle_left.append(lefts.pop())
        circle_right.append(rights.pop())

    return DiagramStructure(
        succ,
        signs,
        components,
        circles,
        circle_of,
        passages,
        graph,
        region_count,
        tuple(circle_left),
        tuple(circle_right),
        circle_component,
        tuple([region_of_face[f] for f in channel]),
    )


def link_components(d: Diagram) -> int:
    """Number of link components, free unknots included."""
    return len(analyze(d).components) + d.unknots


# ---------------------------------------------------------------------------
# Blocks (biconnected components) of the Seifert multigraph
# ---------------------------------------------------------------------------

class BlockDecomposition(_Value):
    __slots__ = ("cut_vertices", "blocks")  # blocks: edge tuples per block


def blocks(g: SeifertGraph) -> BlockDecomposition:
    """Biconnected components of a multigraph; bridges are single-edge blocks."""
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(g.vertex_count)}
    for eid, (u, v, _s, _c) in enumerate(g.edges):
        adj[u].append((v, eid))
        adj[v].append((u, eid))

    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    timer = 0
    stack: list[int] = []
    out_blocks: list[tuple] = []
    cut: set[int] = set()

    for root in range(g.vertex_count):
        if root in disc:
            continue
        disc[root] = low[root] = timer
        timer += 1
        root_children = 0
        work = [(root, -1, -1, iter(adj[root]))]
        while work:
            v, parent, pedge, it = work[-1]
            advanced = False
            for w, eid in it:
                if eid == pedge:
                    continue
                if w not in disc:
                    stack.append(eid)
                    disc[w] = low[w] = timer
                    timer += 1
                    if v == root:
                        root_children += 1
                    work.append((w, v, eid, iter(adj[w])))
                    advanced = True
                    break
                elif disc[w] < disc[v]:
                    stack.append(eid)
                    low[v] = min(low[v], disc[w])
            if advanced:
                continue
            work.pop()
            if parent != -1:
                low[parent] = min(low[parent], low[v])
                if low[v] >= disc[parent]:
                    block = []
                    while True:
                        eid = stack.pop()
                        block.append(g.edges[eid])
                        if eid == pedge:
                            break
                    out_blocks.append(tuple(reversed(block)))
                    if parent != root or root_children > 1:
                        cut.add(parent)
    return BlockDecomposition(tuple(sorted(cut)), tuple(out_blocks))


class BlockReport(_Value):
    __slots__ = ("homogeneous", "mixed_blocks", "decomposition")

    def __bool__(self) -> bool:
        return self.homogeneous


def is_homogeneous_diagram(d: Diagram) -> BlockReport:
    """True iff every block of the Seifert graph carries a single sign."""
    st = analyze(d)
    dec = blocks(st.graph)
    mixed = tuple(
        i
        for i, block in enumerate(dec.blocks)
        if len({s for (_u, _v, s, _c) in block}) > 1
    )
    return BlockReport(not mixed, mixed, dec)


# ---------------------------------------------------------------------------
# Primitive flatness
# ---------------------------------------------------------------------------

def in_one_region(st: DiagramStructure, crossing_ids: Iterable[int]) -> bool:
    """True iff in each connected component the crossings share one smoothed region.

    A region lies in one component, so that is one region per component met.
    """
    regions, parts = set(), set()
    for c in crossing_ids:
        regions.add(st.crossing_region[c])
        parts.add(st.circle_component[st.graph.edges[c][0]])
    return len(regions) == len(parts)


def is_primitive_flat(d: Diagram) -> bool:
    """Single-sign diagram whose circles can all sit unnested in the plane.

    A connected component's circles can all sit unnested exactly when its
    crossings lie in one smoothed region: that region, taken as the outer
    one, touches every circle.  Free unknots sit unnested anyway.
    """
    st = analyze(d)
    return len(set(st.signs)) <= 1 and in_one_region(st, range(len(st.signs)))


# ---------------------------------------------------------------------------
# Constructions: braid closures and sub-diagrams
# ---------------------------------------------------------------------------

def _renumber(entries: list[tuple], succ: dict, unknots: int = 0) -> Diagram:
    """Renumber arbitrary arc tokens to 1..2c, consecutive along each component."""
    rename: dict = {}
    next_label = 1
    for token in list(succ):
        if token in rename:
            continue
        x = token
        while x not in rename:
            rename[x] = next_label
            next_label += 1
            x = succ[x]
    out = [tuple([rename[t] for t in entry]) for entry in entries]
    return Diagram(out, unknots)


def closure_diagram(w: ArtinWord) -> Diagram:
    """The PD diagram of the closure of an Artin braid word.

    Strands are oriented downward; strands meeting no crossing close into
    free unknot components.
    """
    n = w.strands
    cur: list = [("top", p) for p in range(1, n + 1)]
    touched = [False] * (n + 1)
    entries: list[tuple] = []
    succ: dict = {}
    fresh = 0

    def new_arc():
        nonlocal fresh
        fresh += 1
        return ("x", fresh)

    for i, e in w.letters:
        touched[i] = touched[i + 1] = True
        u, v = cur[i - 1], cur[i]
        new_l, new_r = new_arc(), new_arc()
        if e > 0:
            entries.append((v, u, new_l, new_r))
        else:
            entries.append((u, new_l, new_r, v))
        succ[u] = new_r
        succ[v] = new_l
        cur[i - 1], cur[i] = new_l, new_r

    unknots = sum(1 for p in range(1, n + 1) if not touched[p])
    alias = {cur[p - 1]: ("top", p) for p in range(1, n + 1) if touched[p]}

    def resolve(tok):
        return alias.get(tok, tok)

    final_succ = {resolve(src): resolve(dst) for src, dst in succ.items()}
    final_entries = [tuple([resolve(t) for t in entry]) for entry in entries]
    return _renumber(final_entries, final_succ, unknots)


def subdiagram(d: Diagram, crossing_ids: Iterable[int]) -> Diagram:
    """The diagram obtained by smoothing every crossing not in ``crossing_ids``.

    Removing the other crossings' bands from the projection surface leaves
    the boundary re-closed along their smoothings.  Circles that lose all
    their crossings, and ``d``'s free unknots, are dropped (deplumbing
    semantics: they belong to the other plumband).
    """
    kept = set(crossing_ids)
    keep = sorted(kept)
    st = analyze(d)
    for idx in keep:
        if not 0 <= idx < len(d.crossings):
            raise DiagramError(f"no crossing {idx}")

    # Merge arcs across each removed crossing along its Seifert smoothing.
    uf = _UnionFind(st.succ)
    for idx, entry in enumerate(d.crossings):
        if idx not in kept:
            for i, o in _SMOOTHED[st.signs[idx]]:
                uf.union(entry[i], entry[o])

    succ: dict = {}
    for idx in keep:
        entry = d.crossings[idx]
        for i, o in ((0, 2), _OVER[st.signs[idx]]):
            succ[uf.find(entry[i])] = uf.find(entry[o])
    entries = [tuple([uf.find(x) for x in d.crossings[idx]]) for idx in keep]
    return _renumber(entries, succ)
