"""Value-semantic simplicial complexes stored by their facet antichains.

Vertices are string tokens.  Plain digit strings ("0", "1", ...) and
"v"-prefixed digit strings ("v0", "v1", ...) form interleaved pairs used
throughout the cross-polytope constructions; any other token is an opaque
label.  The total order on tokens is "0" < "v0" < "1" < "v1" < ... with
opaque labels after all paired tokens, lexicographically.

All values are immutable after construction and all operations are pure
functions, so any value may be shared freely across threads.  Derived slots
are filled lazily; a concurrent recomputation produces the identical value,
so readers always observe a consistent result.

Faces are not cached: ``all_faces`` and ``faces`` build them on each call;
the f-vector and Euler characteristic build none, but count the distinct
k-subsets of the facets taken as sorted tuples, size by size.
A complex keeps only its facets and, each built on first use: its vertex set,
its star index (vertex -> frozenset of the facets containing it, which
answers ``has_face``, ``link`` and ``star`` in time proportional to a
vertex degree), the common size of its facets, the highest "w<k>" label
among its vertices, and the site view a flip-site search walks: the
facets in canonical order and a facet-neighbour table (facet h -> for each
vertex x of h whose ridge h - {x} lies in exactly two facets, the other
facet and its vertex off the ridge).  A complex made from another by
exchanging a few facets (``Complex._replaced``, the result of a
cross-flip or a shelling move) inherits the vertex set and star index of
the other, and its common size and top label if the other had built
them, patched at the vertices of the exchanged facets only; an inherited
slot always equals a fresh build; its site view is built afresh.
"""

from __future__ import annotations

import itertools
import json
import math
from enum import Enum
from typing import NamedTuple


class ComplexError(Exception):
    """Base class for errors raised by complex operations."""


class FaceNotPresent(ComplexError):
    pass


class VertexCollision(ComplexError):
    pass


class NotPure(ComplexError):
    pass


class NotSubcomplex(ComplexError):
    pass


# ---------------------------------------------------------------------------
# vertex tokens


def base(i: int) -> str:
    """Token for the plain vertex with index *i*."""
    return str(i)


def sub(i: int) -> str:
    """Token for the subdivision partner of index *i* (rendered "v<i>")."""
    return "v%d" % i


def pair_index(v: str) -> int | None:
    """Index i when *v* is one of the paired tokens "<i>"/"v<i>", else None."""
    if v.isdigit():
        return int(v)
    if v[:1] == "v" and v[1:].isdigit():
        return int(v[1:])
    return None


def is_sub(v: str) -> bool:
    return v[:1] == "v" and v[1:].isdigit()


def partner(v: str) -> str:
    """The other member of a token pair: "<i>" <-> "v<i>"."""
    i = pair_index(v)
    if i is None:
        raise ValueError("vertex %r has no pair partner" % (v,))
    return base(i) if is_sub(v) else sub(i)


def vertex_key(v: str):
    """Sort key realizing the total vertex order."""
    i = pair_index(v)
    if i is not None:
        return (0, 2 * i + (1 if is_sub(v) else 0), "")
    return (1, 0, v)


def face(*vertices) -> frozenset:
    """Build a face from vertex tokens; integers are coerced to base tokens."""
    return frozenset(str(v) if isinstance(v, int) else v for v in vertices)


def _as_face(f) -> frozenset:
    if isinstance(f, frozenset):
        return f
    return frozenset(str(v) if isinstance(v, int) else v for v in f)


def sorted_face(f) -> tuple:
    return tuple(sorted(f, key=vertex_key))


def _subsets(f):
    """Every subset of the face f, the empty face and f included, by size."""
    vs = tuple(f)
    return itertools.chain.from_iterable(
        map(frozenset, itertools.combinations(vs, r)) for r in range(len(vs) + 1))


def _ridges(facets) -> dict:
    """ridge -> [(h, x), ...]: each facet h with the vertex x it has off
    the ridge h - {x}."""
    ridges: dict[frozenset, list] = {}
    for h in facets:
        for x in h:
            ridges.setdefault(h - {x}, []).append((h, x))
    return ridges


def _w_index(v: str) -> int | None:
    """k for a fresh-vertex label "w<k>", else None."""
    if v[:1] == "w" and v[1:].isdigit():
        return int(v[1:])
    return None


# ---------------------------------------------------------------------------
# the complex itself


class _SiteView(NamedTuple):
    """The read-only indexes a flip-site search walks over one complex."""

    ordered: tuple  # (sorted_face(h), h) for every facet h, by sorted_face
    # facet h -> {x: (g, y)} for every ridge h - {x} lying in exactly the
    # two facets h and g = (h - {x}) | {y}
    neighbours: dict


class Complex:
    """A simplicial complex held as the antichain of its maximal faces.

    The empty complex (no faces at all) and the void-face complex ``{()}``
    (single empty facet, dimension -1) are distinct values.  Equality and
    hashing use the facet set only.  The slots besides ``_facets`` fill
    lazily: ``_vertices`` (vertex set), ``_stars`` (star index), ``_size``
    (common facet size), ``_top_w`` (top "w<k>" label) and ``_view``
    (site-search view); see the module docstring for the slots
    ``_replaced`` inherits.  Faces are built when asked for, never kept.
    """

    __slots__ = ("_facets", "_vertices", "_view", "_stars", "_size", "_top_w")

    def __init__(self, facets=()):
        self._unbuilt(frozenset(_as_face(f) for f in facets))
        sizes = {len(f) for f in self._facets}
        if len(sizes) > 1:
            # mixed sizes: name the least nested pair by (size, sorted vertices)
            nested = [(len(f), sorted_face(f), len(g), sorted_face(g))
                      for f in self._facets for g in self._facets_containing(f) if g != f]
            if nested:
                _, f, _, g = min(nested)
                raise ValueError("facet list is not an antichain: %r is contained in %r"
                                 % (f, g))
        self._size = sizes.pop() if len(sizes) == 1 else -1

    def _unbuilt(self, facets: frozenset) -> None:
        """Hold the given facet antichain with every derived slot unbuilt."""
        self._facets = facets
        self._vertices = None
        self._view = None
        self._stars = None
        self._size = None
        self._top_w = None

    @classmethod
    def generated_by(cls, faces) -> "Complex":
        """Smallest complex containing the given faces."""
        fs = sorted({_as_face(f) for f in faces}, key=len, reverse=True)
        maximal: list[frozenset] = []
        for f in fs:
            if not any(f <= g for g in maximal):
                maximal.append(f)
        c = cls.__new__(cls)
        c._unbuilt(frozenset(maximal))
        return c

    def _replaced(self, removed: frozenset, added: frozenset) -> "Complex":
        """The complex with facets ``(facets - removed) | added``.

        Trusted: the caller guarantees that the result is an antichain, so
        nothing is validated; a removed face that is not a facet changes
        nothing.  The result gets this complex's vertex set and star index,
        and the common facet size and top "w<k>" label if this complex had
        built them, each patched at the vertices of the exchanged facets;
        it holds no reference to this complex and has no site view.
        """
        c = Complex.__new__(Complex)
        c._unbuilt((self._facets - removed) | added)
        delta: dict[str, tuple[list, list]] = {}
        for i, facets in enumerate((removed, added)):
            for h in facets:
                for x in h:
                    delta.setdefault(x, ([], []))[i].append(h)
        stars = dict(self._star_index())
        gone = []
        for x, (out, into) in delta.items():
            s = stars.get(x, frozenset()).difference(out).union(into)
            if s:
                stars[x] = s
            else:
                del stars[x]
                gone.append(x)
        added_vertices = frozenset().union(*added)
        c._stars = stars
        c._vertices = self.vertices.difference(gone) | added_vertices
        k = self._size
        if k is not None and k >= 0 and c._facets and all(len(h) == k for h in added):
            c._size = k
        top = self._top_w
        if top is not None and all(_w_index(x) != top for x in gone):
            labels = [_w_index(x) for x in added_vertices]
            c._top_w = max([top] + [i for i in labels if i is not None])
        return c

    @classmethod
    def empty(cls) -> "Complex":
        return cls(())

    @classmethod
    def void(cls) -> "Complex":
        """The complex whose only face is the empty face; dimension -1."""
        return cls((frozenset(),))

    @property
    def facets(self) -> frozenset:
        return self._facets

    def _common_size(self) -> int:
        """The size shared by every facet; -1 when sizes differ or there is
        no facet."""
        if self._size is None:
            sizes = {len(f) for f in self._facets}
            self._size = sizes.pop() if len(sizes) == 1 else -1
        return self._size

    @property
    def dimension(self) -> int | None:
        """Max facet dimension; None for the empty complex."""
        if not self._facets:
            return None
        k = self._common_size()
        return (k if k >= 0 else max(len(f) for f in self._facets)) - 1

    @property
    def vertices(self) -> frozenset:
        if self._vertices is None:
            self._vertices = frozenset().union(*self._facets)
        return self._vertices

    def _top_w_label(self) -> int:
        """The highest k of a vertex labeled "w<k>"; -1 when there is none."""
        if self._top_w is None:
            labels = [_w_index(v) for v in self.vertices]
            self._top_w = max([-1] + [i for i in labels if i is not None])
        return self._top_w

    @property
    def is_pure(self) -> bool:
        return not self._facets or self._common_size() >= 0

    @property
    def n_facets(self) -> int:
        return len(self._facets)

    def all_faces(self) -> frozenset:
        """Every face, the empty face included (for a nonempty complex);
        built on each call."""
        out = set()
        for f in self._facets:
            out.update(_subsets(f))
        return frozenset(out)

    def faces(self, k: int) -> frozenset:
        """All k-dimensional faces (k = -1 yields the empty face if present);
        built on each call."""
        return frozenset(f for f in self.all_faces() if len(f) == k + 1)

    def _star_index(self) -> dict:
        """vertex -> frozenset of the facets containing it."""
        if self._stars is None:
            lists: dict[str, list] = {}
            for h in self._facets:
                for x in h:
                    lists.setdefault(x, []).append(h)
            self._stars = {x: frozenset(hs) for x, hs in lists.items()}
        return self._stars

    def _facets_containing(self, f: frozenset):
        """The facets containing the face f, read from the star of its
        vertex of least degree; every facet for the empty face."""
        if not f:
            return self._facets
        stars = self._star_index()
        return [g for g in min((stars.get(x, ()) for x in f), key=len) if f <= g]

    def _site_view(self) -> _SiteView:
        """Facets in ``sorted(facets, key=sorted_face)`` order with their
        facet-neighbour table, built on first use and shared by every
        flip-site search over this complex."""
        if self._view is None:
            ordered = tuple(sorted((sorted_face(h), h) for h in self._facets))
            neighbours: dict[frozenset, dict] = {h: {} for h in self._facets}
            for pair in _ridges(self._facets).values():
                if len(pair) == 2:
                    (h, x), (g, y) = pair
                    neighbours[h][x] = (g, y)
                    neighbours[g][y] = (h, x)
            self._view = _SiteView(ordered, neighbours)
        return self._view

    def has_face(self, f) -> bool:
        return bool(self._facets_containing(_as_face(f)))

    def _face_counts(self) -> list:
        """The number of faces of each size, 0 up to the largest facet's:
        the distinct k-combinations of the facets as sorted tuples."""
        rows = [tuple(sorted(h)) for h in self._facets]
        top = max(map(len, rows), default=-1)
        return [len(set(itertools.chain.from_iterable(
                    itertools.combinations(row, k) for row in rows)))
                for k in range(top + 1)]

    def euler_characteristic(self) -> int:
        return sum((-1) ** (size - 1) * n
                   for size, n in enumerate(self._face_counts()) if size)

    def is_subcomplex_of(self, other: "Complex") -> bool:
        return all(f in other._facets or other.has_face(f) for f in self._facets)

    def canonical_facets(self) -> list[tuple]:
        """Facets as sorted tuples, in the canonical outer order."""
        return sorted(
            (sorted_face(f) for f in self._facets),
            key=lambda t: tuple(vertex_key(v) for v in t),
        )

    def __eq__(self, other):
        return isinstance(other, Complex) and self._facets == other._facets

    def __hash__(self):
        return hash(self._facets)

    def __repr__(self):
        d = self.dimension
        return "Complex(dim=%s, facets=%d)" % (d, len(self._facets))


# ---------------------------------------------------------------------------
# local and composite constructions


def link(c: Complex, f) -> Complex:
    """Faces G disjoint from f with f | G in the complex."""
    f = _as_face(f)
    if not c.has_face(f):
        raise FaceNotPresent("face %r is not in the complex" % (sorted_face(f),))
    # distinct facets g containing f leave faces g - f that are never nested
    return Complex(g - f for g in c._facets_containing(f))


def star(c: Complex, f) -> Complex:
    f = _as_face(f)
    if not c.has_face(f):
        raise FaceNotPresent("face %r is not in the complex" % (sorted_face(f),))
    return Complex(c._facets_containing(f))


def delete_face(c: Complex, f) -> Complex:
    """All faces of c not containing f."""
    f = _as_face(f)
    if not c.has_face(f):
        raise FaceNotPresent("face %r is not in the complex" % (sorted_face(f),))
    keep = []
    for g in c.facets:
        if f <= g:
            keep.extend(g - {x} for x in f)
        else:
            keep.append(g)
    return Complex.generated_by(keep)


def delete_subcomplex(c: Complex, subc: Complex) -> Complex:
    """Complex generated by the facets of c that are not facets of subc."""
    return Complex(c.facets - subc.facets)


def join(a: Complex, b: Complex) -> Complex:
    """Join of complexes on disjoint vertex sets."""
    shared = a.vertices & b.vertices
    if shared:
        raise VertexCollision("join requires disjoint vertex sets; shared: %r"
                              % sorted(shared, key=vertex_key))
    return Complex(fa | fb for fa in a.facets for fb in b.facets)


def _require_boundary(c: Complex) -> None:
    """Raise NotPure unless c is pure, nonempty and of dimension at least 1,
    where its boundary is defined."""
    if not c.is_pure or not c.facets:
        raise NotPure("boundary complex requires a pure nonempty complex")
    if c.dimension < 1:
        raise NotPure("boundary complex requires dimension at least 1")


def boundary_complex(c: Complex) -> Complex:
    """Complex generated by the ridges lying in exactly one facet."""
    _require_boundary(c)
    rim = [r for r, hs in _ridges(c.facets).items() if len(hs) == 1]
    if not rim:
        return Complex.empty()
    return Complex(rim)


def f_vector(c: Complex) -> tuple:
    """(f_-1, f_0, ..., f_d); requires a pure complex."""
    if not c.facets:
        raise NotPure("the empty complex has no f-vector")
    if not c.is_pure:
        raise NotPure("f-vector requires a pure complex")
    return tuple(c._face_counts())


def h_vector(c: Complex) -> tuple:
    """(h_0, ..., h_{d+1}) via the alternating binomial transform of f."""
    fv, n = f_vector(c), c.dimension + 1
    return tuple(sum((-1) ** (j - i) * math.comb(n - i, n - j) * fv[i] for i in range(j + 1))
                 for j in range(n + 1))


def _traces_are_faces(facets, sub_facets: frozenset, vs) -> bool:
    """True when h & vs is a face of the complex with facets *sub_facets*
    and vertex set *vs* for every h in the collection *facets*.

    Run on all facets of a complex containing the sub, this decides
    inducedness: the faces of the complex spanned by vs are exactly the
    subsets of these traces.  Traces of at most one vertex are faces of any
    complex with a face; the empty trace is a face of nothing when the sub
    is empty.
    """
    if not sub_facets:
        return not facets
    for h in facets:
        t = h & vs
        if len(t) > 1 and t not in sub_facets and not any(map(t.issubset, sub_facets)):
            return False
    return True


def _induced_in(c: Complex, sub_facets: frozenset, vs) -> bool:
    """Whether the nonempty subcomplex of c with facets *sub_facets* and
    vertex set *vs* is induced in c.

    A one-facet sub is induced with no star read: every facet's trace on
    the vertex set of a simplex is a face of that simplex.  Otherwise it
    is decided by the traces of the facets in the stars of vs only: any
    other facet of c has the empty trace.  No ``Complex`` is built for the
    sub.
    """
    if len(sub_facets) == 1:
        return True
    stars = c._star_index()
    near = frozenset().union(*(stars.get(v, ()) for v in vs))
    return _traces_are_faces(near, sub_facets, vs)


def is_induced(c: Complex, subc: Complex) -> bool:
    """True when every face of c spanned by the sub's vertices lies in it.

    Decided by facet traces: h & V(sub) must be a face of sub for every
    facet h of c, so no face is enumerated.
    """
    if not subc.is_subcomplex_of(c):
        raise NotSubcomplex("second argument is not a subcomplex of the first")
    return _traces_are_faces(c.facets, subc.facets, subc.vertices)


def relabel(c: Complex, mapping: dict) -> Complex:
    """Apply a vertex relabeling; unmapped vertices keep their tokens."""
    out = []
    for f in c.facets:
        g = frozenset(mapping.get(v, v) for v in f)
        if len(g) != len(f):
            raise VertexCollision("relabeling collapses a facet")
        out.append(g)
    return Complex(out)


def _adjacency(c: Complex) -> dict:
    """vertex -> set of the vertices sharing an edge with it, read from the
    vertex pairs of the facets."""
    adj: dict[str, set] = {v: set() for v in c.vertices}
    for h in c.facets:
        for v in h:
            adj[v].update(h)
    for v, ws in adj.items():
        ws.discard(v)
    return adj


# ---------------------------------------------------------------------------
# colorings


def is_proper_coloring(c: Complex, coloring: dict, m: int) -> bool:
    """No vertex uncolored, all colors in range(m), no monochromatic edge.

    Decided by facets, building no face: every edge lies in a facet, so
    there is no monochromatic edge exactly when every facet's vertices
    have distinct colors.
    """
    for v in c.vertices:
        col = coloring.get(v)
        if col is None or not (0 <= col < m):
            return False
    return all(len({coloring[v] for v in h}) == len(h) for h in c.facets)


def find_balanced_coloring(c: Complex) -> dict | None:
    """Exact backtracking search for a proper (dim+1)-coloring.

    Returns the first coloring in canonical vertex order, or None when no
    proper coloring with dim+1 colors exists.  The search is iterative, so
    no recursion limit bounds its depth.
    """
    d = c.dimension
    if d is None:
        return {}
    m = d + 1
    verts = sorted(c.vertices, key=vertex_key)
    adj = _adjacency(c)
    coloring: dict[str, int] = {}
    tried = [0] * len(verts)  # the least color vertex i may still take
    i = 0
    while 0 <= i < len(verts):
        v = verts[i]
        used = {coloring[w] for w in adj[v] if w in coloring}
        col = next((k for k in range(tried[i], m) if k not in used), None)
        if col is None:  # backtrack: v's next attempt starts afresh
            coloring.pop(v, None)
            tried[i] = 0
            i -= 1
        else:
            coloring[v] = col
            tried[i] = col + 1
            i += 1
    return coloring if i == len(verts) else None


# ---------------------------------------------------------------------------
# isomorphism


def _vertex_invariant(c: Complex, v: str) -> tuple:
    """The degree of v (facets containing it, which ``are_isomorphic`` needs
    to keep whole components together) and its number of neighbours, read
    from the star index.  On manifolds of dimension at most 3 and on closed
    4-manifolds these fix the face numbers of the link of v."""
    star = c._star_index()[v]
    return (len(star), len(frozenset().union(*star)) - 1)


def _placement_steps(facets, known) -> list:
    """Blocks of steps (facet, its new vertices sorted, it and the next
    facets with none new) over facets each with a vertex outside *known*:
    each next facet shares a ridge with a placed one (depth first), else has
    the most known vertices.  A facet with no known vertex starts a block:
    the facets before it and those inside *known* make up whole components."""
    order = sorted(facets, key=sorted)
    ridges = _ridges(order)
    known, rest = set(known), set(facets)
    blocks, todo = [], []
    while rest:
        h = todo.pop() if todo else max((g for g in order if g in rest),
                                        key=lambda g: len(g & known))
        if h in rest:
            rest.remove(h)
            if not blocks or h.isdisjoint(known):
                blocks.append([])
            new = sorted(h - known, key=vertex_key)
            if new:
                blocks[-1].append((h, new, []))
            blocks[-1][-1][2].append(h)
            known.update(new)
            todo += [g for x in sorted(h, reverse=True) for g, _ in ridges[h - {x}] if g in rest]
    return blocks


def are_isomorphic(a: Complex, b: Complex, respect_colors=None, fixed=None):
    """The first vertex bijection inducing a facet bijection, or None.

    ``fixed`` pre-assigns part of the map (for locus-fixing checks).  Each
    other facet of a goes, in ``_placement_steps`` order, onto a facet of b
    containing the images of its mapped vertices, its new vertices mapped in
    every order keeping vertex invariants and, with ``respect_colors=(ka,
    kb)``, colors.  A placed block is never undone: with the pinned facets
    it makes up whole components of a, and as each image vertex keeps its
    degree, their images make up whole components of b, so the rest has an
    isomorphism if any map does.  Between pseudomanifolds a facet sharing a
    ridge with a placed one has one image at most, so a block costs at most
    |F_b|·(d+1)!·|F_a| placements, or that bound to the power k if its
    unpinned facets form k ridge-connected pieces."""
    if sorted(map(len, a.facets)) != sorted(map(len, b.facets)):
        return None
    ka, kb = respect_colors or ({}, {})
    sig_a = {v: (_vertex_invariant(a, v), ka.get(v)) for v in a.vertices}
    sig_b = {v: (_vertex_invariant(b, v), kb.get(v)) for v in b.vertices}
    if sorted(s[0] for s in sig_a.values()) != sorted(s[0] for s in sig_b.values()):
        return None
    mapping = dict(fixed or {})
    used = set(mapping.values())
    if not (mapping.keys() <= a.vertices and used <= b.vertices and len(used) == len(mapping)
            and all(sig_a[u] == sig_b[w] for u, w in mapping.items())):
        return None

    def images_are_facets(hs) -> bool:
        return all(frozenset(map(mapping.__getitem__, h)) in b.facets for h in hs)

    def placements(h, new, checks):
        img = frozenset(map(mapping.__getitem__, h.difference(new)))
        for g in sorted(b._facets_containing(img), key=sorted):
            free = g - img
            if len(free) == len(new) and used.isdisjoint(free):
                for perm in itertools.permutations(sorted(free, key=vertex_key)):
                    if all(sig_a[u] == sig_b[w] for u, w in zip(new, perm)):
                        mapping.update(zip(new, perm))
                        used.update(perm)
                        if images_are_facets(checks):
                            yield True
                        for u in new:
                            del mapping[u]
                        used.difference_update(perm)

    pinned = [h for h in a.facets if h <= mapping.keys()]
    if not images_are_facets(pinned):
        return None
    for steps in _placement_steps(a.facets.difference(pinned), frozenset(mapping)):
        stack = []
        while len(stack) < len(steps):
            stack.append(placements(*steps[len(stack)]))
            while stack and not next(stack[-1], False):
                stack.pop()
            if not stack:
                return None
    return mapping


# ---------------------------------------------------------------------------
# manifold recognition (exact up to ambient dimension 3)


class ManifoldVerdict(Enum):
    CLOSED = "closed"
    WITH_BOUNDARY = "with-boundary"
    NO = "no"
    UNDECIDED = "undecided"


def _is_connected(facets) -> bool:
    """Whether any two vertices of the given facets are joined by a chain
    of facets, each meeting the next; true with at most one vertex."""
    stars: dict[str, list] = {}
    for h in facets:
        for x in h:
            stars.setdefault(x, []).append(h)
    seen, todo = set(), list(stars)[:1]
    while todo:
        for h in stars[todo.pop()]:
            fresh = h - seen
            seen |= fresh
            todo.extend(fresh)
    return len(seen) == len(stars)


def _sphere_or_ball(facets: list, k: int) -> str | None:
    """"sphere" or "ball" when the distinct facets of k + 1 vertices each,
    k <= 2, form a combinatorial k-sphere or k-ball; None otherwise.

    For k >= 1 the facets must be connected, with each ridge in at most two
    of them and in one exactly when they form a ball; for k = 2 each vertex
    link must pass at k = 1 and V - E + F be 2 (sphere) or 1 (ball), as a
    compact connected surface with that Euler characteristic is one.
    """
    if k == 0:
        return {2: "sphere", 1: "ball"}.get(len(facets))
    if not _is_connected(facets):
        return None
    ridges = _ridges(facets)
    if any(len(hs) > 2 for hs in ridges.values()):
        return None
    kind = "ball" if any(len(hs) == 1 for hs in ridges.values()) else "sphere"
    if k == 2:
        links: dict[str, list] = {}
        for h in facets:
            for x in h:
                links.setdefault(x, []).append(h - {x})
        if any(_sphere_or_ball(lk, 1) is None for lk in links.values()):
            return None
        if len(links) - len(ridges) + len(facets) != (1 if kind == "ball" else 2):
            return None
    return kind


def is_combinatorial_manifold(c: Complex) -> ManifoldVerdict:
    """Exact verdict for dimension <= 3; Undecided above that.

    The complex must be connected and the link of each vertex, read from
    the star index as the facet list ``[g - {v} for g in stars[v]]``, a
    sphere or a ball (``_sphere_or_ball``); a ball link puts the vertex on
    the boundary.  No ``Complex`` is built.
    """
    if not c.is_pure or not c.facets:
        raise NotPure("manifold check requires a pure nonempty complex")
    d = c.dimension
    if d < 0:
        raise NotPure("manifold check requires dimension at least 0")
    if d >= 4:
        return ManifoldVerdict.UNDECIDED
    if not _is_connected(c.facets):
        return ManifoldVerdict.NO
    if d == 0:
        return ManifoldVerdict.CLOSED  # connected: a single point
    stars = c._star_index()
    saw_ball = False
    for v in sorted(stars, key=vertex_key):
        kind = _sphere_or_ball([g - {v} for g in stars[v]], d - 1)
        if kind is None:
            return ManifoldVerdict.NO
        if kind == "ball":
            saw_ball = True
    return ManifoldVerdict.WITH_BOUNDARY if saw_ball else ManifoldVerdict.CLOSED


# ---------------------------------------------------------------------------
# JSON interchange
#
# {"facets": [["0", "1", "v2"], ...], "coloring": {"0": 0, ...}}
# Facet arrays are sorted in the canonical vertex order and the outer list
# lexicographically; readers reject facet lists that are not antichains.


def complex_to_doc(c: Complex, coloring: dict | None = None) -> dict:
    doc = {"facets": [list(t) for t in c.canonical_facets()]}
    if coloring is not None:
        doc["coloring"] = {
            v: coloring[v] for v in sorted(coloring, key=vertex_key)
        }
    return doc


def _faces_from_doc(doc: dict, key: str) -> list:
    """The faces listed under *key* as vertex-token lists, integer tokens
    read as strings; raises ValueError on any other shape."""
    faces = doc[key]
    if not isinstance(faces, list) or not all(isinstance(f, list) for f in faces):
        raise ValueError("%r must be a list of vertex-token lists" % (key,))
    for f in faces:
        for v in f:
            if isinstance(v, bool) or not isinstance(v, (str, int)):
                raise ValueError("vertex token %r is neither a string nor an integer"
                                 % (v,))
        if len(_as_face(f)) != len(f):
            raise ValueError("facet %r has repeated vertices" % (f,))
    return [_as_face(f) for f in faces]


def complex_from_doc(doc: dict):
    """Parse the interchange dict; returns (complex, coloring-or-None)."""
    if not isinstance(doc, dict) or "facets" not in doc:
        raise ValueError("expected an object with a 'facets' list")
    c = Complex(_faces_from_doc(doc, "facets"))  # raises ValueError on non-antichain input
    coloring = doc.get("coloring")
    if coloring is not None:
        if not isinstance(coloring, dict):
            raise ValueError("'coloring' must be an object")
        for k, v in coloring.items():
            if isinstance(v, bool) or not isinstance(v, (str, int)):
                raise ValueError("color %r of vertex %r is not an integer" % (v, k))
        coloring = {str(k): int(v) for k, v in coloring.items()}
    return c, coloring


def dumps(c: Complex, coloring: dict | None = None) -> str:
    return json.dumps(complex_to_doc(c, coloring), indent=2) + "\n"


def loads(text: str):
    return complex_from_doc(json.loads(text))
