"""Value-semantic simplicial complexes stored by their facet antichains.

Vertices are string tokens.  Plain digit strings ("0", "1", ...) and
"v"-prefixed digit strings ("v0", "v1", ...) form interleaved pairs used
throughout the cross-polytope constructions; any other token is an opaque
label.  The total order on tokens is "0" < "v0" < "1" < "v1" < ... with
opaque labels after all paired tokens, lexicographically.  Faces are
reported and written in one canonical order, by their vertex keys
(``_face_key``).

All values are immutable after construction and all operations are pure
functions, so any value may be shared freely across threads.  The records
other modules build on ``_Record`` (the moves and flip results of
``moves``, the shelling verdicts and certificates of ``shelling``, the
flip classes of ``catalog``) are immutable too; ``cli.WalkConfig`` alone
is not.  A record states its fields once, in ``__slots__``: its
constructor is generated from them unless it writes its own.  Derived
slots are filled lazily; a concurrent recomputation
produces the identical value, so readers always observe a consistent
result.

Faces are not cached: ``all_faces`` and ``faces`` build them on each call;
the f-vector and Euler characteristic build none, but count the distinct
k-subsets of the facets taken as sorted tuples, size by size.  A complex
keeps only its facets and, each built on first use: its vertex set, its
star index (vertex -> frozenset of the facets containing it, which answers
``has_face``, ``link`` and ``star`` in time proportional to a vertex
degree), the common size of its facets and the highest "w<k>" label among
its vertices, above which ``fresh_vertices`` alone forms fresh labels.  The
facet-neighbour table (``_neighbour_table``) that the flip-site search
(``moves._site_view``) and manifold recognition walk is built by each of
their calls, not kept.  A complex made from another by exchanging a few
facets (``Complex._replaced``: the result of a cross-flip, a bistellar
flip, a stellar subdivision or a shelling move) inherits the slots the
other had built, patched at the vertices of the exchanged facets only, with
one C-level copy each; an inherited slot equals a fresh build.
"""

from __future__ import annotations

import itertools
import math
from enum import Enum


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
# records


class _Record:
    """Base of the library's records: named fields, the ``__slots__`` of
    the subclass in order.  Two records are equal when of one type with
    equal fields; a record hashes and shows its fields but those named in
    ``_unhashed`` and ``_hidden``; it pickles and copies by its
    constructor arguments.  Assigning or deleting any attribute raises
    AttributeError (``cli.WalkConfig`` restores both, and so is
    unhashable).  ``__slots__`` states the fields once: a subclass that
    would inherit ``object.__init__`` gets one compiled for it, taking the
    fields in slot order, defaults from ``_defaults`` (field -> value), and
    filling each through ``_setters``, the ``__set__`` of each slot, which
    pass by ``__setattr__``.  A record that writes ``__init__`` keeps it."""

    __slots__ = ()
    _unhashed: tuple = ()
    _hidden: tuple = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls.__slots__
        cls._setters = tuple(getattr(cls, name).__set__ for name in names)
        if cls.__init__ is object.__init__:  # not written, nor inherited from a record
            namespace = {"default_" + name: value for name, value in cls._defaults.items()}
            params = ", ".join(name + "=default_" + name if name in cls._defaults else name
                               for name in names)
            lines = ["def __init__(self, %s):" % params,
                     "    [%s] = self._setters" % ", ".join("set_" + name for name in names)]
            lines += ["    set_%s(self, %s)" % (name, name) for name in names]
            exec(compile("\n".join(lines), "<%s.__init__>" % cls.__qualname__, "exec"), namespace)
            cls.__init__ = namespace["__init__"]

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(tuple([getattr(self, name) for name in self.__slots__
                           if name not in self._unhashed]))

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__,
                           ", ".join("%s=%r" % (name, getattr(self, name))
                                     for name in self.__slots__ if name not in self._hidden))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))

    def __reduce__(self):
        return type(self), self._values()


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


def _face_key(f) -> tuple:
    """Sort key of the canonical face order (``Complex.canonical_facets``):
    the vertex keys of f, increasing, so "10" follows "9"."""
    return tuple(sorted(map(vertex_key, f)))


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


def _stars(facets) -> dict:
    """vertex -> list of the given facets containing it, in their order."""
    stars: dict[str, list] = {}
    for h in facets:
        for x in h:
            stars.setdefault(x, []).append(h)
    return stars


def _neighbour_table(facets) -> tuple:
    """``(table, thin)`` over a collection of facets: the facet-neighbour
    table, facet h -> {x: (g, y)} for every ridge h - {x} lying in exactly
    the two facets h and g = (h - {x}) | {y}, and whether no ridge lies in
    three or more facets.  The site search (``moves._site_view``) and
    manifold recognition read it; no complex keeps one."""
    table: dict[frozenset, dict] = {h: {} for h in facets}
    thin = True
    for pair in _ridges(facets).values():
        if len(pair) == 2:
            (h, x), (g, y) = pair
            table[h][x] = (g, y)
            table[g][y] = (h, x)
        elif len(pair) > 2:
            thin = False
    return table, thin


def _w_index(v: str) -> int | None:
    """k for a fresh-vertex label "w<k>", else None."""
    if v[:1] == "w" and v[1:].isdigit():
        return int(v[1:])
    return None


def fresh_vertices(c: "Complex", count: int) -> list:
    """Next *count* unused "w<k>" labels for the given complex: the one
    place fresh labels are formed, above its highest "w<k>" label."""
    top = c._top_w_label()
    return ["w%d" % (top + 1 + i) for i in range(count)]


# ---------------------------------------------------------------------------
# the complex itself


class Complex:
    """A simplicial complex held as the antichain of its maximal faces.

    The empty complex (no faces at all) and the void-face complex ``{()}``
    (single empty facet, dimension -1) are distinct values.  Equality and
    hashing use the facet set only.  The slots besides ``_facets`` fill
    lazily: ``_vertices`` (vertex set), ``_stars`` (star index), ``_size``
    (common facet size) and ``_top_w`` (top "w<k>" label), which an
    exchange inherits (``_replaced``).  Faces are built when asked for.
    """

    __slots__ = ("_facets", "_vertices", "_stars", "_size", "_top_w")

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

    def _unbuilt(self, facets: frozenset) -> "Complex":
        """Hold the given facet antichain with every derived slot unbuilt."""
        self._facets = facets
        self._vertices = None
        self._stars = None
        self._size = None
        self._top_w = None
        return self

    @classmethod
    def _trusted(cls, facets) -> "Complex":
        """The complex with the given facets, which the caller guarantees to
        be an antichain of frozensets, validating nothing."""
        return cls.__new__(cls)._unbuilt(frozenset(facets))

    @classmethod
    def generated_by(cls, faces) -> "Complex":
        """Smallest complex containing the given faces."""
        fs = sorted({_as_face(f) for f in faces}, key=len, reverse=True)
        maximal: list[frozenset] = []
        for f in fs:
            if not any(f <= g for g in maximal):
                maximal.append(f)
        return cls._trusted(maximal)

    def _replaced(self, removed: frozenset, added: frozenset, delta=None) -> "Complex":
        """The complex with the facets *removed* exchanged for *added*.

        The exchange must be exact: *removed* is a subset of the facets and
        *added* is disjoint from them, or ``ValueError`` is raised; both
        tests cost the exchange, not the complex.  The caller guarantees
        that the result is an antichain, which is not validated.  The facet
        set is ``(removed | added) ^ facets``, one copy of the facets with
        the exchange toggled in it.  The result gets this complex's vertex
        set and star index, and the common facet size and top "w<k>" label
        if this complex had built them, each patched at the vertices of the
        exchanged facets; it holds no reference to this complex.  *delta*
        maps each of those vertices to the exchanged facets containing it,
        removed and added alike, and its patched star is that exchange
        toggled in one copy of the old star (a new vertex's star is its
        exchange; a star toggled empty marks its vertex as gone).  A caller
        that knows *delta* (a cross-flip reads it from its class's exchange
        tables) hands it in, otherwise it is gathered here.  The top label
        is read from the vertices new to the complex.
        """
        facets = self._facets
        if not (removed <= facets and added.isdisjoint(facets)):
            raise ValueError("not an exchange: a removed face is no facet "
                             "or an added face is already one")
        # frozenset.symmetric_difference copies its argument at C speed and
        # toggles the receiver's items into the copy: the small side receives
        c = Complex._trusted((removed | added).symmetric_difference(facets))
        if delta is None:
            delta = {}
            for h in itertools.chain(removed, added):
                for x in h:
                    delta.setdefault(x, []).append(h)
        old = self._star_index()
        stars = dict(old)
        gone, new = [], []
        for x, exchanged in delta.items():
            s = old.get(x)
            if s is None:
                stars[x] = frozenset(exchanged)
                new.append(x)
                continue
            s = frozenset(exchanged).symmetric_difference(s)
            if s:
                stars[x] = s
            else:
                del stars[x]
                gone.append(x)
        c._stars = stars
        vertices = self.vertices
        if gone or new:
            vertices = frozenset(gone + new).symmetric_difference(vertices)
        c._vertices = vertices
        k = self._size
        if k is not None and k >= 0 and c._facets and set(map(len, added)) <= {k}:
            c._size = k
        top = self._top_w
        if top is not None:
            # a new label above the top is the top: every kept label is at most top
            high = max((i for i in map(_w_index, new) if i is not None), default=-1)
            if high > top:
                c._top_w = high
            elif all(_w_index(x) != top for x in gone):
                c._top_w = top
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
            self._stars = {x: frozenset(hs) for x, hs in _stars(self._facets).items()}
        return self._stars

    def _facets_containing(self, f: frozenset):
        """The facets containing the face f, read from the star of its
        vertex of least degree; every facet for the empty face."""
        if not f:
            return self._facets
        stars = self._star_index()
        return [g for g in min((stars.get(x, ()) for x in f), key=len) if f <= g]

    def has_face(self, f) -> bool:
        return bool(self._facets_containing(_as_face(f)))

    def _face_counts(self) -> list:
        """The number of faces of each size, 0 up to the largest facet's:
        the empty face, the vertices, the distinct k-combinations of the
        facets as sorted tuples for each size k in between, and the facets
        of the largest size (no face of that size lies in a larger one)."""
        d = self.dimension
        top = -1 if d is None else d + 1
        rows = [tuple(sorted(h)) for h in self._facets] if top > 2 else []
        between = [len(set(itertools.chain.from_iterable(
                       itertools.combinations(row, k) for row in rows))) for k in range(2, top)]
        top_count = sum(len(h) == top for h in self._facets)
        return ([1, len(self.vertices)] + between + [top_count])[:top + 1]

    def euler_characteristic(self) -> int:
        return sum((-1) ** (size - 1) * n
                   for size, n in enumerate(self._face_counts()) if size)

    def is_subcomplex_of(self, other: "Complex") -> bool:
        return self._facets <= other._facets or all(
            f in other._facets or other.has_face(f) for f in self._facets)

    def canonical_facets(self) -> list[tuple]:
        """Facets as sorted tuples, in the canonical outer order."""
        return sorted(map(sorted_face, self._facets), key=_face_key)

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


def delete_subcomplex(c: Complex, subc: Complex) -> Complex:
    """Complex generated by the facets of c that are not facets of subc;
    trusted, as some of an antichain's members are an antichain."""
    return Complex._trusted(c.facets - subc.facets)


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


def is_induced(c: Complex, subc: Complex) -> bool:
    """True when every face of c spanned by the sub's vertices lies in it.

    Decided by facet traces: h & V(sub) must be a face of sub for every
    facet h of c, so no face is enumerated.
    """
    if not subc.is_subcomplex_of(c):
        raise NotSubcomplex("second argument is not a subcomplex of the first")
    return _traces_are_faces(c.facets, subc.facets, subc.vertices)


def relabel(c: Complex, mapping: dict) -> Complex:
    """Apply a vertex relabeling; unmapped vertices keep their tokens.  A
    map that collapses a facet, or identifies two vertices of different
    facets, raises ``VertexCollision``."""
    out = []
    for f in c.facets:
        g = frozenset(mapping.get(v, v) for v in f)
        if len(g) != len(f):
            raise VertexCollision("relabeling collapses a facet")
        out.append(g)
    if len({mapping.get(v, v) for v in c.vertices}) != len(c.vertices):
        raise VertexCollision("relabeling identifies two vertices")
    return Complex(out)


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
    """Exact search for a proper (dim+1)-coloring by ridge classes.

    Returns the lexicographically least coloring in canonical vertex order,
    or None when no proper coloring with dim+1 colors exists.  In such a
    coloring the two vertices opposite a ridge that two facets of dim+1
    vertices share both take the one color the ridge lacks, so they lie in
    one class: a class is a component of the graph joining them.  A facet
    with two vertices in one class has no proper coloring.  Otherwise the
    search backtracks over the classes in order of their first vertex,
    least color first, two classes being adjacent when a facet, pure or
    not, holds a vertex of each; as a coloring is constant on classes, that
    order gives the least coloring of the vertices.  Nothing recurses, so
    no recursion limit bounds the depth.

    A strongly connected pure complex has at most dim+1 classes, all
    meeting one facet, so there the search is linear.  What stays
    exponential is the class backtracking on complexes with many strongly
    connected components sharing lower faces, such as the lower-dimensional
    facets of a non-pure complex, whose classes no facet ties together.
    """
    d = c.dimension
    if d is None or d < 0:  # no vertex to color
        return {}
    m = d + 1
    # the ridges of the facets of m vertices as sorted tuples, each beside
    # the vertex it omits (combinations omit the last vertex first) and the
    # first vertex met opposite it, to which that vertex is joined
    full = [sorted(h) for h in c.facets if len(h) == m]
    ridges = itertools.chain.from_iterable(map(itertools.combinations, full,
                                               itertools.repeat(d)))
    xs = list(itertools.chain.from_iterable(map(reversed, full)))
    ys = list(map({}.setdefault, ridges, xs))
    verts = sorted(c.vertices, key=vertex_key)
    joined: dict[str, list] = {v: [] for v in verts}
    for x, y in zip(xs, ys):
        if x != y:
            joined[x].append(y)
            joined[y].append(x)
    cls: dict[str, int] = {}  # vertex -> class index, in order of first vertex
    n = 0
    for v in verts:
        if v not in cls:
            cls[v] = n
            todo = [v]
            while todo:
                for w in joined[todo.pop()]:
                    if w not in cls:
                        cls[w] = n
                        todo.append(w)
            n += 1
    get = cls.__getitem__
    ties = [frozenset(map(get, h)) for h in c.facets]  # each facet's classes
    if sum(map(len, ties)) < sum(map(len, c.facets)):
        return None  # a facet with two vertices in one class
    earlier = [set() for _ in range(n)]  # the adjacent classes of lower index
    for t in set(ties):
        for k in t:
            earlier[k].update(j for j in t if j < k)
    colors = [0] * n
    tried = [0] * n  # the least color class i may still take
    i = 0
    while 0 <= i < n:
        used = {colors[j] for j in earlier[i]}
        col = next((k for k in range(tried[i], m) if k not in used), None)
        if col is None:  # backtrack: class i's next attempt starts afresh
            tried[i] = 0
            i -= 1
        else:
            colors[i] = col
            tried[i] = col + 1
            i += 1
    return {v: colors[cls[v]] for v in verts} if i == n else None


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
    mapping = dict(fixed or {})
    used = set(mapping.values())
    if not (mapping.keys() <= a.vertices and used <= b.vertices and len(used) == len(mapping)
            and all(ka.get(u) == kb.get(w) for u, w in mapping.items())):
        return None
    # invariants of the vertices left to place only: a pinned pair needs
    # none, as a map that places every facet is an isomorphism and so keeps
    # the degree of each pinned vertex anyway
    sig_a = {v: (_vertex_invariant(a, v), ka.get(v)) for v in a.vertices.difference(mapping)}
    sig_b = {v: (_vertex_invariant(b, v), kb.get(v)) for v in b.vertices.difference(used)}
    if sorted(s[0] for s in sig_a.values()) != sorted(s[0] for s in sig_b.values()):
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
# manifold recognition by face walks (exact up to ambient dimension 3; above
# it a failed walk is an exact NO and anything else UNDECIDED)


class ManifoldVerdict(Enum):
    CLOSED = "closed"
    WITH_BOUNDARY = "with-boundary"
    NO = "no"
    UNDECIDED = "undecided"


def _joined(star, table: dict, f) -> int:
    """Walk the facets *star*, those containing the face *f*, from one of
    them across the ridges containing f that the neighbour *table* lists:
    the number of (facet, ridge) crossings, a ridge counted from both its
    facets, or -1 when some facet of star is not reached."""
    todo = [next(iter(star))]
    seen = set(todo)
    crossed = 0
    for h in todo:
        for x, (g, _) in table[h].items():
            if x not in f:
                crossed += 1
                if g not in seen:
                    seen.add(g)
                    todo.append(g)
    return crossed if len(seen) == len(star) else -1


def _face_stars(facets, k: int) -> dict:
    """Each face of k vertices, as a sorted tuple -> the facets containing it."""
    stars: dict[tuple, list] = {}
    for h in facets:
        for f in itertools.combinations(sorted(h), k):
            stars.setdefault(f, []).append(h)
    return stars


def is_combinatorial_manifold(c: Complex) -> ManifoldVerdict:
    """Exact verdict for dimension <= 3; NO or UNDECIDED above that.

    Each test walks the facets containing a face across the ridges
    containing it that lie in exactly two facets (``_joined`` over one
    ``_neighbour_table``) and passes when the walk reaches them all: the
    link of the face is then a strongly connected pseudomanifold.

    - d = 0: the complex must be one point.
    - d >= 1: the walk of the empty face (the whole complex) must pass;
      the manifold has boundary when some ridge lies in one facet.
    - d = 2: the walk of every vertex must pass, so each link is a path or
      a cycle.
    - d = 3: the walk of every vertex v must pass and its link have
      V - E + F = 2, or 1 when v lies on a boundary ridge.  F is the size
      of the star of v, V the number of other vertices in it, and
      E = 3F - inner / 2, inner being the ridges the walk crossed, each
      counted from both its facets.  Splitting each vertex of a strongly
      connected link whose own link is not connected gives a connected
      surface and only raises V - E + F, which is at most 2 on a surface
      and at most 1 with boundary, with equality for the sphere and the
      disc alone.  So the edge links need no walk of their own.
    - d >= 4: the walk of every face of at most d - 1 vertices must pass,
      as it does on every combinatorial manifold; a failed walk answers
      NO and the rest is UNDECIDED.

    A ridge in three or more facets needs no test of its own.  At d other
    than 3 a face of d - 1 of its vertices fails its walk: the link of that
    face is a graph, and a vertex of degree three or more ends no single
    path or cycle.  At d = 3, the ridge being {a, b, c}, the count above
    takes the edge bc of the link of a for three or more boundary edges
    meeting at b, so that link, when its walk passes, has V - E + F <= 0.
    No ``Complex`` is built.
    """
    if not c.is_pure or not c.facets:
        raise NotPure("manifold check requires a pure nonempty complex")
    d = c.dimension
    if d < 0:
        raise NotPure("manifold check requires dimension at least 0")
    facets = c.facets
    if d == 0:
        return ManifoldVerdict.CLOSED if len(facets) == 1 else ManifoldVerdict.NO
    table = _neighbour_table(facets)[0]
    crossed = _joined(facets, table, ())
    if crossed < 0:
        return ManifoldVerdict.NO
    if d == 3:
        for v, star in c._star_index().items():
            inner = _joined(star, table, (v,))
            # twice V - E + F of the link of v, with E = 3F - inner / 2
            twice_euler = 2 * (len(frozenset().union(*star)) - 1) - 4 * len(star) + inner
            if inner < 0 or twice_euler != (4 if inner == 3 * len(star) else 2):
                return ManifoldVerdict.NO
    elif d > 1:
        walks = itertools.chain((((v,), star) for v, star in c._star_index().items()),
                                *(_face_stars(facets, k).items() for k in range(2, d)))
        if not all(_joined(star, table, f) >= 0 for f, star in walks):
            return ManifoldVerdict.NO
        if d > 3:
            return ManifoldVerdict.UNDECIDED
    return (ManifoldVerdict.WITH_BOUNDARY if crossed < (d + 1) * len(facets)
            else ManifoldVerdict.CLOSED)


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
    read as strings; raises ValueError on any other shape, a bad token before
    a repeated vertex.  Token types are checked in one pass over all facets."""
    faces = doc[key]
    if not isinstance(faces, list) or not all(isinstance(f, list) for f in faces):
        raise ValueError("%r must be a list of vertex-token lists" % (key,))
    typed = {type(v) for f in faces for v in f} <= {str, int}
    out = [frozenset(map(str, f)) for f in faces]
    for g, f in zip(out, faces):
        for v in () if typed else f:
            if isinstance(v, bool) or not isinstance(v, (str, int)):
                raise ValueError("vertex token %r is neither a string nor an integer"
                                 % (v,))
        if len(g) != len(f):
            raise ValueError("facet %r has repeated vertices" % (f,))
    return out


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
        colors = {}
        for k, v in coloring.items():  # a string is taken as int() reads it
            try:
                colors[str(k)] = int(v)
            except ValueError:
                raise ValueError("color %r of vertex %r is not an integer" % (v, k)) from None
        coloring = colors
    return c, coloring


# json is imported on the first call, not with the module: the library reads
# and writes JSON only here, and importing it with the module lengthened
# every ``import crossflips``.
def dumps(c: Complex, coloring: dict | None = None) -> str:
    import json

    return json.dumps(complex_to_doc(c, coloring), indent=2) + "\n"


def loads(text: str):
    import json

    return complex_from_doc(json.loads(text))
