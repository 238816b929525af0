"""Manifold recognition against the per-dimension recognizer it replaced.

`former_is_combinatorial_manifold` below is the recognizer as it stood
before vertex links were read from the star index as facet lists: it
builds a `Complex` for every vertex link (and every link of a link) and
classifies it with one function per link dimension, each with its own
connectivity test.  `is_combinatorial_manifold` must give the same verdict,
or raise the same `NotPure` message, on every input: drawn pure and mixed
complexes at d = 0..3, seeded walk spheres and the balls and other pieces
cut from them, and surfaces that fail only on their Euler characteristic.
The drawn inputs are derandomized, so every run tries the same examples.
"""

import random

from hypothesis import given, settings, strategies as st

from crossflips import catalog
from crossflips.cli import WalkConfig, run_walk
from crossflips.complexes import (
    Complex,
    ManifoldVerdict,
    NotPure,
    _ridges,
    face,
    is_combinatorial_manifold,
    link,
    sorted_face,
    vertex_key,
)
from crossflips.diamond import cross_polytope, simplex_boundary

# ---------------------------------------------------------------------------
# the former recognizer


def former_is_connected(c):
    adj = {v: set() for v in c.vertices}
    for h in c.facets:
        for v in h:
            adj[v].update(h - {v})
    if len(adj) <= 1:
        return True
    start = next(iter(adj))
    seen, todo = {start}, [start]
    while todo:
        fresh = adj[todo.pop()] - seen
        seen |= fresh
        todo.extend(fresh)
    return len(seen) == len(adj)


def _classify_dim0(c):
    n = len(c.vertices)
    if n == 2:
        return "sphere"
    if n == 1:
        return "ball"
    return None


def _classify_dim1(c):
    if c.dimension != 1 or not c.is_pure or not former_is_connected(c):
        return None
    deg = {v: len(hs) for v, hs in c._star_index().items()}
    ones = sum(1 for d in deg.values() if d == 1)
    if any(d > 2 for d in deg.values()):
        return None
    if ones == 0:
        return "sphere"
    if ones == 2:
        return "ball"
    return None


def _classify_dim2(c):
    if c.dimension != 2 or not c.is_pure or not former_is_connected(c):
        return None
    counts = [len(hs) for hs in _ridges(c.facets).values()]
    if any(n > 2 for n in counts):
        return None
    has_boundary = 1 in counts
    for v in c.vertices:
        kind = _classify_dim1(link(c, {v}))
        if kind is None:
            return None
        if kind == "sphere" and has_boundary:
            continue
        if kind == "ball" and not has_boundary:
            return None
    chi = c.euler_characteristic()
    if not has_boundary:
        return "sphere" if chi == 2 else None
    return "ball" if chi == 1 else None


_CLASSIFIERS = {0: _classify_dim0, 1: _classify_dim1, 2: _classify_dim2}


def former_is_combinatorial_manifold(c):
    if not c.is_pure or not c.facets:
        raise NotPure("manifold check requires a pure nonempty complex")
    d = c.dimension
    if d < 0:
        raise NotPure("manifold check requires dimension at least 0")
    if d >= 4:
        return ManifoldVerdict.UNDECIDED
    if not former_is_connected(c):
        return ManifoldVerdict.NO
    if d == 0:
        return ManifoldVerdict.CLOSED if len(c.vertices) == 1 else ManifoldVerdict.NO
    classify = _CLASSIFIERS[d - 1]
    saw_ball = False
    for v in sorted(c.vertices, key=vertex_key):
        kind = classify(link(c, {v}))
        if kind is None:
            return ManifoldVerdict.NO
        if kind == "ball":
            saw_ball = True
    return ManifoldVerdict.WITH_BOUNDARY if saw_ball else ManifoldVerdict.CLOSED


# ---------------------------------------------------------------------------
# comparison


def outcome(fn, c):
    try:
        return fn(c)
    except NotPure as exc:
        return "NotPure", str(exc)


def agrees(c):
    want = outcome(former_is_combinatorial_manifold, c)
    assert outcome(is_combinatorial_manifold, c) == want, c.canonical_facets()
    return want


@st.composite
def drawn_complexes(draw):
    """A complex on at most d + 5 vertices generated by up to 12 faces, all
    of d + 1 vertices unless the draw mixes sizes."""
    d = draw(st.integers(0, 3))
    n = draw(st.integers(d + 1, d + 5))
    sizes = st.integers(1, d + 1) if draw(st.booleans()) else st.just(d + 1)
    faces = draw(st.lists(
        sizes.flatmap(lambda k: st.sets(st.integers(0, n - 1), min_size=k, max_size=k)),
        min_size=1, max_size=12))
    return Complex.generated_by(faces)


@given(drawn_complexes())
@settings(max_examples=400, derandomize=True, deadline=None, database=None)
def test_drawn_complexes_get_the_former_verdict(c):
    agrees(c)


def _walk_sphere(d, seed, steps):
    return run_walk(WalkConfig(steps=steps, seed=seed, dimension=d))[0]


WALK_SPHERES = [_walk_sphere(d, seed, steps) for d, steps in ((1, 12), (2, 15), (3, 4))
                for seed in range(3)]


def _pieces(c, rng):
    """Pieces cut from a sphere: minus one facet, minus a vertex star, and
    random facet subsets."""
    facets = sorted(c.facets, key=sorted_face)
    v = min(c.vertices, key=vertex_key)
    yield Complex(facets[1:])
    yield Complex(h for h in facets if v not in h)
    for _ in range(6):
        keep = [h for h in facets if rng.random() < 0.7]
        if keep:
            yield Complex(keep)


def test_walk_spheres_and_their_pieces_get_the_former_verdict():
    rng = random.Random(0)
    for c in WALK_SPHERES:
        assert agrees(c) is ManifoldVerdict.CLOSED
        for piece in _pieces(c, rng):
            agrees(piece)


def _cone(surface):
    return Complex(h | {"x"} for h in surface)


TORUS = [face(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)] + [
    face(i, (i + 2) % 7, (i + 3) % 7) for i in range(7)]
PROJECTIVE_PLANE = [face(*t) for t in (
    (1, 2, 4), (1, 2, 6), (1, 3, 4), (1, 3, 5), (1, 5, 6),
    (2, 3, 5), (2, 3, 6), (2, 4, 5), (3, 4, 6), (4, 5, 6))]


def test_surfaces_with_the_wrong_euler_characteristic():
    """The torus and the projective plane have every vertex link a cycle,
    so only V - E + F tells their cones apart from 3-balls."""
    for surface in (TORUS, PROJECTIVE_PLANE):
        assert len(_ridges(surface)) == 3 * len(surface) // 2
        assert agrees(Complex(surface)) is ManifoldVerdict.CLOSED
        assert agrees(_cone(surface)) is ManifoldVerdict.NO
        assert agrees(_cone(surface[1:])) is ManifoldVerdict.NO
    assert agrees(_cone([face("a", "b", "c"), face("a", "b", "d")])) is (
        ManifoldVerdict.WITH_BOUNDARY)


def test_a_pinched_link_of_a_vertex_link():
    """Two tetrahedra on one edge: the link of either end of that edge is
    two triangles on one vertex, connected, with each edge in at most two
    triangles and V - E + F = 1, so only the disconnected link of the
    pinch vertex within it makes the complex no manifold."""
    c = Complex([face("x", "a", "b", "c"), face("x", "a", "d", "e")])
    assert agrees(c) is ManifoldVerdict.NO


def test_fixed_cases_reach_every_outcome():
    cases = [
        Complex([face("a", "b", "c"), face("a", "d", "e")]),  # pinched triangles
        Complex([face("a", "b", "c")]),
        cross_polytope(4),
        catalog.stacked_cross_sphere_colored(3, 4)[0],
        simplex_boundary(3),
        Complex([face("a")]),
        Complex([face("a"), face("b")]),
        Complex([face("a", "b"), face("c")]),
        Complex.void(),
        Complex.empty(),
    ]
    seen = {agrees(c) for c in cases}
    assert seen - set(ManifoldVerdict) == {
        ("NotPure", "manifold check requires a pure nonempty complex"),
        ("NotPure", "manifold check requires dimension at least 0"),
    }
    assert set(ManifoldVerdict) <= seen


def test_recognition_builds_no_complex(monkeypatch):
    """Vertex links and their links stay facet lists."""
    c, _ = catalog.stacked_cross_sphere_colored(20, 3)
    built = []
    init, generated_by = Complex.__init__, Complex.generated_by.__func__

    def counting_init(self, facets=()):
        built.append("__init__")
        init(self, facets)

    def counting_generated_by(cls, faces):
        built.append("generated_by")
        return generated_by(cls, faces)

    monkeypatch.setattr(Complex, "__init__", counting_init)
    monkeypatch.setattr(Complex, "generated_by", classmethod(counting_generated_by))
    assert is_combinatorial_manifold(c) is ManifoldVerdict.CLOSED
    assert built == []
    assert former_is_combinatorial_manifold(c) is ManifoldVerdict.CLOSED
    assert len(built) > len(c.vertices)
