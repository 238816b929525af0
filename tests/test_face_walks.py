"""Manifold recognition by face walks: negative controls at walk scale.

`is_combinatorial_manifold` walks the facets containing a face across the
ridges containing it (`complexes._joined`): the empty face at every d >= 1,
each vertex at d = 2 and d >= 3, each face of up to d - 1 vertices at
d >= 4, plus the Euler characteristic of each vertex link at d = 3.  The
controls below are spheres glued, pinched, suspended or coned so as to
fail as few of those tests as possible, some failing just one; at d <= 3
each is compared with the former recognizer of
`tests/test_manifold_oracle.py`.  Above dimension 3 a failed walk is an
exact NO; every other input stays UNDECIDED.
"""

import pytest

from crossflips import catalog, complexes, moves
from crossflips.cli import WalkConfig, run_walk
from crossflips.complexes import (
    Complex,
    ManifoldVerdict,
    face,
    is_combinatorial_manifold,
    relabel,
    sorted_face,
)
from crossflips.diamond import cross_polytope
from test_manifold_oracle import PROJECTIVE_PLANE, TORUS, former_is_combinatorial_manifold

NO, UNDECIDED = ManifoldVerdict.NO, ManifoldVerdict.UNDECIDED


def _copy(c, tag):
    return relabel(c, {v: "%s%s" % (tag, v) for v in c.vertices})


def _stacked3(copies=20):
    return catalog.stacked_cross_sphere_colored(copies, 3)[0]


def _identified(c, keep, drop):
    """c with the vertex *drop* renamed *keep*."""
    return Complex(frozenset(keep if v == drop else v for v in h) for h in c.facets)


def _necklace(d, n):
    """n cross-polytopal d-spheres in a row, each glued to the next along a
    removed facet (its all-"v" facet to the next one's all-plain facet): a
    d-sphere in which the first and last beads share no vertex and no
    neighbour of a vertex."""
    facets = []
    for k in range(n):
        name = {str(i): "c%d_%d" % (k, i) for i in range(d + 1)}
        name.update({"v%d" % i: "c%d_%d" % (k + 1, i) for i in range(d + 1)})
        for h in cross_polytope(d).facets:
            g = frozenset(map(name.__getitem__, h))
            plain, subs = all(v.isdigit() for v in h), all(v[0] == "v" for v in h)
            if not (plain and k > 0 or subs and k < n - 1):
                facets.append(g)
    return Complex(facets)


def _prism(triangles, layers):
    """The surface with the given triangles times a path of *layers* edges,
    each triangle (a < b < c) times an edge cut into three tetrahedra by
    the staircase rule, which agrees on shared edges; vertex (i, L) is
    named "t<i>_<L>"."""
    name = "t%d_%d".__mod__
    out = []
    for t in triangles:
        a, b, c = sorted(int(v) for v in t)
        for low in range(layers):
            up = low + 1
            out += [face(name((a, low)), name((b, low)), name((c, low)), name((c, up))),
                    face(name((a, low)), name((b, low)), name((b, up)), name((c, up))),
                    face(name((a, low)), name((a, up)), name((b, up)), name((c, up)))]
    return out


def _torus_pinch():
    """The torus times [0, 2], coned off at the torus times 0 by "w", with
    "w" identified with the far vertex "t0_2": the link of that vertex is
    a torus and a disc, strongly connected apart and with V - E + F = 0 + 1
    = 1 on a boundary vertex, so only its walk fails."""
    cone = [face("w", *("t%s_0" % v for v in t)) for t in TORUS]
    return _identified(Complex(_prism(TORUS, 2) + cone), "t0_2", "w")


def _edge_pinch():
    """A 3-complex whose edge (u, v) has for link two disjoint triangles
    while every vertex link is strongly connected: u is coned over a tube
    2-sphere with its two poles identified to v, and v over the tube's two
    end cycles joined by an annulus through fresh vertices m0..m2."""
    rings = [["r%d_%d" % (j, i) for i in range(3)] for j in range(4)]
    tube = [face("v", rings[0][i], rings[0][(i + 1) % 3]) for i in range(3)]
    tube += [face("v", rings[3][i], rings[3][(i + 1) % 3]) for i in range(3)]

    def band(lo, hi):
        return [f for i in range(3) for f in (face(lo[i], lo[(i + 1) % 3], hi[i]),
                                              face(lo[(i + 1) % 3], hi[i], hi[(i + 1) % 3]))]

    for j in range(3):
        tube += band(rings[j], rings[j + 1])
    middle = ["m%d" % i for i in range(3)]
    annulus = band(rings[0], middle) + band(middle, rings[3])
    return Complex([h | {"u"} for h in tube] + [h | {"v"} for h in annulus])


def _cone(c, apex="z"):
    return Complex(h | {apex} for h in c.facets)


def _suspension(c):
    return Complex([h | {"n"} for h in c.facets] + [h | {"s"} for h in c.facets])


def _sharing(c, k):
    """Two copies of c sharing the first k vertices of their least facet."""
    shared = sorted_face(min(c.facets, key=sorted_face))[:k]
    other = _copy(c, "b.")
    return Complex(list(_copy(c, "a.").facets) + list(relabel(other, {
        "b." + v: "a." + v for v in shared}).facets))


def _fin(c):
    ridge = sorted(min(c.facets, key=sorted_face), key=str)[1:]
    return Complex(list(c.facets) + [face("fin", *ridge)])


def _octahedron_and_torus_cone():
    octahedron = _copy(cross_polytope(2), "o")
    return Complex([h | {"x"} for h in octahedron.facets] + [h | {"x"} for h in TORUS])


def agrees_with_the_former(c, want):
    assert is_combinatorial_manifold(c) is want
    if c.dimension <= 3:
        assert former_is_combinatorial_manifold(c) is want


@pytest.mark.parametrize("build", [
    _octahedron_and_torus_cone,
    lambda: _suspension(Complex(TORUS)),
    lambda: _suspension(Complex(PROJECTIVE_PLANE)),
    lambda: _fin(_stacked3()),
    lambda: _sharing(_stacked3(), 1),
    lambda: _sharing(_stacked3(), 2),
    lambda: Complex(list(_copy(_stacked3(), "a").facets) + list(_copy(_stacked3(), "b").facets)),
    _torus_pinch,
    _edge_pinch,
    lambda: _identified(_necklace(2, 3), "c0_0", "c3_0"),
    lambda: _identified(_necklace(3, 3), "c0_0", "c3_0"),
], ids=["cone on octahedron and torus", "suspended torus", "suspended projective plane",
        "stacked 3-sphere with a fin", "stacked 3-spheres on a vertex",
        "stacked 3-spheres on an edge", "two stacked 3-spheres", "torus pinch", "edge pinch",
        "pinched 2-sphere", "pinched 3-sphere"])
def test_negative_controls_agree_with_the_former_recognizer(build):
    agrees_with_the_former(build(), NO)


def _failing(c):
    """The faces of at most d - 1 vertices, as sorted tuples, whose walk
    fails."""
    table = complexes._neighbour_table(c.facets)[0]
    return sorted(f for k in range(c.dimension) for f, star in
                  complexes._face_stars(c.facets, k).items()
                  if complexes._joined(star, table, f) < 0)


def _wrong_euler(c):
    """The vertices whose link has V - E + F other than 2, or 1 when the
    link has boundary, read from link complexes."""
    out = []
    for v in c.vertices:
        lk = complexes.link(c, {v})
        rim = complexes.boundary_complex(lk).facets
        if lk.euler_characteristic() != (1 if rim else 2):
            out.append(v)
    return sorted(out)


def test_each_d3_control_fails_the_test_it_is_built_for():
    """At d = 3: two spheres fail only the whole walk, the torus pinch
    only its vertex walk (its link's V - E + F is right), the suspended
    torus only V - E + F at its poles, and the edge pinch only V - E + F at
    the ends of its pinched edge, whose walk the recognizer does not run."""
    two = Complex(list(_copy(_stacked3(), "a").facets) + list(_copy(_stacked3(), "b").facets))
    assert (_failing(two), _wrong_euler(two)) == ([()], [])
    pinch = _torus_pinch()
    assert (_failing(pinch), _wrong_euler(pinch)) == ([("t0_2",)], [])
    suspended = _suspension(Complex(TORUS))
    assert (_failing(suspended), _wrong_euler(suspended)) == ([], ["n", "s"])
    edge = _edge_pinch()
    assert (_failing(edge), _wrong_euler(edge)) == ([("u", "v")], ["u", "v"])


def test_a_chain_of_spheres_is_a_sphere_until_pinched():
    for d in (1, 2, 3):
        agrees_with_the_former(_necklace(d, 3), ManifoldVerdict.CLOSED)
    agrees_with_the_former(_necklace(4, 3), UNDECIDED)
    assert _failing(_identified(_necklace(2, 3), "c0_0", "c3_0")) == [("c0_0",)]
    assert _failing(_identified(_necklace(4, 3), "c0_0", "c3_0")) == [("c0_0",)]


def _triangle_pinch():
    """The cone from "z" on the edge pinch, with the link of its edge
    (u, v), a cone on two triangles, closed up by an annulus through fresh
    vertices n0..n2 joined to u and v: only the triangle (u, v, z), whose
    link is two triangles, fails its walk."""
    rings = [["r%d_%d" % (j, i) for i in range(3)] for j in (0, 3)]
    middle = ["n%d" % i for i in range(3)]
    annulus = [f for lo, hi in ((rings[0], middle), (middle, rings[1])) for i in range(3)
               for f in (face(lo[i], lo[(i + 1) % 3], hi[i]),
                         face(lo[(i + 1) % 3], hi[i], hi[(i + 1) % 3]))]
    return Complex(list(_cone(_edge_pinch()).facets) + [h | {"u", "v"} for h in annulus])


@pytest.mark.parametrize("build", [
    lambda: _fin(cross_polytope(4)),
    lambda: _sharing(cross_polytope(4), 1),
    lambda: Complex(list(_copy(cross_polytope(4), "a").facets)
                    + list(_copy(cross_polytope(4), "b").facets)),
    lambda: _identified(_necklace(4, 3), "c0_0", "c3_0"),
    lambda: _cone(_edge_pinch()),
    _triangle_pinch,
    lambda: _cone(_triangle_pinch(), "y"),
    lambda: _suspension(_torus_pinch()),
], ids=["fin", "two 4-spheres on a vertex", "two 4-spheres", "pinched 4-sphere",
        "cone on the edge pinch", "triangle pinch", "cone on the triangle pinch",
        "suspended torus pinch"])
def test_failed_walks_above_dimension_3_are_no(build):
    assert is_combinatorial_manifold(build()) is NO


def test_the_d4_pinches_fail_only_at_their_pinched_faces():
    assert _failing(_cone(_edge_pinch())) == [("u", "v"), ("u", "v", "z")]
    assert _failing(_triangle_pinch()) == [("u", "v", "z")]


def test_passing_walks_above_dimension_3_stay_undecided():
    walked = run_walk(WalkConfig(steps=6, seed=1, dimension=4))[0]
    for c in (cross_polytope(4), cross_polytope(5), walked,
              catalog.stacked_cross_sphere_colored(3, 4)[0],
              Complex(sorted(cross_polytope(4).facets, key=sorted_face)[1:])):
        assert is_combinatorial_manifold(c) is UNDECIDED


def test_recognition_builds_one_table_and_walks_each_star_once(monkeypatch):
    """At d = 3: one neighbour table, one walk of the whole complex and
    one per vertex; the site view reads the same builder."""
    c = _stacked3()
    tables, walked = [], []
    table, joined = complexes._neighbour_table, complexes._joined

    def counting_table(facets):
        tables.append(len(facets))
        return table(facets)

    def counting_joined(star, tbl, f):
        walked.append(tuple(f))
        return joined(star, tbl, f)

    monkeypatch.setattr(complexes, "_neighbour_table", counting_table)
    monkeypatch.setattr(complexes, "_joined", counting_joined)
    monkeypatch.setattr(moves, "_neighbour_table", counting_table)
    assert is_combinatorial_manifold(c) is ManifoldVerdict.CLOSED
    assert tables == [c.n_facets]
    assert sorted(walked) == sorted([()] + [(v,) for v in c.vertices])
    moves._site_view(c)
    assert tables == [c.n_facets] * 2
