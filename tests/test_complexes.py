"""Core complex operations against hand-checked and enumerated oracles."""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossflips.complexes import (
    Complex,
    FaceNotPresent,
    ManifoldVerdict,
    NotPure,
    NotSubcomplex,
    VertexCollision,
    _induced_in,
    are_isomorphic,
    boundary_complex,
    complex_from_doc,
    complex_to_doc,
    delete_face,
    delete_subcomplex,
    f_vector,
    face,
    find_balanced_coloring,
    h_vector,
    is_combinatorial_manifold,
    is_induced,
    is_proper_coloring,
    join,
    link,
    relabel,
    star,
    vertex_key,
)
from crossflips.diamond import (
    cross_polytope,
    diamond_closed_form,
    simplex_boundary,
    standard_coloring,
)

TRIANGLE_BOUNDARY = Complex([face("a", "b"), face("b", "c"), face("a", "c")])


def brute_force_f_vector(c):
    """Independent face count: enumerate subsets of every facet."""
    seen = set()
    for g in c.facets:
        vs = tuple(g)
        for r in range(1, len(vs) + 1):
            seen.update(frozenset(x) for x in itertools.combinations(vs, r))
    d = c.dimension
    counts = [1] + [0] * (d + 1)
    for f in seen:
        counts[len(f)] += 1
    return tuple(counts)


def test_faces_counts():
    assert TRIANGLE_BOUNDARY.faces(1) == {face("a", "b"), face("b", "c"), face("a", "c")}
    c2 = cross_polytope(2)
    assert len(c2.faces(2)) == 8
    assert len(c2.faces(0)) == 6


def test_empty_and_void_are_distinct():
    assert Complex.empty() != Complex.void()
    assert Complex.void().dimension == -1
    assert Complex.void().is_pure
    assert Complex.empty().dimension is None
    assert f_vector(Complex.void()) == (1,)


def test_antichain_rejected():
    with pytest.raises(ValueError):
        Complex([face("a", "b", "c"), face("a", "b")])


def test_antichain_check_of_a_large_mixed_list_reads_vertex_stars():
    """8000 facets of two sizes: nested facets are found through vertex
    stars, not by comparing every pair."""
    triangles = [face("t%d" % i, "u%d" % i, "w%d" % i) for i in range(4000)]
    edges = [face("t%d" % i, "x%d" % i) for i in range(4000)]
    assert len(Complex(triangles + edges).facets) == 8000
    with pytest.raises(ValueError, match=r"\('t3999', 'w3999'\) is contained in "
                                         r"\('t3999', 'u3999', 'w3999'\)"):
        Complex(triangles + edges + [face("t3999", "w3999")])


def test_link_of_cross_polytope_vertex():
    c2 = cross_polytope(2)
    lk = link(c2, face(0))
    want = Complex(
        [face(1, 2), face(1, "v2"), face("v1", 2), face("v1", "v2")]
    )
    assert lk == want


def test_star_spans_both_triangles():
    c = Complex([face("a", "b", "c"), face("b", "c", "d")])
    assert star(c, face("b", "c")) == c
    with pytest.raises(FaceNotPresent):
        star(c, face("a", "d"))


def test_link_star_duality():
    c2 = cross_polytope(2)
    for f in sorted(c2.all_faces(), key=len):
        if not f:
            continue
        assert star(c2, f) == join(Complex([f]), link(c2, f))


def test_delete_face():
    c = cross_polytope(2)
    e = face(0, 1)
    out = delete_face(c, e)
    assert not out.has_face(e)
    for g in c.all_faces():
        if not e <= g:
            assert out.has_face(g)
    with pytest.raises(FaceNotPresent):
        delete_face(c, face(0, "v0"))


def test_join_collision():
    with pytest.raises(VertexCollision):
        join(TRIANGLE_BOUNDARY, Complex([face("a")]))


def test_boundary_complex():
    tri = Complex([face("a", "b", "c")])
    assert boundary_complex(tri) == TRIANGLE_BOUNDARY.generated_by(
        [face("a", "b"), face("b", "c"), face("a", "c")]
    )
    assert boundary_complex(cross_polytope(2)) == Complex.empty()
    two = Complex([face("a", "b", "c"), face("b", "c", "d")])
    assert len(boundary_complex(two).facets) == 4


def test_f_and_h_vectors():
    assert h_vector(cross_polytope(2)) == (1, 3, 3, 1)
    assert h_vector(Complex([face(0, 1, 2)])) == (1, 0, 0, 0)
    # derived: f of the 0-index diamond complex is (1, 5, 8, 4)
    d0 = diamond_closed_form(2, [0])
    assert brute_force_f_vector(d0) == (1, 5, 8, 4)
    assert f_vector(d0) == (1, 5, 8, 4)
    assert h_vector(d0) == (1, 2, 1, 0)
    with pytest.raises(NotPure):
        f_vector(Complex([face("a", "b"), face("c")]))


def test_h_vector_binomials_for_cross_polytopes():
    import math

    for d in range(5):
        hv = h_vector(cross_polytope(d))
        assert hv == tuple(math.comb(d + 1, i) for i in range(d + 2))


def test_is_induced():
    c2 = cross_polytope(2)
    assert is_induced(c2, Complex([face(0, 1, 2)]))
    cyc = Complex([face("a", "b"), face("b", "c"), face("c", "d"), face("d", "a")])
    sub = Complex([face("a", "b"), face("c", "d")])
    assert not is_induced(cyc, sub)
    # derived: enumerate the faces of the cross-polytope boundary spanned by
    # the vertices of the 0-index diamond complex
    d0 = diamond_closed_form(2, [0])
    spanned = {f for f in c2.all_faces() if f <= d0.vertices}
    assert spanned == d0.all_faces()
    assert is_induced(c2, d0)
    with pytest.raises(NotSubcomplex):
        is_induced(TRIANGLE_BOUNDARY, Complex([face("x", "y")]))


def _induced_by_faces(c, subc):
    """Inducedness by its definition: every face of c spanned by V(subc)
    is a face of subc.  Enumerates all faces; a test-only oracle."""
    vs = subc.vertices
    sub_faces = subc.all_faces()
    return all(f in sub_faces for f in c.all_faces() if f <= vs)


def _random_complex(rng, pure):
    labels = "abcdefgh"[: rng.randrange(4, 9)]
    sizes = [rng.randrange(2, 5)] if pure else [1, 2, 3, 4]
    return Complex.generated_by(
        rng.sample(labels, rng.choice(sizes)) for _ in range(rng.randrange(1, 9))
    )


def test_is_induced_matches_face_enumeration():
    rng = random.Random(2024)
    verdicts = []
    for trial in range(300):
        c = _random_complex(rng, pure=trial % 2 == 0)
        facets = sorted(c.facets, key=sorted)
        for _ in range(4):
            part = Complex.generated_by(
                f for f in facets if rng.random() < 0.5
            )
            got = is_induced(c, part)
            assert got == _induced_by_faces(c, part), (c.facets, part.facets)
            verdicts.append(got)
        # a one-facet sub, a facet or any nonempty face, is always induced
        for g in c.all_faces() - {face()}:
            got = _induced_in(c, frozenset([g]), g)
            assert got is True and _induced_by_faces(c, Complex([g])), (c.facets, g)
    assert True in verdicts and False in verdicts
    # the 4-cycle misses the chords of its opposite edges
    square = Complex([face("a", "b"), face("b", "c"), face("c", "d"), face("d", "a")])
    opposite = Complex([face("a", "b"), face("c", "d")])
    assert not is_induced(square, opposite) and not _induced_by_faces(square, opposite)


def test_face_queries_match_facet_scans():
    """has_face, link and star read the star index; each must agree with a
    scan of every facet, also on the empty and void complexes, for the
    empty face and for vertices absent from the complex."""
    rng = random.Random(77)
    cases = [Complex.empty(), Complex.void(), TRIANGLE_BOUNDARY, cross_polytope(2)]
    cases += [_random_complex(rng, pure=trial % 2 == 0) for trial in range(60)]
    for c in cases:
        faces = set(c.all_faces()) if c.facets else set()
        for k in range(-2, 5):
            assert c.faces(k) == {f for f in faces if len(f) == k + 1}, (c, k)
        assert c.euler_characteristic() == sum((-1) ** (len(f) - 1) for f in faces if f)
        probes = faces | {face(), face("a", "z"), face("z"), face("b", "c", "d", "e", "f")}
        for f in probes:
            assert c.has_face(f) == any(f <= g for g in c.facets) == (f in faces), (c, f)
            if f not in faces:
                with pytest.raises(FaceNotPresent):
                    link(c, f)
                with pytest.raises(FaceNotPresent):
                    star(c, f)
                continue
            # link builds its facets g - f directly; generated_by would keep
            # the maximal ones, and drops none
            lk, want = link(c, f), Complex.generated_by(g - f for g in c.facets if f <= g)
            assert lk == want
            assert (lk.is_pure, lk.dimension) == (want.is_pure, want.dimension)
            assert star(c, f) == Complex(g for g in c.facets if f <= g)


def test_is_induced_on_empty_and_void():
    empty, void = Complex.empty(), Complex.void()
    for c in (empty, void, TRIANGLE_BOUNDARY, cross_polytope(1)):
        for part in (empty, void):
            if not part.is_subcomplex_of(c):
                with pytest.raises(NotSubcomplex):
                    is_induced(c, part)
                continue
            assert is_induced(c, part) == _induced_by_faces(c, part), (c, part)
    # the empty face of a nonempty complex is missing from the empty complex
    assert not is_induced(TRIANGLE_BOUNDARY, empty)
    assert not is_induced(void, empty)
    assert is_induced(empty, empty)
    assert is_induced(void, void)
    assert is_induced(TRIANGLE_BOUNDARY, void)


def test_proper_colorings():
    c2 = cross_polytope(2)
    assert is_proper_coloring(c2, standard_coloring(2), 3)
    bad = {v: 0 for v in TRIANGLE_BOUNDARY.vertices}
    assert not is_proper_coloring(TRIANGLE_BOUNDARY, bad, 3)


def edge_proper_coloring(c, coloring, m):
    """The former edge-based check, kept as the oracle of the facet-based
    one: every vertex colored in range(m), no monochromatic edge."""
    for v in c.vertices:
        col = coloring.get(v)
        if col is None or not (0 <= col < m):
            return False
    for e in c.faces(1):
        u, v = tuple(e)
        if coloring[u] == coloring[v]:
            return False
    return True


def test_proper_coloring_by_facets_matches_edges():
    rng = random.Random(21)
    pool = "abcdefg"
    cases = [(Complex.empty(), {}), (Complex.void(), {}), (Complex.void(), {"a": 5})]
    for _ in range(400):
        faces = [rng.sample(pool, rng.randint(1, 4)) for _ in range(rng.randint(1, 5))]
        c = Complex.generated_by(faces)  # pure or not
        coloring = {v: rng.randrange(-1, 5) for v in c.vertices if rng.random() < 0.95}
        cases.append((c, coloring))
    c3, col = cross_polytope(3), standard_coloring(3)
    cases += [(c3, col), (c3, dict(col, v0=1)), (c3, dict(col, extra=9))]
    verdicts = set()
    for c, coloring in cases:
        for m in (1, 2, 3, 4):
            want = edge_proper_coloring(c, coloring, m)
            assert is_proper_coloring(c, coloring, m) is want, (c.facets, coloring, m)
            verdicts.add(want)
    assert verdicts == {True, False}


def test_find_balanced_coloring():
    c2 = cross_polytope(2)
    col = find_balanced_coloring(c2)
    assert col is not None
    assert is_proper_coloring(c2, col, 3)
    # the 3-simplex boundary is a 2-sphere that needs four colors
    assert find_balanced_coloring(simplex_boundary(2)) is None


def _recursive_balanced_coloring(c):
    """The coloring search as it was, one recursive call per vertex."""
    d = c.dimension
    if d is None:
        return {}
    m = d + 1
    verts = sorted(c.vertices, key=vertex_key)
    adj = {v: set() for v in verts}
    for h in c.facets:
        for v in h:
            adj[v].update(h - {v})
    coloring = {}

    def attempt(i):
        if i == len(verts):
            return True
        v = verts[i]
        used = {coloring[w] for w in adj[v] if w in coloring}
        for col in range(m):
            if col not in used:
                coloring[v] = col
                if attempt(i + 1):
                    return True
                del coloring[v]
        return False

    return dict(coloring) if attempt(0) else None


def _polygon(n):
    return Complex(face(i, (i + 1) % n) for i in range(n))


def test_balanced_coloring_search_matches_the_recursive_search():
    cases = [_polygon(n) for n in range(3, 10)] + [
        cross_polytope(d) for d in (1, 2, 3)] + [
        simplex_boundary(d) for d in (1, 2, 3)] + [
        diamond_closed_form(d, idx) for d in (1, 2, 3)
        for r in range(1, d + 2) for idx in itertools.combinations(range(d + 2), r)]
    rng = random.Random(4)
    for _ in range(60):
        n = rng.randint(4, 8)
        cases.append(Complex.generated_by(
            frozenset(map(str, rng.sample(range(n), 3))) for _ in range(rng.randint(1, 8))))
    cases += [Complex.empty(), Complex.void(), Complex([face("a")])]
    found = []
    for c in cases:
        want = _recursive_balanced_coloring(c)
        assert find_balanced_coloring(c) == want, c.canonical_facets()
        found.append(want is not None)
    assert True in found and False in found


def test_balanced_coloring_search_is_not_bound_by_the_recursion_limit():
    col = find_balanced_coloring(_polygon(1200))
    assert col == {str(i): i % 2 for i in range(1200)}
    assert find_balanced_coloring(_polygon(1201)) is None


def test_are_isomorphic_examples():
    for d in range(1, 5):
        a = diamond_closed_form(d, [d])
        b = diamond_closed_form(d, [d + 1])
        assert are_isomorphic(a, b) is not None
    m = are_isomorphic(diamond_closed_form(2, [2, 3]), diamond_closed_form(2, [1]))
    assert m is not None
    assert m["1"] == "v1" and m["0"] == "0"
    path2 = Complex([face("a", "b"), face("b", "c")])
    path3 = Complex([face("a", "b"), face("b", "c"), face("c", "d")])
    assert are_isomorphic(path2, path3) is None


def test_are_isomorphic_is_equivalence():
    samples = [
        cross_polytope(2),
        diamond_closed_form(2, [0, 1]),
        TRIANGLE_BOUNDARY,
    ]
    for c in samples:
        ident = are_isomorphic(c, c)
        assert ident is not None
        mapping = {v: "z%d" % i for i, v in enumerate(sorted(c.vertices))}
        other = relabel(c, mapping)
        fwd = are_isomorphic(c, other)
        assert fwd is not None
        image = Complex(frozenset(fwd[v] for v in f) for f in c.facets)
        assert image == other
        back = are_isomorphic(other, c)
        assert back is not None


def test_are_isomorphic_respects_colors():
    c2 = cross_polytope(2)
    ka = standard_coloring(2)
    assert are_isomorphic(c2, c2, respect_colors=(ka, dict(ka))) is not None
    # rotating every pair color is realized by permuting the pairs
    rotated = {v: (c + 1) % 3 for v, c in ka.items()}
    assert are_isomorphic(c2, c2, respect_colors=(ka, rotated)) is not None
    # mismatched color multiplicities obstruct any color-preserving map
    cyc = Complex([face("a", "b"), face("b", "c"), face("c", "d"), face("d", "a")])
    two = {"a": 0, "b": 1, "c": 0, "d": 1}
    three = {"a": 0, "b": 1, "c": 2, "d": 1}
    assert are_isomorphic(cyc, cyc, respect_colors=(two, dict(two))) is not None
    assert are_isomorphic(cyc, cyc, respect_colors=(two, three)) is None


def test_manifold_recognition():
    assert is_combinatorial_manifold(cross_polytope(2)) is ManifoldVerdict.CLOSED
    pinch = Complex([face("a", "b", "c"), face("a", "d", "e")])
    assert is_combinatorial_manifold(pinch) is ManifoldVerdict.NO
    # derived: the {0,1} diamond complex is a disc
    d01 = diamond_closed_form(2, [0, 1])
    assert is_combinatorial_manifold(d01) is ManifoldVerdict.WITH_BOUNDARY
    assert is_combinatorial_manifold(cross_polytope(3)) is ManifoldVerdict.CLOSED
    assert is_combinatorial_manifold(cross_polytope(4)) is ManifoldVerdict.UNDECIDED
    with pytest.raises(NotPure):
        is_combinatorial_manifold(Complex([face("a", "b"), face("c")]))


def test_boundary_of_small_manifolds_is_closed():
    balls = [
        Complex([face("a", "b", "c"), face("b", "c", "d")]),
        diamond_closed_form(2, [0, 1]),
        diamond_closed_form(3, [0, 1]),
    ]
    for ball in balls:
        bd = boundary_complex(ball)
        d = ball.dimension
        count = {}
        for g in bd.facets:
            for x in g:
                r = g - {x}
                count[r] = count.get(r, 0) + 1
        assert all(n != 1 for n in count.values())


def test_json_round_trip():
    c2 = cross_polytope(2)
    doc = complex_to_doc(c2, standard_coloring(2))
    back, coloring = complex_from_doc(doc)
    assert back == c2
    assert coloring == standard_coloring(2)
    assert doc["facets"][0] == ["0", "1", "2"]
    with pytest.raises(ValueError):
        complex_from_doc({"facets": [["a", "b", "c"], ["a", "b"]]})


def test_repeated_vertices_after_coercion_are_refused():
    # the integer 1 is read as the token "1"
    for facet in ([1, "1", "a"], [2, 2, "a"], ["a", "a"]):
        with pytest.raises(ValueError, match="repeated vertices"):
            complex_from_doc({"facets": [facet]})
    c, _ = complex_from_doc({"facets": [[1, "v1", "a"]]})
    assert c.facets == {face("1", "v1", "a")}


# ---------------------------------------------------------------------------
# property tests


@st.composite
def small_pure_2_complexes(draw):
    pool = "abcdefg"
    n = draw(st.integers(min_value=1, max_value=6))
    facets = draw(
        st.sets(
            st.frozensets(st.sampled_from(pool), min_size=3, max_size=3),
            min_size=1,
            max_size=n,
        )
    )
    return Complex(facets)


@given(small_pure_2_complexes())
@settings(max_examples=60, deadline=None)
def test_h_sums_to_facet_count(c):
    hv = h_vector(c)
    assert hv[0] == 1
    assert sum(hv) == len(c.facets)


@given(small_pure_2_complexes())
@settings(max_examples=60, deadline=None)
def test_f_matches_brute_force(c):
    assert f_vector(c) == brute_force_f_vector(c)


# pure complexes of one facet size 0..4, and mixed ones (the empty and
# void complexes among them) closed under faces by ``generated_by``
_POOL = st.sampled_from(["0", "v0", "1", "v1", "a", "b", "w3", "x"])
ANY_COMPLEXES = st.one_of(
    st.integers(0, 4).flatmap(lambda k: st.lists(
        st.frozensets(_POOL, min_size=k, max_size=k), max_size=8)).map(Complex),
    st.lists(st.frozensets(_POOL, max_size=5), max_size=8).map(Complex.generated_by),
)


@given(ANY_COMPLEXES)
@example(Complex.empty())
@example(Complex.void())
@settings(max_examples=150, deadline=None)
def test_face_counts_match_the_all_faces_oracle(c):
    counts = Counter(map(len, c.all_faces()))
    assert c.euler_characteristic() == sum(
        (-1) ** (size - 1) * n for size, n in counts.items() if size)
    if not c.facets or not c.is_pure:
        with pytest.raises(NotPure):
            f_vector(c)
    else:
        assert f_vector(c) == tuple(counts[size] for size in range(c.dimension + 2))


@given(small_pure_2_complexes())
@settings(max_examples=40, deadline=None)
def test_delete_subcomplex_leaves_other_facets(c):
    facets = sorted(c.facets, key=sorted)
    sub = Complex(facets[: len(facets) // 2 + 1])
    out = delete_subcomplex(c, sub)
    assert out.facets == c.facets - sub.facets
