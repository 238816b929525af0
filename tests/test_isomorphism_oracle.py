"""`are_isomorphic` against networkx, and against its former vertex invariant.

Two complexes are isomorphic exactly when their vertex-facet incidence
graphs are isomorphic by a map that sends vertices to vertices and facets
to facets; networkx decides the latter independently of the library.
Colours and pins (``fixed``) become node attributes that the map must keep.

`former_vertex_invariant` is an earlier `_vertex_invariant`: the counts of
the faces containing the vertex, by size, next to the face counts of a link
rebuilt from every facet.  The current one, the vertex degree and number of
neighbours, is coarser on arbitrary complexes.  Both are isomorphism
invariants, and the search places facets in one fixed order and uses the
invariant only to reject images of new vertices that no isomorphism could
give, so filtering by either cannot change the first map it finds: the maps
must be identical.  Both also fix how many facets contain a vertex (the
former through its face counts), which lets the search keep a placed
component for good.  On manifolds of dimension at most 3 both split the
vertices alike.
"""

import itertools
import random
import time

import networkx as nx

from crossflips import complexes
from crossflips.cli import WalkConfig, run_walk
from crossflips.complexes import Complex, are_isomorphic, f_vector, relabel, vertex_key
from crossflips.diamond import diamond_closed_form


def former_vertex_invariant(c, v):
    counts = [0] * ((c.dimension or 0) + 1)
    for f in c.all_faces():
        if v in f:
            counts[len(f) - 1] += 1
    lk = Complex.generated_by(g - {v} for g in c.facets if v in g)
    lk_counts = tuple(
        sum(1 for f in lk.all_faces() if len(f) == k + 1)
        for k in range((lk.dimension if lk.dimension is not None else -1) + 1)
    )
    return (tuple(counts), lk_counts)


def incidence_graph(c):
    g = nx.Graph()
    g.add_nodes_from((("v", v) for v in c.vertices), kind="vertex")
    for h in c.facets:
        g.add_node(("f", h), kind="facet")
        g.add_edges_from((("f", h), ("v", v)) for v in h)
    return g


def oracle(a, b) -> bool:
    return nx.is_isomorphic(incidence_graph(a), incidence_graph(b),
                            node_match=lambda x, y: x["kind"] == y["kind"])


def random_complex(rng, n_vertices, n_facets, sizes):
    verts = ["x%d" % i for i in range(n_vertices)]
    return Complex.generated_by(
        rng.sample(verts, rng.choice(sizes)) for _ in range(n_facets))


def shuffled(rng, c):
    """c relabelled by a random bijection onto fresh tokens."""
    verts = sorted(c.vertices, key=vertex_key)
    images = ["y%d" % i for i in range(len(verts))]
    rng.shuffle(images)
    return relabel(c, dict(zip(verts, images)))


def both_invariants(monkeypatch, a, b, **kw):
    """are_isomorphic with the current invariant, then with the former."""
    got = are_isomorphic(a, b, **kw)
    with monkeypatch.context() as m:
        m.setattr(complexes, "_vertex_invariant", former_vertex_invariant)
        former = are_isomorphic(a, b, **kw)
    return got, former


def is_isomorphism(a, b, mapping) -> bool:
    return (sorted(mapping) == sorted(a.vertices)
            and frozenset(frozenset(mapping[v] for v in h) for h in a.facets) == b.facets)


def samples():
    rng = random.Random(7)
    out = [random_complex(rng, rng.randint(4, 7), rng.randint(2, 7), sizes)
           for sizes in ((3,), (2, 3), (3, 4)) for _ in range(40)]
    out += [run_walk(WalkConfig(steps=s, seed=s, dimension=2))[0] for s in (3, 6, 9)]
    out += [diamond_closed_form(3, idx) for idx in ((0,), (1, 2), (0, 1, 3))]
    return out


def test_relabelled_complexes_are_isomorphic(monkeypatch):
    rng = random.Random(11)
    for c in samples():
        other = shuffled(rng, c)
        assert oracle(c, other)
        got, former = both_invariants(monkeypatch, c, other)
        assert got == former
        assert got is not None and is_isomorphism(c, other, got)
        # pinning one vertex to its image under a found map keeps a map
        v = min(c.vertices, key=vertex_key)
        got, former = both_invariants(monkeypatch, c, other, fixed={v: got[v]})
        assert got == former and got is not None and is_isomorphism(c, other, got)


def test_pairs_with_equal_f_vectors_agree_with_the_oracle(monkeypatch):
    groups = {}
    for c in samples():
        if c.is_pure:
            groups.setdefault(f_vector(c), []).append(c)
    verdicts = set()
    for group in groups.values():
        for a, b in itertools.combinations(group[:6], 2):
            got, former = both_invariants(monkeypatch, a, b)
            assert got == former
            assert (got is not None) == oracle(a, b)
            assert got is None or is_isomorphism(a, b, got)
            verdicts.add(got is not None)
    # the sample holds both isomorphic and non-isomorphic pairs
    assert verdicts == {True, False}


def test_degree_and_neighbours_split_manifold_vertices_like_link_counts():
    balls = [diamond_closed_form(d, idx) for d in (2, 3)
             for idx in ((0,), (1,), (0, 2), (1, 2), (0, 1, 2))]
    # a disc where the interior vertex x and the boundary vertex a both have
    # degree 3: their links have 3 and 4 vertices
    balls.append(Complex([("x", "a", "b"), ("x", "b", "c"), ("x", "c", "a"),
                          ("a", "b", "d")]))
    spheres = [run_walk(WalkConfig(steps=s, seed=s, dimension=d))[0]
               for d, s in ((2, 12), (2, 25), (3, 4), (3, 9))]
    for c in balls + spheres:
        assert len(c.facets) > 1
        old = {v: former_vertex_invariant(c, v) for v in c.vertices}
        new = {v: complexes._vertex_invariant(c, v) for v in c.vertices}
        pairs = {(old[v], new[v]) for v in c.vertices}
        assert len(pairs) == len(set(old.values())) == len(set(new.values()))


def stacked_sphere(seed, d, stacks):
    """A seeded stacked cross-polytopal d-sphere and its proper colouring:
    the boundary of the (d+1)-cross-polytope, then `stacks` times a random
    facet replaced by the other facets of a cross-polytope boundary on it,
    whose new vertices take their partners' colours."""
    rng = random.Random(seed)
    facets = [frozenset(str(i) if m >> i & 1 else "v%d" % i for i in range(d + 1))
              for m in range(2 ** (d + 1))]
    coloring = {v: int(v.lstrip("v")) for h in facets for v in h}
    for k in range(stacks):
        t = sorted(facets.pop(rng.randrange(len(facets))))
        coloring.update(("s%d_%s" % (k, v), coloring[v]) for v in t)
        facets += [frozenset("s%d_%s" % (k, v) if m >> i & 1 else v for i, v in enumerate(t))
                   for m in range(1, 2 ** (d + 1))]
    return Complex(facets), coloring


def test_relabelled_stacked_spheres_are_matched_in_few_placements(monkeypatch):
    """Every vertex of a stacked sphere shares its invariant with many
    others, so the invariant alone cannot guide the search.  Each placement
    reads b's facets through the images of its mapped vertices once, so the
    reads count the placements: about one per vertex."""
    reads = []
    facets_containing = Complex._facets_containing
    monkeypatch.setattr(Complex, "_facets_containing",
                        lambda c, f: reads.append(f) or facets_containing(c, f))
    for d, stacks, n_facets in ((3, 39, 562), (2, 159, 962)):
        c, _ = stacked_sphere(d, d, stacks)
        assert len(c.facets) == n_facets
        other = shuffled(random.Random(d), c)
        reads.clear()
        start = time.perf_counter()
        got = are_isomorphic(c, other)
        assert time.perf_counter() - start < 30
        assert got is not None and is_isomorphism(c, other, got)
        assert 0 < len(reads) <= 2 * len(c.vertices)


def test_stackings_with_equal_f_vectors_agree_with_the_oracle(monkeypatch):
    verdicts, hard = set(), 0
    for d, stacks in ((2, 3), (2, 5), (3, 3)):
        spheres = [stacked_sphere(seed, d, stacks)[0] for seed in range(6)]
        for a, b in itertools.combinations(spheres, 2):
            assert f_vector(a) == f_vector(b)
            got, former = both_invariants(monkeypatch, a, b)
            assert got == former
            assert (got is not None) == oracle(a, b)
            assert got is None or is_isomorphism(a, b, got)
            verdicts.add(got is not None)
            same = [sorted(complexes._vertex_invariant(c, v) for v in c.vertices)
                    for c in (a, b)]
            hard += got is None and same[0] == same[1]
    assert verdicts == {True, False}
    # some non-isomorphic pairs pass the vertex-invariant test: the search decides
    assert hard > 0


def attributed_graph(c, colors, pins):
    g = incidence_graph(c)
    for v in c.vertices:
        g.nodes["v", v].update(color=colors.get(v), pin=pins.get(v))
    return g


def attributed_oracle(a, b, ka, kb, fixed) -> bool:
    """networkx with the colours and the pins as vertex attributes: pin i
    sits on the i-th key of ``fixed`` in a and on its value in b."""
    pins_a = {u: i for i, u in enumerate(fixed)}
    pins_b = {w: i for i, w in enumerate(fixed.values())}
    return nx.is_isomorphic(attributed_graph(a, ka, pins_a), attributed_graph(b, kb, pins_b),
                            node_match=lambda x, y: x == y)


def test_colors_and_pins_agree_with_the_oracle():
    rng = random.Random(3)
    verdicts = set()
    for seed in range(4):
        c, ka = stacked_sphere(seed, 2, 4)
        other = shuffled(rng, c)
        m = are_isomorphic(c, other)
        kb = {m[v]: col for v, col in ka.items()}
        rotated = {w: (col + 1) % 3 for w, col in kb.items()}
        verts = sorted(c.vertices, key=vertex_key)
        # a pin must keep its colour too
        recolored = dict(kb)
        recolored[m[verts[0]]] = (kb[m[verts[0]]] + 1) % 3
        for colors in (kb, rotated, recolored):
            for fixed in ({}, {verts[0]: m[verts[0]]}, {verts[0]: m[verts[1]]},
                          {u: m[u] for u in verts[:3]}, {verts[1]: m[verts[0]]}):
                got = are_isomorphic(c, other, respect_colors=(ka, colors), fixed=fixed)
                assert (got is not None) == attributed_oracle(c, other, ka, colors, fixed)
                if got is not None:
                    assert is_isomorphism(c, other, got)
                    assert all(got[u] == w for u, w in fixed.items())
                    assert all(colors[got[v]] == col for v, col in ka.items())
                verdicts.add(got is not None)
    assert verdicts == {True, False}


def test_empty_void_one_facet_disconnected_and_mixed_complexes():
    empty, void = Complex.empty(), Complex.void()
    assert are_isomorphic(empty, empty) == {} and are_isomorphic(void, void) == {}
    assert are_isomorphic(empty, void) is None and are_isomorphic(void, empty) is None
    assert are_isomorphic(void, void, fixed={"a": "a"}) is None
    tri, other = Complex([("a", "b", "c")]), Complex([("x", "y", "z")])
    assert are_isomorphic(tri, other) == {"a": "x", "b": "y", "c": "z"}
    assert are_isomorphic(tri, other, fixed={"b": "x"}) == {"a": "y", "b": "x", "c": "z"}
    assert are_isomorphic(tri, Complex([("x", "y")])) is None
    cases = [
        Complex([("a", "b", "c"), ("d", "e", "f")]),  # two triangles apart
        Complex([("a", "b", "c"), ("c", "d", "e")]),  # two triangles at a vertex
        Complex([("a", "b", "c"), ("d", "e")]),  # a triangle and an edge apart
        Complex([("a", "b", "c"), ("c", "d")]),  # a triangle with a pendant edge
        Complex([("a", "b", "c"), ("b", "d")]),
        Complex([("a", "b", "c"), ("d",)]),  # a triangle and a point
        Complex([("a", "b"), ("c", "d"), ("e",)]),
        Complex([("a", "b"), ("b", "c"), ("d",)]),
        Complex([("a", "b", "c", "d"), ("a", "e"), ("e", "f", "g")]),
        Complex([("a", "b", "c", "d"), ("e", "f"), ("a", "e", "g")]),
    ]
    rng = random.Random(5)
    verdicts = set()
    for a, b in itertools.product(cases, repeat=2):
        b = shuffled(rng, b)
        got = are_isomorphic(a, b)
        assert (got is not None) == oracle(a, b)
        assert got is None or is_isomorphism(a, b, got)
        verdicts.add(got is not None)
    assert verdicts == {True, False}


def cycles(tag, lengths):
    """Disjoint cycles of the given lengths, as a 1-dimensional complex."""
    return Complex([("%s%d_%d" % (tag, k, i), "%s%d_%d" % (tag, k, (i + 1) % n))
                    for k, n in enumerate(lengths) for i in range(n)])


def test_components_are_matched_once_each(monkeypatch):
    """Four-cycles next to two hexagons, against four-cycles next to one
    dodecagon: equal facet sizes and vertex invariants, not isomorphic, as
    their components differ in size (networkx's isomorphism test is itself
    slow on so many alike components).  Once a component is placed it is
    never placed again, so the failing hexagon does not make the search
    retry every placement of the four-cycles before it."""
    reads = []
    facets_containing = Complex._facets_containing
    monkeypatch.setattr(Complex, "_facets_containing",
                        lambda c, f: reads.append(f) or facets_containing(c, f))
    for m in (2, 8):
        a = cycles("a", [4] * m + [6, 6])
        b = shuffled(random.Random(m), cycles("b", [4] * m + [12]))
        same = shuffled(random.Random(m), a)
        sizes = [sorted(map(len, nx.connected_components(incidence_graph(c)))) for c in (a, b)]
        assert sizes[0] != sizes[1]
        reads.clear()
        start = time.perf_counter()
        assert are_isomorphic(a, b) is None
        assert time.perf_counter() - start < 30
        assert len(reads) <= len(a.facets) * len(b.facets)
        got = are_isomorphic(a, same)
        assert got is not None and is_isomorphism(a, same, got)


def test_pins_on_disconnected_complexes_agree_with_the_oracle():
    """Two copies of one stacked sphere and a third sphere: a pin may send
    the first copy onto the image of the second, which the search must then
    find for the unpinned copy."""
    rng = random.Random(13)
    s, t = stacked_sphere(1, 2, 3)[0], stacked_sphere(2, 2, 4)[0]
    parts = [relabel(c, {v: "%s_%s" % (tag, v) for v in c.vertices})
             for tag, c in (("p", s), ("q", s), ("r", t))]
    a = Complex([h for c in parts for h in c.facets])
    other = shuffled(rng, a)
    m = are_isomorphic(a, other)
    assert m is not None and is_isomorphism(a, other, m)
    swap = {u: m["q" + u[1:]] if u[0] == "p" else m["p" + u[1:]] if u[0] == "q" else m[u]
            for u in a.vertices}
    assert is_isomorphism(a, other, swap)
    verts = sorted(a.vertices, key=vertex_key)
    p0, q0, r0 = (next(v for v in verts if v.startswith(tag)) for tag in "pqr")
    verdicts = set()
    for fixed in ({p0: swap[p0]}, {q0: swap[q0]}, {p0: m[p0], q0: swap[q0]},
                  {p0: swap[p0], r0: m[r0]}, {r0: m[p0]}, {p0: m[r0]}):
        got = are_isomorphic(a, other, fixed=fixed)
        assert (got is not None) == attributed_oracle(a, other, {}, {}, fixed)
        if got is not None:
            assert is_isomorphism(a, other, got)
            assert all(got[u] == w for u, w in fixed.items())
        verdicts.add(got is not None)
    assert verdicts == {True, False}
