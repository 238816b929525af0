"""`are_isomorphic` against networkx, and against its former vertex invariant.

Two complexes are isomorphic exactly when their vertex-facet incidence
graphs are isomorphic by a map that sends vertices to vertices and facets
to facets; networkx decides the latter independently of the library.

`former_vertex_invariant` is an earlier `_vertex_invariant`: the counts of
the faces containing the vertex, by size, next to the face counts of a link
rebuilt from every facet.  The current one, the vertex degree and number of
neighbours, is coarser on arbitrary complexes.  Both are isomorphism
invariants and the search tries candidates in one fixed order, so pruning
by either cannot change the first map it finds: the maps must be identical.
On manifolds of dimension at most 3 both split the vertices alike.
"""

import itertools
import random

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
