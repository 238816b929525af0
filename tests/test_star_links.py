"""Bistellar flips and stellar subdivision read links from the star index.

A flip of A for B applies when the facets containing A are the facets of
A * boundary(B) (`moves._join_boundary`), and a subdivision replaces the
star it reads; both build their result with `Complex._replaced`.  The former constructions stay here as oracles: the
`link(c, A) == boundary(B)` comparison, the whole-complex `Complex(...)`
and `Complex.generated_by` results and the former `list_bistellar`.  Every
result, error message and inherited slot must match them.
"""

import os
import random
import subprocess
import sys

import pytest

from crossflips import catalog, complexes
from crossflips.complexes import (
    Complex,
    FaceNotPresent,
    face,
    link,
    sorted_face,
    vertex_key,
)
from crossflips.diamond import cross_polytope
from crossflips.moves import (
    BistellarFlip,
    NotApplicable,
    NotApplicableOnBoundary,
    _join_boundary,
    apply_bistellar,
    boundary_bistellar_realization,
    fresh_vertices,
    list_bistellar,
    stellar_subdivide,
)

# ---------------------------------------------------------------------------
# the former constructions


def former_boundary_of_simplex(b):
    if len(b) == 1:
        return Complex.void()
    return Complex(b - {x} for x in b)


def former_link_is_boundary(c, a, b):
    return link(c, a) == former_boundary_of_simplex(b)


def former_apply_bistellar(c, flip):
    a, b = frozenset(flip.A), frozenset(flip.B)
    if not a or not b:
        raise NotApplicable("both faces of a flip must be nonempty")
    if a & b:
        raise NotApplicable("flip faces must be disjoint")
    if not c.has_face(a):
        raise NotApplicable("face %r is not in the complex" % (sorted_face(a),))
    if c.has_face(b):
        raise NotApplicable("face %r is already present" % (sorted_face(b),))
    if not former_link_is_boundary(c, a, b):
        raise NotApplicable("link of %r is not the boundary of %r"
                            % (sorted_face(a), sorted_face(b)))
    removed = {a | (b - {x}) for x in b} if len(b) > 1 else {a}
    added = {(a - {x}) | b for x in a}
    if not removed <= c.facets:
        raise NotApplicable("flip region is not a union of facets")
    return Complex((c.facets - removed) | added)


def former_stellar_subdivide(c, f, new_vertex=None):
    f = frozenset(f)
    if not f:
        raise FaceNotPresent("cannot subdivide the empty face")
    if not c.has_face(f):
        raise FaceNotPresent("face %r is not in the complex" % (sorted_face(f),))
    if new_vertex is None:
        new_vertex = fresh_vertices(c, 1)[0]
    if new_vertex in c.vertices:
        raise ValueError("replacement vertex %r already present" % (new_vertex,))
    out = []
    for h in c.facets:
        if f <= h:
            out.extend((h - {x}) | {new_vertex} for x in f)
        else:
            out.append(h)
    return Complex.generated_by(out)


def former_list_bistellar(c):
    d = c.dimension
    if d is None:
        return []
    fresh = fresh_vertices(c, 1)[0]
    out = []
    for a in sorted((f for f in c.all_faces() if f), key=lambda f: (len(f), sorted_face(f))):
        lk_a = link(c, a)
        if lk_a == Complex.void():
            out.append(BistellarFlip(A=a, B=frozenset([fresh])))
            continue
        bverts = frozenset(lk_a.vertices)
        if len(bverts) != d + 2 - len(a) or c.has_face(bverts):
            continue
        if lk_a == former_boundary_of_simplex(bverts):
            out.append(BistellarFlip(A=a, B=bverts))
    return out


def outcome(fn, *args):
    """The facets fn returns, or its error's type and message."""
    try:
        return fn(*args).facets
    except (NotApplicable, FaceNotPresent, ValueError) as exc:
        return type(exc).__name__, str(exc)


# ---------------------------------------------------------------------------
# the complexes

OCTAHEDRON = cross_polytope(2)
CASES = {
    "octahedron": OCTAHEDRON,
    "holed octahedron": Complex(sorted(OCTAHEDRON.facets, key=sorted_face)[1:]),
    "stacked 2-sphere": catalog.stacked_cross_sphere_colored(3, 2)[0],
    "stacked 3-sphere": catalog.stacked_cross_sphere_colored(2, 3)[0],
    "octahedron and an edge": Complex(list(OCTAHEDRON.facets) + [face("p", "q")]),
    "triangles, a path and a point": Complex([
        face("a", "b", "c"), face("b", "c", "d"), face("c", "e"), face("e", "f"), face("g")]),
}


def _candidates(c, a):
    """Faces B disjoint from A to try: the vertex set of the link of A, it
    less its least vertex or with a new vertex, each of its vertices, and
    a new vertex alone."""
    verts = sorted(frozenset().union(*c._facets_containing(a)) - a, key=vertex_key)
    out = [frozenset(verts), frozenset(verts[1:]), frozenset(verts) | {"z"}, face("z")]
    return [b for b in out if b] + [face(y) for y in verts]


@pytest.mark.parametrize("name", sorted(CASES))
def test_star_comparison_agrees_with_the_link_oracle(name):
    c = CASES[name]
    matches = 0
    for a in c.all_faces():
        if not a:
            continue
        star = frozenset(c._facets_containing(a))
        for b in _candidates(c, a):
            want = former_link_is_boundary(c, a, b)
            assert (star == _join_boundary(a, b)) == want, (sorted_face(a), sorted_face(b))
            matches += want
    assert matches > 0


@pytest.mark.parametrize("name", sorted(CASES))
def test_list_bistellar_matches_the_former_listing(name):
    c = CASES[name]
    got = list_bistellar(c)
    assert got == former_list_bistellar(c)
    assert any(len(fl.B) > 1 for fl in got) or name == "triangles, a path and a point"


# ---------------------------------------------------------------------------
# seeded chains


def _assert_slots_are_fresh(after, inherited):
    """Every slot `after` holds equals a fresh build; counts the common
    sizes and top labels it inherited."""
    fresh = Complex(after.facets)
    assert after._stars is not None and after._vertices is not None
    assert after._stars == fresh._star_index()
    assert after._vertices == fresh.vertices
    for slot, value in (("_size", after._size), ("_top_w", after._top_w)):
        if value is not None:
            inherited[slot] += 1
    assert after._size in (None, fresh._common_size())
    assert after._top_w in (None, fresh._top_w_label())
    assert after._common_size() == fresh._common_size()
    assert after._top_w_label() == fresh._top_w_label()


def _random_face(c, rng):
    h = sorted(c.facets, key=sorted_face)[rng.randrange(c.n_facets)]
    return frozenset(rng.sample(sorted_face(h), rng.randint(1, len(h))))


@pytest.mark.parametrize("start, seed", [
    ("octahedron", 0), ("octahedron", 1), ("stacked 3-sphere", 2),
    ("holed octahedron", 3), ("triangles, a path and a point", 4)])
def test_seeded_chains_match_the_former_moves(start, seed):
    """Subdivisions of random faces, with fresh, chosen and clashing new
    vertices, listed flips, and random faces A and B that mostly fail."""
    rng = random.Random(seed)
    c = CASES[start]
    inherited = {"_size": 0, "_top_w": 0}
    applied = 0
    for _ in range(40):
        kind = rng.randrange(3)
        if kind == 0:
            f = _random_face(c, rng)
            new = rng.choice([None, None, "w%d" % rng.randrange(12), sorted_face(f)[0]])
            fn, former, args = stellar_subdivide, former_stellar_subdivide, (c, f, new)
        elif kind == 1:
            flips = list_bistellar(c)
            fn, former, args = apply_bistellar, former_apply_bistellar, (c, rng.choice(flips))
        else:
            verts = sorted(c.vertices, key=vertex_key) + ["z"]
            a, b = _random_face(c, rng), frozenset(rng.sample(verts, rng.randint(0, 3)))
            fn, former, args = apply_bistellar, former_apply_bistellar, (c, BistellarFlip(a, b))
        want = outcome(former, *args)
        assert outcome(fn, *args) == want, args[1:]
        if isinstance(want, frozenset):
            c = fn(*args)
            _assert_slots_are_fresh(c, inherited)
            applied += 1
    assert applied >= 10
    assert inherited["_top_w"] > 0
    assert inherited["_size"] > 0 or not CASES[start].is_pure


def test_the_moves_build_no_link_and_no_whole_complex(monkeypatch):
    """No bistellar or subdivision path calls `link` or
    `Complex.generated_by`; a flip and a subdivision build no complex
    through `Complex.__init__` either."""
    built = []
    init, generated_by = Complex.__init__, Complex.generated_by.__func__

    def counting_init(self, facets=()):
        built.append("__init__")
        init(self, facets)

    def counting_generated_by(cls, faces):
        built.append("generated_by")
        return generated_by(cls, faces)

    def counting_link(c, f):
        built.append("link")
        return link(c, f)

    c, _ = catalog.stacked_cross_sphere_colored(20, 3)
    ball = Complex([face("a", "b", "c"), face("b", "c", "d")])
    monkeypatch.setattr(Complex, "__init__", counting_init)
    monkeypatch.setattr(Complex, "generated_by", classmethod(counting_generated_by))
    monkeypatch.setattr(complexes, "link", counting_link)
    facet, w = min(c.facets, key=sorted_face), fresh_vertices(c, 1)[0]
    out = stellar_subdivide(c, facet)
    assert apply_bistellar(out, BistellarFlip(A=face(w), B=facet)) == c
    assert built == []
    assert len(list_bistellar(out)) > out.n_facets
    realized = boundary_bistellar_realization(ball, face("a", "b"), face("x"))
    assert realized.n_facets == 3
    for a, b in ((face("b"), face("a", "x")), (face("a", "b"), face("a", "x"))):
        with pytest.raises(NotApplicableOnBoundary, match="boundary link does not match"):
            boundary_bistellar_realization(ball, a, b)
    assert "link" not in built and "generated_by" not in built


# ---------------------------------------------------------------------------
# key orders


_KEY_ORDERS = """
from crossflips import catalog, moves
for idx in ((0,), (1,), (0, 2), (1, 2)):
    amb, _, identity = catalog.ambient_with_induced_diamond_any(2, idx)
    print(list(identity))
    emb = {v: identity[v] for v in frozenset(identity)}
    print(list(moves.apply_cross_flip_detailed(amb, moves.CrossFlip(2, idx, emb)).vertex_map))
"""


def test_embedding_key_orders_do_not_depend_on_the_hash_seed():
    """The identity embedding of `ambient_with_induced_diamond_any` is in
    vertex order and a cross-flip's vertex map in the plan's walk order,
    however the embedding handed in orders its keys."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = [subprocess.run([sys.executable, "-c", _KEY_ORDERS],
                           env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
                           capture_output=True, text=True, check=True).stdout
            for seed in ("1", "2")]
    assert outs[0] == outs[1]
    assert outs[0].splitlines()[0] == "['v0', '1', 'v1', '2', 'v2']"
