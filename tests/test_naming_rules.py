"""Each naming rule has one home: the index sets that name a flip class
(``diamond._check_index_set``), the fresh "w<k>" labels
(``complexes.fresh_vertices``) and the canonical face order
(``complexes._face_key``); and a walk's start colouring is searched, not
assumed."""

import functools
import itertools
import random

import pytest

from crossflips import complexes, diamond, moves
from crossflips.cli import StepFailed, WalkConfig, run_walk
from crossflips.complexes import (
    Complex,
    _face_key,
    face,
    find_balanced_coloring,
    sorted_face,
    vertex_key,
)
from crossflips.diamond import cross_polytope, diamond_closed_form, simplex_boundary, standard_coloring
from crossflips.moves import CrossFlip, apply_cross_flip_detailed, find_cross_flip_sites


@pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
def test_a_non_integer_entry_is_refused_whether_or_not_its_class_is_cached(monkeypatch, cached):
    """An index set with the entry 2.0 names no class: applying a flip,
    reading its image and building its diamond complex raise the same
    ``TypeError``, and the site search finds nothing, whether or not the
    (2,) plan and closed form were built before.  Fresh caches keep the
    check from seeing, or leaving, plans of other tests.  A bool entry is
    refused too: (True, 3) would label a non-face "True" for "1"."""
    monkeypatch.setattr(moves, "_flip_plan",
                        functools.lru_cache(maxsize=None)(moves._flip_plan.__wrapped__))
    monkeypatch.setattr(diamond, "_closed_form",
                        functools.lru_cache(maxsize=None)(diamond._closed_form.__wrapped__))
    c, coloring = cross_polytope(2), standard_coloring(2)
    if cached:
        moves._flip_plan(2, (2,))
        diamond_closed_form(2, (2,))
    assert moves._flip_plan.cache_info().currsize == int(cached)
    # the class-(2,) diamond complex is the one facet {0, 1, v2}, a facet of c
    flip = CrossFlip(d=2, spec=(2.0,), embedding={"0": "0", "1": "1", "v2": "v2"})
    for call in (lambda: apply_cross_flip_detailed(c, flip), flip.image_facets,
                 lambda: diamond_closed_form(2, (2.0,))):
        with pytest.raises(TypeError, match="^index set entries must be integers$"):
            call()
    assert find_cross_flip_sites(c, coloring, (2.0,)) == []
    assert find_cross_flip_sites(c, coloring, (True,)) == []
    with pytest.raises(TypeError, match="^index set entries must be integers$"):
        diamond.minimal_nonfaces(3, (True, 3))
    assert moves._flip_plan.cache_info().currsize == int(cached)


def test_a_class_named_twice_is_drawn_once():
    """A walk over (1,), (1,), (2,) is the walk over (1,), (2,): each class
    is drawn with the same weight however often it is named, and keeps the
    first spelling that names it."""
    twice = run_walk(WalkConfig(steps=40, seed=1, dimension=2, allowed_flips=[(1,), (1,), (2,)]))
    once = run_walk(WalkConfig(steps=40, seed=1, dimension=2, allowed_flips=[(1,), (2,)]))
    assert twice[0] == once[0] and twice[1] == once[1] and twice[2] == once[2]
    spelled = run_walk(WalkConfig(steps=12, seed=0, dimension=2,
                                  allowed_flips=[(2,), (2, 1), [1, 2]]))
    assert {row["flip_index"] for row in spelled[2]} == {"2", "2-1"}


def test_fresh_labels_are_formed_in_complexes_alone():
    """``moves.fresh_vertices`` is the ``complexes`` function, which labels
    above the highest "w<k>" of the complex."""
    assert moves.fresh_vertices is complexes.fresh_vertices
    c = Complex([face("w3", "a"), face("a", "w10x"), face("w10x", "w3")])
    assert complexes.fresh_vertices(c, 2) == ["w4", "w5"]
    assert complexes.fresh_vertices(cross_polytope(1), 1) == ["w0"]


def test_the_face_key_is_the_vertex_key_of_each_sorted_vertex():
    """``_face_key`` compares faces by the vertex keys of their sorted
    vertices, so "10" follows "9", and orders the canonical facets."""
    rng = random.Random(5)
    tokens = [str(i) for i in range(12)] + ["v%d" % i for i in range(12)] + ["a", "w2", "w10"]
    for _ in range(200):
        f = frozenset(rng.sample(tokens, rng.randrange(1, 6)))
        assert _face_key(f) == tuple(map(vertex_key, sorted_face(f)))
    assert sorted([face("10"), face("9")], key=_face_key) == [face("9"), face("10")]
    c = diamond_closed_form(3, (1, 3))
    assert c.canonical_facets() == sorted(map(sorted_face, c.facets),
                                          key=lambda t: [vertex_key(v) for v in t])


def test_a_start_without_a_colouring_walks_with_the_one_found_for_it():
    """A relabelled octahedron shares no label with the standard colouring;
    its walk uses the colouring ``find_balanced_coloring`` finds, as the
    walk given that colouring does."""
    start = Complex([frozenset("x" + v for v in f) for f in cross_polytope(2).facets])
    found = find_balanced_coloring(start)
    got = run_walk(WalkConfig(steps=6, seed=2, dimension=2, start=start))
    want = run_walk(WalkConfig(steps=6, seed=2, dimension=2, start=start, start_coloring=found))
    assert got[0] == want[0] and got[1] == want[1] and got[2] == want[2]
    assert len(got[2]) == 6 and all(row["balanced"] for row in got[2])


def test_a_start_with_no_proper_colouring_fails_before_its_first_step():
    """The tetrahedron boundary has no proper 3-colouring: the walk raises
    ``StepFailed`` whose text is the bare reason, with no step number."""
    with pytest.raises(StepFailed) as info:
        run_walk(WalkConfig(steps=3, seed=0, dimension=2, start=simplex_boundary(2)))
    assert str(info.value) == "the start complex has no proper 3-coloring"
    assert info.value.step is None
    assert str(StepFailed(4, "no applicable flip site")) == "step 4: no applicable flip site"


def _recount(c: Complex, coloring: dict) -> dict:
    """The stats columns of a complex, from its faces listed afresh."""
    faces = {frozenset(s) for h in c.facets for r in range(1, len(h) + 1)
             for s in itertools.combinations(h, r)}
    return {
        "facets": len(c.facets),
        "vertices": len({v for h in c.facets for v in h}),
        "euler": sum((-1) ** (len(s) - 1) for s in faces),
        "balanced": all(v in coloring for v in c.vertices)
        and all(len({coloring[v] for v in h}) == len(h) for h in c.facets),
    }


def test_a_class_changes_the_euler_characteristic_by_no_constant_off_manifolds():
    """The octahedron with the extra triangle {v0, a, b} is no manifold:
    a class-(0,) flip at v0 keeps v0, which lies in the extra triangle, and
    raises the Euler characteristic from 2 to 3.  Every stats row of a
    seeded walk from there equals a recount of the walk cut at that step,
    and the Euler characteristic takes more than one value."""
    start = Complex(list(cross_polytope(2).facets) + [face("v0", "a", "b")])
    coloring = dict(standard_coloring(2), a=1, b=2)
    _, _, rows = run_walk(WalkConfig(steps=40, seed=3, dimension=2, start=start,
                                     start_coloring=coloring))
    assert len(rows) == 40
    for k, row in enumerate(rows, start=1):
        final, col, prefix = run_walk(WalkConfig(steps=k, seed=3, dimension=2, start=start,
                                                 start_coloring=coloring))
        assert prefix == rows[:k]
        assert row == dict(step=k, flip_index=row["flip_index"], **_recount(final, col))
    assert len({row["euler"] for row in rows}) >= 2
