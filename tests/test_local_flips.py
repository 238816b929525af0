"""Local cross-flip application: slots inherited across flips.

A cross-flip result is built by `Complex._replaced`, which patches the
vertex set, star index, common facet size and top "w<k>" label of the
ambient at the exchanged facets only.  These tests compare every inherited
slot with a fresh build of the result, the colouring extension with its
former whole-colouring comprehension, and results on ambients that are not
pure of the flip's dimension with the validating construction.
"""

import gc
import random
import types

import pytest

from crossflips import complexes, moves
from crossflips.catalog import enumerate_basic_flips
from crossflips.complexes import (
    Complex,
    _traces_are_faces,
    face,
    pair_index,
    partner,
)
from crossflips.diamond import cross_polytope, diamond_closed_form, standard_coloring
from crossflips.moves import (
    CrossFlip,
    NotInduced,
    apply_cross_flip_detailed,
    extend_coloring_after_cross_flip,
    find_cross_flip_sites,
)


def _w_indices(vertices):
    return [int(v[1:]) for v in vertices if v[:1] == "w" and v[1:].isdigit()]


def assert_inherited_slots_are_exact(before: Complex, after: Complex) -> bool:
    """Every slot `after` inherited equals a fresh build; returns whether the
    top label was left unbuilt because its vertex left the complex."""
    fresh = Complex(after.facets)
    # read the raw slots first: a method call would build a missing one
    stars, vertices, size, top = after._stars, after._vertices, after._size, after._top_w
    assert stars is not None and vertices is not None and size is not None
    assert stars == fresh._star_index()
    assert vertices == fresh.vertices
    assert size == fresh._common_size() == len(next(iter(after.facets)))
    old_top = max(_w_indices(before.vertices), default=-1)
    top_left = old_top >= 0 and old_top not in _w_indices(fresh.vertices)
    assert (top is None) == top_left
    assert after._top_w_label() == max(_w_indices(fresh.vertices), default=-1)
    assert after._view is None
    return top_left


def test_replaced_inherits_exact_slots():
    """Random facet exchanges, pure and mixed, with the common size and the
    top label built beforehand or not: the vertex set and star index are
    always inherited, the other two only when built, and each inherited
    slot equals a fresh build."""
    rng = random.Random(41)
    labels = ["a", "b", "c", "w0", "w2", "w5", "w9", "w10"]
    for trial in range(400):
        sizes = [3] if trial % 2 else [1, 2, 3]
        c = Complex.generated_by(rng.sample(labels, rng.choice(sizes)) for _ in range(6))
        kept = [f for f in c.facets if rng.random() < 0.6]
        new = [rng.sample(labels, rng.choice(sizes)) for _ in range(rng.randrange(4))]
        target = Complex.generated_by(kept + new)
        for name in rng.sample(["_top_w_label", "_common_size"], rng.randrange(3)):
            getattr(c, name)()
        got = c._replaced(c.facets - target.facets, target.facets - c.facets)
        assert got.facets == target.facets
        fresh = Complex(target.facets)
        assert got._stars == fresh._star_index()
        assert got._vertices == fresh.vertices
        for slot, build in (("_size", fresh._common_size), ("_top_w", fresh._top_w_label)):
            value = getattr(got, slot)
            assert value is None or value == build(), (slot, c.facets, target.facets)
            if getattr(c, slot) is None:
                assert value is None


def stacking(d: int, ops: int, seed: int):
    """Seeded class-(d,) facet stacking from the cross-polytope boundary:
    (ambient, result) pairs, each result the next ambient."""
    cur, col = cross_polytope(d), standard_coloring(d)
    (abstract,) = diamond_closed_form(d, (d,)).facets
    rng = random.Random(seed)
    for _ in range(ops):
        target = rng.choice(cur.canonical_facets())
        by_colour = {col[v]: v for v in target}
        flip = CrossFlip(d=d, spec=(d,), embedding={a: by_colour[pair_index(a)] for a in abstract})
        res = apply_cross_flip_detailed(cur, flip)
        yield cur, res
        cur, col = res.complex, extend_coloring_after_cross_flip(col, res)


def mixed_flips(d: int, steps: int, seed: int):
    """Seeded flips over every class: (ambient, class, result) triples.
    Whenever some site removes the vertex holding the top "w<k>" label,
    the first such site is taken, one of the class (0..d) if there is one."""
    cur, col = cross_polytope(d), standard_coloring(d)
    specs = [fc.canonical_index for fc in enumerate_basic_flips(d)]
    rng = random.Random(seed)
    for _ in range(steps):
        sites = [s for spec in specs for s in find_cross_flip_sites(cur, col, spec)]
        results = [apply_cross_flip_detailed(cur, s) for s in sites]
        top = "w%d" % max(_w_indices(cur.vertices), default=-1)
        takes_top = sorted((i for i, r in enumerate(results)
                            if top in cur.vertices and top not in r.complex.vertices),
                           key=lambda i: len(sites[i].spec) <= d)
        i = takes_top[0] if takes_top else rng.randrange(len(results))
        yield cur, sites[i].spec, results[i]
        cur, col = results[i].complex, extend_coloring_after_cross_flip(col, results[i])


@pytest.mark.parametrize("d,ops,seed", [(3, 80, 11), (2, 60, 12)])
def test_stacking_inherits_exact_slots(d, ops, seed):
    for before, res in stacking(d, ops, seed):
        assert not assert_inherited_slots_are_exact(before, res.complex)


@pytest.mark.parametrize("d,steps,seed", [(2, 40, 3), (2, 40, 4), (3, 6, 2)])
def test_mixed_flips_inherit_exact_slots(d, steps, seed):
    removing, taking_top = set(), set()
    for before, spec, res in mixed_flips(d, steps, seed):
        if assert_inherited_slots_are_exact(before, res.complex):
            taking_top.add(spec)
        if before.vertices - res.complex.vertices:
            removing.add(spec)
    # the class (0..d) removes d+1 vertices; here it also takes the top label
    assert tuple(range(d + 1)) in removing & taking_top


def _former_extension(coloring: dict, result) -> dict:
    """The whole-colouring comprehension the extension replaced."""
    fresh = set(result.fresh_vertices)
    out = {v: col for v, col in coloring.items()
           if v in result.complex.vertices and v not in fresh}
    for v, w in result.vertex_map.items():
        if w in fresh:
            out[w] = coloring[result.vertex_map[partner(v)]]
    return out


@pytest.mark.parametrize("d,steps,seed", [(2, 30, 7), (3, 4, 8)])
def test_coloring_extension_matches_former_comprehension(d, steps, seed):
    col = standard_coloring(d)
    for before, _spec, res in mixed_flips(d, steps, seed):
        # stale entries: a vertex never in the complex and the label the
        # flip hands out first, with a colour it will not get
        top = max(_w_indices(before.vertices), default=-1)
        stale = {"w%d" % (top + 1): d, **col, "zz": 0}
        for coloring in (col, stale):
            got = extend_coloring_after_cross_flip(coloring, res)
            assert list(got.items()) == list(_former_extension(coloring, res).items())
        col = extend_coloring_after_cross_flip(col, res)


def _reachable(root):
    """Every object reachable from root through gc.get_referents, not
    entering classes, modules or functions (shared by every value)."""
    seen, todo = {}, [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen[id(obj)] = obj
        todo.extend(gc.get_referents(obj))
    return seen.values()


def test_result_holds_no_reference_to_its_ambient():
    ambients, results = [], []
    for before, res in stacking(3, 5, 1):
        assert before._stars is not None
        ambients.append(before)
        results.append(res)
    assert results[-1].complex.n_facets == 16 + 14 * 5
    for k, res in enumerate(results):
        reached = {id(obj) for obj in _reachable(res)}
        # the result record reaches its own complex, never an ambient
        assert id(res.complex) in reached
        assert not any(id(amb) in reached for amb in ambients[: k + 1])


@pytest.mark.parametrize("ambient", ["non-pure", "above the flip dimension"])
def test_other_ambients_match_the_validating_construction(ambient):
    """Ambients that are not pure of the flip's dimension: the result built
    by `_replaced` equals the validating construction, and its inherited
    slots equal a fresh build."""
    d, spec = 2, (1,)
    if ambient == "non-pure":
        c = Complex(list(cross_polytope(d).facets) + [face("p", "q")])
    else:
        c = cross_polytope(3)
    abstract = diamond_closed_form(d, spec)
    emb = {v: v for v in abstract.vertices}
    res = apply_cross_flip_detailed(c, CrossFlip(d=d, spec=spec, embedding=emb))
    # the result and complement inducedness by their definitions: every
    # facet of the ambient kept but the image, and traces of every facet
    image = {frozenset(emb[v] for v in f) for f in abstract.facets}
    rest = cross_polytope(d).facets - abstract.facets
    glued = {frozenset(res.vertex_map[v] for v in f) for f in rest}
    full = Complex((c.facets - image) | glued)
    assert res.complex == full
    assert res.complex._stars == full._star_index()
    assert res.complex._vertices == full.vertices
    assert res.complex._size in (None, full._common_size())
    assert res.complex.is_pure == full.is_pure
    assert res.complex.dimension == full.dimension
    glued_vertices = frozenset().union(*glued)
    assert res.complement_induced == _traces_are_faces(res.complex.facets, glued, glued_vertices)
    assert res.fresh_vertices == ("w0", "w1")


def test_inducedness_is_scanned_only_where_a_flip_needs_it(monkeypatch):
    """No application scans facet traces: the image is decided by the
    class's minimal non-faces, and a one-facet (class-(d)) image, which has
    none, tests nothing.  The glued complement is scanned once each time
    `complement_induced` is read, and an image that is not induced still
    raises `NotInduced`."""
    scans, tests = [], []
    scan, test = complexes._traces_are_faces, moves._embeds_a_nonface

    def counted_scan(*args):
        scans.append(args)
        return scan(*args)

    def counted_test(*args):
        tests.append(args)
        return test(*args)

    monkeypatch.setattr(complexes, "_traces_are_faces", counted_scan)
    monkeypatch.setattr(moves, "_embeds_a_nonface", counted_test)
    for d, spec, nonface_tests in ((2, (2,), 0), (3, (3,), 0), (2, (1,), 1), (3, (0,), 1)):
        abstract = diamond_closed_form(d, spec)
        emb = {v: v for v in abstract.vertices}
        scans.clear()
        tests.clear()
        res = apply_cross_flip_detailed(cross_polytope(d), CrossFlip(d=d, spec=spec, embedding=emb))
        assert (len(scans), len(tests)) == (0, nonface_tests), (d, spec)
        assert res.complement_induced
        assert len(scans) == 1, (d, spec)
        assert res.complement_induced
        assert len(scans) == 2, (d, spec)
    for d, spec in ((1, (0, 1)), (2, (0, 2)), (3, (1, 2, 3))):
        abstract = diamond_closed_form(d, spec)
        scans.clear()
        with pytest.raises(NotInduced, match="not induced"):
            apply_cross_flip_detailed(
                cross_polytope(d),
                CrossFlip(d=d, spec=spec, embedding={v: v for v in abstract.vertices}))
        assert not scans, (d, spec)
