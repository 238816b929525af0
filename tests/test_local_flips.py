"""Local cross-flip application: slots inherited across flips.

A cross-flip result is built by `Complex._replaced`, which patches the
vertex set, star index, common facet size and top "w<k>" label of the
ambient at the exchanged facets only.  These tests compare every inherited
slot with a fresh build of the result, the colouring extension with its
former whole-colouring comprehension, and results on an ambient that is not
pure with the validating construction; a flip of another dimension than
its ambient's raises.
"""

import gc
import json
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
    NotApplicable,
    NotInduced,
    _flip_plan,
    apply_cross_flip_detailed,
    extend_coloring_after_cross_flip,
    find_cross_flip_sites,
)


def _w_indices(vertices):
    return [int(v[1:]) for v in vertices if v[:1] == "w" and v[1:].isdigit()]


def assert_inherited_slots_are_exact(before: Complex, after: Complex) -> bool:
    """Every slot `after` inherited equals a fresh build; returns whether the
    vertex of the former top label left the complex.  The top label is left
    unbuilt only then, and only when no higher label arrived."""
    fresh = Complex(after.facets)
    # read the raw slots first: a method call would build a missing one
    stars, vertices, size, top = after._stars, after._vertices, after._size, after._top_w
    assert stars is not None and vertices is not None and size is not None
    assert stars == fresh._star_index()
    assert vertices == fresh.vertices
    assert size == fresh._common_size() == len(next(iter(after.facets)))
    old_top = max(_w_indices(before.vertices), default=-1)
    top_left = old_top >= 0 and old_top not in _w_indices(fresh.vertices)
    if top is None:
        assert top_left and max(_w_indices(fresh.vertices), default=-1) < old_top
    else:
        assert top == fresh._top_w_label()
    assert after._top_w_label() == max(_w_indices(fresh.vertices), default=-1)
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


@pytest.mark.parametrize("ambient", ["non-pure"])
def test_other_ambients_match_the_validating_construction(ambient):
    """An ambient of the flip's dimension that is not pure: the result
    built by `_replaced` equals the validating construction, and its
    inherited slots equal a fresh build."""
    d, spec = 2, (1,)
    c = Complex(list(cross_polytope(d).facets) + [face("p", "q")])
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


def test_cross_flip_of_another_dimension_raises():
    """A class of dimension d applies only to a complex of dimension d: a
    d = 2 image would stay inside the tetrahedra of a 3-sphere and a disc
    be glued on, and a d = 3 image is no face of a 2-sphere."""
    def identity(d, spec):
        emb = {v: v for v in diamond_closed_form(d, spec).vertices}
        return CrossFlip(d=d, spec=spec, embedding=emb)

    cases = [
        (cross_polytope(3), CrossFlip(d=2, spec=(2,), embedding={"0": "0", "1": "1", "v2": "2"})),
        (cross_polytope(3), identity(2, (1,))),
        (cross_polytope(2), identity(3, (2, 3))),
    ]
    for c, flip in cases:
        with pytest.raises(NotApplicable) as err:
            apply_cross_flip_detailed(c, flip)
        assert str(err.value) == (
            "a flip of dimension %d does not apply to a complex of dimension %d"
            % (flip.d, c.dimension))


def test_inducedness_is_scanned_only_where_a_flip_needs_it(monkeypatch):
    """No application and no reading scans facet traces: the image is
    decided by the class's minimal non-faces, and a one-facet (class-(d))
    image, which has none, tests nothing.  Each reading of
    `complement_induced` runs one test of the complement class's minimal
    non-faces, and an image that is not induced still raises
    `NotInduced`."""
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
        assert (len(scans), len(tests)) == (0, nonface_tests + 1), (d, spec)
        assert tests[-1][2] is _flip_plan(d, spec).complement_nonfaces
        assert res.complement_induced
        assert (len(scans), len(tests)) == (0, nonface_tests + 2), (d, spec)
    # a facet outside the image on one of its interior edges leaves that
    # edge in the result, where it is no face of the glued complement
    abstract = diamond_closed_form(2, (1,))
    c = Complex(cross_polytope(2).facets | {face("0", "v1", "x")})
    res = apply_cross_flip_detailed(
        c, CrossFlip(d=2, spec=(1,), embedding={v: v for v in abstract.vertices}))
    assert res.complement_induced is False
    for d, spec in ((1, (0, 1)), (2, (0, 2)), (3, (1, 2, 3))):
        abstract = diamond_closed_form(d, spec)
        scans.clear()
        with pytest.raises(NotInduced, match="not induced"):
            apply_cross_flip_detailed(
                cross_polytope(d),
                CrossFlip(d=d, spec=spec, embedding={v: v for v in abstract.vertices}))
        assert not scans, (d, spec)


def _assert_matches_fresh_build(got: Complex, facets) -> None:
    """Every slot `got` holds equals a fresh build of *facets*."""
    fresh = Complex(facets)
    assert got.facets == fresh.facets
    assert got._stars == fresh._star_index()
    assert got._vertices == fresh.vertices
    assert got._size in (None, fresh._common_size())
    assert got._top_w in (None, fresh._top_w_label())


def test_replaced_refuses_an_inexact_exchange():
    """A removed face that is no facet, or an added face that already is
    one, is no exchange: both raise and leave the complex as it was."""
    c = Complex([face("a", "b", "c"), face("b", "c", "d")])
    for removed, added in (({face("a", "b")}, set()),
                           ({face("a", "b", "c"), face("x", "y", "z")}, {face("a", "b", "x")}),
                           (set(), {face("b", "c", "d")}),
                           ({face("a", "b", "c")}, {face("a", "b", "x"), face("b", "c", "d")}),
                           ({frozenset()}, {face("a", "b", "x")})):
        with pytest.raises(ValueError, match="not an exchange"):
            c._replaced(frozenset(removed), frozenset(added))
        assert c.facets == {face("a", "b", "c"), face("b", "c", "d")}
    with pytest.raises(ValueError, match="not an exchange"):
        Complex.empty()._replaced(frozenset([frozenset()]), frozenset([face("a")]))


def test_toggled_stars_when_vertices_leave_and_arrive_in_one_exchange():
    """A vertex's whole star exchanged for its copy on a label new to the
    complex: the old vertex's star toggles to empty and the new one's is
    its exchange, in the same call, with the common size and top label
    built beforehand or not; facets of other vertices of those stars are
    toggled in one copy of their stars."""
    rng = random.Random(43)
    labels = ["a", "b", "c", "d", "e", "w0", "w1", "w3", "w6"]
    cases = 0
    for trial in range(300):
        c = Complex.generated_by(rng.sample(labels, 3) for _ in range(rng.randrange(1, 8)))
        for name in rng.sample(["_top_w_label", "_common_size"], rng.randrange(3)):
            getattr(c, name)()
        v = rng.choice(sorted(c.vertices))
        new = rng.choice(["w2", "w5", "w9", "z"])
        if new in c.vertices:
            continue
        star = frozenset(h for h in c.facets if v in h)
        added = frozenset((h - {v}) | {new} for h in star)
        got = c._replaced(star, added)
        assert v not in got._stars and v not in got._vertices
        assert got._stars[new] == added
        _assert_matches_fresh_build(got, (c.facets - star) | added)
        cases += 1
    assert cases > 200


def test_late_stacking_ops_patch_stars_exactly():
    """Every op of a 100-op class-(3,) stacking, up to 1416 facets: each
    result equals a fresh build of the ambient with the image exchanged
    for the glued facets, in every slot."""
    (abstract,) = diamond_closed_form(3, (3,)).facets
    for before, res in stacking(3, 100, 5):
        image = frozenset(res.vertex_map[v] for v in abstract)
        _assert_matches_fresh_build(res.complex, (before.facets - {image}) | res.glued)
        assert not assert_inherited_slots_are_exact(before, res.complex)
    assert res.complex.n_facets == 16 + 14 * 100


def test_with_facet_on_the_void_complex_and_on_a_ball():
    """Adding a facet drops the void complex's empty facet, swallows the
    facets inside the new one, and otherwise keeps every facet; an inverse
    shelling on the void complex reaches its condition check."""
    abc = face("a", "b", "c")
    for c, want in ((Complex.void(), {abc}),
                    (Complex.empty(), {abc}),
                    (Complex([face("a", "b"), face("d")]), {abc, face("d")}),
                    (Complex([face("a", "b", "d")]), {abc, face("a", "b", "d")})):
        _assert_matches_fresh_build(moves._with_facet(c, abc), want)
    with pytest.raises(moves.ConditionViolated) as err:
        moves.inverse_shelling(Complex.void(), abc, face("a"), face("b", "c"))
    assert err.value.condition == 2
    square = Complex([face("0", "1", "2"), face("0", "2", "3")])
    grown = moves.inverse_shelling(square, face("0", "3", "4"), face("0", "3"), face("4"))
    _assert_matches_fresh_build(grown, square.facets | {face("0", "3", "4")})
    assert moves.shelling_move(grown, face("0", "3", "4"), face("0", "3"), face("4")) == square


def test_every_library_caller_hands_replaced_an_exact_exchange(monkeypatch, tmp_path, capsys):
    """A spy on `Complex._replaced` checks the exchange of every call made
    by walks, stackings, bistellar flips, stellar subdivisions, shelling
    moves, boundary realizations and the CLI's removal check."""
    from crossflips import cli
    from crossflips.catalog import stacked_cross_sphere_colored

    calls = []
    replaced = Complex._replaced

    def spy(self, removed, added, delta=None):
        assert removed <= self.facets, "removed faces that are no facets"
        assert added.isdisjoint(self.facets), "added faces that are facets"
        calls.append(len(removed) + len(added))
        return replaced(self, removed, added, delta)

    monkeypatch.setattr(Complex, "_replaced", spy)

    def count(run):
        calls.clear()
        run()
        return len(calls)

    for d in (1, 2, 3, 4):
        assert count(lambda: cli.run_walk(cli.WalkConfig(steps=6, seed=d, dimension=d)))
    assert count(lambda: stacked_cross_sphere_colored(5, 3))
    c = cross_polytope(2)
    flips = moves.list_bistellar(c)
    assert count(lambda: [moves.apply_bistellar(c, f) for f in flips]) == len(flips)
    assert count(lambda: [moves.stellar_subdivide(c, f) for f in c.all_faces() if f])
    square = Complex([face("0", "1", "2"), face("0", "2", "3")])
    assert count(lambda: moves.shelling_move(square, face("0", "1", "2"), face("0", "2"),
                                             face("1"))) == 1
    assert count(lambda: moves.inverse_shelling(square, face("0", "3", "4"), face("0", "3"),
                                                face("4"))) == 1
    assert count(lambda: (moves.boundary_bistellar_realization(square, face("0", "3"), face("4")),
                          moves.boundary_bistellar_realization(square, face("1"),
                                                               face("0", "2")))) == 2
    fan = [["o", "p%d" % i, "p%d" % (i + 1)] for i in range(5)]
    path = tmp_path / "fan.json"
    path.write_text(json.dumps({"complex": {"facets": fan}, "order": fan[:0:-1],
                                "mode": "removal"}))
    assert count(lambda: cli.main(["check", str(path), "shelling-order"])) == 4
    assert capsys.readouterr().out == "PASS: 4 elementary shellings\n"
