"""The four local moves: applications, inverses, and balancedness."""

import itertools
import json
import os
import random

import pytest

from crossflips import moves
from crossflips.complexes import (
    Complex,
    ComplexError,
    ManifoldVerdict,
    boundary_complex,
    complex_from_doc,
    delete_subcomplex,
    f_vector,
    face,
    h_vector,
    is_combinatorial_manifold,
    sorted_face,
    vertex_key,
)
from crossflips.diamond import (
    cross_polytope,
    diamond_closed_form,
    gamma,
    simplex_boundary,
    standard_coloring,
)
from crossflips.moves import (
    BistellarFlip,
    ConditionViolated,
    CrossFlip,
    NotApplicable,
    NotApplicableOnBoundary,
    NotInduced,
    ShellingMove,
    apply_bistellar,
    apply_cross_flip,
    apply_cross_flip_detailed,
    boundary_bistellar_realization,
    extend_coloring_after_cross_flip,
    find_cross_flip_sites,
    find_shelling_decomposition,
    has_cross_flip_site,
    inverse_flip,
    inverse_shelling,
    list_bistellar,
    preserves_balancedness,
    shelling_move,
    stellar_subdivide,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

TWO_TRIANGLES = Complex([face("a", "b", "c"), face("b", "c", "d")])


# ---------------------------------------------------------------------------
# stellar moves


def test_subdivide_triangle():
    tri = Complex([face("a", "b", "c")])
    out = stellar_subdivide(tri, face("a", "b", "c"), new_vertex="z")
    assert out.n_facets == 3
    assert all(face("z") <= f for f in out.facets)


def test_subdivide_first_diamond_step():
    g0 = gamma(2, [0])
    out = stellar_subdivide(g0, face(1, 2, 3), new_vertex="v0")
    assert out.n_facets == 3
    assert all(face("v0") <= f for f in out.facets)


# ---------------------------------------------------------------------------
# bistellar flips


def test_facet_subdivision_flip():
    c = cross_polytope(2)
    flip = BistellarFlip(A=face(0, 1, 2), B=face("z"))
    out = apply_bistellar(c, flip)
    assert out.n_facets == 10
    assert apply_bistellar(out, inverse_flip(flip)) == c


def test_edge_flip_on_square():
    out = apply_bistellar(
        TWO_TRIANGLES, BistellarFlip(A=face("b", "c"), B=face("a", "d"))
    )
    assert out == Complex([face("a", "b", "d"), face("a", "c", "d")])


def test_all_flips_round_trip_on_cross_polytope():
    c = cross_polytope(2)
    flips = list_bistellar(c)
    assert len(flips) == 20
    assert sum(1 for fl in flips if len(fl.B) == 1) == 8
    for fl in flips:
        out = apply_bistellar(c, fl)
        assert apply_bistellar(out, inverse_flip(fl)) == c
        assert out.euler_characteristic() == 2


def test_list_bistellar_small_cases():
    tri = simplex_boundary(1)
    assert len(list_bistellar(tri)) == 3
    cyc = Complex([face("a", "b"), face("b", "c"), face("c", "d"), face("d", "a")])
    flips = list_bistellar(cyc)
    assert len(flips) == 8
    assert sum(1 for f in flips if len(f.B) == 1) == 4


def test_bistellar_not_applicable():
    with pytest.raises(NotApplicable):
        apply_bistellar(TWO_TRIANGLES, BistellarFlip(A=face("a"), B=face("d")))


# ---------------------------------------------------------------------------
# elementary shellings


def test_shelling_move_and_inverse():
    out = shelling_move(TWO_TRIANGLES, face("b", "c", "d"), face("b", "c"), face("d"))
    assert out == Complex([face("a", "b", "c")])
    back = inverse_shelling(out, face("b", "c", "d"), face("b", "c"), face("d"))
    assert back == TWO_TRIANGLES


def test_shelling_conditions_named():
    with pytest.raises(ConditionViolated) as err:
        shelling_move(TWO_TRIANGLES, face("b", "c", "d"), face("b", "c", "d"), face())
    assert err.value.condition == 1
    with pytest.raises(ConditionViolated) as err:
        shelling_move(TWO_TRIANGLES, face("b", "c", "d"), face("d"), face("b", "c"))
    assert err.value.condition == 2
    with pytest.raises(ConditionViolated) as err:
        shelling_move(
            Complex([face("a", "b", "c"), face("b", "c", "d"), face("c", "d", "e")]),
            face("b", "c", "d"),
            face("b", "c"),
            face("d"),
        )
    assert err.value.condition == 3


def _grown_by_generation(c, f_new, a, r):
    """inverse_shelling as it was: the grown complex generated afresh from
    every facet of c and the new one."""
    f_new = frozenset(f_new)
    if c.has_face(f_new):
        raise ConditionViolated(1, "facet %r already present" % (sorted_face(f_new),))
    grown = Complex.generated_by(list(c.facets) + [f_new])
    moves._check_shelling_conditions(grown, f_new, a, r)
    return grown


def _state(fn, *args):
    """The facets and every derived slot of fn's result, built on demand
    where the result has not inherited them, or the error it raised."""
    try:
        out = fn(*args)
    except ComplexError as exc:
        return type(exc), str(exc)
    return (out.facets, out.vertices, out._star_index(), out._common_size(),
            out._top_w_label())


def test_shelling_moves_equal_the_generated_complexes():
    """On every boundary ridge e of seeded balls, growing the facet e | {z}
    gives the complex, star index and labels of a fresh generation, and so
    does removing each facet again by its first split."""
    grown = removed = 0
    for d in (1, 2, 3):
        for seed in range(3):
            rng = random.Random(seed)
            c = Complex([frozenset("abcd"[: d + 1])])
            for k in range(8):
                c._top_w_label()  # inherited when built
                z = "w%d" % k
                rim = sorted(boundary_complex(c).facets, key=sorted_face)
                for e in rim:
                    args = (c, e | {z}, e, frozenset([z]))
                    assert _state(inverse_shelling, *args) == _state(_grown_by_generation, *args)
                    grown += 1
                for f in sorted(c.facets, key=sorted_face):
                    split = find_shelling_decomposition(c, f)
                    if split is not None:
                        assert _state(shelling_move, c, f, *split) == _state(
                            Complex, c.facets - {f})
                        removed += 1
                e = rim[rng.randrange(len(rim))]
                c = inverse_shelling(c, e | {z}, e, frozenset([z]))
    assert grown > 100 and removed > 50
    # a new facet swallowing smaller facets, the void complex's empty
    # facet, and failing conditions
    odd = [
        (Complex([face("a", "b"), face("c")]), face("b", "c"), face("c"), face("b")),
        (Complex([face("a", "b", "c"), face("d")]), face("b", "c", "d"), face("b", "c"), face("d")),
        (Complex.void(), face("a", "b"), face("a"), face("b")),
        (Complex.empty(), face(), face(), face()),
        (TWO_TRIANGLES, face("a", "b", "d"), face("a"), face("b", "d")),
        (TWO_TRIANGLES, face("b", "c"), face("b"), face("c")),
    ]
    for args in odd:
        assert _state(inverse_shelling, *args) == _state(_grown_by_generation, *args)


def test_non_shelling_fixture_rejected_at_facet_six():
    with open(os.path.join(FIXTURES, "non_shelling.json")) as fh:
        doc = json.load(fh)
    amb, _ = complex_from_doc(doc["complex"])
    order = [frozenset(f) for f in doc["order"]]
    cur = amb
    for f in order[:5]:
        split = find_shelling_decomposition(cur, f)
        assert split is not None
        cur = shelling_move(cur, f, *split)
    blocked = order[5]
    assert find_shelling_decomposition(cur, blocked) is None
    for size in range(1, len(blocked)):
        for a in itertools.combinations(sorted(blocked), size):
            with pytest.raises(ConditionViolated):
                shelling_move(cur, blocked, frozenset(a), blocked - frozenset(a))
    # the blocked facet meets the current boundary in an edge plus an
    # isolated vertex
    bd = boundary_complex(cur)
    inter = [g for g in bd.all_faces() if g and g <= blocked]
    maximal = sorted(
        (g for g in inter if not any(g < h for h in inter)), key=len
    )
    assert [len(g) for g in maximal] == [1, 2]
    assert not maximal[0] <= maximal[1]


def _first_split_by_conditions(c, f):
    """The first split legalising the removal of f, each candidate checked
    on its own by shelling_move; a test-only oracle."""
    for size in range(1, len(f)):
        for a in itertools.combinations(sorted(f, key=vertex_key), size):
            try:
                shelling_move(c, f, frozenset(a), f - frozenset(a))
            except ConditionViolated:
                continue
            return frozenset(a), f - frozenset(a)
    return None


def test_shelling_decomposition_matches_per_split_conditions():
    with open(os.path.join(FIXTURES, "non_shelling.json")) as fh:
        fixture, _ = complex_from_doc(json.load(fh)["complex"])
    balls = [fixture, diamond_closed_form(2, (0, 1)), diamond_closed_form(3, (0, 2, 3)),
             diamond_closed_form(3, (1,)), cross_polytope(2)]
    splits = []
    for c in balls:
        for f in sorted(c.facets, key=sorted) + [face("x", "y", "z")]:
            got = find_shelling_decomposition(c, f)
            assert got == _first_split_by_conditions(c, f), (c, f)
            splits.append(got)
    assert None in splits and any(s is not None for s in splits)


# ---------------------------------------------------------------------------
# cross-flips


def test_facet_cross_flip_gives_stacked_sphere():
    c = cross_polytope(2)
    block = diamond_closed_form(2, [2])
    (abstract_facet,) = block.facets
    target = sorted(c.facets, key=lambda f: tuple(sorted(f)))[0]
    emb = dict(zip(sorted(abstract_facet), sorted(target)))
    out = apply_cross_flip(c, CrossFlip(d=2, spec=(2,), embedding=emb))
    assert out.n_facets == 14
    assert h_vector(out) == (1, 6, 6, 1)
    assert is_combinatorial_manifold(out) is ManifoldVerdict.CLOSED


def test_trivial_move_is_isomorphism():
    from crossflips.catalog import ambient_with_induced_diamond
    from crossflips.complexes import are_isomorphic

    amb, coloring, emb = ambient_with_induced_diamond(2, (0,))
    res = apply_cross_flip_detailed(amb, CrossFlip(d=2, spec=(0,), embedding=emb))
    assert are_isomorphic(res.complex, amb) is not None
    assert res.complement_induced


def test_cross_flip_round_trip():
    c = cross_polytope(2)
    sites = find_cross_flip_sites(c, standard_coloring(2), (2,))
    res = apply_cross_flip_detailed(c, sites[0])
    coloring = extend_coloring_after_cross_flip(standard_coloring(2), res)
    back_sites = find_cross_flip_sites(res.complex, coloring, (0, 1, 2))
    assert back_sites
    from crossflips.complexes import are_isomorphic

    restored = apply_cross_flip(res.complex, back_sites[0])
    assert are_isomorphic(restored, c) is not None


def test_cross_flip_requires_induced():
    c = cross_polytope(2)
    d01 = diamond_closed_form(2, [0, 1])
    emb = {v: v for v in d01.vertices}
    with pytest.raises(NotInduced):
        apply_cross_flip(c, CrossFlip(d=2, spec=(0, 1), embedding=emb))


def test_find_sites_counts():
    c = cross_polytope(2)
    kappa = standard_coloring(2)
    assert len(find_cross_flip_sites(c, kappa, (2,))) == 8
    assert len(find_cross_flip_sites(c, kappa, (0,))) == 6
    assert find_cross_flip_sites(c, kappa, (0, 1, 2)) == []
    # index sets out of range for the complex dimension yield no sites
    path = Complex([face("a", "b"), face("b", "c")])
    assert find_cross_flip_sites(path, {"a": 0, "b": 1, "c": 0}, (2,)) == []


def test_has_site_agrees_with_site_list():
    kappa = standard_coloring(2)
    after = apply_cross_flip_detailed(
        cross_polytope(2), find_cross_flip_sites(cross_polytope(2), kappa, (2,))[0]
    )
    cases = [
        (cross_polytope(2), kappa),
        (after.complex, extend_coloring_after_cross_flip(kappa, after)),
        (Complex([face("a", "b"), face("b", "c")]), {"a": 0, "b": 1, "c": 0}),
        (Complex.empty(), {}),
    ]
    specs = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2), (3,)]
    for c, coloring in cases:
        for spec in specs:
            want = bool(find_cross_flip_sites(c, coloring, spec))
            assert has_cross_flip_site(c, coloring, spec) is want, (c, spec)


def test_cross_flip_face_count_change():
    # away from the gluing boundary the f-vector changes by the difference
    # of the two sides of the exchange; the shared boundary faces cancel
    for d, idx in [(2, (1,)), (2, (0, 1, 2)), (3, (1,)), (3, (2, 3))]:
        c = cross_polytope(d)
        kappa = standard_coloring(d)
        sites = find_cross_flip_sites(c, kappa, idx)
        if not sites:
            continue
        removed = diamond_closed_form(d, idx)
        added = delete_subcomplex(cross_polytope(d), removed)
        out = apply_cross_flip(c, sites[0])
        diff = tuple(a - b for a, b in zip(f_vector(out), f_vector(c)))
        want = tuple(
            (len([f for f in added.all_faces() if len(f) == k + 1])
             - len([f for f in removed.all_faces() if len(f) == k + 1]))
            for k in range(-1, d + 1)
        )
        assert diff == want, (d, idx)


def test_balancedness_preservation():
    kappa = {"a": 0, "b": 1, "c": 2, "d": 0}
    fwd = ShellingMove(facet=face("b", "c", "d"), A=face("b", "c"), R=face("d"))
    assert preserves_balancedness(TWO_TRIANGLES, kappa, fwd)
    bad = ShellingMove(facet=face("a", "c", "d"), A=face("c"), R=face("a", "d"))
    assert not preserves_balancedness(TWO_TRIANGLES, kappa, bad)
    # facet subdivision forces a (d+2)-th color
    c2 = cross_polytope(2)
    sub_flip = BistellarFlip(A=face(0, 1, 2), B=face("z"))
    assert not preserves_balancedness(c2, standard_coloring(2), sub_flip)
    # color-consistent cross-flips always preserve balancedness
    site = find_cross_flip_sites(c2, standard_coloring(2), (2,))[0]
    assert preserves_balancedness(c2, standard_coloring(2), site)


def test_an_added_vertex_takes_the_least_free_colour():
    """An inverse shelling gluing the triangle b, c, w onto a, b, c: its new
    vertex w sees colours 1 and 2 across its star and takes colour 0."""
    tri = Complex([face("a", "b", "c")])
    kappa = {"a": 0, "b": 1, "c": 2}
    grow = ShellingMove(facet=face("b", "c", "w"), A=face("b", "c"), R=face("w"))
    assert preserves_balancedness(tri, kappa, grow)
    after = inverse_shelling(tri, grow.facet, grow.A, grow.R)
    assert moves._greedy_extend(kappa, after, 3) == dict(kappa, w=0)
    # uncoloured vertices take the least free colour, in canonical order
    assert moves._greedy_extend({"a": 0}, after, 3) == {"a": 0, "b": 1, "c": 2, "w": 0}
    # beside a vertex x of colour 0 as well, w has no colour left
    boxed = Complex([face("a", "b", "c"), face("b", "w", "x"), face("c", "w", "x")])
    assert moves._greedy_extend(dict(kappa, x=0), boxed, 3) is None


def test_random_forward_shellings_preserve_balancedness():
    rng = random.Random(9)
    for _ in range(10):
        c, kappa = cross_polytope(2), standard_coloring(2)
        # remove one facet so shellings are available, then shell randomly
        first = sorted(c.facets, key=lambda f: tuple(sorted(f)))[0]
        c = Complex(c.facets - {first})
        for _ in range(3):
            options = [
                (f, find_shelling_decomposition(c, f))
                for f in sorted(c.facets, key=lambda f: tuple(sorted(f)))
            ]
            options = [(f, s) for f, s in options if s is not None]
            if not options:
                break
            f, (a, r) = options[rng.randrange(len(options))]
            move = ShellingMove(facet=f, A=a, R=r)
            assert preserves_balancedness(c, kappa, move)
            c = shelling_move(c, f, a, r)


def test_boundary_bistellar_realization():
    ball = TWO_TRIANGLES
    out = boundary_bistellar_realization(ball, face("a", "b"), face("x"))
    assert out.n_facets == 3
    assert boundary_complex(out) == apply_bistellar(
        boundary_complex(ball), BistellarFlip(A=face("a", "b"), B=face("x"))
    )
    back = boundary_bistellar_realization(out, face("x"), face("a", "b"))
    assert back == ball
    with pytest.raises(NotApplicableOnBoundary):
        boundary_bistellar_realization(ball, face("b", "c"), face("x"))


def test_boundary_realization_matches_the_generated_construction():
    """Seeded 2-balls grown on random boundary edges and trimmed at random
    facet splits: each result has the facets of the complex generated by
    the input's facets and A | B (or of the input without A | B), and its
    inherited star index equals a fresh build."""
    removed = 0
    for seed in range(4):
        rng = random.Random(seed)
        c = Complex([face("a", "b", "c")])
        for k in range(40):
            f = sorted(c.facets, key=sorted_face)[rng.randrange(c.n_facets)]
            a = frozenset(rng.sample(sorted_face(f), rng.randint(1, 2)))
            try:
                out = boundary_bistellar_realization(c, a, f - a)
                assert out.facets == c.facets - {f}
                removed += 1
            except NotApplicableOnBoundary:
                rim = sorted(boundary_complex(c).facets, key=sorted_face)
                e, x = rim[rng.randrange(len(rim))], face("n%d" % k)
                out = boundary_bistellar_realization(c, e, x)
                assert out.facets == Complex.generated_by(list(c.facets) + [e | x]).facets
            assert out._star_index() == Complex(out.facets)._star_index()
            assert out.vertices == Complex(out.facets).vertices
            c = out
    assert removed > 0


def test_triangle_to_square_boundary_walk():
    # realize boundary edge subdivisions facet by facet on a 2-ball filling
    ball = Complex([face("a", "b", "c")])
    bd = boundary_complex(ball)
    assert bd.n_facets == 3
    step = boundary_bistellar_realization(ball, face("a", "b"), face("p"))
    assert boundary_complex(step).n_facets == 4
    step2 = boundary_bistellar_realization(step, face("b", "c"), face("q"))
    assert boundary_complex(step2).n_facets == 5
