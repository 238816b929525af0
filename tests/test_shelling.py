"""Shelling verification, exhaustive search, and the h-vector identity."""

import itertools
import math
import random

import pytest

from crossflips.complexes import Complex, delete_subcomplex, face, h_vector
from crossflips.diamond import (
    absolute_shelling_order,
    cross_polytope,
    diamond_closed_form,
)
from crossflips.moves import inverse_shelling
from crossflips.shelling import (
    BudgetExceeded,
    CertificateMismatch,
    NotAPermutation,
    NotAShelling,
    RelativeComplex,
    ShellingCertificate,
    find_shelling,
    h_from_shelling,
    is_relative_shelling,
    is_shelling,
    verify_certificate,
)

FOUR_CYCLE = Complex(
    [face("a", "b"), face("b", "c"), face("c", "d"), face("d", "a")]
)


def test_four_cycle_in_cyclic_order():
    order = [face("a", "b"), face("b", "c"), face("c", "d"), face("d", "a")]
    verdict = is_shelling(FOUR_CYCLE, order)
    assert verdict.ok
    assert sorted(len(r) for r in verdict.restrictions) == [0, 1, 1, 2]


def test_two_triangles_sharing_a_vertex_never_shell():
    c = Complex([face("a", "b", "c"), face("a", "d", "e")])
    for order in itertools.permutations(c.facets):
        verdict = is_shelling(c, list(order))
        assert not verdict.ok
        assert verdict.failing_index == 1
        assert len(verdict.minimal_new_faces) == 2
        assert all(len(f) == 1 for f in verdict.minimal_new_faces)
    assert find_shelling(c) is None


def test_not_a_permutation():
    with pytest.raises(NotAPermutation):
        is_shelling(FOUR_CYCLE, [face("a", "b")])


def test_relative_with_empty_removed_matches_absolute():
    order = find_shelling(FOUR_CYCLE)
    rc = RelativeComplex(FOUR_CYCLE, Complex.empty())
    assert is_relative_shelling(rc, order).ok
    assert is_relative_shelling(rc, order).restrictions == is_shelling(FOUR_CYCLE, order).restrictions


def test_find_shelling_on_spheres():
    for d in (1, 2, 3):
        c = cross_polytope(d)
        order = find_shelling(c)
        assert order is not None
        assert is_shelling(c, order).ok


def test_budget():
    with pytest.raises(BudgetExceeded):
        find_shelling(cross_polytope(2), budget=3)


def test_none_means_no_permutation_works():
    c = Complex([face("a", "b", "c"), face("a", "d", "e")])
    assert find_shelling(c) is None
    for order in itertools.permutations(c.facets):
        assert not is_shelling(c, list(order)).ok


def test_h_from_shelling_matches_transform():
    for d in (1, 2, 3):
        c = cross_polytope(d)
        order = find_shelling(c)
        assert h_from_shelling(c, order) == h_vector(c)
        assert h_from_shelling(c, order) == tuple(
            math.comb(d + 1, i) for i in range(d + 2)
        )
    single = Complex([face(0, 1, 2)])
    assert h_from_shelling(single, [face(0, 1, 2)]) == (1, 0, 0, 0)
    with pytest.raises(NotAShelling):
        h_from_shelling(
            Complex([face("a", "b", "c"), face("a", "d", "e")]),
            [face("a", "b", "c"), face("a", "d", "e")],
        )


def test_diamond_complexes_shellable_and_co_shellable():
    for d in (1, 2, 3):
        for r in range(1, d + 2):
            for idx in itertools.combinations(range(d + 1), r):
                dc = diamond_closed_form(d, idx)
                assert find_shelling(dc) is not None, idx
                assert find_shelling(delete_subcomplex(cross_polytope(d), dc)) is not None, idx


def test_reversal_duality_on_cross_polytope():
    # a shelling of the diamond complex extended by a reversed shelling of
    # its complement shells the whole cross-polytope boundary, and reversed
    # facets pick up complement restriction faces
    for d in (1, 2, 3):
        for r in range(1, d + 2):
            for idx in itertools.combinations(range(d + 1), r):
                dc = diamond_closed_form(d, idx)
                rest = delete_subcomplex(cross_polytope(d), dc)
                tail = find_shelling(rest)
                assert tail is not None
                tail_verdict = is_shelling(rest, tail)
                combined = list(absolute_shelling_order(d, idx).order) + tail[::-1]
                verdict = is_shelling(cross_polytope(d), combined)
                assert verdict.ok
                k = dc.n_facets
                for j, f in enumerate(tail[::-1]):
                    original = tail_verdict.restrictions[len(tail) - 1 - j]
                    assert verdict.restrictions[k + j] == f - original


def test_random_grown_balls_shell():
    rng = random.Random(11)
    for trial in range(10):
        c = Complex([face("a", "b", "c")])
        labels = iter("defghijklmnopq")
        for _ in range(rng.randrange(2, 7)):
            bd_edges = sorted(
                (g for g in c.faces(1) if sum(1 for h in c.facets if g <= h) == 1),
                key=sorted,
            )
            e = bd_edges[rng.randrange(len(bd_edges))]
            v = next(labels)
            c = inverse_shelling(c, e | {v}, e, frozenset([v]))
        order = find_shelling(c)
        assert order is not None
        assert h_from_shelling(c, order) == h_vector(c)


def test_verify_certificate_rejects_wrong_restriction_count():
    # zip would truncate to the shorter list, so a cut certificate passed
    target = diamond_closed_form(2, (0,))
    cert = absolute_shelling_order(2, (0,))
    assert len(cert.order) == 4
    assert verify_certificate(target, cert).ok
    for restrictions in (cert.restrictions[:2], cert.restrictions + (frozenset(),)):
        cut = ShellingCertificate(order=cert.order, restrictions=restrictions)
        with pytest.raises(CertificateMismatch):
            verify_certificate(target, cut)
