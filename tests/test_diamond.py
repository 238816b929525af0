"""Diamond complexes: constructions, canonical forms, orders, h-vectors."""

import itertools
import math

import pytest

from crossflips.complexes import (
    Complex,
    are_isomorphic,
    delete_subcomplex,
    face,
    h_vector,
    is_induced,
    join,
)
from crossflips.diamond import (
    EmptyIndexSet,
    HintMissing,
    HintNotAFacet,
    IndexSetViolatesPrecondition,
    InvalidSequence,
    MismatchedGamma,
    absolute_shelling_order,
    canonicalize,
    char_vector,
    complement_index,
    cross_polytope,
    cross_polytope_on,
    deg_lex_key,
    deg_lex_less,
    decompose_rho_sigma,
    decompose_zero,
    diamond,
    diamond_closed_form,
    gamma,
    h_vector_formula,
    initial_facet,
    relative_shelling_order,
    simplex_boundary,
)
from crossflips.shelling import verify_certificate


def all_index_sets(d, top):
    for r in range(1, top + 2):
        yield from itertools.combinations(range(top + 1), r)


def test_generators():
    assert cross_polytope(1).n_facets == 4
    c2 = cross_polytope(2)
    assert c2.n_facets == 8 and len(c2.vertices) == 6
    assert simplex_boundary(2).n_facets == 4
    assert gamma(2, [3]) == Complex([face(0, 1, 2)])
    assert gamma(2, [0, 1, 2, 3]) == simplex_boundary(2)
    assert gamma(2, [0, 1]) == Complex([face(1, 2, 3), face(0, 2, 3)])
    with pytest.raises(EmptyIndexSet):
        gamma(2, [])


def test_diamond_examples():
    assert diamond(gamma(2, [3]), 2) == Complex([face(0, 1, 2)])
    full = diamond(simplex_boundary(2), 2)
    assert are_isomorphic(full, cross_polytope(2)) is not None
    d1 = diamond(gamma(3, [1]), 3)
    assert d1.n_facets == 4
    for f in d1.facets:
        assert face(0, "v1") <= f


def test_diamond_equals_closed_form_exhaustive():
    for d in (1, 2, 3):
        for idx in all_index_sets(d, d + 1):
            assert diamond(gamma(d, idx), d) == diamond_closed_form(d, idx), idx


def test_closed_form_small_cases():
    d0 = diamond_closed_form(2, [0])
    assert d0.n_facets == 4 and all(face("v0") <= f for f in d0.facets)
    assert diamond_closed_form(3, [3]) == Complex([face(0, 1, 2, "v3")])
    assert diamond_closed_form(2, [1, 2]) == Complex(
        [face(0, "v1", 2), face(0, "v1", "v2"), face(0, 1, "v2")]
    )
    # the join description: simplex part times smaller cross-polytope ring
    want = join(Complex([face(0, "v1")]), cross_polytope_on([2]))
    assert diamond_closed_form(2, [1]) == want


def test_facet_count_powers_of_two():
    for d in range(6):
        for ell in range(d + 1):
            assert diamond_closed_form(d, [ell]).n_facets == 2 ** (d - ell)
        assert diamond_closed_form(d, [d + 1]).n_facets == 1


def test_canonicalize():
    assert canonicalize(2, [3]) == (2,)
    assert canonicalize(2, [0, 2, 3]) == (0, 1)
    assert canonicalize(2, [1]) == (1,)
    assert canonicalize(3, [2, 3, 4]) == (1,)
    with pytest.raises(EmptyIndexSet):
        canonicalize(2, [])
    with pytest.raises(ValueError):
        canonicalize(2, [0, 1, 2, 3])


def test_canonicalize_preserves_isomorphism_type():
    for d in (1, 2, 3):
        for idx in all_index_sets(d, d + 1):
            if len(idx) == d + 2:
                continue
            canon = canonicalize(d, idx)
            a = diamond_closed_form(d, idx)
            b = diamond_closed_form(d, canon)
            assert are_isomorphic(a, b) is not None, (idx, canon)


def test_complement_index():
    assert complement_index(2, [1]) == (0, 1)
    assert complement_index(2, [2]) == (0, 1, 2)
    assert complement_index(2, [0]) == (0,)
    for d in (1, 2, 3):
        for idx in all_index_sets(d, d):
            comp = complement_index(d, idx)
            assert complement_index(d, comp) == idx


def test_complement_complex_is_isomorphic():
    for d in (1, 2, 3):
        for idx in all_index_sets(d, d):
            dc = diamond_closed_form(d, idx)
            rest = delete_subcomplex(cross_polytope(d), dc)
            comp = diamond_closed_form(d, complement_index(d, idx))
            assert are_isomorphic(rest, comp) is not None, idx


def test_char_vector_and_order():
    f0 = face("v0", 1, 2)
    assert char_vector(2, 0, f0, f0) == (0, 0)
    g = face("v0", "v1", 2)
    assert char_vector(2, 0, f0, g) == (1, 0)
    with pytest.raises(MismatchedGamma):
        char_vector(2, 0, f0, face(0, 1, "v2"))
    block = sorted(
        diamond_closed_form(2, [0]).facets, key=deg_lex_key(2, 0, f0)
    )
    assert block == [
        face("v0", 1, 2),
        face("v0", 1, "v2"),
        face("v0", "v1", 2),
        face("v0", "v1", "v2"),
    ]
    assert deg_lex_less(2, 0, f0, face("v0", 1, "v2"), face("v0", "v1", 2))


def test_initial_facet_formula():
    assert initial_facet(2, (1, 2), 2) == face(0, 1, "v2")
    assert initial_facet(3, (2, 0, 3), 2) == face("v0", 1, "v2", "v3")
    hint = face(0, "v1", 2)
    assert initial_facet(2, (1, 2), 1, boundary_facet_hint=hint) == hint
    with pytest.raises(HintMissing):
        initial_facet(2, (1, 2), 1)
    with pytest.raises(HintNotAFacet):
        initial_facet(2, (1, 2), 1, boundary_facet_hint=face(0, 1, 2))
    with pytest.raises(InvalidSequence):
        initial_facet(2, (1, 3, 2), 2)


def test_absolute_shelling_order_examples():
    cert = absolute_shelling_order(2, [0])
    assert [len(r) for r in cert.restrictions] == [0, 1, 1, 2]
    verify_certificate(diamond_closed_form(2, [0]), cert)

    cert = absolute_shelling_order(2, [3])
    assert len(cert.order) == 1 and cert.restrictions == (frozenset(),)

    cert = absolute_shelling_order(2, [0, 1, 2, 3])
    hist = [0] * 4
    for r in cert.restrictions:
        hist[len(r)] += 1
    assert hist == [1, 3, 3, 1]
    verify_certificate(cross_polytope(2), cert)


def test_absolute_shelling_order_exhaustive():
    for d in (1, 2, 3):
        for idx in all_index_sets(d, d + 1):
            cert = absolute_shelling_order(d, idx)
            verify_certificate(diamond_closed_form(d, idx), cert)


def test_relative_shelling_block_structure():
    # the 0;1,2-sequence shells its first block before the ascending rest,
    # reading the certificate backwards
    from crossflips.diamond import block_of_facet

    seq = (1, 0, 2)
    ridge = face(0, 2)
    cert = relative_shelling_order(2, seq, ridge)
    assert len(cert.order) == 7
    removal = list(reversed(cert.order))
    blocks = [block_of_facet(2, f) for f in removal]
    assert blocks == [1, 1, 0, 0, 0, 0, 2]


def test_h_vector_formula():
    assert h_vector_formula(2, [0]) == (1, 2, 1, 0)
    assert h_vector_formula(2, [2]) == (1, 0, 0, 0)
    assert h_vector_formula(3, [0, 2]) == (1, 4, 4, 1, 0)
    for d in (1, 2, 3):
        for idx in all_index_sets(d, d + 1):
            got = h_vector_formula(d, idx)
            assert got == h_vector(diamond_closed_form(d, idx)), idx
            if max(idx) <= d:
                # top entries vanish for canonical index sets
                for ell in range(d + 2):
                    if ell > d - min(idx):
                        assert got[ell] == 0


def test_complement_identity():
    for d in (1, 2, 3):
        cd = cross_polytope(d)
        for idx in all_index_sets(d, d):
            dc = diamond_closed_form(d, idx)
            hd = h_vector(dc)
            hc = h_vector(delete_subcomplex(cd, dc))
            for i in range(d + 2):
                assert hd[i] + hc[d + 1 - i] == math.comb(d + 1, i), (idx, i)


def test_decompose_rho_sigma():
    for d in (2, 3, 4):
        for idx in all_index_sets(d, d - 1):
            part_r, part_s, rho, sigma = decompose_rho_sigma(d, idx)
            whole = diamond_closed_form(d, idx)
            assert Complex(part_r.facets | part_s.facets) == whole
            inter = part_r.all_faces() & part_s.all_faces()
            lower = diamond_closed_form(d - 1, idx)
            assert inter == lower.all_faces()
            assert is_induced(whole, part_r)
            assert is_induced(whole, part_s)
    with pytest.raises(IndexSetViolatesPrecondition):
        decompose_rho_sigma(2, [2])


def test_decompose_zero():
    from crossflips.complexes import relabel

    for d in (2, 3, 4):
        for idx in all_index_sets(d, d - 1):
            full = tuple(sorted({0, *idx}))
            if len(full) < 2:
                continue
            rest, zero, pi = decompose_zero(d, full)
            whole = diamond_closed_form(d, full)
            assert Complex(rest.facets | zero.facets) == whole
            inter = rest.all_faces() & zero.all_faces()
            shifted = tuple(i - 1 for i in full if i != 0)
            lower = relabel(diamond_closed_form(d - 1, shifted), pi)
            assert inter == lower.all_faces()
            assert is_induced(whole, zero)
    with pytest.raises(IndexSetViolatesPrecondition):
        decompose_zero(2, [1])
    with pytest.raises(IndexSetViolatesPrecondition):
        decompose_zero(2, [0])


def test_package_exposes_the_diamond_module():
    import sys

    import crossflips
    import crossflips.diamond as dm

    assert crossflips.diamond is sys.modules["crossflips.diamond"] is dm
    assert dm.cross_polytope(2) == cross_polytope(2)
    assert dm.diamond is diamond
