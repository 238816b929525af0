"""Inducedness by minimal non-faces, against brute force and facet traces.

The minimal non-faces of a diamond complex are read from its index set in
closed form (`diamond.minimal_nonfaces`), and a flip class's plan lists
them once (`_FlipPlan.nonfaces`).  An embedded image, every facet of it a
face of the ambient, is induced exactly when no listed non-face maps to a
face of the ambient.  These tests check the closed form and the plan's
list against every vertex subset, the verdict against the public
facet-trace `is_induced`, and the site lists of seeded walks against a
search that decides each image by facet traces.
"""

import itertools
import random

import pytest

from crossflips import moves
from crossflips.catalog import ambient_with_induced_diamond_any, enumerate_basic_flips
from crossflips.complexes import Complex, is_induced, pair_index
from crossflips.diamond import (
    cross_polytope,
    diamond_closed_form,
    minimal_nonfaces,
    standard_coloring,
)
from crossflips.moves import (
    CrossFlip,
    NotInduced,
    _flip_plan,
    apply_cross_flip_detailed,
    extend_coloring_after_cross_flip,
    find_cross_flip_sites,
)


def _specs(d):
    return [fc.canonical_index for fc in enumerate_basic_flips(d)]


def brute_minimal_nonfaces(c: Complex) -> set:
    """Every vertex subset that is no face while each of its ridges is."""
    faces = c.all_faces()
    vs = sorted(c.vertices)
    return {
        n
        for r in range(len(vs) + 1)
        for n in map(frozenset, itertools.combinations(vs, r))
        if n not in faces and all(n - {v} in faces for v in n)
    }


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_closed_form_lists_exactly_the_minimal_nonfaces(d):
    """For every nonempty I in {0..d+1}: one-index sets, sets with d+1 and
    the full set (the whole cross-polytope boundary) included."""
    for r in range(1, d + 3):
        for idx in itertools.combinations(range(d + 2), r):
            got = minimal_nonfaces(d, idx)
            assert len(set(got)) == len(got), idx
            assert set(got) == brute_minimal_nonfaces(diamond_closed_form(d, idx)), idx
            # partner pairs first, then sets with one token per pair at most
            pairs = [len({pair_index(v) for v in n}) == 1 for n in got]
            assert pairs == sorted(pairs, reverse=True), idx
            assert all(len(n) == 2 for n, p in zip(got, pairs) if p), idx


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_plan_lists_exactly_the_minimal_nonfaces(d):
    for spec in _specs(d):
        plan = _flip_plan(d, spec)
        listed = [frozenset(plan.order[i] for i in n) for n in plan.nonfaces]
        assert len(set(listed)) == len(listed), spec
        assert set(listed) == brute_minimal_nonfaces(plan.abstract), spec
        assert list(plan.nonfaces) == sorted(plan.nonfaces, key=lambda t: (len(t), t))
        assert all(list(n) == sorted(n) for n in plan.nonfaces)
        # a class-(d) image is one facet: nothing to test
        assert (plan.nonfaces == ()) == (len(plan.abstract.facets) == 1), spec


def assert_verdict_matches_is_induced(c: Complex, d: int, spec: tuple) -> bool:
    """The non-face verdict and the application's outcome for the identity
    embedding of the class's diamond complex, against `is_induced`; the
    image must be a subcomplex of c."""
    plan = _flip_plan(d, spec)
    want = is_induced(c, plan.abstract)
    img = list(plan.order)
    assert moves._embeds_a_nonface(c._star_index(), img, plan.nonfaces) is (not want), spec
    flip = CrossFlip(d=d, spec=spec, embedding={v: v for v in plan.abstract.vertices})
    if want:
        apply_cross_flip_detailed(c, flip)
    else:
        with pytest.raises(NotInduced, match="not induced"):
            apply_cross_flip_detailed(c, flip)
    return want


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_verdict_matches_is_induced_in_cross_polytopes_and_ambients(d):
    octa = cross_polytope(d)
    verdicts = {assert_verdict_matches_is_induced(octa, d, spec) for spec in _specs(d)}
    assert verdicts == {True, False}
    verdicts.clear()
    for spec in _specs(d):
        amb = ambient_with_induced_diamond_any(d, spec)[0]
        assert assert_verdict_matches_is_induced(amb, d, spec), spec
        for other in _specs(d):
            if _flip_plan(d, other).abstract.is_subcomplex_of(amb):
                verdicts.add(assert_verdict_matches_is_induced(amb, d, other))
    assert verdicts == {True, False}


def unfiltered_sites(c, coloring, spec, monkeypatch):
    """The site search with every colour-consistent image kept.  Images are
    deduplicated before inducedness is read, so filtering this list by
    facet traces keeps the order and the first embedding of each image."""
    with monkeypatch.context() as m:
        m.setattr(moves, "_embeds_a_nonface", lambda stars, img, nonfaces: False)
        return find_cross_flip_sites(c, coloring, spec)


def listed(sites):
    return [(s.spec, list(s.embedding.items())) for s in sites]


@pytest.mark.parametrize("d,seed,steps", [(2, 3, 40), (2, 8, 40), (3, 2, 6)])
def test_walk_site_lists_match_a_facet_trace_search(monkeypatch, d, seed, steps):
    specs = _specs(d)
    rng = random.Random(seed)
    cur, col = cross_polytope(d), standard_coloring(d)
    rejected = 0
    for _ in range(steps + 1):
        sites = []
        for spec in specs:
            every = unfiltered_sites(cur, col, spec, monkeypatch)
            want = [s for s in every if is_induced(cur, Complex(s.image_facets()))]
            got = find_cross_flip_sites(cur, col, spec)
            assert listed(got) == listed(want), spec
            rejected += len(every) - len(got)
            sites.extend(got)
        res = apply_cross_flip_detailed(cur, rng.choice(sites))
        cur, col = res.complex, extend_coloring_after_cross_flip(col, res)
    assert rejected > 0
