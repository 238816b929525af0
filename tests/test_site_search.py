"""Flip-site search against the former ridge-index search, kept as an oracle.

`former_sites` is the site search as it stood before the facet-neighbour
table and the integer-indexed flip plan: a ridge walk over abstract vertex
labels that looks each image ridge up in a ridge -> facets index, and
inducedness decided by the public `is_induced` on a built `Complex`.  The
new search must return the same sites, with the same embeddings in the same
insertion order, in the same order.
"""

import itertools
import random

import pytest

from crossflips import moves
from crossflips.catalog import enumerate_basic_flips, stacked_cross_sphere_colored, verify_pentagon
from crossflips.cli import WalkConfig, run_walk
from crossflips.complexes import Complex, face, is_induced, pair_index, sorted_face
from crossflips.diamond import _check_index_set, cross_polytope, diamond_closed_form, standard_coloring
from crossflips.moves import (
    CrossFlip,
    apply_cross_flip_detailed,
    extend_coloring_after_cross_flip,
    find_cross_flip_sites,
    has_cross_flip_site,
)


def former_sites(c, coloring, indices):
    d = c.dimension
    if d is None:
        return []
    try:
        spec = _check_index_set(d, indices, d)
    except ValueError:
        return []
    abstract = diamond_closed_form(d, spec)
    afacets = sorted(abstract.facets, key=sorted_face)
    root = afacets[0]
    walk = []
    placed = {root}
    frontier = [root]
    while frontier:
        cur = frontier.pop(0)
        for nxt in afacets:
            if nxt in placed:
                continue
            shared = cur & nxt
            if len(shared) == d:
                (x_new,) = nxt - shared
                walk.append((nxt, x_new, tuple(shared), cur))
                placed.add(nxt)
                frontier.append(nxt)
    root_sorted = sorted_face(root)
    pair_of = {v: pair_index(v) for v in abstract.vertices}
    ordered = sorted((sorted_face(h), h) for h in c.facets)
    ridges = {}
    for _key, h in ordered:
        for x in h:
            ridges.setdefault(h - {x}, []).append(h)

    out = []
    seen_images = set()
    for target_sorted, target in ordered:
        # The former search also rooted the walk at the smaller facets of a
        # non-pure complex, where it raised KeyError or yielded an
        # embedding missing abstract vertices; such a facet is no image.
        if len(target) != d + 1:
            continue
        for perm in itertools.permutations(target_sorted):
            emb = dict(zip(root_sorted, perm))
            fmap = {root: target}
            ok = True
            for new, x_new, shared, origin in walk:
                img_ridge = frozenset([emb[v] for v in shared])
                cands = ridges.get(img_ridge, ())
                if len(cands) != 2:
                    ok = False
                    break
                img_new = cands[1] if cands[0] == fmap[origin] else cands[0]
                (w_new,) = img_new - img_ridge
                if x_new in emb:
                    if emb[x_new] != w_new:
                        ok = False
                        break
                elif w_new in emb.values():
                    ok = False
                    break
                else:
                    emb[x_new] = w_new
                fmap[new] = img_new
            if not ok:
                continue
            image = frozenset(fmap.values())
            if image in seen_images or len(fmap) != len(image):
                continue
            pair_color = {}
            consistent = True
            for v, w in emb.items():
                col = coloring.get(w)
                if col is None or pair_color.setdefault(pair_of[v], col) != col:
                    consistent = False
                    break
            if not consistent or len(set(pair_color.values())) != len(pair_color):
                continue
            if not is_induced(c, Complex(image)):
                continue
            seen_images.add(image)
            out.append(CrossFlip(d=d, spec=spec, embedding=emb))
    return out


def listed(sites):
    return [(s.spec, list(s.embedding.items())) for s in sites]


def _specs(d):
    return [fc.canonical_index for fc in enumerate_basic_flips(d)]


def assert_same_sites(c, coloring, specs):
    total = 0
    for spec in specs:
        got = listed(find_cross_flip_sites(c, coloring, spec))
        assert got == listed(former_sites(c, coloring, spec)), spec
        total += len(got)
    return total


@pytest.mark.parametrize("d,seed,steps", [(2, 1, 30), (3, 5, 3)])
def test_every_step_of_a_seeded_walk_matches_the_former_search(d, seed, steps):
    specs = _specs(d)
    rng = random.Random(seed)
    cur, col = cross_polytope(d), standard_coloring(d)
    for _ in range(steps):
        assert assert_same_sites(cur, col, specs) > 0
        sites = [s for spec in specs for s in find_cross_flip_sites(cur, col, spec)]
        res = apply_cross_flip_detailed(cur, rng.choice(sites))
        cur, col = res.complex, extend_coloring_after_cross_flip(col, res)
    assert assert_same_sites(cur, col, specs) > 0


def test_a_d4_walk_state_matches_the_former_search():
    # d=4 has the longest compiled walks: 31 classes, up to 30 steps
    cur, col, rows = run_walk(WalkConfig(steps=1, seed=1, dimension=4))
    assert cur.n_facets == 60 and rows[0]["flip_index"] == "3"
    assert assert_same_sites(cur, col, _specs(4)) > 0


def test_ridge_in_three_facets_and_boundary_match_the_former_search():
    stacked, col = stacked_cross_sphere_colored(3, 2)
    octa = cross_polytope(2)
    cases = [
        # a fin triangle on an edge: that edge lies in three facets
        (Complex(list(octa.facets) + [face("0", "1", "z")]), dict(standard_coloring(2), z=2)),
        (Complex(list(stacked.facets) + [face("0", "1", "z")]), dict(col, z=2)),
        # boundary ridges: the octahedron less a facet, every third facet of
        # a stacked sphere
        (Complex(sorted(octa.facets, key=sorted_face)[1:]), standard_coloring(2)),
        (Complex(sorted(stacked.facets, key=sorted_face)[2::3]), col),
    ]
    for c, coloring in cases:
        assert_same_sites(c, coloring, _specs(2))


def test_improper_partial_and_non_pure_colourings_match_the_former_search():
    rng = random.Random(13)
    stacked, col = stacked_cross_sphere_colored(4, 2)
    verts = sorted(stacked.vertices)
    partial = {v: k for v, k in col.items() if v != verts[3]}
    monochrome = {v: 0 for v in verts}
    scrambled = {v: rng.randrange(3) for v in verts}
    for coloring in (partial, monochrome, scrambled, {}):
        assert_same_sites(stacked, coloring, _specs(2))
    s3, _ = stacked_cross_sphere_colored(2, 3)
    assert_same_sites(s3, {v: rng.randrange(4) for v in s3.vertices}, _specs(3))
    non_pure = Complex([face("0", "1", "2"), face("v0", "1", "2"), face("0", "v1"),
                        face("x", "y")])
    coloring = {"0": 0, "1": 1, "2": 2, "v0": 0, "v1": 1, "x": 0, "y": 1}
    assert assert_same_sites(non_pure, coloring, _specs(2)) > 0
    for spec in _specs(2):
        abstract = diamond_closed_form(2, spec)
        for site in find_cross_flip_sites(non_pure, coloring, spec):
            assert set(site.embedding) == abstract.vertices


@pytest.mark.parametrize("indices", [(), ("a",), (1.5,), ("a", 1), (5,), (-1,)],
                         ids=["empty", "text", "float", "mixed", "above-d", "negative"])
def test_an_index_set_that_names_no_class_has_no_site(indices):
    """An empty set, a non-integer entry and an entry outside 0..d name no
    class: both searches find nothing, and a walk skips the set as it skips
    a class with no site."""
    c, coloring = cross_polytope(2), standard_coloring(2)
    assert find_cross_flip_sites(c, coloring, indices) == []
    assert not has_cross_flip_site(c, coloring, indices)
    walked = run_walk(WalkConfig(steps=1, seed=0, dimension=2, allowed_flips=[(0,), indices]))
    alone = run_walk(WalkConfig(steps=1, seed=0, dimension=2, allowed_flips=[(0,)]))
    assert walked[0] == alone[0] and walked[2] == alone[2]


@pytest.mark.parametrize("d,classes", [(2, []), (2, [(0,)]), (3, [])],
                         ids=["d2-all", "d2-one", "d3-all"])
def test_a_walk_step_builds_its_rainbow_roots_once(monkeypatch, d, classes):
    """Every class of a step searches from one list of rainbow roots, built
    once per step whatever the number of classes."""
    want = run_walk(WalkConfig(steps=3, seed=4, dimension=d, allowed_flips=classes))
    built = []
    rainbow_roots = moves._rainbow_roots

    def counted(ordered, coloring, dim):
        built.append(ordered)
        return rainbow_roots(ordered, coloring, dim)

    monkeypatch.setattr(moves, "_rainbow_roots", counted)
    got = run_walk(WalkConfig(steps=3, seed=4, dimension=d, allowed_flips=classes))
    assert len(built) == 3 and len({id(c) for c in built}) == 3
    assert got[0] == want[0] and got[2] == want[2]


@pytest.mark.parametrize("d,steps", [(2, 5), (3, 3)])
def test_every_class_of_a_walk_step_shares_one_site_view(monkeypatch, d, steps):
    """A k-step walk over every class builds k site views, one of each
    step's complex, and walks as it does unpatched."""
    want = run_walk(WalkConfig(steps=steps, seed=6, dimension=d))
    viewed = []
    site_view = moves._site_view

    def counted(c):
        viewed.append(c)
        return site_view(c)

    monkeypatch.setattr(moves, "_site_view", counted)
    got = run_walk(WalkConfig(steps=steps, seed=6, dimension=d))
    assert len(viewed) == steps and len({id(c) for c in viewed}) == steps
    assert got[0] == want[0] and got[2] == want[2]


def test_verify_pentagon_builds_one_site_view_per_state(monkeypatch):
    """The pentagon's composition searches draw the sites of both allowed
    classes of a state from one site view of it: 11 states over the two
    readings, and the two complexes `_image_embedding` embeds onto (the
    star of the ambient's chord and the pentagon's complement), each
    viewed once.  The verdicts stay as they are unpatched."""
    want = verify_pentagon()
    viewed = []
    site_view = moves._site_view

    def counted(c):
        viewed.append(c)
        return site_view(c)

    monkeypatch.setattr(moves, "_site_view", counted)
    assert verify_pentagon() == want == (True, [
        "pentagon composition, forward reading: ok",
        "pentagon composition, reversed reading: ok"])
    assert len(viewed) == 13 and len({id(c) for c in viewed}) == 13
