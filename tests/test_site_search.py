"""Flip-site search against the former ridge-index search, kept as an oracle.

`former_sites` is the site search as it stood before the facet-neighbour
table and the integer-indexed flip plan: a ridge walk over abstract vertex
labels that looks each image ridge up in a ridge -> facets index, and
inducedness decided by the public `is_induced` on a built `Complex`.  The
new search must return the same sites, with the same embeddings in the same
insertion order, in the same order.  It must do so both where each search
walks the first vertex order of each root orbit alone and where it walks
every order; the tests spy on the plans' searches to tell which.
"""

import collections
import functools
import itertools
import math
import operator
import random

import pytest

from crossflips import moves
from crossflips import catalog
from crossflips.catalog import enumerate_basic_flips, stacked_cross_sphere_colored, verify_pentagon
from crossflips.cli import WalkConfig, run_walk
from crossflips.complexes import (
    Complex,
    are_isomorphic,
    face,
    is_induced,
    pair_index,
    partner,
    sorted_face,
)
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
        spec = _check_index_set(indices, d)
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


def _spy_searches(monkeypatch, d):
    """Record, for every search a class plan of dimension d starts, the
    plan, its roots and the mask it was given."""
    calls = []
    for spec in _specs(d):
        plan = moves._flip_plan(d, spec)

        def spied(nb, roots, colour, stars, mask=None, plan=plan, search=plan.search):
            calls.append((plan, list(roots), mask))
            return search(nb, calls[-1][1], colour, stars, mask)

        monkeypatch.setattr(plan, "search", spied)
    return calls


def _assert_orbits_walked(d, calls):
    """Every search walked its plan's marked orders, fewer in all than
    every order of every root."""
    assert calls and all(mask is plan.mask for plan, _roots, mask in calls)
    every = math.factorial(d + 1)
    walked = sum(len(roots) * (every if mask is None else sum(mask))
                 for _plan, roots, mask in calls)
    assert walked < sum(len(roots) for _plan, roots, _mask in calls) * every


def _assert_orbit_path(d, calls):
    """Every search was given its plan's mask, and the searches walked
    fewer orders in all than the full loop when some search has a root; a
    search with no root walks nothing."""
    if any(roots for _plan, roots, _mask in calls):
        _assert_orbits_walked(d, calls)
    else:
        assert calls and all(mask is plan.mask for plan, _roots, mask in calls)


def _assert_every_order_walked(calls):
    """Every search walked every order of every root."""
    assert calls and all(mask is None for _plan, _roots, mask in calls)


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


def test_a_d4_walk_state_matches_the_former_search(monkeypatch):
    # d=4 has the longest compiled walks: 31 classes, up to 30 steps; every
    # search walks the first order of each root orbit alone
    cur, col, rows = run_walk(WalkConfig(steps=1, seed=1, dimension=4))
    assert cur.n_facets == 60 and rows[0]["flip_index"] == "3"
    calls = _spy_searches(monkeypatch, 4)
    assert assert_same_sites(cur, col, _specs(4)) > 0
    _assert_orbits_walked(4, calls)


def test_ridge_in_three_facets_and_boundary_match_the_former_search(monkeypatch):
    stacked, col = stacked_cross_sphere_colored(3, 2)
    octa = cross_polytope(2)
    cases = [
        # a fin triangle on an edge: that edge lies in three facets, so every
        # order of every root is walked
        (Complex(list(octa.facets) + [face("0", "1", "z")]), dict(standard_coloring(2), z=2),
         _assert_every_order_walked),
        (Complex(list(stacked.facets) + [face("0", "1", "z")]), dict(col, z=2),
         _assert_every_order_walked),
        # boundary ridges: the octahedron less a facet, every third facet of
        # a stacked sphere; a ridge in one facet keeps the root orbits
        (Complex(sorted(octa.facets, key=sorted_face)[1:]), standard_coloring(2),
         functools.partial(_assert_orbits_walked, 2)),
        (Complex(sorted(stacked.facets, key=sorted_face)[2::3]), col,
         functools.partial(_assert_orbits_walked, 2)),
    ]
    calls = _spy_searches(monkeypatch, 2)
    for c, coloring, walked in cases:
        del calls[:]
        assert_same_sites(c, coloring, _specs(2))
        walked(calls)


def test_improper_partial_and_non_pure_colourings_match_the_former_search(monkeypatch):
    # on a complex with no ridge in three facets every search walks the
    # root orbits, whatever the colouring and whether or not it is pure
    rng = random.Random(13)
    stacked, col = stacked_cross_sphere_colored(4, 2)
    verts = sorted(stacked.vertices)
    partial = {v: k for v, k in col.items() if v != verts[3]}
    monochrome = {v: 0 for v in verts}
    scrambled = {v: rng.randrange(3) for v in verts}
    calls = _spy_searches(monkeypatch, 2)
    for coloring in (partial, monochrome, scrambled, {}):
        del calls[:]
        assert_same_sites(stacked, coloring, _specs(2))
        _assert_orbit_path(2, calls)
    s3, _ = stacked_cross_sphere_colored(2, 3)
    calls3 = _spy_searches(monkeypatch, 3)
    assert_same_sites(s3, {v: rng.randrange(4) for v in s3.vertices}, _specs(3))
    _assert_orbit_path(3, calls3)
    non_pure = Complex([face("0", "1", "2"), face("v0", "1", "2"), face("0", "v1"),
                        face("x", "y")])
    coloring = {"0": 0, "1": 1, "2": 2, "v0": 0, "v1": 1, "x": 0, "y": 1}
    del calls[:]
    assert assert_same_sites(non_pure, coloring, _specs(2)) > 0
    _assert_orbit_path(2, calls)
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


def test_a_site_across_a_ridge_in_three_facets_is_applicable_but_not_found():
    """The search crosses only ridges lying in exactly two facets.  With a
    triangle {0, v1, x} on the octahedron's edge {0, v1}, the identity
    site of class (1,), whose image has that edge as its interior ridge,
    applies, but the search does not find it."""
    octa = cross_polytope(2)
    c = Complex(list(octa.facets) + [face("0", "v1", "x")])
    coloring = dict(standard_coloring(2), x=1)
    abstract = diamond_closed_form(2, (1,))
    site = CrossFlip(d=2, spec=(1,), embedding={v: v for v in abstract.vertices})
    assert apply_cross_flip_detailed(c, site).complex.n_facets == 13
    found = find_cross_flip_sites(c, coloring, (1,))
    assert len(found) == 11
    assert site.image_facets() not in [s.image_facets() for s in found]
    assert listed(found) == listed(former_sites(c, coloring, (1,)))


# ---------------------------------------------------------------------------
# one vertex order per root orbit


def _root_group(d, plan):
    """The permutations of the plan's root slots that extend to an
    automorphism of its diamond complex, by `are_isomorphic` with the root
    facet pinned."""
    root = plan.order[:d + 1]
    return [perm for perm in itertools.permutations(range(d + 1))
            if are_isomorphic(plan.abstract, plan.abstract,
                              fixed={root[i]: root[j] for i, j in enumerate(perm)}) is not None]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_each_root_orbit_has_one_marked_order(d):
    """A plan marks (d+1)!/|G| orders, the first of each orbit p o G of
    its root stabiliser G, counted here independently; a plan with a
    trivial G keeps no mask."""
    orders = list(itertools.permutations(range(d + 1)))
    sizes = {}
    for spec in _specs(d):
        plan = moves._flip_plan(d, spec)
        group = _root_group(d, plan)
        sizes[spec] = len(group)
        if len(group) == 1:
            assert plan.mask is None, spec
            continue
        assert sum(plan.mask) == math.factorial(d + 1) // len(group), spec
        firsts = [p == min(tuple(p[i] for i in s) for s in group) for p in orders]
        assert list(map(bool, plan.mask)) == firsts, spec
    if d == 2:
        assert sizes == {(2,): 6, (1,): 2, (0,): 2, (0, 2): 2, (0, 1, 2): 2,
                         (1, 2): 1, (0, 1): 1}


def former_root_orbits(abstract, neighbours, order, steps, d):
    """The root-orbit mask as it stood before the checked swaps: every
    permutation within the blocks of root slots extended along the walk
    *steps* by an interpreted walk, the completing ones kept as the root
    stabiliser G, and the first order of each orbit p o G marked by a
    sweep; None when G is trivial."""
    stars = abstract._star_index()
    blocks = collections.defaultdict(list)
    for i, v in enumerate(order[:d + 1]):
        blocks[len(stars[v]), len(stars.get(partner(v), ()))].append(i)
    root = frozenset(order[:d + 1])
    group = []
    for parts in itertools.product(*map(itertools.permutations, blocks.values())):
        perm = [0] * (d + 1)
        for block, part in zip(blocks.values(), parts):
            for i, j in zip(block, part):
                perm[i] = j
        img = [order[i] for i in perm] + [None] * (len(order) - d - 1)
        facets = [root]
        for x_new, x_drop, origin in steps:
            hit = neighbours[facets[origin]].get(img[x_drop])
            if hit is None:
                break
            facets.append(hit[0])
            img[x_new] = hit[1]
        else:
            group.append(operator.itemgetter(*perm))
    if len(group) == 1:
        return None
    perms = list(itertools.permutations(range(d + 1)))
    rank = dict(zip(perms, range(len(perms))))
    mask, seen = bytearray(len(perms)), bytearray(len(perms))
    for k, p in enumerate(perms):
        if not seen[k]:
            mask[k] = 1
            for s in group:
                seen[rank[s(p)]] = 1
    return bytes(mask)


def _former_mask(d, plan):
    ordered, neighbours, _thin = view = moves._site_view(plan.abstract)
    order, steps = moves._compile_walk(plan.abstract, ordered[0][1], view)
    assert order == plan.order
    return former_root_orbits(plan.abstract, neighbours, order, steps, d)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_checked_swaps_mark_the_orders_the_stabiliser_marked(d):
    """On every diamond complex the swaps of neighbouring block slots
    generate the whole root stabiliser: each plan's mask is the one the
    former enumeration of the stabiliser built."""
    for spec in _specs(d):
        plan = moves._flip_plan(d, spec)
        assert plan.mask == _former_mask(d, plan), spec


@pytest.mark.parametrize("d,facets,marks", [
    # one block of three root slots: neither neighbouring swap checks,
    # while swapping slots 0 and 2 is an automorphism; the full loop is kept
    (2, ["0 1 2", "0 1 v2", "0 v1 v2", "v0 1 2", "v0 v1 2"], (3, None)),
    # one block of four root slots: the swaps (0, 1) and (2, 3) check and
    # (1, 2) does not, generating half the root stabiliser
    (3, ["0 1 2 3", "0 1 2 v3", "0 1 v2 3", "0 1 v2 v3", "0 v1 2 3", "v0 1 2 3",
         "v0 v1 2 3"], (3, 6)),
], ids=["d2-none-checks", "d3-half-the-stabiliser"])
def test_a_failing_swap_keeps_the_images(d, facets, marks):
    """A pure subcomplex of the cross-polytope boundary with a same-block
    swap that is no automorphism: its checked swaps generate a proper
    subgroup of the root stabiliser, whose finer orbits mark every order
    the former mask marks, and the search yields the same images with the
    mask as with the full loop over a stacked sphere.  No non-face is
    tested, so every colour-consistent image counts."""
    abstract = Complex([face(*f.split()) for f in facets])
    ordered, neighbours, _thin = view = moves._site_view(abstract)
    order, steps = moves._compile_walk(abstract, ordered[0][1], view)
    search = moves._compile_site_search(order, steps, d, (), "<test search>")
    mask = moves._root_orbits(abstract, order, d)
    former = former_root_orbits(abstract, neighbours, order, steps, d)
    assert (sum(former), mask and sum(mask)) == marks
    every = bytes([1]) * math.factorial(d + 1)
    assert all(new >= old for new, old in zip(mask or every, former))
    c, coloring = stacked_cross_sphere_colored(3, d)
    ordered, nb, thin = moves._site_view(c)
    roots, stars = moves._rainbow_roots(ordered, coloring, d), c._star_index()
    assert thin
    images = list(search(nb, roots, coloring.get, stars))
    assert images
    assert list(search(nb, roots, coloring.get, stars, mask)) == images
    assert list(search(nb, roots, coloring.get, stars, former)) == images


def test_building_a_plan_runs_no_search(monkeypatch):
    """A plan checks its root swaps on its diamond complex's facet set:
    building every plan at d=1..4 runs none of the searches it compiles,
    and the masks are the cached plans'.  The spy is live: the first
    embedding through a plan built under it runs that plan's search."""
    runs = []
    compile_search = moves._compile_site_search

    def spied_compile(order, steps, d, nonfaces, name):
        search = compile_search(order, steps, d, nonfaces, name)

        def spied(*args):
            runs.append(name)
            return search(*args)

        return spied

    monkeypatch.setattr(moves, "_compile_site_search", spied_compile)
    built = [moves._FlipPlan(d, spec) for d in range(1, 5) for spec in _specs(d)]
    assert runs == []
    plan = built[-1]
    assert moves._image_embedding(plan, plan.abstract) is not None
    assert runs == ["<site search d=4 I=%s>" % (_specs(4)[-1],)]
    monkeypatch.undo()
    assert [p.mask for p in built] == [moves._flip_plan(d, spec).mask
                                      for d in range(1, 5) for spec in _specs(d)]


@pytest.mark.parametrize("d", [2, 3])
def test_image_embedding_refuses_a_ridge_in_three_facets_with_the_mask(monkeypatch, d):
    """A complex with a class's facet count and size whose ridge lies in
    three facets is no image: every class with a mask embeds nothing onto
    it, walking its marked orders as when walking every order."""
    masks = []
    tried = 0
    for spec in _specs(d):
        plan = moves._flip_plan(d, spec)
        facets = sorted(plan.abstract.facets, key=sorted_face)
        if plan.mask is None or len(facets) < 3:
            continue
        ridge = next(facets[0] & g for g in facets if len(facets[0] & g) == d)
        drop = next(g for g in facets if not ridge <= g)
        k = Complex([g for g in facets if g != drop] + [ridge | {"x"}])
        assert k.n_facets == len(facets) and not moves._site_view(k)[2]
        want, search = plan.mask, plan.search

        def spied(nb, roots, colour, stars, mask=None, search=search):
            masks.append(mask)
            return search(nb, roots, colour, stars, mask)

        monkeypatch.setattr(plan, "search", spied)
        assert moves._image_embedding(plan, k) is None
        monkeypatch.setattr(plan, "mask", None)
        assert moves._image_embedding(plan, k) is None
        assert masks[-2:] == [want, None]
        monkeypatch.undo()
        tried += 1
    assert tried > 0


def test_root_orbits_match_the_former_search_on_late_d3_walk_states(monkeypatch):
    calls = _spy_searches(monkeypatch, 3)
    specs = _specs(3)
    rng = random.Random(5)
    cur, col = cross_polytope(3), standard_coloring(3)
    for step in range(1, 13):
        sites = [s for spec in specs for s in find_cross_flip_sites(cur, col, spec)]
        res = apply_cross_flip_detailed(cur, rng.choice(sites))
        cur, col = res.complex, extend_coloring_after_cross_flip(col, res)
        if step % 4 == 0:
            del calls[:]
            assert assert_same_sites(cur, col, specs) > 0
            _assert_orbits_walked(3, calls)
    assert cur.n_facets > 60


def test_root_orbits_match_the_former_search_on_another_d4_state(monkeypatch):
    # the seed-1 state of test_a_d4_walk_state_matches_the_former_search is
    # the other one
    cur, col, rows = run_walk(WalkConfig(steps=1, seed=0, dimension=4))
    assert cur.n_facets == 48 and rows[0]["flip_index"] == "1"
    calls = _spy_searches(monkeypatch, 4)
    assert assert_same_sites(cur, col, _specs(4)) > 0
    _assert_orbits_walked(4, calls)


def test_root_orbits_hold_for_a_proper_colouring_with_more_colours(monkeypatch):
    """Every facet rainbow, with a fourth colour on one vertex: its partner
    across a ridge has another colour, so some walks fail the colour test,
    and all orders of an orbit fail it alike."""
    stacked, col = stacked_cross_sphere_colored(4, 2)
    recoloured = dict(col, **{sorted(stacked.vertices)[0]: 3})
    calls = _spy_searches(monkeypatch, 2)
    assert assert_same_sites(stacked, recoloured, _specs(2)) > 0
    _assert_orbits_walked(2, calls)
    del calls[:]
    assert assert_same_sites(stacked, col, _specs(2)) > 0
    _assert_orbits_walked(2, calls)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_image_embedding_is_the_same_with_and_without_root_orbits(monkeypatch, d):
    """On every chord star the ambient construction embeds onto, the
    embedding found from the first order of each root orbit is the one the
    walk over every order finds."""
    embedded = []
    image_embedding = moves._image_embedding

    def both(plan, k):
        got = image_embedding(plan, k)
        mask, plan.mask = plan.mask, None
        try:
            assert image_embedding(plan, k) == got
        finally:
            plan.mask = mask
        embedded.append(mask is not None)
        return got

    monkeypatch.setattr(catalog, "_image_embedding", both)
    for r in range(1, d + 3):
        for idx in itertools.combinations(range(d + 2), r):
            catalog.ambient_with_induced_diamond_any(d, idx)
    if d > 1:
        assert any(embedded)
