"""Cross-flips applied from their class's exchange tables, against the
former construction.

`apply_cross_flip_detailed` reads a flip's image, its glued facets, the
per-vertex delta it hands `Complex._replaced` and the source of every fresh
colour from tables its class plan builds once (`moves._FlipPlan`).  The
reference kept here is the construction they replaced: the image and glued
facets built facet by facet from the abstract complexes, the exchange with
the delta `Complex._replaced` gathers itself, and each fresh colour read
through `partner`.  Every class at d = 1..4 is applied on its
`ambient_with_induced_diamond` and at every site of seeded walk states; a
non-pure ambient and a colouring with stale keys ride along.  Each
inherited slot is compared with a fresh `Complex`.

`extend_coloring_after_cross_flip` copies no key set when every key is
still a vertex; its former body, which diffed the keys against the result's
vertices on every flip, is kept as an order-exact oracle, at every site
above and along seeded stackings.
"""

import random

import pytest

from crossflips.catalog import ambient_with_induced_diamond, enumerate_basic_flips
from crossflips.complexes import Complex, _traces_are_faces, face, partner, vertex_key
from crossflips.diamond import cross_polytope, diamond_closed_form, standard_coloring
from crossflips.moves import (
    CrossFlip,
    _flip_plan,
    apply_cross_flip_detailed,
    extend_coloring_after_cross_flip,
    find_cross_flip_sites,
    fresh_vertices,
)


def former_apply(c, flip):
    """The former exchange of a flip that applies: (complex, vertex map,
    fresh labels, glued facets)."""
    d, spec = flip.d, flip.spec
    abstract = diamond_closed_form(d, spec)
    complement = diamond_closed_form(d, [i for i in range(d + 2) if i not in spec])
    total = {v: flip.embedding[v] for v in _flip_plan(d, spec).order}
    image = frozenset(frozenset(total[v] for v in f) for f in abstract.facets)
    unseen = sorted(complement.vertices - abstract.vertices, key=vertex_key)
    fresh = fresh_vertices(c, len(unseen))
    total.update(zip(unseen, fresh))
    glued = frozenset(frozenset(total[v] for v in f) for f in complement.facets)
    return c._replaced(image, glued), total, tuple(fresh), glued


def former_extension(coloring, res):
    """The former colouring extension, reading each source through `partner`."""
    fresh = set(res.fresh_vertices)
    out = dict(coloring)
    keys = coloring.keys()
    for v in (keys - res.complex.vertices) | (keys & fresh):
        del out[v]
    for v, w in res.vertex_map.items():
        if w in fresh:
            out[w] = coloring[res.vertex_map[partner(v)]]
    return out


def diffed_extension(coloring, res):
    """The former body of `extend_coloring_after_cross_flip`: every key
    diffed against the result's vertices and the fresh labels."""
    out = dict(coloring)
    keys = coloring.keys()
    for v in (keys - res.complex.vertices) | (keys & res.fresh_vertices):
        del out[v]
    out.update(zip(res.fresh_vertices, map(coloring.__getitem__, res.sources)))
    return out


def _w_indices(vertices):
    return [int(v[1:]) for v in vertices if v[:1] == "w" and v[1:].isdigit()]


def _w_top(vertices):
    return max(_w_indices(vertices), default=-1)


def assert_matches_former(c, flip, coloring):
    """One application against the former construction, on an ambient
    whose every slot is built, so that each is inherited."""
    c._top_w_label(), c._common_size()
    res = apply_cross_flip_detailed(c, flip)
    after, total, fresh, glued = former_apply(c, flip)
    assert res.complex == after
    assert list(res.vertex_map.items()) == list(total.items())
    assert res.fresh_vertices == fresh
    assert res.glued == glued
    assert res.complement_induced == _traces_are_faces(
        res.complex.facets, glued, frozenset().union(*glued))
    # stale keys: a vertex never in the complex and the first fresh label,
    # with a colour it will not get, after the others and before them; and
    # a colouring missing a vertex that no fresh colour is read from
    nxt = "w%d" % (_w_top(c.vertices) + 1)
    stale = {**coloring, nxt: 0, "zz": 0}
    gap = next((v for v in coloring if v not in res.sources), None)
    missing = {v: k for v, k in coloring.items() if v != gap}
    for col in (coloring, stale, {nxt: 0, **coloring}, missing):
        got = extend_coloring_after_cross_flip(col, res)
        assert list(got.items()) == list(former_extension(col, res).items())
        assert list(got.items()) == list(diffed_extension(col, res).items())
    built = Complex(res.complex.facets)
    new = res.complex
    assert new._stars == after._stars == built._star_index()
    assert new._vertices == after._vertices == built.vertices
    assert new._size == after._size
    assert new._size == (built._common_size() if c._size >= 0 else None)
    top = _w_top(c.vertices)
    top_left = top >= 0 and top not in _w_indices(built.vertices)
    if new._top_w is None:
        assert top_left and not fresh
    else:
        assert new._top_w == after._top_w == built._top_w_label()
    return res


def _specs(d):
    return [fc.canonical_index for fc in enumerate_basic_flips(d)]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_every_class_on_its_ambient(d):
    for spec in _specs(d):
        amb, col, emb = ambient_with_induced_diamond(d, spec)
        assert_matches_former(amb, CrossFlip(d=d, spec=spec, embedding=emb), col)


@pytest.mark.parametrize("d,steps,seed", [(1, 10, 1), (2, 12, 2), (3, 6, 3), (4, 3, 4)])
def test_every_site_of_seeded_walk_states(d, steps, seed):
    """Every site of every class at each state of a seeded walk, which then
    takes one of them at random."""
    cur, col = cross_polytope(d), standard_coloring(d)
    rng = random.Random(seed)
    applied, kept_every_key = set(), set()
    for _ in range(steps):
        results = []
        for spec in _specs(d):
            for site in find_cross_flip_sites(cur, col, spec):
                results.append(assert_matches_former(cur, site, col))
                applied.add(spec)
        kept_every_key.update(res.complex.vertices.issuperset(col) for res in results)
        res = rng.choice(results)
        cur, col = res.complex, extend_coloring_after_cross_flip(col, res)
    assert (d,) in applied
    # flips that remove a vertex leave a stale key and take the diff
    assert kept_every_key == {True, False}


def test_every_class_on_a_non_pure_ambient():
    """A disjoint edge beside each class's induced image: the ambient and
    the result have no common size, and the image stays induced."""
    d = 2
    for spec in _specs(d):
        amb, col, emb = ambient_with_induced_diamond(d, spec)
        c = Complex(list(amb.facets) + [face("p", "q")])
        res = assert_matches_former(c, CrossFlip(d=d, spec=spec, embedding=emb),
                                    dict(col, p=0, q=1))
        assert res.complex._common_size() == -1


def test_top_label_follows_fresh_labels_when_its_vertex_leaves():
    """Class (0,) drops the image of v0 and adds a fresh vertex: when v0's
    image holds the top label, the new top is the fresh label."""
    d = 2
    amb, col, emb = ambient_with_induced_diamond(d, (0,))
    c = Complex(f if emb["v0"] not in f else f - {emb["v0"]} | {"w7"} for f in amb.facets)
    emb = dict(emb, v0="w7")
    res = assert_matches_former(c, CrossFlip(d=d, spec=(0,), embedding=emb),
                                {("w7" if v == "v0" else v): k for v, k in col.items()})
    assert "w7" not in res.complex.vertices
    assert res.fresh_vertices == ("w8",) and res.complex._top_w == 8


@pytest.mark.parametrize("d", [1, 2, 3])
def test_image_facets_read_from_the_tables(d):
    """Every class's image, against the facets built from its blocks."""
    for spec in _specs(d):
        amb, _col, emb = ambient_with_induced_diamond(d, spec)
        want = frozenset(frozenset(emb[v] for v in f)
                         for f in diamond_closed_form(d, spec).facets)
        assert CrossFlip(d=d, spec=spec, embedding=emb).image_facets() == want


def test_image_facets_follow_the_index_rule_of_an_application():
    """Index d + 1 names no class: the image refuses it as the application
    does, with the same error."""
    emb = {v: v for v in ("0", "1", "2")}
    flip = CrossFlip(d=2, spec=(3,), embedding=emb)
    with pytest.raises(ValueError) as applied:
        apply_cross_flip_detailed(cross_polytope(2), flip)
    with pytest.raises(ValueError) as read:
        flip.image_facets()
    assert type(read.value) is type(applied.value)
    assert str(read.value) == str(applied.value) == "indices must lie in 0..2"


@pytest.mark.parametrize("d,ops,seed", [(2, 40, 21), (3, 40, 22), (4, 25, 23)])
def test_extension_along_seeded_stackings(d, ops, seed):
    """Class (d,) on a seeded facet at each step: no vertex leaves, so only
    keys equal to fresh labels could go."""
    (abstract,) = diamond_closed_form(d, (d,)).facets
    cur, col = cross_polytope(d), standard_coloring(d)
    rng = random.Random(seed)
    for _ in range(ops):
        target = rng.choice(sorted(sorted(f, key=vertex_key) for f in cur.facets))
        by_colour = {col[v]: v for v in target}
        emb = {a: by_colour[col[a]] for a in abstract}
        res = apply_cross_flip_detailed(cur, CrossFlip(d=d, spec=(d,), embedding=emb))
        got = extend_coloring_after_cross_flip(col, res)
        assert list(got.items()) == list(diffed_extension(col, res).items())
        cur, col = res.complex, got
