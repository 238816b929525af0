"""Cross-flip application with per-class flip plans and the site-search view.

The golden digests cover seeded `apply_cross_flip_detailed` sequences: every
result's facets, vertex map, fresh vertices, complement inducedness and
extended colouring, and the exception type and message of every rejected
flip.  They were recorded with the per-call rebuild of the diamond complex,
its complement and both shellability searches, so the plans must reproduce
every outcome exactly.  The `mixed-d2` digest was re-recorded when the
search budget left the flip path and its sequence stopped probing it; the
former code, run on the same sequence, gives the same digest.  Each
application also checks the complement's inducedness, decided when read,
against a trace scan over every result facet.
"""

import hashlib
import itertools
import json
import random

import pytest

from crossflips import moves
from crossflips.catalog import enumerate_basic_flips, stacked_cross_sphere_colored
from crossflips.cli import WalkConfig, run_walk
from crossflips.complexes import (
    Complex,
    ComplexError,
    _traces_are_faces,
    delete_subcomplex,
    face,
    pair_index,
    sorted_face,
    vertex_key,
)
from crossflips.diamond import cross_polytope, diamond_closed_form, standard_coloring
from crossflips.moves import (
    CrossFlip,
    _flip_plan,
    apply_cross_flip_detailed,
    extend_coloring_after_cross_flip,
    find_cross_flip_sites,
)
from crossflips.shelling import find_shelling, verify_certificate

GOLDEN = {
    "stack-d3": "25f1a218879b1a7122f3dd89ff9720975b2e2f461e00575e14f7b32cbf2dd1c3",
    "mixed-d2": "21cb228f21f6cdfe75cfc9e7ebd55a17a62c7516dea31cc3497b6e5a58dcb0af",
}


def _outcome(c, flip, coloring):
    """JSON-ready record of one application: the result or the exception."""
    try:
        res = apply_cross_flip_detailed(c, flip)
    except (ComplexError, ValueError) as exc:
        return ["raised", type(exc).__name__, str(exc)], None, None
    col = extend_coloring_after_cross_flip(coloring, res)
    # the complement's inducedness, decided when read, against the trace
    # scan over every result facet; the glued facets are rebuilt from the
    # complementary index set and the vertex map
    rest = [i for i in range(flip.d + 2) if i not in flip.spec]
    glued = frozenset(frozenset(res.vertex_map[v] for v in f)
                      for f in diamond_closed_form(flip.d, rest).facets)
    assert res.glued == glued
    assert res.complement_induced == _traces_are_faces(
        res.complex.facets, glued, frozenset().union(*glued))
    record = [
        "ok",
        res.complex.canonical_facets(),
        sorted(res.vertex_map.items(), key=lambda kv: vertex_key(kv[0])),
        list(res.fresh_vertices),
        res.complement_induced,
        sorted(col.items(), key=lambda kv: vertex_key(kv[0])),
    ]
    return record, res, col


def stack_sequence(ops=60, seed=303):
    """Seeded class-(3,) facet stacking at d=3 from the cross-polytope."""
    d = 3
    cur, col = cross_polytope(d), standard_coloring(d)
    (abstract,) = diamond_closed_form(d, (d,)).facets
    rng = random.Random(seed)
    records = []
    for _ in range(ops):
        target = rng.choice(cur.canonical_facets())
        by_colour = {col[v]: v for v in target}
        emb = {a: by_colour[pair_index(a)] for a in abstract}
        record, res, ncol = _outcome(cur, CrossFlip(d=d, spec=(d,), embedding=emb), col)
        records.append(record)
        cur, col = res.complex, ncol
    return records


def mixed_sequence(steps=25, seed=202):
    """Seeded d=2 flips over all classes.  Before each step, probes on the
    current complex reach every rejection: each class's first site, a site
    moved off the complex at one vertex, a site under an added chord
    triangle, a site with a fin triangle on one of its edges (its
    complement need not be induced after the flip), an embedding missing a
    vertex and one identifying two."""
    d = 2
    cur, col = cross_polytope(d), standard_coloring(d)
    specs = [fc.canonical_index for fc in enumerate_basic_flips(d)]
    rng = random.Random(seed)
    records = []
    for _ in range(steps):
        verts = sorted(cur.vertices, key=vertex_key)
        for spec in specs:
            for site in find_cross_flip_sites(cur, col, spec)[:1]:
                records.append(_outcome(cur, site, col)[0])
                emb = dict(site.embedding)
                avs = sorted(emb, key=vertex_key)
                spare = [v for v in verts if v not in emb.values()]
                emb[rng.choice(avs)] = rng.choice(spare)
                records.append(_outcome(cur, CrossFlip(d=d, spec=spec, embedding=emb), col)[0])
                image = site.image_facets()
                span = sorted({v for f in image for v in f}, key=vertex_key)
                chords = [frozenset(t) for t in itertools.combinations(span, 3)
                          if not any(frozenset(t) <= f for f in image)]
                if chords:
                    chorded = Complex.generated_by(list(cur.facets) + [rng.choice(chords)])
                    records.append(_outcome(chorded, site, col)[0])
                edge = rng.choice(sorted(itertools.combinations(span, 2)))
                if any(set(edge) <= f for f in image):
                    finned = Complex(list(cur.facets) + [frozenset(edge) | {"z"}])
                    records.append(_outcome(finned, site, dict(col, z=0))[0])
        spec = rng.choice(specs)
        avs = sorted(diamond_closed_form(d, spec).vertices, key=vertex_key)
        emb = dict(zip(avs[1:], rng.sample(verts, len(avs) - 1)))
        records.append(_outcome(cur, CrossFlip(d=d, spec=spec, embedding=emb), col)[0])
        emb[avs[0]] = emb[avs[1]]
        records.append(_outcome(cur, CrossFlip(d=d, spec=spec, embedding=emb), col)[0])
        rng.shuffle(specs)
        sites = next(found for s in specs if (found := find_cross_flip_sites(cur, col, s)))
        site = sites[rng.randrange(len(sites))]
        record, res, ncol = _outcome(cur, site, col)
        records.append(record)
        cur, col = res.complex, ncol
    return records


def digest(records) -> str:
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


SEQUENCES = {"stack-d3": stack_sequence, "mixed-d2": mixed_sequence}


@pytest.mark.parametrize("name", sorted(SEQUENCES))
def test_flip_sequences_match_golden_digest(name):
    assert digest(SEQUENCES[name]()) == GOLDEN[name]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_plan_matches_fresh_construction_and_search(d):
    # the exhaustive search is the oracle of the certificates a plan verifies
    for r in range(1, d + 2):
        for spec in itertools.combinations(range(d + 1), r):
            plan = _flip_plan(d, spec)
            fresh = diamond_closed_form(d, spec)
            rest = delete_subcomplex(cross_polytope(d), fresh)
            closed = diamond_closed_form(d, set(range(d + 2)) - set(spec))
            assert plan.abstract == fresh and plan.complement == rest == closed
            assert plan.unseen == tuple(sorted(rest.vertices - fresh.vertices, key=vertex_key))
            assert find_shelling(fresh) is not None
            assert find_shelling(rest) is not None


def test_plan_verifies_its_certificates_once(monkeypatch):
    # class (2,) at d=4: the 28-facet complement is past the exhaustive
    # search's default budget, and its certificate decides it
    checked = []

    def counting(target, cert):
        checked.append(target)
        return verify_certificate(target, cert)

    monkeypatch.setattr(moves, "verify_certificate", counting)
    _flip_plan.cache_clear()
    c4 = cross_polytope(4)
    spec = (2,)
    abstract = diamond_closed_form(4, spec)
    flip = CrossFlip(d=4, spec=spec, embedding={v: v for v in abstract.vertices})
    for _ in range(2):
        res = apply_cross_flip_detailed(c4, flip)
        assert res.complex.n_facets == 32 - 4 + 28
    assert checked == [abstract, delete_subcomplex(c4, abstract)]
    assert checked[1].n_facets == 28


def test_site_view_is_sorted_and_indexes_every_facet():
    stacked, _ = stacked_cross_sphere_colored(3, 2)
    walked, _, _ = run_walk(WalkConfig(steps=6, seed=4, dimension=2))
    mixed = Complex([face("w1", "b"), face("a", "b", "c"), face("10", "v2", "x")])
    # a ridge in three facets (a fin on an edge) and boundary ridges
    finned = Complex(list(cross_polytope(2).facets) + [face("0", "1", "z")])
    disc = Complex(list(cross_polytope(2).facets)[1:])
    for c in (stacked, walked, mixed, finned, disc, cross_polytope(3)):
        view = c._site_view()
        assert view is c._site_view()
        assert [h for _key, h in view.ordered] == sorted(c.facets, key=sorted_face)
        assert all(key == sorted_face(h) for key, h in view.ordered)
        # the neighbour table by a pairwise facet scan: h - {x} is a ridge
        # of g exactly when g has h's size and meets h in h - {x}
        want = {}
        for h in c.facets:
            want[h] = {}
            for x in h:
                across = [g for g in c.facets
                          if len(g) == len(h) and g & h == h - {x}]
                if len(across) == 1:
                    (g,) = across
                    want[h][x] = (g, *(g - h))
        assert view.neighbours == want
        stars = c._star_index()
        for h in c.facets:
            for x in h:
                assert h in stars[x]
        assert sum(map(len, stars.values())) == sum(map(len, c.facets))


def test_applying_a_flip_builds_no_site_view():
    c = cross_polytope(3)
    (target,) = diamond_closed_form(3, (3,)).facets
    res = apply_cross_flip_detailed(
        c, CrossFlip(d=3, spec=(3,), embedding={v: v for v in target}))
    assert c._view is None and res.complex._view is None


def test_applying_a_flip_constructs_no_complex(monkeypatch):
    """Once its class plan exists, a flip keeps the image and the glued
    complement as facet sets: neither the application nor the site's
    image facets build a Complex through __init__ or generated_by."""
    walked, coloring, _ = run_walk(WalkConfig(steps=8, seed=5, dimension=2))
    sites = [site for fc in enumerate_basic_flips(2)
             for site in find_cross_flip_sites(walked, coloring, fc.canonical_index)]
    assert len({site.spec for site in sites}) >= 5
    for site in sites:
        _flip_plan(2, site.spec)
    built = []
    init, generated_by = Complex.__init__, Complex.generated_by.__func__

    def counting_init(self, facets=()):
        built.append("__init__")
        init(self, facets)

    def counting_generated_by(cls, faces):
        built.append("generated_by")
        return generated_by(cls, faces)

    monkeypatch.setattr(Complex, "__init__", counting_init)
    monkeypatch.setattr(Complex, "generated_by", classmethod(counting_generated_by))
    for site in sites:
        res = apply_cross_flip_detailed(walked, site)
        image = site.image_facets()
        assert built == []
        want = {frozenset(site.embedding[v] for v in f)
                for f in _flip_plan(2, site.spec).abstract.facets}
        assert image == want
        assert res.complex.facets & walked.facets == walked.facets - image
