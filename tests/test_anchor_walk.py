"""The anchored embedding of a flip script against its former ridge sweep.

`former_anchor_embedding` is `cli._anchor_embedding` as it stood before it
walked the flip plan's compiled ridge walk: from the entry facet of the
lowest block it sweeps the remaining abstract facets in canonical order,
extending each across a ridge it shares with a placed facet, until every
facet is placed.  The compiled walk must give the same embedding, or fail
with the same reason, on every anchor.
"""

import itertools
import random

import pytest

from crossflips.catalog import enumerate_basic_flips
from crossflips.cli import StepFailed, WalkConfig, _anchor_embedding, run_walk
from crossflips.complexes import Complex, base, sorted_face, sub, vertex_key
from crossflips.diamond import cross_polytope, diamond_closed_form
from crossflips.moves import find_cross_flip_sites


def former_anchor_embedding(c, spec, anchor):
    d = c.dimension
    abstract = diamond_closed_form(d, spec)
    i1 = min(spec)
    if i1 == d + 1:
        entry = frozenset(base(t) for t in range(d + 1))
    else:
        entry = frozenset(
            [base(t) for t in range(i1)]
            + [sub(t) for t in range(i1, d + 1)]
        )
    entry_sorted = sorted_face(entry)
    if len(anchor) != len(entry_sorted):
        raise StepFailed("?", "anchor needs %d vertices" % len(entry_sorted))
    emb = dict(zip(entry_sorted, anchor))
    fmap = {entry: frozenset(anchor)}
    placed = [entry]
    pending = [f for f in sorted(abstract.facets, key=sorted_face) if f != entry]
    while pending:
        progressed = False
        for f in list(pending):
            share = None
            for g in placed:
                if len(f & g) == d:
                    share = g
                    break
            if share is None:
                continue
            ridge = frozenset(emb[v] for v in (f & share))
            cands = [h for h in c._facets_containing(ridge)
                     if len(h) == len(ridge) + 1 and h != fmap[share]]
            if len(cands) != 1:
                raise StepFailed("?", "anchor does not extend across a ridge")
            (x_new,) = tuple(f - share)
            (w_new,) = tuple(cands[0] - ridge)
            if x_new in emb:
                if emb[x_new] != w_new:
                    raise StepFailed("?", "anchor extension is inconsistent")
            else:
                emb[x_new] = w_new
            fmap[f] = cands[0]
            placed.append(f)
            pending.remove(f)
            progressed = True
        if not progressed:
            raise StepFailed("?", "anchor does not determine the flip site")
    return emb


def outcome(fn, c, spec, anchor):
    try:
        return "ok", fn(c, spec, anchor)
    except StepFailed as exc:
        return "failed", exc.reason


def random_anchors(c, coloring, specs, rng, count):
    """Anchors of true sites, of facets in a random vertex order, of random
    distinct vertices and of draws with repeats from a facet, with their
    classes."""
    d = c.dimension
    verts = sorted(c.vertices, key=vertex_key)
    facets = c.canonical_facets()
    out = []
    for k in range(count):
        spec = rng.choice(specs)
        kind = k % 4
        if kind == 0:
            sites = find_cross_flip_sites(c, coloring, spec)
            if not sites:
                continue
            site = rng.choice(sites)
            entry = sorted_face([base(t) for t in range(spec[0])]
                                + [sub(t) for t in range(spec[0], d + 1)])
            anchor = tuple(site.embedding[v] for v in entry)
        elif kind == 1:
            anchor = tuple(rng.sample(rng.choice(facets), d + 1))
        elif kind == 2:
            anchor = tuple(rng.sample(verts, d + 1))
        else:
            anchor = tuple(rng.choices(rng.choice(facets), k=d + 1))
        out.append((spec, anchor))
    return out


def walked_complexes(d, seeds, steps):
    """Seeded walk results, each with the ball left by removing its first
    facet, whose boundary ridges lie in one facet each."""
    for seed in seeds:
        sphere, coloring, _ = run_walk(WalkConfig(steps=steps, seed=seed, dimension=d))
        yield seed, sphere, coloring
        yield seed, Complex(sphere.canonical_facets()[1:]), coloring


@pytest.mark.parametrize("d,seeds,steps", [(2, (1, 2), 25), (3, (1,), 3)])
def test_compiled_walk_matches_former_sweep(d, seeds, steps):
    specs = [fc.canonical_index for fc in enumerate_basic_flips(d)]
    tally = {}
    for seed, c, coloring in walked_complexes(d, seeds, steps):
        rng = random.Random(seed)
        for spec, anchor in random_anchors(c, coloring, specs, rng, 120):
            want = outcome(former_anchor_embedding, c, spec, anchor)
            got = outcome(_anchor_embedding, c, spec, anchor)
            assert got == want, (spec, anchor)
            key = want[1] if want[0] == "failed" else "ok"
            tally[key] = tally.get(key, 0) + 1
    # the sample reaches the embedding and both failures of the walk
    assert set(tally) == {"ok", "anchor does not extend across a ridge",
                          "anchor extension is inconsistent"}, tally


def test_every_anchor_on_a_holed_octahedron():
    # a hole puts ridges in one facet; anchors repeating a vertex then
    # reach steps whose ridge image is smaller than a ridge
    holed = Complex(f for f in cross_polytope(2).facets if f != frozenset("012"))
    specs = [fc.canonical_index for fc in enumerate_basic_flips(2)]
    verts = sorted(holed.vertices, key=vertex_key)
    for spec in specs:
        for anchor in itertools.product(verts, repeat=3):
            assert (outcome(_anchor_embedding, holed, spec, anchor)
                    == outcome(former_anchor_embedding, holed, spec, anchor)), (spec, anchor)
