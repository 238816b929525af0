"""Flip catalog, composition verifications, matroid, example families."""

import itertools
import math

import pytest

from crossflips import catalog, cli, complexes, moves, shelling
from crossflips.catalog import (
    ChordNotFlippable,
    DimensionCapExceeded,
    MINIMAL_SUFFICIENT_SETS,
    _relative_settings,
    ambient_with_induced_diamond,
    ambient_with_induced_diamond_any,
    barycentric_sphere,
    check_matroid_bases,
    enumerate_basic_flips,
    matroid_report,
    relative_shelling_setting,
    stacked_cross_sphere,
    stacked_cross_sphere_colored,
    verify_pentagon,
    verify_pentagon_composition,
    verify_reducibility_composition,
)
from crossflips.complexes import (
    Complex,
    ComplexError,
    ManifoldVerdict,
    _subsets,
    are_isomorphic,
    boundary_complex,
    delete_subcomplex,
    f_vector,
    h_vector,
    is_combinatorial_manifold,
    is_induced,
    is_proper_coloring,
    sorted_face,
)
from crossflips.diamond import (
    block_of_facet,
    cross_polytope,
    diamond_closed_form,
    minimal_nonfaces,
    standard_coloring,
)
from crossflips.moves import (
    CrossFlip,
    _flip_plan,
    apply_cross_flip_detailed,
    extend_coloring_after_cross_flip,
)


def test_enumerate_counts():
    for d in range(1, 7):
        classes = enumerate_basic_flips(d)
        assert len(classes) == 2 ** (d + 1) - 1
        counts = [fc.facet_count for fc in classes]
        assert len(set(counts)) == len(counts)
        assert sum(1 for fc in classes if fc.sufficient) == 2 ** d
    with pytest.raises(DimensionCapExceeded):
        enumerate_basic_flips(7)


def test_d2_catalog_rows():
    classes = enumerate_basic_flips(2)
    by_index = {fc.canonical_index: fc for fc in classes}
    assert by_index[(0,)].complement_class == (0,)
    assert by_index[(2,)].complement_class == (0, 1, 2)
    assert by_index[(1, 2)].complement_class == (0, 2)
    trivial = by_index[(0,)]
    assert not trivial.sufficient


def test_complement_class_involution():
    for d in (1, 2, 3):
        for fc in enumerate_basic_flips(d):
            comp = fc.complement_class
            back = next(
                x for x in enumerate_basic_flips(d) if x.canonical_index == comp
            )
            assert back.complement_class == fc.canonical_index


def test_classes_pairwise_nonisomorphic():
    for d in (1, 2, 3):
        built = [
            diamond_closed_form(d, fc.canonical_index)
            for fc in enumerate_basic_flips(d)
        ]
        for a, b in itertools.combinations(built, 2):
            assert are_isomorphic(a, b) is None


def test_stacked_spheres():
    assert stacked_cross_sphere(1, 2) == stacked_cross_sphere(1, 2)
    for d in (1, 2, 3):
        for copies in (1, 2, 3, 4):
            s, coloring = stacked_cross_sphere_colored(copies, d)
            hv = h_vector(s)
            assert hv[0] == 1 and hv[d + 1] == 1
            for i in range(1, d + 1):
                assert hv[i] == copies * math.comb(d + 1, i), (d, copies, i)
            assert is_proper_coloring(s, coloring, d + 1)
    two = stacked_cross_sphere(2, 2)
    assert two.n_facets == 14 and h_vector(two) == (1, 6, 6, 1)


def _former_stacked(copies, d):
    """The former stacking loop: each copy re-sorts every facet to take the
    first in canonical order."""
    cur, coloring = cross_polytope(d), standard_coloring(d)
    (abstract_facet,) = diamond_closed_form(d, (d,)).facets
    for _ in range(copies - 1):
        target = cur.canonical_facets()[0]
        emb = dict(zip(sorted_face(abstract_facet), target))
        res = apply_cross_flip_detailed(cur, CrossFlip(d=d, spec=(d,), embedding=emb))
        coloring = extend_coloring_after_cross_flip(coloring, res)
        cur = res.complex
    return cur, coloring


@pytest.mark.parametrize("d", [2, 3, 4])
def test_stacked_spheres_match_the_former_loop(d):
    """The kept order picks the facet the full sort picked, copy by copy:
    the same complex, colouring and JSON document."""
    for copies in (1, 2, 3, 7, 18, 30):
        got, want = stacked_cross_sphere_colored(copies, d), _former_stacked(copies, d)
        assert got[0] == want[0]
        assert list(got[1].items()) == list(want[1].items())
        assert complexes.dumps(*got) == complexes.dumps(*want)


def test_barycentric_sphere():
    hexagon, coloring = barycentric_sphere(1)
    assert hexagon.n_facets == 6
    assert is_proper_coloring(hexagon, coloring, 2)
    sphere, coloring = barycentric_sphere(2)
    assert sphere.n_facets == 24
    assert is_proper_coloring(sphere, coloring, 3)
    assert is_combinatorial_manifold(sphere) is ManifoldVerdict.CLOSED
    with pytest.raises(DimensionCapExceeded):
        barycentric_sphere(4)


def test_ambient_builder_without_chords():
    for d in (1, 2, 3):
        for r in range(1, d + 2):
            for idx in itertools.combinations(range(d + 1), r):
                amb, coloring, emb = ambient_with_induced_diamond(d, idx)
                dc = diamond_closed_form(d, idx)
                assert is_induced(amb, dc), idx
                assert is_proper_coloring(amb, coloring, d + 1)
                assert is_combinatorial_manifold(amb) is ManifoldVerdict.CLOSED
                assert emb == {v: v for v in dc.vertices}


def fixpoint_ambient(d, idx):
    """The chord loop as it was before it took its chords once: recompute
    every chord after each flip, flip the first one that flips, and stop
    when none is left."""
    dcomp = diamond_closed_form(d, idx)
    dfaces = dcomp.all_faces()
    span = dcomp.vertices
    amb, coloring = cross_polytope(d), standard_coloring(d)
    while True:
        traces = {h & span for h in amb.facets} - dfaces
        chords = sorted({f for t in traces for f in _subsets(t) if f not in dfaces},
                        key=lambda f: (len(f), sorted_face(f)))
        if not chords:
            return amb, coloring, {v: v for v in span}
        for f in chords:
            locus = Complex(amb._facets_containing(f))
            iso = are_isomorphic(_flip_plan(d, (len(f) - 1,)).abstract, locus)
            if iso is None:
                continue
            try:
                res = apply_cross_flip_detailed(
                    amb, CrossFlip(d=d, spec=(len(f) - 1,), embedding=iso))
            except ComplexError:
                continue
            coloring = extend_coloring_after_cross_flip(coloring, res)
            amb = res.complex
            break
        else:
            raise AssertionError("no chord of %r flips" % (idx,))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_one_chord_pass_matches_the_fixpoint_loop(d):
    """The same ambient, the same colouring in the same insertion order and
    the same embedding as the loop that recomputed its chords, for every
    index set, d+1 and the full set included."""
    for r in range(1, d + 3):
        for idx in itertools.combinations(range(d + 2), r):
            amb, coloring, emb = ambient_with_induced_diamond_any(d, idx)
            want_amb, want_coloring, want_emb = fixpoint_ambient(d, idx)
            assert amb == want_amb, idx
            assert list(coloring.items()) == list(want_coloring.items()), idx
            assert emb == want_emb, idx


def former_ambient(d, idx):
    """The chord pass as it was before it ran the class plans' walks: each
    chord's star embedded by the general isomorphism search, and the
    diamond complex's inducedness decided at the end by a facet-trace scan
    (``is_induced``)."""
    dcomp = diamond_closed_form(d, idx)
    amb, coloring = cross_polytope(d), standard_coloring(d)
    chords = sorted((n for n in minimal_nonfaces(d, idx)
                     if len({complexes.pair_index(v) for v in n}) == len(n)),
                    key=lambda f: (len(f), sorted_face(f)))
    for f in chords:
        star = amb._facets_containing(f)
        if not star:
            continue
        spec = (len(f) - 1,)
        iso = are_isomorphic(_flip_plan(d, spec).abstract, Complex(star))
        assert iso is not None, (idx, f)
        res = apply_cross_flip_detailed(amb, CrossFlip(d=d, spec=spec, embedding=iso))
        coloring = extend_coloring_after_cross_flip(coloring, res)
        amb = res.complex
    assert is_induced(amb, dcomp), idx
    return amb, coloring, {v: v for v in dcomp.vertices}


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_chord_pass_matches_the_former_isomorphism_pass(d):
    """Embedding each chord's star by its class plan's walk and deciding
    the final inducedness by minimal non-faces give the same ambient facets,
    colouring (in insertion order) and embedding as the general isomorphism
    search and the trace scan, for every index set, d+1 and the full set
    included."""
    for r in range(1, d + 3):
        for idx in itertools.combinations(range(d + 2), r):
            amb, coloring, emb = ambient_with_induced_diamond_any(d, idx)
            want_amb, want_coloring, want_emb = former_ambient(d, idx)
            assert amb == want_amb, idx
            assert list(coloring.items()) == list(want_coloring.items()), idx
            assert emb == want_emb, idx


def test_chord_pass_and_pentagon_use_no_general_search_or_trace_scan(monkeypatch):
    """The ambients at d <= 4 and ``verify pentagon`` build with every
    unpinned isomorphism search and every facet-trace scan refused.  The
    pentagon's composition search keeps its locus-fixing (pinned)
    isomorphism tests, which decide whether two flip sequences agree."""
    real = catalog.are_isomorphic

    def pinned_only(a, b, fixed=None):
        if fixed is None:
            raise AssertionError("unpinned isomorphism search")
        return real(a, b, fixed=fixed)

    def no_scan(*args):
        raise AssertionError("facet-trace scan")

    monkeypatch.setattr(catalog, "are_isomorphic", pinned_only)
    monkeypatch.setattr(complexes, "_traces_are_faces", no_scan)
    for d in range(1, 5):
        for r in range(1, d + 3):
            for idx in itertools.combinations(range(d + 2), r):
                ambient_with_induced_diamond_any(d, idx)
    ok, lines = verify_pentagon()
    assert ok and all(line.endswith(": ok") for line in lines), lines


def test_face_counts_and_the_chord_pass_build_no_faces(monkeypatch):
    """The f-vector, h-vector and Euler characteristic count faces from
    facet tuples, and the chord pass reads its chords from the index set:
    none of them calls ``Complex.all_faces`` or ``_subsets``."""
    calls = []
    for d in range(1, 5):
        for k in range(d + 1):
            _flip_plan(d, (k,))
    real_all_faces = Complex.all_faces
    monkeypatch.setattr(Complex, "all_faces",
                        lambda self: calls.append("all_faces") or real_all_faces(self))
    for mod in (complexes, shelling, catalog, moves, cli):
        if hasattr(mod, "_subsets"):
            monkeypatch.setattr(mod, "_subsets", lambda f, real=mod._subsets:
                                calls.append("_subsets") or real(f))
    for d in range(1, 5):
        for r in range(1, d + 3):
            for idx in itertools.combinations(range(d + 2), r):
                dc = diamond_closed_form(d, idx)
                f_vector(dc), h_vector(dc), dc.euler_characteristic()
                ambient_with_induced_diamond_any(d, idx)
    assert calls == []
    diamond_closed_form(1, (0,)).faces(0)  # the counters do count
    assert set(calls) == {"all_faces", "_subsets"}


@pytest.mark.parametrize("fault", ["no embedding", "flip refused", "not induced"])
def test_each_chord_failure_is_typed(monkeypatch, fault):
    """No embedding of a locus, a refused flip and a diamond complex left
    not induced each raise ChordNotFlippable."""
    def refuse(c, flip):
        raise ComplexError("refused")

    patch = {"no embedding": ("_image_embedding", lambda plan, k: None),
             "flip refused": ("apply_cross_flip_detailed", refuse),
             "not induced": ("_embeds_a_nonface", lambda stars, img, nonfaces: True)}[fault]
    monkeypatch.setattr(catalog, *patch)
    with pytest.raises(ChordNotFlippable, match=r"no chord of \(1, 2\) could be flipped"):
        ambient_with_induced_diamond_any(2, (1, 2))


def test_reducibility_compositions():
    for d in (2, 3):
        for r in range(1, d + 1):
            for idx in itertools.combinations(range(d), r):
                amb, _coloring, emb = ambient_with_induced_diamond(d, idx)
                site = CrossFlip(d=d, spec=idx, embedding=emb)
                assert verify_reducibility_composition(d, idx, amb, site), idx


def test_pentagon_composition_both_directions():
    amb, coloring, emb = ambient_with_induced_diamond(2, (1, 2))
    site = CrossFlip(d=2, spec=(1, 2), embedding=emb)
    assert verify_pentagon_composition(amb, site, coloring, reverse=False)
    assert verify_pentagon_composition(amb, site, coloring, reverse=True)


def test_pentagon_on_stacked_ambient():
    # the composition also verifies away from the minimal sphere
    from crossflips.moves import find_cross_flip_sites

    amb, coloring = stacked_cross_sphere_colored(2, 2)
    sites = find_cross_flip_sites(amb, coloring, (1, 2))
    assert sites
    assert verify_pentagon_composition(amb, sites[0], coloring, reverse=False)


def test_matroid_bases():
    assert check_matroid_bases()
    rep = matroid_report()
    assert rep["rank"] == 3 and rep["ground_size"] == 6
    assert sorted(len(cls) for cls in rep["parallel_classes"]) == [2, 2, 2]
    # removing any basis breaks the exchange axiom
    for basis in MINIMAL_SUFFICIENT_SETS:
        rest = MINIMAL_SUFFICIENT_SETS - {basis}
        assert not check_matroid_bases(rest)
    assert check_matroid_bases([frozenset({(1,), (2,)})])


def test_relative_setting_shapes():
    setting = relative_shelling_setting(2, (1, 0, 2))
    assert setting is not None
    rc, ridge = setting
    assert len(ridge) == 2
    assert rc.removed.is_subcomplex_of(rc.ambient)
    assert is_combinatorial_manifold(rc.ambient) is ManifoldVerdict.WITH_BOUNDARY
    # the diamond complex meets the ambient boundary in exactly the ridge
    dcomp = diamond_closed_form(2, (0, 1, 2))
    bd_faces = boundary_complex(rc.ambient).all_faces()
    met = {f for f in dcomp.all_faces() if f and f in bd_faces}
    assert met == {g for g in dcomp.all_faces() if g and g <= ridge}


def former_relative_setting(d, seq, amb):
    """The relative setting of *seq* as it was found before the settings of
    all first blocks were read in one pass: a scan of the boundary ridges
    for this sequence alone, with a ball built from scratch."""
    dcomp = diamond_closed_form(d, sorted(set(seq)))
    for ridge in sorted(boundary_complex(dcomp).faces(d - 1), key=sorted_face):
        carriers = [h for h in dcomp.facets if ridge < h]
        if len(carriers) != 1 or block_of_facet(d, carriers[0]) != seq[0]:
            continue
        others = [h for h in amb.facets if ridge < h and h != carriers[0]]
        if len(others) != 1:
            continue
        (neighbor,) = others
        if neighbor - ridge <= dcomp.vertices:
            continue
        ball = Complex(amb.facets - {neighbor})
        return ball, delete_subcomplex(ball, dcomp), ridge
    return None


def test_relative_settings_match_the_former_scan():
    for d in (1, 2, 3):
        for r in range(1, d + 2):
            for sset in itertools.combinations(range(d + 2), r):
                amb = ambient_with_induced_diamond_any(d, sset)[0]
                settings = _relative_settings(d, sset, amb)
                assert sorted(settings) == list(sset)
                for i1 in sset:
                    seq = (i1,) + tuple(i for i in sset if i != i1)
                    want = former_relative_setting(d, seq, amb)
                    if want is None:
                        assert settings[i1] is None
                        continue
                    rc, ridge = settings[i1]
                    assert (rc.ambient, rc.removed, ridge) == want
                    # the ball, built trusted, indexes its stars as a fresh build does
                    fresh = Complex(rc.ambient.facets)
                    assert rc.ambient._star_index() == fresh._star_index()
                    assert rc.ambient.vertices == fresh.vertices
