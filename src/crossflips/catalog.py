"""Catalog of basic cross-flips and the theorem-level verifications.

A flip class is keyed by its canonical index set; the facet count is a
complete isomorphism invariant across classes of one dimension because it
is a sum of distinct powers of two.  The verifications here are the ones
the command line exposes: class counting, h-vector agreement, the
complement identity, both shelling orders, the two-flip reducibility
composition, the pentagon composition, and the basis-exchange check on the
eight minimal sufficient sets in dimension two.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .complexes import (
    Complex,
    ComplexError,
    _induced_in,
    are_isomorphic,
    boundary_complex,
    delete_subcomplex,
    h_vector,
    pair_index,
    sorted_face,
    sub,
)
from .diamond import (
    _check_index_set,
    block_of_facet,
    complement_index,
    cross_polytope,
    diamond_closed_form,
    h_vector_formula,
    minimal_nonfaces,
    shift_down_map,
    standard_coloring,
    swap_top_map,
    IndexSetViolatesPrecondition,
)
from .moves import (
    CrossFlip,
    _flip_plan,
    apply_cross_flip,
    apply_cross_flip_detailed,
    extend_coloring_after_cross_flip,
    find_cross_flip_sites,
)
from .shelling import RelativeComplex, verify_certificate


class DimensionCapExceeded(ComplexError):
    pass


class ChordNotFlippable(ComplexError):
    """No chord of an ambient under construction could be flipped away."""


# the highest dimension the catalog and the verification suites run at
DIMENSION_CAP = 6


@dataclass(frozen=True)
class FlipClass:
    canonical_index: tuple
    facet_count: int
    h: tuple
    complement_class: tuple
    sufficient: bool

    def to_doc(self) -> dict:
        return {
            "index": list(self.canonical_index),
            "facets": self.facet_count,
            "h": list(self.h),
            "complement": list(self.complement_class),
            "sufficient": self.sufficient,
        }


def check_dimension(d: int) -> None:
    """Refuse a negative dimension and D = 0, which has no basic flip, and
    one above DIMENSION_CAP as undecided."""
    if d < 0:
        raise ValueError("dimension must be nonnegative")
    if d == 0:
        raise ValueError("dimension must be at least 1")
    if d > DIMENSION_CAP:
        raise DimensionCapExceeded("dimension %d exceeds the cap %d" % (d, DIMENSION_CAP))


def enumerate_basic_flips(d: int) -> list:
    """One class per nonempty subset of {0, ..., d}, ordered by facet count."""
    check_dimension(d)
    classes = []
    for r in range(1, d + 2):
        for idx in itertools.combinations(range(d + 1), r):
            classes.append(
                FlipClass(
                    canonical_index=idx,
                    facet_count=sum(2 ** (d - i) for i in idx),
                    h=h_vector_formula(d, idx),
                    complement_class=complement_index(d, idx),
                    sufficient=d in idx,
                )
            )
    classes.sort(key=lambda fc: fc.facet_count)
    return classes


# ---------------------------------------------------------------------------
# example families


def stacked_cross_sphere(copies: int, d: int) -> Complex:
    """Connected sum of *copies* cross-polytope boundaries, built by
    repeatedly flipping a single facet for its complement."""
    return stacked_cross_sphere_colored(copies, d)[0]


def stacked_cross_sphere_colored(copies: int, d: int):
    if copies < 1:
        raise ValueError("need at least one copy")
    cur = cross_polytope(d)
    coloring = standard_coloring(d)
    block = diamond_closed_form(d, (d,))
    (abstract_facet,) = block.facets
    for _ in range(copies - 1):
        target = cur.canonical_facets()[0]
        emb = dict(zip(sorted_face(abstract_facet), target))
        res = apply_cross_flip_detailed(cur, CrossFlip(d=d, spec=(d,), embedding=emb))
        coloring = extend_coloring_after_cross_flip(coloring, res)
        cur = res.complex
    return cur, coloring


def barycentric_sphere(d: int):
    """Barycentric subdivision of the simplex boundary with the
    face-dimension coloring; returns (complex, coloring)."""
    if d > 3:
        raise DimensionCapExceeded("barycentric spheres are built for d <= 3")
    check_dimension(d)
    ground = tuple(range(d + 2))

    def token(subset) -> str:
        return "b" + "".join(str(i) for i in sorted(subset))

    chains: list[tuple] = []

    def grow(chain, top):
        if len(top) == d + 1:
            chains.append(tuple(chain))
            return
        for extra in ground:
            if extra not in top:
                nxt = tuple(sorted(top + (extra,)))
                grow(chain + [nxt], nxt)

    for start in ground:
        grow([(start,)], (start,))
    facets = {frozenset(token(s) for s in chain) for chain in chains}
    cx = Complex(facets)
    # "b" plus k digits encodes a (k-1)-dimensional face of the simplex
    coloring = {v: len(v) - 2 for v in cx.vertices}
    return cx, coloring


# ---------------------------------------------------------------------------
# ambients with induced diamond subcomplexes
#
# The diamond complex of an index set is rarely induced in the
# cross-polytope boundary itself: faces of the complement spanned by its
# vertices ("chords") get in the way.  Each chord is interior to the star
# of its minimal representative, and stars in the cross-polytope boundary
# are simplex-times-cross-polytope joins, i.e. single-index diamond shapes,
# so flipping those stars removes every chord without ever creating one.
# A chord is no face once a smaller chord inside it is gone, so only the
# minimal ones are flipped: the minimal non-faces of the diamond complex
# other than its partner pairs (``diamond.minimal_nonfaces``, read from the
# index set).  Each one still present is flipped in turn, smallest first,
# and a final check confirms that the diamond complex came out induced.


def ambient_with_induced_diamond(d: int, indices):
    """A balanced d-sphere containing the diamond complex of the index set,
    with its standard labels, as an induced subcomplex.

    Returns (ambient, coloring, identity embedding).
    """
    return ambient_with_induced_diamond_any(d, _check_index_set(d, indices, d))


def relative_shelling_setting(d: int, seq):
    """Ambient ball for the relative shelling order of the given sequence.

    Builds a sphere containing the diamond complex induced, then removes
    one facet outside it that meets the first block in a single ridge.
    Returns (relative complex, boundary ridge) or None when the first block
    owns no boundary ridge.
    """
    seq = tuple(seq)
    sset = tuple(sorted(set(seq)))
    amb, _coloring, _emb = ambient_with_induced_diamond_any(d, sset)
    return _relative_settings(d, sset, amb)[seq[0]]


def _relative_settings(d: int, sset: tuple, amb: Complex) -> dict:
    """``relative_shelling_setting`` for every first block of the index set
    *sset*, in the ambient *amb* built for it; the setting depends only on
    the first block.  Each block takes the first boundary ridge of the
    diamond complex, in canonical order, that qualifies for it."""
    dcomp = diamond_closed_form(d, sset)
    out = dict.fromkeys(sset)
    for ridge in sorted(boundary_complex(dcomp).facets, key=sorted_face):
        (carrier,) = dcomp._facets_containing(ridge)
        block = block_of_facet(d, carrier)
        if out[block] is not None:
            continue
        others = [h for h in amb._facets_containing(ridge) if h != carrier]
        if len(others) != 1:
            continue
        (neighbor,) = others
        if neighbor - ridge <= dcomp.vertices:
            continue
        ball = amb._replaced(frozenset([neighbor]), frozenset())
        out[block] = RelativeComplex(ball, delete_subcomplex(ball, dcomp)), ridge
    return out


def ambient_with_induced_diamond_any(d: int, indices):
    """One chord-killing pass (see above); accepts index sets that may
    contain d+1."""
    idx = _check_index_set(d, indices, d + 1)
    dcomp = diamond_closed_form(d, idx)
    span = dcomp.vertices
    amb = cross_polytope(d)
    coloring = standard_coloring(d)
    chords = sorted((n for n in minimal_nonfaces(d, idx)
                     if len({pair_index(v) for v in n}) == len(n)),
                    key=lambda f: (len(f), sorted_face(f)))
    stuck = ChordNotFlippable("no chord of %r could be flipped away" % (idx,))
    for f in chords:
        star = amb._facets_containing(f)
        if not star:
            continue
        spec = (len(f) - 1,)
        iso = are_isomorphic(_flip_plan(d, spec).abstract, Complex(star))
        if iso is None:
            raise stuck
        try:
            res = apply_cross_flip_detailed(amb, CrossFlip(d=d, spec=spec, embedding=iso))
        except ComplexError:
            raise stuck from None
        coloring = extend_coloring_after_cross_flip(coloring, res)
        amb = res.complex
    if not _induced_in(amb, dcomp.facets, span):
        raise stuck
    return amb, coloring, {v: v for v in span}


# ---------------------------------------------------------------------------
# reducibility


def verify_reducibility_composition(d: int, indices, ambient: Complex, site: CrossFlip) -> bool:
    """Check that the flip of the index set equals, up to an isomorphism
    fixing the untouched ambient pointwise, the two-step composition: flip
    the down-shifted copy of I+1, regroup, then flip (I+1) with 0 added."""
    idx = _check_index_set(d, indices, d)
    if d in idx:
        raise IndexSetViolatesPrecondition("requires d outside the index set")
    emb = dict(site.embedding)
    rho = shift_down_map(d)
    psi = swap_top_map(d)
    sigma = {v: psi.get(w, w) for v, w in rho.items()}

    j1 = tuple(i + 1 for i in idx)
    d1 = diamond_closed_form(d, j1)
    e1 = {u: emb[rho[u]] for u in d1.vertices}
    r1 = apply_cross_flip_detailed(ambient, CrossFlip(d=d, spec=j1, embedding=e1))

    j2 = tuple(sorted({0, *j1}))
    d2 = diamond_closed_form(d, j2)
    e2 = {}
    for u in d2.vertices:
        if u == sub(0):
            e2[u] = r1.vertex_map[sub(0)]
            continue
        w = sigma[u]
        e2[u] = emb[w] if w in emb else r1.vertex_map[u]
    r2 = apply_cross_flip_detailed(r1.complex, CrossFlip(d=d, spec=j2, embedding=e2))

    direct = apply_cross_flip(ambient, site)
    untouched = delete_subcomplex(ambient, Complex(site.image_facets()))
    fixed = {v: v for v in untouched.vertices}
    return are_isomorphic(direct, r2.complex, fixed=fixed) is not None


def verify_reducibility(d: int):
    """Run the composition check for every nonempty index set avoiding d."""
    lines = []
    ok = True
    for r in range(1, d + 1):
        for idx in itertools.combinations(range(d), r):
            amb, _coloring, emb = ambient_with_induced_diamond(d, idx)
            site = CrossFlip(d=d, spec=idx, embedding=emb)
            good = verify_reducibility_composition(d, idx, amb, site)
            ok = ok and good
            lines.append("reducibility d=%d I=%r: %s" % (d, list(idx), "ok" if good else "FAILED"))
    return ok, lines


# ---------------------------------------------------------------------------
# the pentagon composition


def _composition_search(start, start_coloring, fixed_facets, allowed_specs,
                        target, fixed_vertices, max_depth: int) -> bool:
    """Breadth-first search for a flip sequence from restricted classes that
    reproduces the target up to a locus-fixing isomorphism."""
    d = start.dimension
    deltas = []
    for spec in allowed_specs:
        dn = diamond_closed_form(d, spec).n_facets
        deltas.append((2 ** (d + 1) - dn) - dn)

    def reachable(gap: int, depth: int) -> bool:
        if gap == 0 and depth >= 0:
            return True
        if depth == 0:
            return False
        return any(reachable(gap - dl, depth - 1) for dl in set(deltas))

    frontier = [(start, start_coloring)]
    for depth in range(max_depth):
        nxt = []
        for cur, coloring in frontier:
            for spec in allowed_specs:
                for site in find_cross_flip_sites(cur, coloring, spec):
                    if site.image_facets() & fixed_facets:
                        continue
                    res = apply_cross_flip_detailed(cur, site)
                    after = res.complex
                    gap = target.n_facets - after.n_facets
                    if gap == 0:
                        if are_isomorphic(target, after, fixed=fixed_vertices):
                            return True
                    if not reachable(gap, max_depth - depth - 1):
                        continue
                    nxt.append((after, extend_coloring_after_cross_flip(coloring, res)))
        frontier = nxt
    return False


def verify_pentagon_composition(ambient: Complex, site: CrossFlip,
                                coloring: dict, reverse: bool = False) -> bool:
    """The pentagon flip (index set {1,2} at d=2) as a composition of flips
    from the classes {2} and {0,2} only; reading backwards, the {0,2} flip
    as a composition from the classes {0,1,2} and {1,2}.

    Facet counting forces at least three steps, so the search allows up to
    three flips from the named classes.
    """
    if site.d != 2 or tuple(site.spec) != (1, 2):
        raise ValueError("the pentagon composition is the d=2 flip of {1, 2}")
    res = apply_cross_flip_detailed(ambient, site)
    direct = res.complex
    untouched = delete_subcomplex(ambient, Complex(site.image_facets()))
    if not reverse:
        fixed_facets = untouched.facets
        fixed_vertices = {v: v for v in untouched.vertices}
        return _composition_search(
            ambient, coloring, fixed_facets, [(2,), (0, 2)],
            direct, fixed_vertices, max_depth=3,
        )
    # reversed reading: flip the glued complement copy of {0,2} back
    comp = delete_subcomplex(cross_polytope(2), diamond_closed_form(2, (1, 2)))
    shape = diamond_closed_form(2, (0, 2))
    iso = are_isomorphic(shape, comp)
    back_emb = {u: res.vertex_map[iso[u]] for u in shape.vertices}
    back_site = CrossFlip(d=2, spec=(0, 2), embedding=back_emb)
    back_coloring = extend_coloring_after_cross_flip(coloring, res)
    res2 = apply_cross_flip_detailed(direct, back_site)
    target = res2.complex
    untouched2 = delete_subcomplex(direct, Complex(back_site.image_facets()))
    fixed_vertices = {v: v for v in untouched2.vertices}
    return _composition_search(
        direct, back_coloring, untouched2.facets, [(0, 1, 2), (1, 2)],
        target, fixed_vertices, max_depth=3,
    )


def verify_pentagon():
    amb, coloring, emb = ambient_with_induced_diamond(2, (1, 2))
    site = CrossFlip(d=2, spec=(1, 2), embedding=emb)
    fwd = verify_pentagon_composition(amb, site, coloring, reverse=False)
    rev = verify_pentagon_composition(amb, site, coloring, reverse=True)
    lines = [
        "pentagon composition, forward reading: %s" % ("ok" if fwd else "FAILED"),
        "pentagon composition, reversed reading: %s" % ("ok" if rev else "FAILED"),
    ]
    return fwd and rev, lines


# ---------------------------------------------------------------------------
# the matroid of minimal sufficient flip sets (dimension 2)


MINIMAL_SUFFICIENT_SETS = frozenset(
    frozenset(map(tuple, bset))
    for bset in [
        [(1,), (0, 1), (0, 2)],
        [(1,), (0, 1), (1, 2)],
        [(1,), (0, 1, 2), (0, 2)],
        [(1,), (0, 1, 2), (1, 2)],
        [(2,), (0, 1), (0, 2)],
        [(2,), (0, 1), (1, 2)],
        [(2,), (0, 1, 2), (0, 2)],
        [(2,), (0, 1, 2), (1, 2)],
    ]
)


def check_matroid_bases(bases=None) -> bool:
    """Basis exchange: for B1, B2 and x in B1 - B2 there is y in B2 - B1
    with B1 - x + y again a basis."""
    if bases is None:
        bases = MINIMAL_SUFFICIENT_SETS
    bases = [frozenset(b) for b in bases]
    for b1 in bases:
        for b2 in bases:
            for x in b1 - b2:
                if not any(
                    (b1 - {x}) | {y} in bases for y in b2 - b1
                ):
                    return False
    return True


def matroid_report(bases=None) -> dict:
    """Rank, ground size, and the parallel-class decomposition of the
    matroid spanned by the minimal sufficient flip sets."""
    if bases is None:
        bases = MINIMAL_SUFFICIENT_SETS
    bases = [frozenset(b) for b in bases]
    ground = sorted({x for b in bases for x in b})
    ranks = {len(b) for b in bases}
    never_together = {}
    for x in ground:
        never_together[x] = {
            y for y in ground if y != x and not any({x, y} <= b for b in bases)
        }
    classes = []
    seen = set()
    for x in ground:
        if x in seen:
            continue
        cls = sorted({x} | never_together[x])
        classes.append(cls)
        seen.update(cls)
    return {
        "rank": ranks.pop() if len(ranks) == 1 else None,
        "ground_size": len(ground),
        "parallel_classes": classes,
        "exchange": check_matroid_bases(bases),
    }


# ---------------------------------------------------------------------------
# verification suites (shared by the command line and the acceptance tests)


def verify_count(d: int):
    classes = enumerate_basic_flips(d)
    want = 2 ** (d + 1) - 1
    ok = len(classes) == want
    lines = ["catalog size d=%d: %d (expected %d)" % (d, len(classes), want)]
    counts = [fc.facet_count for fc in classes]
    if len(set(counts)) != len(counts):
        ok = False
        lines.append("facet-count signatures are not distinct")
    if d <= 3:
        built = {
            fc.canonical_index: diamond_closed_form(d, fc.canonical_index)
            for fc in classes
        }
        for fc in classes:
            if built[fc.canonical_index].n_facets != fc.facet_count:
                ok = False
                lines.append("facet count mismatch at %r" % (fc.canonical_index,))
        pairs = 0
        for a, b in itertools.combinations(classes, 2):
            if are_isomorphic(built[a.canonical_index], built[b.canonical_index]):
                ok = False
                lines.append(
                    "unexpected isomorphism %r ~ %r"
                    % (a.canonical_index, b.canonical_index)
                )
            pairs += 1
        lines.append("pairwise non-isomorphism checked on %d pairs" % pairs)
    return ok, lines


def _all_index_sets(d: int, top: int):
    for r in range(1, top + 2):
        for idx in itertools.combinations(range(top + 1), r):
            yield idx


def verify_hvector(d: int):
    ok = True
    lines = []
    n = 0
    for idx in _all_index_sets(d, d + 1):
        got = h_vector_formula(d, idx)
        want = h_vector(diamond_closed_form(d, idx))
        if got != want:
            ok = False
            lines.append("h mismatch at I=%r: %r vs %r" % (idx, got, want))
        n += 1
    lines.append("h-vector formula agreed on %d index sets (d=%d)" % (n, d))
    return ok, lines


def verify_complement(d: int):
    import math

    ok = True
    lines = []
    cd = cross_polytope(d)
    n = 0
    for idx in _all_index_sets(d, d):
        dc = diamond_closed_form(d, idx)
        hd = h_vector(dc)
        hc = h_vector(delete_subcomplex(cd, dc))
        for i in range(d + 2):
            if hd[i] + hc[d + 1 - i] != math.comb(d + 1, i):
                ok = False
                lines.append("complement identity fails at I=%r, i=%d" % (idx, i))
        n += 1
    lines.append("complement identity verified on %d canonical index sets (d=%d)" % (n, d))
    return ok, lines


def verify_shelling_theorem(d: int):
    from .diamond import absolute_shelling_order, relative_shelling_order

    ok = True
    lines = []
    n_abs = 0
    for idx in _all_index_sets(d, d + 1):
        cert = absolute_shelling_order(d, idx)
        verify_certificate(diamond_closed_form(d, idx), cert)
        hist = [0] * (d + 2)
        for r in cert.restrictions:
            hist[len(r)] += 1
        if tuple(hist) != h_vector_formula(d, idx):
            ok = False
            lines.append("absolute shelling histogram off at I=%r" % (idx,))
        n_abs += 1
    lines.append("absolute shelling orders verified: %d (d=%d)" % (n_abs, d))

    n_rel = 0
    n_skip = 0
    for sset in _all_index_sets(d, d + 1):
        if len(sset) == d + 2:
            continue
        amb, _coloring, _emb = ambient_with_induced_diamond_any(d, sset)
        settings = _relative_settings(d, sset, amb)
        for i1 in sset:
            seq = (i1,) + tuple(i for i in sset if i != i1)
            setting = settings[i1]
            if setting is None:
                n_skip += 1
                continue
            rc, ridge = setting
            cert = relative_shelling_order(d, seq, ridge)
            verify_certificate(rc, cert)
            n_rel += 1
    lines.append(
        "relative shelling orders verified: %d (skipped %d entry choices with no "
        "boundary ridge in the first block, d=%d)" % (n_rel, n_skip, d)
    )
    return ok, lines


def verify_matroid():
    rep = matroid_report()
    ok = rep["exchange"] and rep["rank"] == 3 and rep["ground_size"] == 6
    lines = [
        "basis exchange on the eight printed sets: %s" % rep["exchange"],
        "rank %s on %d elements, parallel classes %r"
        % (rep["rank"], rep["ground_size"], rep["parallel_classes"]),
    ]
    return ok, lines
