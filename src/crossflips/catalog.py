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

import bisect
import functools
import itertools

from .complexes import (
    Complex,
    ComplexError,
    _face_key,
    _Record,
    are_isomorphic,
    delete_subcomplex,
    h_vector,
    pair_index,
    sorted_face,
    sub,
    vertex_key,
)
from .diamond import (
    _check_index_set,
    _compose,
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
    _class_images,
    _embeds_a_nonface,
    _flip_plan,
    _image_embedding,
    _image_site,
    apply_cross_flip,
    apply_cross_flip_detailed,
    extend_coloring_after_cross_flip,
)
from .shelling import RelativeComplex, _restriction_histogram, verify_certificate


class DimensionCapExceeded(ComplexError):
    pass


class ChordNotFlippable(ComplexError):
    """No chord of an ambient under construction could be flipped away."""


# the highest dimension the catalog and the verification suites run at
DIMENSION_CAP = 6


class FlipClass(_Record):
    __slots__ = ("canonical_index", "facet_count", "h", "complement_class", "sufficient")

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
    classes = [
        FlipClass(
            canonical_index=idx,
            facet_count=sum(2 ** (d - i) for i in idx),
            h=h_vector_formula(d, idx),
            complement_class=complement_index(d, idx),
            sufficient=d in idx,
        )
        for idx in _all_index_sets(d)
    ]
    classes.sort(key=lambda fc: fc.facet_count)
    return classes


# ---------------------------------------------------------------------------
# example families


def stacked_cross_sphere(copies: int, d: int) -> Complex:
    """Connected sum of *copies* cross-polytope boundaries, built by
    repeatedly flipping a single facet for its complement."""
    return stacked_cross_sphere_colored(copies, d)[0]


def stacked_cross_sphere_colored(copies: int, d: int):
    """The stacked sphere of ``stacked_cross_sphere`` with its colouring.
    Each copy replaces the first facet in the canonical order
    (``Complex.canonical_facets``), taken from a list kept in that order,
    into which the glued facets are bisected."""
    if copies < 1:
        raise ValueError("need at least one copy")
    cur = cross_polytope(d)
    coloring = standard_coloring(d)
    (abstract_facet,) = diamond_closed_form(d, (d,)).facets
    abstract = sorted_face(abstract_facet)
    entries = cur.canonical_facets()
    for _ in range(copies - 1):
        emb = dict(zip(abstract, entries.pop(0)))
        res = apply_cross_flip_detailed(cur, CrossFlip(d=d, spec=(d,), embedding=emb))
        coloring = extend_coloring_after_cross_flip(coloring, res)
        cur = res.complex
        for f in res.glued:
            bisect.insort(entries, sorted_face(f), key=_face_key)
    return cur, coloring


def barycentric_sphere(d: int):
    """Barycentric subdivision of the simplex boundary with the
    face-dimension coloring; returns (complex, coloring)."""
    if d > 3:
        raise DimensionCapExceeded("barycentric spheres are built for d <= 3")
    check_dimension(d)

    def token(subset) -> str:
        return "b" + "".join(str(i) for i in sorted(subset))

    # a facet is a maximal chain of proper faces: the prefixes of an order
    facets = {frozenset(token(p[:k]) for k in range(1, d + 2))
              for p in itertools.permutations(range(d + 2))}
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
# its star embedded by its class plan's walk (``moves._image_embedding``);
# a final check confirms that no minimal non-face of the diamond complex,
# partner pairs included, is a face of the ambient: it came out induced.


def ambient_with_induced_diamond(d: int, indices):
    """A balanced d-sphere containing the diamond complex of the index set,
    with its standard labels, as an induced subcomplex.

    Returns (ambient, coloring, identity embedding).
    """
    return ambient_with_induced_diamond_any(d, _check_index_set(indices, d))


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
    diamond complex (a ridge in one facet, its carrier), in ``sorted_face``
    order, that qualifies for it: it lies in one other facet of amb, whose
    trace on the diamond complex's vertices is the ridge alone.  So the
    ridges are read from the traces of d vertices of amb's other facets,
    sorted through one vertex-key table, until every block has its setting;
    a ridge's star in amb holds its carriers, as amb holds the diamond
    complex.  The ball and the ball minus the diamond complex are some of
    amb's facets, so both are built trusted."""
    dcomp = diamond_closed_form(d, sset)
    span, rest = dcomp.vertices, amb.facets - dcomp.facets
    key = {v: vertex_key(v) for v in span}.__getitem__
    traces = {t for t in (h & span for h in rest) if len(t) == d}
    out = dict.fromkeys(sset)
    for _, ridge in sorted((tuple(sorted(t, key=key)), t) for t in traces):
        star = amb._facets_containing(ridge)
        carriers = [h for h in star if h in dcomp.facets]
        if len(star) == 2 and len(carriers) == 1:
            block = block_of_facet(d, carriers[0])
            if out[block] is None:
                gone = frozenset(star) - dcomp.facets
                out[block] = RelativeComplex(Complex._trusted(amb.facets - gone),
                                             Complex._trusted(rest - gone)), ridge
                if None not in out.values():
                    break
    return out


# the chord pass's start, one per d, shared with its star index (a flip copies
# the star dict once and each star it patches once, toggling the exchange in)
_start_sphere = functools.lru_cache(maxsize=None)(cross_polytope)


def ambient_with_induced_diamond_any(d: int, indices):
    """One chord-killing pass (see above); accepts index sets that may
    contain d+1."""
    idx = _check_index_set(indices, d + 1)
    span = diamond_closed_form(d, idx).vertices
    amb = _start_sphere(d)
    coloring = standard_coloring(d)
    nonfaces = minimal_nonfaces(d, idx)
    chords = sorted((n for n in nonfaces if len({pair_index(v) for v in n}) == len(n)),
                    key=lambda f: (len(f), sorted_face(f)))
    stuck = ChordNotFlippable("no chord of %r could be flipped away" % (idx,))
    for f in chords:
        star = amb._facets_containing(f)
        if not star:
            continue
        spec = (len(f) - 1,)
        emb = _image_embedding(_flip_plan(d, spec), Complex._trusted(star))
        if emb is None:
            raise stuck
        try:
            res = apply_cross_flip_detailed(amb, CrossFlip(d=d, spec=spec, embedding=emb))
        except ComplexError:
            raise stuck from None
        coloring = extend_coloring_after_cross_flip(coloring, res)
        amb = res.complex
    identity = {v: v for v in sorted(span, key=vertex_key)}
    if _embeds_a_nonface(amb._star_index(), identity, [tuple(n) for n in nonfaces]):
        raise stuck
    return amb, coloring, identity


# ---------------------------------------------------------------------------
# reducibility


def verify_reducibility_composition(d: int, indices, ambient: Complex, site: CrossFlip) -> bool:
    """Check that the flip of the index set equals, up to an isomorphism
    fixing the untouched ambient pointwise, the two-step composition: flip
    the down-shifted copy of I+1, regroup, then flip (I+1) with 0 added."""
    idx = _check_index_set(indices, d)
    if d in idx:
        raise IndexSetViolatesPrecondition("requires d outside the index set")
    emb = dict(site.embedding)
    rho = shift_down_map(d)
    sigma = _compose(swap_top_map(d), rho)

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
    for idx in _all_index_sets(d - 1):
        amb, _coloring, emb = ambient_with_induced_diamond(d, idx)
        site = CrossFlip(d=d, spec=idx, embedding=emb)
        good = verify_reducibility_composition(d, idx, amb, site)
        ok = ok and good
        lines.append("reducibility d=%d I=%r: %s" % (d, list(idx), "ok" if good else "FAILED"))
    return ok, lines


# ---------------------------------------------------------------------------
# the pentagon composition


def _composition_search(start, start_coloring, untouched: Complex, allowed_specs,
                        target, max_depth: int) -> bool:
    """Breadth-first search for a flip sequence from restricted classes that
    keeps the facets of *untouched* and reproduces the target up to an
    isomorphism fixing its vertices; the allowed classes search each state
    over one site view (``moves._class_images``)."""
    d = start.dimension
    fixed_facets = untouched.facets
    fixed_vertices = {v: v for v in untouched.vertices}
    plans = [_flip_plan(d, spec) for spec in allowed_specs]
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
            for spec, images in zip(allowed_specs, _class_images(cur, coloring, plans)):
                for img in images:
                    site = _image_site(d, spec, img)
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
        return _composition_search(
            ambient, coloring, untouched, [(2,), (0, 2)], direct, max_depth=3,
        )
    # reversed reading: flip the glued complement copy of {0,2} back
    iso = _image_embedding(_flip_plan(2, (0, 2)), _flip_plan(2, (1, 2)).complement)
    back_emb = {u: res.vertex_map[w] for u, w in iso.items()}
    back_site = CrossFlip(d=2, spec=(0, 2), embedding=back_emb)
    back_coloring = extend_coloring_after_cross_flip(coloring, res)
    res2 = apply_cross_flip_detailed(direct, back_site)
    target = res2.complex
    untouched2 = delete_subcomplex(direct, Complex(back_site.image_facets()))
    return _composition_search(
        direct, back_coloring, untouched2, [(0, 1, 2), (1, 2)], target, max_depth=3,
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


def _all_index_sets(top: int):
    """Every nonempty subset of 0..top as a sorted tuple, by size."""
    for r in range(1, top + 2):
        for idx in itertools.combinations(range(top + 1), r):
            yield idx


def verify_hvector(d: int):
    ok = True
    lines = []
    n = 0
    for idx in _all_index_sets(d + 1):
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
    for idx in _all_index_sets(d):
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
    for idx in _all_index_sets(d + 1):
        cert = absolute_shelling_order(d, idx)
        verify_certificate(diamond_closed_form(d, idx), cert)
        if _restriction_histogram(cert.restrictions, d) != h_vector_formula(d, idx):
            ok = False
            lines.append("absolute shelling histogram off at I=%r" % (idx,))
        n_abs += 1
    lines.append("absolute shelling orders verified: %d (d=%d)" % (n_abs, d))

    n_rel = 0
    n_skip = 0
    for sset in _all_index_sets(d + 1):
        if len(sset) == d + 2:
            continue
        amb, _coloring, _emb = ambient_with_induced_diamond_any(d, sset)
        for i1, setting in _relative_settings(d, sset, amb).items():
            if setting is None:
                n_skip += 1
                continue
            seq = (i1,) + tuple(i for i in sset if i != i1)
            verify_certificate(setting[0], relative_shelling_order(d, seq, setting[1]))
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
