"""The four local moves: stellar subdivision/weld, bistellar flips,
elementary and inverse shellings, and cross-flips.

A cross-flip replaces an induced, shellable, co-shellable copy of a diamond
complex by the complement of that complex in the cross-polytope boundary.
Both sides are diamond complexes (the complement of the index set I is the
complementary index set in {0, ..., d+1}), so both shellability conditions
are decided by their degree-lexicographic shelling certificates, verified
restriction by restriction once per flip class per process, when the
class's plan is built; a certificate that fails raises.  Fresh vertices
created by subdivisions and cross-flips are labeled "w<k>" by a monotone
counter namespaced per complex.

An application costs its region and builds no ``Complex`` for it: the
image and the glued complement stay facet sets, and the result inherits
the ambient's vertex set, star index, common facet size and top "w<k>"
label, patched at the exchanged facets (``Complex._replaced``).

The image's inducedness is decided by the class's minimal non-faces, which
its plan lists once (``_FlipPlan.nonfaces``), read in closed form from the
index set (``diamond.minimal_nonfaces``): when emb embeds the diamond
complex D into c with every image facet a face of c, the image is induced
exactly when no minimal non-face N of D has emb(N) a face of c, that is,
when the stars of N's images share no facet.  Most of these non-faces are
partner pairs, each an edge test; a class-(d) image is one facet, has none
and reads nothing.  Whether the glued complement is induced in the result
is decided by facet traces, only when
``CrossFlipResult.complement_induced`` is read.

An elementary shelling removes a facet F = A | R (A, R disjoint and
nonempty) when (2) A is a face interior to the complex and (3) each
(A - {x}) | R = F - {x}, x in A, is in its boundary.  Both are read from
the star index, with no face of the boundary built: a ridge is on the
boundary when one facet contains it, so (3) is one lookup per ridge of F,
and A is on the boundary exactly when some facet h containing A has such
a ridge h - {y} with y outside A (``_on_boundary``).  Removing the
facet, or adding it in an inverse shelling, exchanges facets with
``Complex._replaced``, so a shelling move costs its facet's region.

Site search runs the class's ridge walk, compiled to integer slots, over
the ambient's facet-neighbour table (``Complex._site_view``): each step is
a list index and one dict lookup.  Each image is decided once, after its
first colour check passes, by the non-faces of the class.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from . import diamond as _diamond
from .complexes import (
    Complex,
    ComplexError,
    FaceNotPresent,
    _adjacency,
    _as_face,
    _induced_in,
    _require_boundary,
    boundary_complex,
    is_proper_coloring,
    link,
    partner,
    pair_index,
    sorted_face,
    vertex_key,
)
from .shelling import verify_certificate


class NotWeldable(ComplexError):
    pass


class NotApplicable(ComplexError):
    pass


class ConditionViolated(ComplexError):
    """A named elementary-shelling condition (1), (2) or (3) failed."""

    def __init__(self, condition: int, message: str):
        super().__init__("condition (%d): %s" % (condition, message))
        self.condition = condition


class NotInduced(ComplexError):
    pass


class EmbeddingNotInjective(ComplexError):
    pass


class NotApplicableOnBoundary(ComplexError):
    pass


# ---------------------------------------------------------------------------
# move records


@dataclass(frozen=True)
class BistellarFlip:
    """Exchange of the cone over the boundary of B with the cone over A."""

    A: frozenset
    B: frozenset


@dataclass(frozen=True)
class CrossFlip:
    """A diamond-complex index set plus an embedding into the ambient complex."""

    d: int
    spec: tuple
    embedding: dict = field(hash=False)

    def image_facets(self) -> frozenset:
        emb = self.embedding
        return frozenset(
            frozenset(emb[v] for v in f)
            for i in _diamond._check_index_set(self.d, self.spec, self.d + 1)
            for f in _diamond._block_facets(self.d, i)
        )


@dataclass(frozen=True)
class ShellingMove:
    """A facet together with its interior/boundary decomposition A, R."""

    facet: frozenset
    A: frozenset
    R: frozenset


@dataclass(frozen=True)
class CrossFlipResult:
    """The result complex, the total map from abstract cross-polytope
    vertices to its labels, the fresh labels, and the glued complement's
    facets.  Whether the glued complement is induced in the result is
    decided each time ``complement_induced`` is read, not when the flip
    is applied."""

    complex: Complex
    vertex_map: dict = field(hash=False)
    fresh_vertices: tuple
    glued: frozenset = field(repr=False)

    @property
    def complement_induced(self) -> bool:
        return _induced_in(self.complex, self.glued, frozenset().union(*self.glued))


def fresh_vertices(c: Complex, count: int) -> list:
    """Next *count* unused "w<k>" labels for the given complex."""
    top = c._top_w_label()
    return ["w%d" % (top + 1 + i) for i in range(count)]


# ---------------------------------------------------------------------------
# stellar moves


def stellar_subdivide(c: Complex, f, new_vertex: str | None = None) -> Complex:
    """Replace the star of f by the cone over its boundary joined with the
    link, introducing one new vertex."""
    f = _as_face(f)
    if not f:
        raise FaceNotPresent("cannot subdivide the empty face")
    if not c.has_face(f):
        raise FaceNotPresent("face %r is not in the complex" % (sorted_face(f),))
    if new_vertex is None:
        new_vertex = fresh_vertices(c, 1)[0]
    if new_vertex in c.vertices:
        raise ValueError("replacement vertex %r already present" % (new_vertex,))
    out = []
    for h in c.facets:
        if f <= h:
            out.extend((h - {x}) | {new_vertex} for x in f)
        else:
            out.append(h)
    return Complex.generated_by(out)


def stellar_weld(c: Complex, v: str, face_hint=None) -> Complex:
    """Invert a prior subdivision at the vertex v, when reconstructible.

    Searches for a face whose subdivision produced v; a reconstruction is
    accepted only if re-subdividing reproduces the input exactly.  When the
    link of v admits several join decompositions the subdivided face is not
    determined by the complex; pass ``face_hint`` to name it, otherwise the
    first valid candidate by size, then canonical order, is used.

    A valid face s has lk(v) = boundary(s) * L.  Fix a facet F of lk(v): it
    misses exactly one vertex z of s, and the x in F with (F - x) | {z} a
    facet of lk(v) are exactly the rest of s.  So the candidates are these
    faces s_z, one for each link vertex z outside F, and every valid face
    is among them.
    """
    if v not in c.vertices:
        raise FaceNotPresent("vertex %r is not in the complex" % (v,))
    lk_v = link(c, frozenset([v]))
    pool = lk_v.vertices
    outside = [h for h in c.facets if v not in h]
    if face_hint is not None:
        hinted = sorted_face(_as_face(face_hint))
        candidates = [hinted] if set(hinted) <= pool else []
    else:
        first = min(lk_v.facets, key=sorted_face)
        found = {
            frozenset([z]).union(x for x in first if (first - {x}) | {z} in lk_v.facets)
            for z in pool - first
        }
        candidates = sorted(
            (sorted_face(s) for s in found if len(s) >= 2),
            key=lambda t: (len(t), [vertex_key(x) for x in t]),
        )
    for cand in candidates:
        fprime = frozenset(cand)
        if c.has_face(fprime):
            continue
        ridge = fprime - {cand[0]}
        if not lk_v.has_face(ridge):
            continue
        rest = link(lk_v, ridge)
        if rest.vertices & fprime:
            continue
        welded = Complex.generated_by(outside + [fprime | g for g in rest.facets])
        if v in welded.vertices or not welded.has_face(fprime):
            continue
        try:
            again = stellar_subdivide(welded, fprime, new_vertex=v)
        except (FaceNotPresent, ValueError):
            continue
        if again == c:
            return welded
    raise NotWeldable("no face reconstructs vertex %r" % (v,))


# ---------------------------------------------------------------------------
# bistellar flips


def _boundary_of_simplex(b: frozenset) -> Complex:
    if len(b) == 1:
        return Complex.void()
    return Complex(b - {x} for x in b)


def apply_bistellar(c: Complex, flip: BistellarFlip) -> Complex:
    """Swap the cone A * boundary(B) for boundary(A) * B."""
    a, b = _as_face(flip.A), _as_face(flip.B)
    if not a or not b:
        raise NotApplicable("both faces of a flip must be nonempty")
    if a & b:
        raise NotApplicable("flip faces must be disjoint")
    if not c.has_face(a):
        raise NotApplicable("face %r is not in the complex" % (sorted_face(a),))
    if c.has_face(b):
        raise NotApplicable("face %r is already present" % (sorted_face(b),))
    if link(c, a) != _boundary_of_simplex(b):
        raise NotApplicable("link of %r is not the boundary of %r"
                            % (sorted_face(a), sorted_face(b)))
    removed = {a | (b - {x}) for x in b} if len(b) > 1 else {a}
    added = {(a - {x}) | b for x in a}
    if not removed <= c.facets:
        raise NotApplicable("flip region is not a union of facets")
    return Complex((c.facets - removed) | added)


def inverse_flip(flip: BistellarFlip) -> BistellarFlip:
    return BistellarFlip(A=flip.B, B=flip.A)


def list_bistellar(c: Complex) -> list:
    """All applicable flips, in a deterministic order.

    Candidates for B are the vertex set of the link of A (when it spans a
    missing simplex boundary) plus one fresh vertex for the facet
    subdivision case.
    """
    d = c.dimension
    if d is None:
        return []
    fresh = fresh_vertices(c, 1)[0]
    out = []
    all_faces = sorted(
        (f for f in c.all_faces() if f),
        key=lambda f: (len(f), sorted_face(f)),
    )
    for a in all_faces:
        lk_a = link(c, a)
        if lk_a == Complex.void():
            out.append(BistellarFlip(A=a, B=frozenset([fresh])))
            continue
        bverts = frozenset(lk_a.vertices)
        if len(bverts) != d + 2 - len(a):
            continue
        if c.has_face(bverts):
            continue
        if lk_a == _boundary_of_simplex(bverts):
            out.append(BistellarFlip(A=a, B=bverts))
    return out


# ---------------------------------------------------------------------------
# elementary shellings


def _check_shelling_conditions(c: Complex, f, a, r) -> None:
    """Conditions (1)-(3) for removing the facet f of c split as A | R.

    (1) is checked first; c must then have a boundary complex
    (``boundary_complex`` raises the same ``NotPure`` otherwise).  (2)
    asks that no ridge of c lying in one facet contain A, (3) that each
    ridge f - {x}, x in A, lie in f alone; its ridges are tried in
    canonical order, so a violation names the first one.
    """
    f, a, r = _as_face(f), _as_face(a), _as_face(r)
    if not a or not r:
        raise ConditionViolated(1, "both parts must be nonempty")
    if a | r != f or a & r:
        raise ConditionViolated(1, "facet must split as a disjoint union A | R")
    if f not in c.facets:
        raise ConditionViolated(1, "%r is not a facet" % (sorted_face(f),))
    _require_boundary(c)
    if _on_boundary(c, a):
        raise ConditionViolated(2, "A must be a face interior to the complex")
    for x in sorted_face(a):
        if not _on_rim(c, f - {x}):
            raise ConditionViolated(
                3, "%r is not in the boundary" % (sorted_face(f - {x}),)
            )


def _on_rim(c: Complex, ridge: frozenset) -> bool:
    """Whether the ridge lies in exactly one facet of c: one star lookup."""
    return len(c._facets_containing(ridge)) == 1


def _on_boundary(c: Complex, g: frozenset) -> bool:
    """Whether g is a face of ``boundary_complex(c)``, for a c that passes
    ``_require_boundary``.

    The boundary is generated by the ridges lying in one facet, so g is on
    it exactly when some facet h containing g has such a ridge h - {y}
    with y outside g.  Both facts are read from the star index; no face of
    the boundary is built.
    """
    for h in c._facets_containing(g):
        for y in h - g:
            if _on_rim(c, h - {y}):
                return True
    return False


def shelling_move(c: Complex, f, a, r) -> Complex:
    """Remove a facet whose decomposition satisfies the three conditions."""
    _check_shelling_conditions(c, f, a, r)
    return c._replaced(frozenset([_as_face(f)]), frozenset())


def find_shelling_decomposition(c: Complex, f):
    """First interior/boundary split (A, R) legalizing the removal of f,
    or None when no elementary shelling removes it."""
    f = _as_face(f)
    if len(f) < 2 or f not in c.facets:
        return None
    _require_boundary(c)
    # condition (1) holds for every split below, and condition (3) is
    # that A lies in the vertices opposite the rim ridges of f
    rim = frozenset(x for x in f if _on_rim(c, f - {x}))
    for size in range(1, len(f)):
        for a_tuple in itertools.combinations(sorted_face(f), size):
            a = frozenset(a_tuple)
            if a <= rim and not _on_boundary(c, a):
                return a, f - a
    return None


def inverse_shelling(c: Complex, f_new, a, r) -> Complex:
    """Add a facet; the post-state must satisfy the removal conditions."""
    f_new = _as_face(f_new)
    if c.has_face(f_new):
        raise ConditionViolated(1, "facet %r already present" % (sorted_face(f_new),))
    grown = _with_facet(c, f_new)
    _check_shelling_conditions(grown, f_new, a, r)
    return grown


def _with_facet(c: Complex, f_new: frozenset) -> Complex:
    """c with its non-face f_new added, swallowing the facets inside it: those
    in the stars of its vertices, and the void complex's empty facet."""
    stars = c._star_index()
    swallowed = frozenset(h for x in f_new for h in stars.get(x, ()) if h < f_new)
    return c._replaced(swallowed | {frozenset()}, frozenset([f_new]))


# ---------------------------------------------------------------------------
# cross-flips


def apply_cross_flip(c: Complex, flip: CrossFlip) -> Complex:
    return apply_cross_flip_detailed(c, flip).complex


def apply_cross_flip_detailed(c: Complex, flip: CrossFlip) -> CrossFlipResult:
    """Replace the embedded diamond complex by its cross-polytope complement.

    Checks, in order: the embedding is injective and covers the abstract
    vertices, the image is a subcomplex, and it is induced: no minimal
    non-face of the class (``_FlipPlan.nonfaces``) maps to a face of c.
    Both sides shell: the class's plan verified their certificates.  The
    returned record carries the total map from abstract cross-polytope
    vertices to ambient labels and the glued complement's facets; whether
    those sit induced in the result is decided when the record's
    ``complement_induced`` is read.
    """
    d = flip.d
    spec = _diamond._check_index_set(d, flip.spec, d)
    plan = _flip_plan(d, spec)
    abstract = plan.abstract
    emb = dict(flip.embedding)
    missing = abstract.vertices - set(emb)
    if missing:
        raise EmbeddingNotInjective(
            "embedding does not cover %r" % sorted(missing, key=vertex_key)
        )
    image_of = {v: emb[v] for v in abstract.vertices}
    if len(set(image_of.values())) != len(image_of):
        raise EmbeddingNotInjective("embedding identifies two vertices")

    image = frozenset(frozenset(image_of[v] for v in f) for f in abstract.facets)
    facets = c.facets
    if not all(f in facets or c.has_face(f) for f in image):
        raise NotInduced("embedded complex is not a subcomplex of the ambient")
    if plan.nonfaces and _embeds_a_nonface(
            c._star_index(), [image_of[v] for v in plan.order], plan.nonfaces):
        raise NotInduced("embedded complex is not induced in the ambient")

    total = dict(image_of)
    for v, w in zip(plan.unseen, fresh_vertices(c, len(plan.unseen))):
        total[v] = w
    glued = frozenset(frozenset(total[v] for v in f) for f in plan.complement.facets)
    # The result is an antichain.  A glued facet g is no face of a kept
    # facet: if g has a fresh vertex, no facet of c contains it; otherwise
    # g would be a face of c on image vertices, so (the image being
    # induced) a face of the image as large as its facets, hence a facet,
    # and the image shares no facet with the complement.  A kept facet h is no face of a
    # glued facet: h would have image vertices only, so it would be a face
    # of some image facet F, itself a face of c; as c is an antichain,
    # h = F and h was removed.
    return CrossFlipResult(
        complex=c._replaced(image, glued),
        vertex_map=total,
        fresh_vertices=tuple(total[v] for v in plan.unseen),
        glued=glued,
    )


def _compile_walk(abstract: Complex, root: frozenset):
    """The breadth-first ridge walk over the dual graph of *abstract* from
    its facet *root*, visiting neighbours in canonical facet order,
    compiled to integer slots as (order, steps).

    Abstract vertices are numbered in first-placement order (``order``:
    the root in ``sorted_face`` order, then each new vertex of the walk)
    and abstract facets in walk order (the root is 0).  Step k reaches
    facet k + 1 and is ``(new vertex slot, dropped vertex slot, origin
    facet slot)``: the new facet is the origin minus the dropped vertex
    plus the new one.
    """
    d = len(root) - 1
    afacets = sorted(abstract.facets, key=sorted_face)
    order = list(sorted_face(root))
    vslot = {v: i for i, v in enumerate(order)}
    fslot = {root: 0}
    steps = []
    frontier = [root]
    while frontier:
        cur = frontier.pop(0)
        for nxt in afacets:
            if nxt in fslot:
                continue
            shared = cur & nxt
            if len(shared) == d:
                (x_new,) = nxt - shared
                (x_drop,) = cur - shared
                if x_new not in vslot:
                    vslot[x_new] = len(order)
                    order.append(x_new)
                steps.append((vslot[x_new], vslot[x_drop], fslot[cur]))
                fslot[nxt] = len(fslot)
                frontier.append(nxt)
    if len(fslot) != len(afacets):
        raise ValueError("abstract flip complex is not ridge-connected")
    return tuple(order), tuple(steps)


def _embeds_a_nonface(stars: dict, img: list, nonfaces: tuple) -> bool:
    """Whether a non-face, mapped through *img* (the ambient vertex of each
    slot), is a face of the ambient with star index *stars*: whether the
    stars of its images share a facet."""
    for n in nonfaces:
        if len(n) == 2:
            if not stars[img[n[0]]].isdisjoint(stars[img[n[1]]]):
                return True
        elif frozenset.intersection(*[stars[img[i]] for i in n]):
            return True
    return False


class _FlipPlan:
    """What a cross-flip of one class needs that does not depend on the
    ambient complex: the abstract diamond complex of I with its ridge walk
    (``_compile_walk``) compiled twice, and its cross-polytope complement,
    the diamond complex of {0, ..., d+1} minus I, with the vertices only
    the complement has.  Building a plan verifies the absolute shelling
    certificate of both sides (``diamond.absolute_shelling_order``); a
    failing one raises, so a plan exists only when both sides shell.

    Site search walks from the first facet in ``sorted_face`` order
    (``order``, ``steps``, and ``pairs``, the pair index of each vertex
    slot); the anchored embedding of a flip script walks from the entry
    facet of the lowest block (``anchor_order``, ``anchor_steps``).  An
    image is induced unless one of ``nonfaces`` (the minimal non-faces of
    ``diamond.minimal_nonfaces``, as ascending slots of ``order``, edges
    first) maps to a face of the ambient."""

    __slots__ = ("abstract", "order", "steps", "pairs", "nonfaces",
                 "anchor_order", "anchor_steps", "complement", "unseen")

    def __init__(self, d: int, spec: tuple):
        rest = tuple(i for i in range(d + 2) if i not in spec)
        abstract = _diamond.diamond_closed_form(d, spec)
        complement = _diamond.diamond_closed_form(d, rest)
        for side, idx in ((abstract, spec), (complement, rest)):
            verify_certificate(side, _diamond.absolute_shelling_order(d, idx))
        root = min(abstract.facets, key=sorted_face)
        self.order, self.steps = _compile_walk(abstract, root)
        self.anchor_order, self.anchor_steps = _compile_walk(
            abstract, _diamond.entry_facet(d, spec[0]))
        self.abstract = abstract
        self.pairs = tuple(pair_index(v) for v in self.order)
        slot = {v: i for i, v in enumerate(self.order)}
        self.nonfaces = tuple(sorted((tuple(sorted(slot[v] for v in n))
                                      for n in _diamond.minimal_nonfaces(d, spec)),
                                     key=lambda t: (len(t), t)))
        self.complement = complement
        self.unseen = tuple(
            sorted(complement.vertices - abstract.vertices, key=vertex_key)
        )


@functools.lru_cache(maxsize=None)
def _flip_plan(d: int, spec: tuple) -> _FlipPlan:
    """The plan of the class with the checked index set *spec*; one per
    class, so the cache holds at most 2^(d+1)-1 plans per dimension."""
    return _FlipPlan(d, spec)


def extend_coloring_after_cross_flip(coloring: dict, result: CrossFlipResult) -> dict:
    """Colors for the glued complement: each fresh vertex inherits the color
    of its pair partner's image.  Stale entries for vertices no longer in
    the complex are dropped, since their labels may be reused later."""
    fresh = set(result.fresh_vertices)
    out = dict(coloring)
    keys = coloring.keys()
    for v in (keys - result.complex.vertices) | (keys & fresh):
        del out[v]
    for v, w in result.vertex_map.items():
        if w in fresh:
            out[w] = coloring[result.vertex_map[partner(v)]]
    return out


def find_cross_flip_sites(c: Complex, coloring: dict, indices) -> list:
    """All color-consistent induced embeddings of the diamond complex of the
    given index set, deduplicated by image, in a deterministic order."""
    return list(_iter_cross_flip_sites(c, coloring, indices))


def has_cross_flip_site(c: Complex, coloring: dict, indices) -> bool:
    """Whether find_cross_flip_sites would be nonempty; stops at the first
    site."""
    return next(_iter_cross_flip_sites(c, coloring, indices), None) is not None


def _iter_cross_flip_sites(c: Complex, coloring: dict, indices):
    """The sites of find_cross_flip_sites, yielded one at a time in order.

    Each root is a facet of c in canonical order with its vertices in
    every order; the plan's ridge walk then crosses each ridge through the
    site view's neighbour table, so it goes on only across ridges lying in
    exactly two facets.  Every image facet is a facet of c, so the image is
    a subcomplex by construction.  An image is decided once, after its
    first colour check passes, by the class's minimal non-faces
    (``_FlipPlan.nonfaces``); the verdict is whether the image is induced,
    so it depends on the image only, not on the embedding that found it.
    """
    d = c.dimension
    if d is None:
        return
    try:
        spec = _diamond._check_index_set(d, indices, d)
    except ValueError:
        return
    plan = _flip_plan(d, spec)
    order, steps, pairs, nonfaces = plan.order, plan.steps, plan.pairs, plan.nonfaces
    view = c._site_view()
    neighbours = view.neighbours
    stars = c._star_index() if nonfaces else None

    decided: set[frozenset] = set()
    for target_sorted, target in view.ordered:
        if len(target_sorted) != d + 1:
            continue  # a smaller facet of a non-pure complex is no image
        for perm in itertools.permutations(target_sorted):
            img = list(perm)  # ambient vertex of each abstract vertex slot
            fmap = [target]  # ambient facet of each abstract facet slot
            for x_new, x_drop, origin in steps:
                hit = neighbours[fmap[origin]].get(img[x_drop])
                if hit is None:
                    break
                img_new, w_new = hit
                if x_new < len(img):
                    if img[x_new] != w_new:
                        break
                elif w_new in img:
                    break
                else:
                    img.append(w_new)
                fmap.append(img_new)
            else:  # the walk placed every abstract facet
                image = frozenset(fmap)
                if image in decided or len(image) != len(fmap):
                    continue
                if not _color_consistent(coloring, img, pairs):
                    continue
                decided.add(image)
                if not _embeds_a_nonface(stars, img, nonfaces):
                    yield CrossFlip(d=d, spec=spec, embedding=dict(zip(order, img)))


def _color_consistent(coloring: dict, img: list, pairs: tuple) -> bool:
    """Whether the two images of each abstract pair share one color and
    different pairs have different colors."""
    pair_color: dict[int, int] = {}
    for w, i in zip(img, pairs):
        col = coloring.get(w)
        if col is None or pair_color.setdefault(i, col) != col:
            return False
    return len(set(pair_color.values())) == len(pair_color)


# ---------------------------------------------------------------------------
# balancedness


def preserves_balancedness(c: Complex, coloring: dict, move) -> bool:
    """Whether the move keeps every edge bichromatic under the canonical
    color extension (fresh vertices forced, existing vertices unchanged)."""
    d = c.dimension
    m = d + 1
    if isinstance(move, ShellingMove):
        if c.has_face(move.facet) and move.facet in c.facets:
            shelling_move(c, move.facet, move.A, move.R)
            return True
        after = inverse_shelling(c, move.facet, move.A, move.R)
        extended = _greedy_extend(coloring, after, m)
        return extended is not None and is_proper_coloring(after, extended, m)
    if isinstance(move, BistellarFlip):
        after = apply_bistellar(c, move)
        extended = _greedy_extend(coloring, after, m)
        return extended is not None and is_proper_coloring(after, extended, m)
    if isinstance(move, CrossFlip):
        res = apply_cross_flip_detailed(c, move)
        extended = extend_coloring_after_cross_flip(coloring, res)
        return is_proper_coloring(res.complex, extended, m)
    raise NotApplicable("unknown move type %r" % type(move).__name__)


def _greedy_extend(coloring: dict, after: Complex, m: int):
    out = dict(coloring)
    adj = _adjacency(after)
    for v in sorted(after.vertices, key=vertex_key):
        if v in out:
            continue
        used = {out[w] for w in adj[v] if w in out}
        free = [col for col in range(m) if col not in used]
        if not free:
            return None
        out[v] = free[0]
    return out


# ---------------------------------------------------------------------------
# boundary realization of a bistellar flip


def boundary_bistellar_realization(c: Complex, a, b) -> Complex:
    """Add or remove the facet A | B so that the boundary of the result is
    exactly the flipped boundary of the input."""
    from .complexes import ManifoldVerdict, is_combinatorial_manifold

    a, b = _as_face(a), _as_face(b)
    if is_combinatorial_manifold(c) != ManifoldVerdict.WITH_BOUNDARY:
        raise NotApplicableOnBoundary("ambient must be a manifold with boundary")
    bd = boundary_complex(c)
    if not bd.has_face(a):
        raise NotApplicableOnBoundary("face is not on the boundary")
    if bd.has_face(b):
        raise NotApplicableOnBoundary("target face already on the boundary")
    if link(bd, a) != _boundary_of_simplex(b):
        raise NotApplicableOnBoundary("boundary link does not match")
    f_full = a | b
    if c.has_face(f_full):
        if f_full not in c.facets:
            raise NotApplicableOnBoundary("flip region is not a single facet")
        result = c._replaced(frozenset([f_full]), frozenset())
    else:
        result = _with_facet(c, f_full)
    want = apply_bistellar(bd, BistellarFlip(A=a, B=b))
    got = boundary_complex(result)
    if got != want:
        raise NotApplicableOnBoundary("result boundary is not the flipped boundary")
    return result
