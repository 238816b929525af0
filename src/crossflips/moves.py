"""The four local moves: stellar subdivision, bistellar flips, elementary
and inverse shellings, and cross-flips.

A cross-flip replaces an induced, shellable, co-shellable copy of a diamond
complex by the complement of that complex in the cross-polytope boundary.
Both sides are diamond complexes (the complement of the index set I is the
complementary index set in {0, ..., d+1}), so both shellability conditions
are decided by their degree-lexicographic shelling certificates, verified
restriction by restriction once per flip class per process, when the
class's plan is built; a certificate that fails raises.  Index sets are
checked by ``diamond._check_index_set`` alone, and fresh "w<k>" labels
formed by ``complexes.fresh_vertices`` alone (importable from here too).

An application builds no ``Complex`` besides its result.  The class's plan
holds exchange tables over its slots (``_FlipPlan.slots``): the vertices
of each abstract and each complement facet, the image and complement
facets containing each slot, and the slot each fresh vertex takes its
colour from.  An application maps the slots to ambient vertices once and
reads from the tables the image (for the subcomplex test and the
exchange alike), the glued facets and the per-vertex delta it hands
``Complex._replaced`` (vertex -> the image and glued facets containing
it, the exchange at that vertex).  The result inherits the ambient's
vertex set, star index, common facet size and top "w<k>" label, patched
at the exchanged facets; beyond its region, a flip pays one C-level copy
each of the facet set, the star dict, the vertex set (when a vertex comes
or goes) and, in the colouring extension, the colouring.  The colouring
extension reads each fresh colour from its source slot
(``CrossFlipResult.sources``).  Bistellar
flips and stellar subdivisions cost their region the same way: each
exchanges a star read from the star index, and a flip of A for B compares
the star of A with the facets of A * boundary(B) (``_join_boundary``)
instead of building the link of A.

The image's inducedness is decided by the class's minimal non-faces, which
its plan lists once (``_FlipPlan.nonfaces``), read in closed form from the
index set (``diamond.minimal_nonfaces``): when emb embeds the diamond
complex D into c with every image facet a face of c, the image is induced
exactly when no minimal non-face N of D has emb(N) a face of c, that is,
when the stars of N's images share no facet.  Most of these non-faces are
partner pairs, each an edge test; a class-(d) image is one facet, has none
and reads nothing.  Whether the glued complement is induced in the result
is decided the same way, by the minimal non-faces of the complement class
(``_FlipPlan.complement_nonfaces``), only when
``CrossFlipResult.complement_induced`` is read.

An elementary shelling removes a facet F = A | R (A, R disjoint and
nonempty) when (2) A is a face interior to the complex and (3) each
(A - {x}) | R = F - {x}, x in A, is in its boundary.  Both are read from
the star index, with no face of the boundary built: a ridge is on the
boundary when one facet contains it, so (3) is one lookup per ridge of F,
and A is on the boundary exactly when some facet h containing A has such
a ridge h - {y} with y outside A (``_on_boundary``).  So F has at most one
split: (3) puts A inside the rim of F, the vertices x with F - {x} on the
boundary, and a rim vertex y outside A would leave A on the boundary
ridge F - {y}.  ``find_shelling_decomposition`` reads the rim with one
lookup per ridge of F and makes one boundary test, of A = rim.  Removing the
facet, or adding it in an inverse shelling, exchanges facets with
``Complex._replaced``, so a shelling move costs its facet's region.  The
boundary realization of a flip of A for B is one such move, checked: the
facet A | B removed with interior part B, or added with A.

Site search runs the class's ridge walk over a view of the ambient that
it builds for itself, as the complex keeps none (``_site_view``): the
facets in canonical order and their facet-neighbour table.  One call
(``_class_images``) builds that view, the rainbow roots and a reference to
the star index once for every class searched over one complex.  Each
class's plan compiles its whole search once into one generated generator
(``_compile_site_search``): it loops over the roots and their vertex
orders, takes one dict lookup per walk step with the test that a new
vertex is unused unrolled, deduplicates images by their facet sets, and
tests colours and non-faces in line.  The colour test is exact in two
halves: the root facet holds each pair once, so only a rainbow facet (d + 1
distinct colours, ``_rainbow_roots``) roots an image, and a walk step lists
those once for every class; every walk step swaps a vertex for its
partner, so a completed walk only compares each later vertex with the root
vertex of its pair.  Each image is decided once, after its colour test
passes, by the non-faces of the class.  The search yields images as vertex
lists; only the callers that hand out sites wrap them in a ``CrossFlip``.
The walk crosses only ridges lying in exactly two facets, so an image
with an interior ridge in three or more facets of the ambient is not
found, though its site applies.  The same search, uncoloured and from
every facet, embeds a diamond complex onto one image of it
(``_image_embedding``); a plan builds one site view of its diamond
complex and compiles both its walks over it (``_compile_walk``).

Two vertex orders of a root that differ by an automorphism of the diamond
complex fixing the root facet embed one image.  Each plan checks the swaps
of neighbouring root slots u, w that may be such automorphisms on its
diamond complex's facets, with no search run: facets across a ridge
differ in one pair, so the walk from the swapped order completes exactly
when the pair swap (u w)(partner(u) partner(w)) maps the facets onto
themselves.  It marks the orders increasing along every checked swap, the
first of each orbit of the group they generate (``_root_orbits``,
``_FlipPlan.mask``).  When no ridge of the ambient lies in three or more
facets, the orders of an orbit all complete or all fail, and those that
complete share one image, one colour verdict (an automorphism keeps
partner pairs) and one non-face verdict, for any colouring and any
complex.  There the site search walks the marked orders alone
(``_class_images``); a ridge in three facets keeps the full loop.  The
first order of an orbit is the one the full loop reaches first, so the
images, embeddings and their order are the same.  ``_image_embedding``
always walks the marked orders alone: a walk completing onto a complex
with the diamond complex's facet count and size is an isomorphism, so
that complex has no ridge in three facets, and on one that has, no order
completes.
"""

from __future__ import annotations

import collections
import functools
import itertools
import operator

from . import diamond as _diamond
from .complexes import (
    Complex,
    ComplexError,
    FaceNotPresent,
    _as_face,
    _neighbour_table,
    _Record,
    _require_boundary,
    fresh_vertices,
    is_proper_coloring,
    partner,
    pair_index,
    sorted_face,
    vertex_key,
)
from .shelling import verify_certificate


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


class BistellarFlip(_Record):
    """Exchange of the cone over the boundary of B with the cone over A."""

    __slots__ = ("A", "B")


class CrossFlip(_Record):
    """A diamond-complex index set plus an embedding into the ambient complex."""

    __slots__ = ("d", "spec", "embedding")
    _unhashed = ("embedding",)

    def image_facets(self) -> frozenset:
        """The embedded facets, read from the class plan's tables; the index
        set must lie in 0..d, as ``apply_cross_flip_detailed`` asks."""
        plan = _flip_plan(self.d, _diamond._check_index_set(self.spec, self.d))
        labels = list(map(self.embedding.__getitem__, plan.order))
        return frozenset(frozenset(row(labels)) for row in plan.image_rows)


class ShellingMove(_Record):
    """A facet together with its interior/boundary decomposition A, R."""

    __slots__ = ("facet", "A", "R")


class CrossFlipResult(_Record):
    """The result complex, the total map from abstract cross-polytope
    vertices to its labels, the fresh labels, the glued complement's facets,
    the complement class's minimal non-faces and, for each fresh label, the
    label whose colour it inherits (its pair partner's image).  Whether the
    glued complement is induced in the result is decided from these each
    time ``complement_induced`` is read, not when the flip is applied."""

    __slots__ = ("complex", "vertex_map", "fresh_vertices", "glued", "nonfaces", "sources")
    _unhashed = ("vertex_map",)
    _hidden = ("glued", "nonfaces", "sources")

    @property
    def complement_induced(self) -> bool:
        return not _embeds_a_nonface(self.complex._star_index(), self.vertex_map, self.nonfaces)


# ---------------------------------------------------------------------------
# stellar moves


def stellar_subdivide(c: Complex, f, new_vertex: str | None = None) -> Complex:
    """Replace the star of f by the cone over its boundary joined with the
    link, introducing one new vertex."""
    f = _as_face(f)
    if not f:
        raise FaceNotPresent("cannot subdivide the empty face")
    star = frozenset(c._facets_containing(f))
    if not star:
        raise FaceNotPresent("face %r is not in the complex" % (sorted_face(f),))
    if new_vertex is None:
        new_vertex = fresh_vertices(c, 1)[0]
    if new_vertex in c.vertices:
        raise ValueError("replacement vertex %r already present" % (new_vertex,))
    # An antichain: an added facet (h - {x}) | {v}, v new, lies in no kept
    # facet; a kept facet inside it would lie in h without holding f; and inside
    # (g - {y}) | {v} it puts y, in f and so in h, in h - {x}: x = y and h = g.
    return c._replaced(star, frozenset((h - {x}) | {new_vertex} for h in star for x in f))


# ---------------------------------------------------------------------------
# bistellar flips


def _join_boundary(a: frozenset, b: frozenset) -> frozenset:
    """The facets A | (B - {x}), x in B, of A * boundary(B) ({A} when B is
    a vertex).  For A disjoint from B they are the facets containing A
    exactly when the link of A is boundary(B)."""
    return frozenset(a | (b - {x}) for x in b)


def apply_bistellar(c: Complex, flip: BistellarFlip) -> Complex:
    """Swap the cone A * boundary(B) for boundary(A) * B."""
    a, b = _as_face(flip.A), _as_face(flip.B)
    if not a or not b:
        raise NotApplicable("both faces of a flip must be nonempty")
    if a & b:
        raise NotApplicable("flip faces must be disjoint")
    star = frozenset(c._facets_containing(a))
    if not star:
        raise NotApplicable("face %r is not in the complex" % (sorted_face(a),))
    if c.has_face(b):
        raise NotApplicable("face %r is already present" % (sorted_face(b),))
    if star != _join_boundary(a, b):
        raise NotApplicable("link of %r is not the boundary of %r"
                            % (sorted_face(a), sorted_face(b)))
    # An antichain: the added facets (A - {x}) | B share a size and lie in no
    # kept facet, as B is no face of c; a kept facet inside one misses some y
    # in B, so it is the facet A | (B - {y}), which was removed.
    return c._replaced(star, frozenset((a - {x}) | b for x in a))


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
    for a in sorted((f for f in c.all_faces() if f), key=lambda f: (len(f), sorted_face(f))):
        if a in c.facets:  # its link is the void complex
            out.append(BistellarFlip(A=a, B=frozenset([fresh])))
            continue
        star = c._facets_containing(a)
        bverts = frozenset().union(*star) - a
        if (len(bverts) == d + 2 - len(a) and not c.has_face(bverts)
                and frozenset(star) == _join_boundary(a, bverts)):
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
    """The interior/boundary split (A, R) legalizing the removal of f, or
    None when no elementary shelling removes it.  A facet has at most one
    such split: A is its rim, the vertices opposite its rim ridges."""
    f = _as_face(f)
    if len(f) < 2 or f not in c.facets:
        return None
    _require_boundary(c)
    # condition (3) asks A <= rim.  A rim vertex y outside A leaves A on
    # the rim ridge f - {y}, hence on the boundary, against condition (2);
    # so A = rim is the only candidate, with one boundary test
    rim = frozenset(x for x in f if _on_rim(c, f - {x}))
    if rim and rim != f and not _on_boundary(c, rim):
        return rim, f - rim
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
    return c._replaced(swallowed | (c.facets & {frozenset()}), frozenset([f_new]))


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
    ``complement_induced`` is read.  The image, the glued facets and the
    exchange's per-vertex delta are read from the plan's exchange tables.
    """
    d = flip.d
    if d != c.dimension:
        raise NotApplicable("a flip of dimension %s does not apply to a complex of dimension %s"
                            % (d, c.dimension))
    spec = _diamond._check_index_set(flip.spec, d)
    plan = _flip_plan(d, spec)
    emb = dict(flip.embedding)
    missing = plan.abstract.vertices.difference(emb)
    if missing:
        raise EmbeddingNotInjective(
            "embedding does not cover %r" % sorted(missing, key=vertex_key)
        )
    labels = list(map(emb.__getitem__, plan.order))  # the ambient vertex of each slot
    if len(set(labels)) != len(labels):
        raise EmbeddingNotInjective("embedding identifies two vertices")

    image = [frozenset(row(labels)) for row in plan.image_rows]
    removed = frozenset(image)
    # c has dimension d, so a face of c with d + 1 vertices is a facet
    if not removed <= c.facets:
        raise NotInduced("embedded complex is not a subcomplex of the ambient")
    if plan.nonfaces and _embeds_a_nonface(c._star_index(), labels, plan.nonfaces):
        raise NotInduced("embedded complex is not induced in the ambient")

    labels += fresh_vertices(c, len(plan.unseen))
    glued = [frozenset(row(labels)) for row in plan.glued_rows]
    added = frozenset(glued)
    exchanged = image + glued
    delta = {x: ex(exchanged) for x, ex in zip(labels, plan.slot_rows)}
    # The result is an antichain.  A glued facet g is no face of a kept
    # facet: if g has a fresh vertex, no facet of c contains it; otherwise
    # g would be a face of c on image vertices, so (the image being
    # induced) a face of the image as large as its facets, hence a facet,
    # and the image shares no facet with the complement.  A kept facet h is no face of a
    # glued facet: h would have image vertices only, so it would be a face
    # of some image facet F, itself a face of c; as c is an antichain,
    # h = F and h was removed.
    return CrossFlipResult(
        complex=c._replaced(removed, added, delta),
        vertex_map=dict(zip(plan.slots, labels)),
        fresh_vertices=tuple(labels[len(plan.order):]),
        glued=added,
        nonfaces=plan.complement_nonfaces,
        sources=plan.sources(labels),
    )


def _compile_walk(abstract: Complex, root: frozenset, view: tuple | None = None):
    """The breadth-first ridge walk over the dual graph of *abstract* from
    its facet *root*, read from its site view (``_site_view``; *view* when
    given): each facet's neighbours are taken in the order of their rank in
    the view's ``ordered`` list, which is ``sorted_face`` order, compiled to
    integer slots as (order, steps).

    Abstract vertices are numbered in first-placement order (``order``:
    the root in ``sorted_face`` order, then each new vertex of the walk)
    and abstract facets in walk order (the root is 0).  Step k reaches
    facet k + 1 and is ``(new vertex slot, dropped vertex slot, origin
    facet slot)``: the new facet is the origin minus the dropped vertex
    plus the new one.  Facets of the cross-polytope boundary that share a
    ridge differ in one pair, so every step swaps a vertex for its partner.
    """
    ordered, neighbours, _thin = view or _site_view(abstract)
    rank = {h: i for i, (_, h) in enumerate(ordered)}
    order = list(sorted_face(root))
    vslot = {v: i for i, v in enumerate(order)}
    fslot = {root: 0}
    steps = []
    frontier = [root]
    while frontier:
        cur = frontier.pop(0)
        for x_drop, (nxt, x_new) in sorted(neighbours[cur].items(),
                                           key=lambda item: rank[item[1][0]]):
            if nxt in fslot:
                continue
            if x_new not in vslot:
                vslot[x_new] = len(order)
                order.append(x_new)
            steps.append((vslot[x_new], vslot[x_drop], fslot[cur]))
            fslot[nxt] = len(fslot)
            frontier.append(nxt)
    if len(fslot) != abstract.n_facets:
        raise ValueError("abstract flip complex is not ridge-connected")
    return tuple(order), tuple(steps)


def _compile_site_search(order: tuple, steps: tuple, d: int, nonfaces: tuple, name: str):
    """The site search along the ridge walk (*order*, *steps*) as one
    generated generator ``search(nb, roots, colour, stars, mask=None)``
    labelled *name*.  Each of the ``(sorted_face(h), h)`` *roots* is walked
    over the neighbour table *nb* in every vertex order ``permutations``
    yields or, given a plan's *mask* (``_root_orbits``), in those the mask
    marks, the first order of each root orbit; one ``get`` per step; a step
    reaching a placed slot compares it, one placing a new slot tests it
    against the placed slots off its origin facet (*nb* never maps a facet
    to a vertex of its own).  A walk that completes is skipped when its
    facet set was decided before or a later slot's ``colour`` differs from
    its root slot's; otherwise it is decided, and yielded as the ambient
    vertex of each slot unless one of *nonfaces* maps to a face: the stars
    (*stars*) of a pair meet, or those of a larger non-face share a facet."""
    root_slot = {pair_index(v): i for i, v in enumerate(order[:d + 1])}
    later = [(i, root_slot[pair_index(v)]) for i, v in enumerate(order) if i > d]
    slots = ["a%d" % i for i in range(d + 1)]
    lines = ["def search(nb, roots, colour, stars, mask=None):",
             "    decided = set()",
             "    for order, f0 in roots:",
             "        n0 = nb[f0]",
             "        orders = permutations(order)",
             "        for %s, in orders if mask is None else compress(orders, mask):"
             % ", ".join(slots)]
    fetched, fslots = {0}, [set(range(d + 1))]  # the vertex slots of each facet slot
    for k, (x_new, x_drop, origin) in enumerate(steps, 1):
        fslots.append(fslots[origin] - {x_drop} | {x_new})
        if origin not in fetched:
            fetched.add(origin)
            lines.append("            n%d = nb[f%d]" % (origin, origin))
        lines.append("            hit = n%d.get(a%d)" % (origin, x_drop))
        lines.append("            if hit is None: continue")
        if x_new < len(slots):
            lines.append("            f%d, w = hit" % k)
            lines.append("            if w != a%d: continue" % x_new)
        else:
            new = "a%d" % x_new
            lines.append("            f%d, %s = hit" % (k, new))
            others = [s for i, s in enumerate(slots) if i not in fslots[origin]]
            if others:
                lines.append("            if %s: continue"
                             % " or ".join("%s == %s" % (new, s) for s in others))
            slots.append(new)
    tests = ["image in decided"] + ["colour(a%d) != colour(a%d)" % p for p in later]
    lines.append("            image = frozenset((%s,))"
                 % ", ".join("f%d" % k for k in range(len(steps) + 1)))
    lines.append("            if %s: continue" % " or ".join(tests))
    lines.append("            decided.add(image)")
    for n in nonfaces:
        if len(n) == 2:
            lines.append("            if not stars[a%d].isdisjoint(stars[a%d]): continue" % n)
        else:
            lines.append("            if %s: continue" % " & ".join("stars[a%d]" % i for i in n))
    lines.append("            yield [%s]" % ", ".join(slots))
    namespace: dict = {"permutations": itertools.permutations, "compress": itertools.compress}
    exec(compile("\n".join(lines), name, "exec"), namespace)
    return namespace["search"]


def _root_orbits(abstract: Complex, order: tuple, d: int):
    """The mask of the first vertex order of each root orbit, over the
    orders ``permutations(range(d + 1))`` yields, or None when no swap
    checks.

    An automorphism keeps the star sizes of a vertex and of its partner,
    so the root slots are grouped in blocks by those.  A swap of
    neighbouring slots i, j of a block, with root vertices u and w and
    partners pu and pw, checks when the pair swap (u w)(pu pw) maps the
    facets of *abstract* onto themselves: the walk from the swapped root
    order completes exactly then, as facets across a ridge differ in one
    pair, so the walk extends the swap to partners.  Every facet holds
    one of u, pu and one of w, pw; the pair swap fixes the facets holding
    u and w or pu and pw, and it is an involution, so it maps the facets
    onto themselves exactly when it maps those holding u and pw onto
    those holding pu and w.  The checked swaps generate a subgroup H of
    the root stabiliser, the symmetric groups on runs of checked
    neighbours, and the first order of each orbit p o H is the one
    increasing along every checked swap.  A subgroup's finer orbits walk
    more orders but find the same images in the same order."""
    stars = collections.defaultdict(frozenset, abstract._star_index())
    pairs = [(v, partner(v)) for v in order[:d + 1]]
    blocks = collections.defaultdict(list)
    for i, (v, pv) in enumerate(pairs):
        blocks[len(stars[v]), len(stars[pv])].append(i)
    checked = []
    for block in blocks.values():
        for i, j in zip(block, block[1:]):
            (u, pu), (w, pw) = pairs[i], pairs[j]
            out, into = {u, pw}, {pu, w}
            if {h - out | into for h in stars[u] & stars[pw]} == stars[pu] & stars[w]:
                checked.append((i, j))
    return _orbit_mask(d, tuple(checked)) if checked else None


@functools.lru_cache(maxsize=None)
def _orbit_mask(d: int, checked: tuple) -> bytes:
    """The mask of the orders ``permutations(range(d + 1))`` yields that
    increase along every checked swap (i, j), one object per swap list."""
    orders = list(itertools.permutations(range(d + 1)))
    increasing = [map(operator.lt, map(operator.itemgetter(i), orders),
                      map(operator.itemgetter(j), orders)) for i, j in checked]
    return bytes(map(all, zip(*increasing)))


def _embeds_a_nonface(stars: dict, img, nonfaces) -> bool:
    """Whether a non-face, mapped through *img* (the ambient vertex of each
    slot or abstract vertex), is a face of the ambient with star index
    *stars*: whether the stars of its images share a facet."""
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
    (``_compile_walk``) compiled twice from one site view of it, and its
    cross-polytope complement, the diamond complex of {0, ..., d+1} minus
    I, with the vertices only the complement has.  Building a plan
    verifies the absolute shelling certificate of both sides
    (``diamond.absolute_shelling_order``); a failing one raises, so a plan
    exists only when both sides shell.

    Site search walks from the first facet in ``sorted_face`` order
    (``order``; ``search`` is the whole search as one generated function,
    ``_compile_site_search``).  Orders of a root that differ by an
    automorphism fixing the root facet embed one image, so ``mask`` marks
    the first order of each orbit of the group the checked swaps of root
    slots generate: those whose pair swap maps the diamond complex's
    facets onto themselves (``_root_orbits``; None when no swap checks).
    The site search walks the marked orders alone over a complex with no
    ridge in three or more facets (``_class_images``), and
    ``_image_embedding`` always does.  The anchored embedding of a flip
    script walks from the entry facet of the lowest block
    (``anchor_order``, ``anchor_steps``).  An image is induced
    unless one of ``nonfaces`` (the minimal non-faces of
    ``diamond.minimal_nonfaces``, as ascending slots of ``order``, edges
    first) maps to a face of the ambient; the glued complement likewise by
    ``complement_nonfaces``, those of the complement on abstract vertices.

    A flip is applied from exchange tables over the slots ``slots``, the
    abstract vertices in ``order`` and then the vertices only the
    complement has (``unseen``): ``image_rows`` and ``glued_rows`` take
    the ambient vertex of every slot to the vertices of each abstract and
    each complement facet, and ``slot_rows`` holds for each slot the
    function taking the exchanged facet list, the image facets then the
    glued ones, to those containing the slot's vertex, the per-vertex
    delta of ``Complex._replaced``.
    ``sources`` takes the slot labels to the vertex each unseen slot takes
    its colour from, its pair partner's image."""

    __slots__ = ("abstract", "order", "search", "mask", "nonfaces", "anchor_order",
                 "anchor_steps", "complement", "complement_nonfaces", "unseen",
                 "slots", "image_rows", "glued_rows", "slot_rows", "sources")

    def __init__(self, d: int, spec: tuple):
        rest = tuple(i for i in range(d + 2) if i not in spec)
        abstract = _diamond.diamond_closed_form(d, spec)
        complement = _diamond.diamond_closed_form(d, rest)
        for side, idx in ((abstract, spec), (complement, rest)):
            verify_certificate(side, _diamond.absolute_shelling_order(d, idx))
        ordered, _neighbours, _thin = view = _site_view(abstract)
        self.order, steps = _compile_walk(abstract, ordered[0][1], view)
        self.anchor_order, self.anchor_steps = _compile_walk(
            abstract, _diamond.entry_facet(d, spec[0]), view)
        self.abstract = abstract
        self.complement = complement
        self.unseen = tuple(sorted(complement.vertices - abstract.vertices,
                                   key=vertex_key))
        self.slots = self.order + self.unseen
        at = {v: i for i, v in enumerate(self.slots)}
        self.nonfaces = tuple(sorted((tuple(sorted(at[v] for v in n))
                                      for n in _diamond.minimal_nonfaces(d, spec)),
                                     key=lambda t: (len(t), t)))
        self.search = _compile_site_search(self.order, steps, d, self.nonfaces,
                                           "<site search d=%d I=%s>" % (d, spec))
        self.mask = _root_orbits(abstract, self.order, d)
        self.complement_nonfaces = tuple(map(tuple, _diamond.minimal_nonfaces(d, rest)))
        image, glued = ([tuple(at[v] for v in sorted_face(f))
                         for f in sorted(side.facets, key=sorted_face)]
                        for side in (abstract, complement))
        self.image_rows, self.glued_rows = tuple(map(_picker, image)), tuple(map(_picker, glued))
        self.slot_rows = tuple(_picker(tuple(k for k, row in enumerate(image + glued) if i in row))
                               for i in range(len(self.slots)))
        self.sources = _picker(tuple(at[partner(v)] for v in self.unseen))


def _picker(idx: tuple):
    """The function taking a sequence to the tuple of its items at *idx*."""
    if len(idx) > 1:
        return operator.itemgetter(*idx)
    if idx:
        (i,) = idx
        return lambda seq: (seq[i],)
    return lambda seq: ()


@functools.lru_cache(maxsize=None)
def _flip_plan(d: int, spec: tuple) -> _FlipPlan:
    """The plan of the class with the checked index set *spec*; one per
    class, so the cache holds at most 2^(d+1)-1 plans per dimension."""
    return _FlipPlan(d, spec)


def _image_embedding(plan: _FlipPlan, k: Complex):
    """The embedding of the plan's diamond complex onto *k*, when k is one
    image of it, or None.  With the facet counts and sizes equal, a walk
    that completes places each abstract facet on a distinct facet of k, so
    it maps onto k and no non-face maps to a face of k: the search runs
    uncoloured (every colour None, every star empty) from every facet of
    k (a class need not be facet-transitive); the first image wins.  It
    walks the plan's ``mask`` alone: a completed walk is an isomorphism,
    so a k it completes on has, like the diamond complex, no ridge in
    three or more facets, and on a k with one no order completes."""
    abstract = plan.abstract
    if (k.n_facets, k._common_size()) != (abstract.n_facets, abstract._common_size()):
        return None
    ordered, neighbours, _thin = _site_view(k)
    img = next(plan.search(neighbours, ordered, {}.get, collections.defaultdict(frozenset),
                           plan.mask), None)
    return None if img is None else dict(zip(plan.order, img))


def extend_coloring_after_cross_flip(coloring: dict, result: CrossFlipResult) -> dict:
    """Colors for the glued complement: each fresh vertex inherits the color
    of its pair partner's image, the label ``result.sources`` lists for it
    from the class plan's source slots.  Stale entries for vertices no
    longer in the complex are dropped, since their labels may be reused
    later.  When every key is still a vertex, only keys equal to fresh
    labels go, and the keys are never copied into a set."""
    out = dict(coloring)
    if result.complex.vertices.issuperset(coloring):
        stale = [v for v in result.fresh_vertices if v in coloring]
    else:
        keys = coloring.keys()
        stale = (keys - result.complex.vertices) | (keys & result.fresh_vertices)
    for v in stale:
        del out[v]
    out.update(zip(result.fresh_vertices, map(coloring.__getitem__, result.sources)))
    return out


def find_cross_flip_sites(c: Complex, coloring: dict, indices) -> list:
    """The color-consistent induced embeddings of the diamond complex of the
    given index set that the ridge walk reaches, deduplicated by image, in a
    deterministic order.  The walk crosses only ridges lying in exactly two
    facets of c, so an image with an interior ridge in three or more facets
    of c is not listed, although ``apply_cross_flip_detailed`` accepts its
    site."""
    d = c.dimension
    spec = _site_class(d, indices)
    if spec is None:
        return []
    (images,) = _class_images(c, coloring, [_flip_plan(d, spec)])
    return [_image_site(d, spec, img) for img in images]


def has_cross_flip_site(c: Complex, coloring: dict, indices) -> bool:
    """Whether find_cross_flip_sites would be nonempty; stops at the first
    site.  Like it, it walks only across ridges lying in exactly two facets
    of c, so a site whose image has an interior ridge in three or more
    facets does not count."""
    d = c.dimension
    spec = _site_class(d, indices)
    if spec is None:
        return False
    (images,) = _class_images(c, coloring, [_flip_plan(d, spec)])
    return next(images, None) is not None


def _site_class(d, indices):
    """The checked index set of a site search in dimension d, or None when
    d is None (an empty complex) or ``diamond._check_index_set`` refuses
    the index set as naming no class."""
    if d is None:
        return None
    try:
        return _diamond._check_index_set(indices, d)
    except (_diamond.EmptyIndexSet, TypeError, ValueError):
        return None


def _image_site(d: int, spec: tuple, img: list) -> CrossFlip:
    """The site of an image yielded by ``_class_images``: its embedding
    maps the plan's ``order`` to *img*, in that order."""
    return CrossFlip(d=d, spec=spec, embedding=dict(zip(_flip_plan(d, spec).order, img)))


def _site_view(c: Complex) -> tuple:
    """The indexes a flip-site search walks over c, built afresh on each
    call: ``(ordered, neighbours, thin)``, with ``(sorted_face(h), h)`` for
    every facet h in ``sorted_face`` order, and the facet-neighbour table
    and thin flag of ``_neighbour_table``."""
    key = {v: vertex_key(v) for v in c.vertices}.__getitem__
    ordered = tuple(sorted((tuple(sorted(h, key=key)), h) for h in c.facets))
    return (ordered, *_neighbour_table(c.facets))


def _rainbow_roots(ordered: tuple, coloring: dict, d: int) -> list:
    """The facets of a site view's *ordered* list whose d + 1 vertices have
    d + 1 distinct colours, in that order: the roots of every class."""
    colour = coloring.get
    return [root for root in ordered
            if len(cols := set(map(colour, root[0]))) == d + 1 and None not in cols]


def _class_images(c: Complex, coloring: dict, plans) -> list:
    """One generator per plan of the images of the sites of
    find_cross_flip_sites, one at a time in order, each as the ambient
    vertex of every slot of the plan's ``order``.  Every class searches one
    site view of c from one list of rainbow roots, and reads the star index
    when some plan has non-faces.  Every image facet is a facet of c, so the
    image is a subcomplex; whether it is induced does not depend on the
    embedding that found it.

    When no ridge of c lies in three or more facets, each class walks the
    first order of each root orbit alone (its plan's ``mask``).  An
    automorphism s of the orbits fixes the root facet and keeps pairs, so
    the walks from orders p and p o s both complete or both fail, and when
    they complete they embed one image whose colour test compares the same
    pairs of vertices, with one non-face verdict, for any colouring and
    any c, pure or not.  So the orbit's first order, the one the full loop
    reaches first, stands for it: the images and their order are the same."""
    ordered, neighbours, thin = _site_view(c)
    roots = _rainbow_roots(ordered, coloring, c.dimension)
    stars = c._star_index() if any(plan.nonfaces for plan in plans) else None
    colour = coloring.get
    return [plan.search(neighbours, roots, colour, stars, plan.mask if thin else None)
            for plan in plans]


# ---------------------------------------------------------------------------
# balancedness


def preserves_balancedness(c: Complex, coloring: dict, move) -> bool:
    """Whether the move is a balanced one: it keeps every edge
    bichromatic under the canonical color extension (fresh vertices
    forced, existing vertices unchanged), as a balanced shelling step must."""
    d = c.dimension
    m = d + 1
    if isinstance(move, ShellingMove):
        if move.facet in c.facets:
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
    """Each uncoloured vertex of *after*, in canonical order, given the
    least colour its star lacks; None when one has none left."""
    out = dict(coloring)
    stars = after._star_index()
    for v in sorted(after.vertices, key=vertex_key):
        if v in out:
            continue
        used = {out[w] for w in frozenset().union(*stars[v]) if w in out}
        free = [col for col in range(m) if col not in used]
        if not free:
            return None
        out[v] = free[0]
    return out


# ---------------------------------------------------------------------------
# boundary realization of a bistellar flip


def boundary_bistellar_realization(c: Complex, a, b) -> Complex:
    """Add or remove the facet A | B so that the boundary of the result is
    exactly the flipped boundary of the input: one checked elementary
    shelling, with interior part B to remove the facet and A to add it."""
    from .complexes import ManifoldVerdict, is_combinatorial_manifold

    a, b = _as_face(a), _as_face(b)
    if is_combinatorial_manifold(c) != ManifoldVerdict.WITH_BOUNDARY:
        raise NotApplicableOnBoundary("ambient must be a manifold with boundary")
    if not _on_boundary(c, a):
        raise NotApplicableOnBoundary("face is not on the boundary")
    if _on_boundary(c, b):
        raise NotApplicableOnBoundary("target face already on the boundary")
    if frozenset(h - {y} for h in c._facets_containing(a) for y in h - a
                 if _on_rim(c, h - {y})) != _join_boundary(a, b):
        raise NotApplicableOnBoundary("boundary link does not match")
    if not a:
        raise NotApplicable("both faces of a flip must be nonempty")
    # Exact: each ridge lies in one or two facets and the rim ridges at A are
    # the A | (B - {x}), so A, B are disjoint (else B is on a rim ridge), A | B
    # is a facet if a face, and each (A - {y}) | B lies in 0 or 2 facets.  A
    # removal meets (1)-(3) for (B, A) and flips the rim; an addition meets
    # (2), and (3), no (A - {y}) | B a face of c, exactly when it flips the rim.
    f = a | b
    try:
        return shelling_move(c, f, b, a) if f in c.facets else inverse_shelling(c, f, a, b)
    except ConditionViolated:
        raise NotApplicableOnBoundary("result boundary is not the flipped boundary") from None
