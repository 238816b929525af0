"""Shelling verification and exhaustive shellability search.

The verifier never trusts caller-supplied restriction faces: it derives
each one from the facet's ridges.  Let K be the faces covered so far (the
faces of the removed part and of the facets placed), a set closed under
taking subsets, and R = {x in f : f - {x} in K}.  Placing f extends the
shelling exactly when R is not in K, and then R is its unique minimal new
face:

- every new face g contains R, since g is a face of f - {x} for any x in
  R outside g, and f - {x} lies in K;
- the new faces are closed upward inside f, so if R is new they are
  exactly the faces between R and f;
- if R is in K, a unique minimal new face g would contain R, and for x
  in g the face f - {x} misses g, so it is no new face and x is in R:
  g = R would be in K, a contradiction.

Membership in K is read from a vertex -> facets index grown as facets are
placed (``_Covered``): a step reads the star of one vertex y of f for the
ridges through y, then makes one lookup for the ridge f - {y} and one for
R.  A relative check seeds the index with the removed facets as given.
A failing step reports its minimal new faces, the minimal transversals of
the sets f - h over the covered facets h (``_new_faces``); no face of f is
enumerated.
The search memoizes on the set of already-placed facets, which is sound
because shellability of a prefix depends only on the faces it covers.
"""

from __future__ import annotations

from .complexes import (
    Complex,
    ComplexError,
    _as_face,
    _face_key,
    _Record,
    _stars,
    sorted_face,
)


class NotAPermutation(ComplexError):
    pass


class NotAShelling(ComplexError):
    pass


class BudgetExceeded(ComplexError):
    pass


class CertificateMismatch(ComplexError):
    """Raised when recomputed restriction faces disagree with a certificate."""


class RelativeComplex(_Record):
    """A pair (ambient, removed) with *removed* a subcomplex of *ambient*."""

    __slots__ = ("ambient", "removed")

    def __init__(self, ambient: Complex, removed: Complex):
        if not removed.is_subcomplex_of(ambient):
            raise ValueError("removed part must be a subcomplex of the ambient")
        set_ambient, set_removed = self._setters
        set_ambient(self, ambient)
        set_removed(self, removed)

    def pair_facets(self) -> frozenset:
        return self.ambient.facets - self.removed.facets


class ShellingVerdict(_Record):
    __slots__ = ("ok", "failing_index", "minimal_new_faces", "restrictions")
    _defaults = {"failing_index": None, "minimal_new_faces": (), "restrictions": None}


class ShellingCertificate(_Record):
    """An ordered facet list with one restriction face per facet."""

    __slots__ = ("order", "restrictions")


class _Covered:
    """The faces K covered so far: every face of each facet added.

    ``stars`` maps a vertex to the added facets containing it, in the
    order added, so the latest addition can be taken back (``pop``); the
    empty face is covered once any facet, the empty facet included, is.
    """

    __slots__ = ("stars", "count")

    def __init__(self, facets=()):
        self.stars: dict[str, list] = _stars(facets)
        self.count = len(facets)

    def add(self, h: frozenset) -> None:
        for x in h:
            self.stars.setdefault(x, []).append(h)
        self.count += 1

    def pop(self, h: frozenset) -> None:
        """Take back h, the facet added last."""
        for x in h:
            self.stars[x].pop()
        self.count -= 1

    def __contains__(self, g: frozenset) -> bool:
        if not g:
            return self.count > 0
        best = None
        for x in g:
            hs = self.stars.get(x)
            if not hs:
                return False
            if best is None or len(hs) < len(best):
                best = hs
        for h in best:
            if g <= h:
                return True
        return False

    def restriction(self, f: frozenset):
        """The unique minimal new face of placing f, or None when its new
        faces have no unique minimum (see the module docstring).

        R is read from the star of a vertex y of f of least degree: a
        ridge f - {x} with x != y contains y, so it is covered when some
        facet h there has f - h = {x}, or when f itself is covered, and
        then R, a face of f, is covered and the step fails either way.  The
        ridge f - {y} takes one more lookup, and R itself one more.
        """
        if not f:
            return None if self.count else f
        stars = self.stars
        y = min(f, key=lambda x: len(stars.get(x, ())))
        r = set()
        for h in stars.get(y, ()):
            m = f - h
            if len(m) == 1:
                r |= m
        if f - {y} in self:
            r.add(y)
        r = frozenset(r)
        return None if r in self else r


def _new_faces(f: frozenset, covered: _Covered) -> list:
    """The minimal faces of f missing from *covered*, by size, then vertex
    order: what a failing step reports.

    A face of f is covered exactly when it lies in a covered facet h, so
    the new faces are those meeting every f - h, and the minimal ones are
    the minimal transversals of those sets.  The facets h meeting f are
    read from the stars of f's vertices; the others all give f itself,
    once anything is covered.  A Berge pass adds the sets smallest first
    (a set holding a smaller one changes nothing) and keeps the minimal
    transversals of those added so far.
    """
    edges = {f - h for x in f for h in covered.stars.get(x, ())}
    if covered.count:
        edges.add(f)
    minimal = [frozenset()]
    for e in sorted(edges, key=len):
        hit = [g for g in minimal if g & e]
        grown = {g | {x} for g in minimal if not g & e for x in e}
        minimal = hit + [g for g in grown if not any(h <= g for h in hit)]
    return sorted(minimal, key=lambda g: (len(g), _face_key(g)))


def _run(order, facets, removed, what: str) -> ShellingVerdict:
    """Place the facets of *order*, a permutation of *facets* (else
    NotAPermutation, naming *what* they are), after the facets *removed*."""
    order = list(map(_as_face, order))
    if len(order) != len(facets) or set(order) != facets:
        raise NotAPermutation("order must be a permutation of " + what)
    covered = _Covered(removed)
    restrictions = []
    for idx, f in enumerate(order):
        r = covered.restriction(f)
        if r is None:
            return ShellingVerdict(ok=False, failing_index=idx,
                                   minimal_new_faces=tuple(_new_faces(f, covered)))
        restrictions.append(r)
        covered.add(f)
    return ShellingVerdict(ok=True, restrictions=tuple(restrictions))


def is_shelling(c: Complex, order) -> ShellingVerdict:
    """Check an ordering of all facets; restrictions are re-derived."""
    return _run(order, c.facets, (), "the facets")


def is_relative_shelling(rc: RelativeComplex, order) -> ShellingVerdict:
    """Check an ordering of the facets outside the removed lower ideal."""
    return _run(order, rc.pair_facets(), rc.removed.facets,
                "the ambient facets outside the removed part")


def verify_certificate(target, cert: ShellingCertificate) -> ShellingVerdict:
    """Re-derive the restriction faces and demand exact agreement.

    *target* is a Complex (absolute shelling) or RelativeComplex.  A failed
    order or a restriction mismatch is a hard error, never a fallback.
    """
    if isinstance(target, RelativeComplex):
        verdict = is_relative_shelling(target, cert.order)
    else:
        verdict = is_shelling(target, cert.order)
    if not verdict.ok:
        raise NotAShelling(
            "certificate order fails at position %d" % (verdict.failing_index,)
        )
    if len(cert.restrictions) != len(verdict.restrictions):
        raise CertificateMismatch(
            "certificate has %d restrictions for %d facets"
            % (len(cert.restrictions), len(verdict.restrictions))
        )
    if verdict.restrictions != tuple(cert.restrictions):
        for i, (got, want) in enumerate(zip(verdict.restrictions, cert.restrictions)):
            if got != want:
                raise CertificateMismatch(
                    "restriction %d: derived %r, certificate says %r"
                    % (i, sorted_face(got), sorted_face(want))
                )
    return verdict


# ---------------------------------------------------------------------------
# exhaustive search


def _check_budget(c: Complex, budget: int) -> None:
    """Raise BudgetExceeded when c has more facets than the search budget."""
    if c.n_facets > budget:
        raise BudgetExceeded(
            "%d facets exceed the search budget %d" % (c.n_facets, budget)
        )


def find_shelling(c: Complex, budget: int = 24):
    """Exhaustive backtracking for a shelling order, or None.

    Exact below the facet budget: None means every permutation fails.  The
    memo keys on the frozenset of placed facets, since whether a partial
    order extends depends only on which faces are already covered.  Nothing
    recurses, so no recursion limit bounds the number of facets.
    """
    _check_budget(c, budget)
    facets = sorted(c.facets, key=lambda f: (len(f), sorted_face(f)))
    if not facets:
        return []
    dead: set[frozenset] = set()
    order: list = []
    covered = _Covered()
    # per open prefix: its placed facets, and the position of the next
    # facet to try after it (past the end for a prefix already found dead)
    states, starts = [frozenset()], [0]
    while states:
        placed = states[-1]
        for i in range(starts[-1], len(facets)):
            f = facets[i]
            if f not in placed and covered.restriction(f) is not None:
                break
        else:
            dead.add(states.pop())
            starts.pop()
            if order:
                covered.pop(order.pop())
            continue
        starts[-1] = i + 1
        order.append(f)
        covered.add(f)
        if len(order) == len(facets):
            return order
        state = placed | {f}
        states.append(state)
        starts.append(len(facets) if state in dead else 0)
    return None


def _restriction_histogram(restrictions, d: int) -> tuple:
    """The number of restriction faces of each size 0, ..., d + 1."""
    hist = [0] * (d + 2)
    for r in restrictions:
        hist[len(r)] += 1
    return tuple(hist)


def h_from_shelling(c: Complex, order) -> tuple:
    """The h-vector read from a shelling: h_i is the number of facets
    whose restriction face has i vertices."""
    verdict = is_shelling(c, order)
    if not verdict.ok:
        raise NotAShelling(
            "order fails at position %d" % (verdict.failing_index,)
        )
    return _restriction_histogram(verdict.restrictions, c.dimension)
