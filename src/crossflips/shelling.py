"""Shelling verification and exhaustive shellability search.

The verifier never trusts caller-supplied restriction faces: at every step
it extracts the minimal new faces directly and demands a unique minimum.
The search memoizes on the set of already-placed facets, which is sound
because shellability of a prefix depends only on the faces it covers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import (
    Complex,
    ComplexError,
    _as_face,
    _subsets,
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


@dataclass(frozen=True)
class RelativeComplex:
    """A pair (ambient, removed) with *removed* a subcomplex of *ambient*."""

    ambient: Complex
    removed: Complex

    def __post_init__(self):
        if not self.removed.is_subcomplex_of(self.ambient):
            raise ValueError("removed part must be a subcomplex of the ambient")

    def pair_facets(self) -> frozenset:
        return self.ambient.facets - self.removed.facets


@dataclass(frozen=True)
class ShellingVerdict:
    ok: bool
    failing_index: int | None = None
    minimal_new_faces: tuple = ()
    restrictions: tuple | None = None


@dataclass(frozen=True)
class ShellingCertificate:
    """An ordered facet list with one restriction face per facet."""

    order: tuple
    restrictions: tuple


def _new_faces(f: frozenset, covered) -> tuple:
    """The faces of f missing from *covered*, and their minimal members by
    size, then ``sorted_face``; placing f extends a shelling exactly when
    there is one minimal member.  Every new face contains a minimal one,
    so a single minimal member is the intersection of all new faces."""
    new = {g for g in _subsets(f) if g not in covered}
    if new:
        low = frozenset.intersection(*new)
        if low in new:
            return new, [low]
    minimal = [g for g in new if not any(h < g for h in new)]
    return new, sorted(minimal, key=lambda g: (len(g), sorted_face(g)))


def _run(order, excluded) -> ShellingVerdict:
    seen: set = set(excluded)
    restrictions = []
    for idx, f in enumerate(order):
        new, minimal = _new_faces(f, seen)
        if len(minimal) != 1:
            return ShellingVerdict(
                ok=False, failing_index=idx, minimal_new_faces=tuple(minimal)
            )
        restrictions.append(minimal[0])
        seen.update(new)
    return ShellingVerdict(ok=True, restrictions=tuple(restrictions))


def is_shelling(c: Complex, order) -> ShellingVerdict:
    """Check an ordering of all facets; restrictions are re-derived."""
    order = [_as_face(f) for f in order]
    if len(order) != len(set(order)) or set(order) != set(c.facets):
        raise NotAPermutation("order must be a permutation of the facets")
    return _run(order, frozenset())

def is_relative_shelling(rc: RelativeComplex, order) -> ShellingVerdict:
    """Check an ordering of the facets outside the removed lower ideal."""
    order = [_as_face(f) for f in order]
    expected = rc.pair_facets()
    if len(order) != len(set(order)) or set(order) != expected:
        raise NotAPermutation(
            "order must be a permutation of the ambient facets outside the removed part"
        )
    # _run asks only for faces of placed facets, so the removed part's
    # faces are needed only inside the span of the order
    span = frozenset().union(*order)
    excluded = set()
    for h in rc.removed.facets:
        excluded.update(_subsets(h & span))
    return _run(order, excluded)


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
    order extends depends only on which faces are already covered.
    """
    _check_budget(c, budget)
    facets = sorted(c.facets, key=lambda f: (len(f), sorted_face(f)))
    if not facets:
        return []
    dead: set[frozenset] = set()

    order: list = []
    placed: set = set()
    covered: set = set()

    def attempt() -> bool:
        if len(order) == len(facets):
            return True
        state = frozenset(placed)
        if state in dead:
            return False
        for f in facets:
            if f in placed:
                continue
            new, minimal = _new_faces(f, covered)
            if len(minimal) != 1:
                continue
            order.append(f)
            placed.add(f)
            covered.update(new)
            if attempt():
                return True
            order.pop()
            placed.discard(f)
            covered.difference_update(new)
        dead.add(state)
        return False

    if attempt():
        return list(order)
    return None


def is_shellable(c: Complex, budget: int = 24) -> bool:
    return find_shelling(c, budget=budget) is not None


def is_co_shellable_in_crosspolytope(d_ball: Complex, d: int, budget: int = 24) -> bool:
    """True when the cross-polytope complement of the given subcomplex shells."""
    from .diamond import cross_polytope

    cd = cross_polytope(d)
    if not d_ball.is_subcomplex_of(cd):
        raise ValueError("not a subcomplex of the cross-polytope boundary")
    from .complexes import delete_subcomplex

    rest = delete_subcomplex(cd, d_ball)
    if not rest.facets:
        return False
    return is_shellable(rest, budget=budget)


def h_from_shelling(c: Complex, order) -> tuple:
    """Histogram of restriction-face sizes along an accepted shelling."""
    verdict = is_shelling(c, order)
    if not verdict.ok:
        raise NotAShelling(
            "order fails at position %d" % (verdict.failing_index,)
        )
    d = c.dimension
    hist = [0] * (d + 2)
    for r in verdict.restrictions:
        hist[len(r)] += 1
    return tuple(hist)
