"""The ridge rule of `shelling` against the face-enumerating verifier it
replaced.

`_ref_run` and `_ref_find_shelling` below are the former verifier and
search, which build every subset of each placed facet (and of each removed
facet's trace on the order's span) and read the minimal new faces off that
set.  The library derives each restriction face from the facet's ridges
instead (see the `shelling` module docstring); every verdict, restriction,
failing index, minimal-new-face list, search order and certificate error
must be the same.  The random inputs are derandomized, so every run tries
the same examples.
"""

import collections
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from crossflips import catalog, complexes, shelling
from crossflips.complexes import Complex, _as_face, _subsets, sorted_face, vertex_key
from crossflips.diamond import (
    absolute_shelling_order,
    cross_polytope,
    diamond_closed_form,
    relative_shelling_order,
)
from crossflips.shelling import (
    CertificateMismatch,
    NotAPermutation,
    NotAShelling,
    RelativeComplex,
    ShellingCertificate,
    ShellingVerdict,
    find_shelling,
    is_relative_shelling,
    is_shelling,
    verify_certificate,
)

# ---------------------------------------------------------------------------
# the former face-enumerating verifier and search


def _ref_new_faces(f, covered):
    new = {g for g in _subsets(f) if g not in covered}
    if new:
        low = frozenset.intersection(*new)
        if low in new:
            return new, [low]
    minimal = [g for g in new if not any(h < g for h in new)]
    return new, sorted(minimal, key=lambda g: (len(g), tuple(map(vertex_key, sorted_face(g)))))


def _ref_run(order, excluded):
    seen = set(excluded)
    restrictions = []
    for idx, f in enumerate(order):
        new, minimal = _ref_new_faces(f, seen)
        if len(minimal) != 1:
            return ShellingVerdict(
                ok=False, failing_index=idx, minimal_new_faces=tuple(minimal)
            )
        restrictions.append(minimal[0])
        seen.update(new)
    return ShellingVerdict(ok=True, restrictions=tuple(restrictions))


def _ref_is_shelling(c, order):
    order = [_as_face(f) for f in order]
    if len(order) != len(set(order)) or set(order) != set(c.facets):
        raise NotAPermutation("order must be a permutation of the facets")
    return _ref_run(order, frozenset())


def _ref_is_relative_shelling(rc, order):
    order = [_as_face(f) for f in order]
    if len(order) != len(set(order)) or set(order) != rc.pair_facets():
        raise NotAPermutation(
            "order must be a permutation of the ambient facets outside the removed part"
        )
    span = frozenset().union(*order)
    excluded = set()
    for h in rc.removed.facets:
        excluded.update(_subsets(h & span))
    return _ref_run(order, excluded)


def _ref_verify_certificate(target, cert):
    if isinstance(target, RelativeComplex):
        verdict = _ref_is_relative_shelling(target, cert.order)
    else:
        verdict = _ref_is_shelling(target, cert.order)
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


def _ref_find_shelling(c, budget=24):
    shelling._check_budget(c, budget)
    facets = sorted(c.facets, key=lambda f: (len(f), sorted_face(f)))
    if not facets:
        return []
    dead = set()
    order, placed, covered = [], set(), set()

    def attempt():
        if len(order) == len(facets):
            return True
        state = frozenset(placed)
        if state in dead:
            return False
        for f in facets:
            if f in placed:
                continue
            new, minimal = _ref_new_faces(f, covered)
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

    return list(order) if attempt() else None


def _outcome(fn, *args):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (NotAShelling, CertificateMismatch, NotAPermutation) as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# inputs

VERTICES = "abcdefg"

# facet lists over a few vertices: pure ones of each size up to 4 and mixed
# ones, reduced to the antichain they generate
PURE = st.integers(1, 4).flatmap(lambda k: st.lists(
    st.sets(st.sampled_from(VERTICES), min_size=k, max_size=k), min_size=1, max_size=9))
MIXED = st.lists(st.sets(st.sampled_from(VERTICES), min_size=1, max_size=4),
                 min_size=1, max_size=9)
COMPLEXES = st.one_of(PURE, MIXED).map(Complex.generated_by) | st.just(Complex.void())
KNOWN = [cross_polytope(d) for d in (1, 2)] + [
    diamond_closed_form(d, idx) for d in (1, 2, 3)
    for r in range(1, d + 2) for idx in itertools.combinations(range(d + 2), r)]


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(c=COMPLEXES, data=st.data())
def test_random_orders_get_the_reference_verdict(c, data):
    order = data.draw(st.permutations(sorted(c.facets, key=sorted_face)))
    assert is_shelling(c, order) == _ref_is_shelling(c, order)


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(c=COMPLEXES | st.sampled_from(KNOWN[:12]))
def test_search_returns_the_reference_order(c):
    order = find_shelling(c)
    assert order == _ref_find_shelling(c)
    if order is not None:
        assert is_shelling(c, order) == _ref_is_shelling(c, order)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(c=st.one_of(PURE, MIXED).map(Complex.generated_by) | st.sampled_from(KNOWN[:12]),
       data=st.data())
def test_relative_orders_get_the_reference_verdict(c, data):
    """The removed part is generated by some faces of ambient facets, most
    of them proper faces, the empty face and whole facets included."""
    facets = sorted(c.facets, key=sorted_face)
    picks = data.draw(st.lists(st.sampled_from(facets), max_size=4))
    faces = [frozenset(data.draw(st.sets(st.sampled_from(sorted_face(h)))))
             for h in picks]
    removed = Complex.generated_by(faces) if faces else Complex.empty()
    rc = RelativeComplex(c, removed)
    order = data.draw(st.permutations(sorted(rc.pair_facets(), key=sorted_face)))
    assert is_relative_shelling(rc, order) == _ref_is_relative_shelling(rc, order)


def _faces(*names):
    return [frozenset(n) for n in names]


@pytest.mark.parametrize("ambient, removed, order, want", [
    # a removed facet disjoint from the order's vertices covers only the
    # empty face, so the first facet has three minimal new faces
    (["abc", "abd", "xyz"], ["xyz"], ["abc", "abd"],
     ShellingVerdict(ok=False, failing_index=0, minimal_new_faces=tuple(_faces("a", "b", "c")))),
    # a removed facet with a vertex, e, outside the order's span
    (["abc", "bcd", "cde"], ["cde"], ["bcd", "abc"],
     ShellingVerdict(ok=True, restrictions=tuple(_faces("b", "a")))),
    (["abc", "bcd", "cde", "aef"], ["cde", "aef"], ["bcd", "abc"],
     ShellingVerdict(ok=False, failing_index=1, minimal_new_faces=tuple(_faces("ab", "ac")))),
    # removed parts of lower-dimensional faces only: the edge bc, then
    # also the vertex d
    (["abc", "bcd"], ["bc"], ["abc", "bcd"],
     ShellingVerdict(ok=True, restrictions=tuple(_faces("a", "d")))),
    (["abc", "bcd"], ["bc", "d"], ["abc", "bcd"],
     ShellingVerdict(ok=False, failing_index=1, minimal_new_faces=tuple(_faces("bd", "cd")))),
])
def test_relative_cases_get_the_reference_verdict(ambient, removed, order, want):
    rc = RelativeComplex(Complex.generated_by(_faces(*ambient)),
                         Complex.generated_by(_faces(*removed)))
    order = _faces(*order)
    assert is_relative_shelling(rc, order) == _ref_is_relative_shelling(rc, order) == want


def test_void_and_empty_complexes():
    void, empty = Complex.void(), Complex.empty()
    assert is_shelling(void, [frozenset()]) == _ref_is_shelling(void, [frozenset()])
    assert is_shelling(empty, []) == _ref_is_shelling(empty, [])
    assert find_shelling(void) == _ref_find_shelling(void) == [frozenset()]
    assert find_shelling(empty) == _ref_find_shelling(empty) == []
    for removed in (void, empty):
        rc = RelativeComplex(cross_polytope(1), removed)
        order = sorted(rc.pair_facets(), key=sorted_face)
        assert is_relative_shelling(rc, order) == _ref_is_relative_shelling(rc, order)


# ---------------------------------------------------------------------------
# real certificates and their negative controls


def _classes(top):
    for d in range(1, top + 1):
        for r in range(1, d + 2):
            for idx in itertools.combinations(range(d + 2), r):
                yield d, idx


def _relative_certificates(top):
    for d, sset in _classes(top):
        amb, _, _ = catalog.ambient_with_induced_diamond_any(d, sset)
        settings_ = catalog._relative_settings(d, sset, amb)
        for i1 in sset:
            if settings_[i1] is not None:
                rc, ridge = settings_[i1]
                seq = (i1,) + tuple(i for i in sset if i != i1)
                yield rc, relative_shelling_order(d, seq, ridge)


def _controls(cert):
    """The certificate with its first and last facets swapped, and with its
    last restriction face changed."""
    order, rests = list(cert.order), list(cert.restrictions)
    swapped = order[:]
    swapped[0], swapped[-1] = swapped[-1], swapped[0]
    changed = rests[:]
    last = changed[-1]
    changed[-1] = last - {min(last, key=str)} if last else order[-1]
    return (ShellingCertificate(tuple(swapped), cert.restrictions),
            ShellingCertificate(cert.order, tuple(changed)))


def _targets():
    for d, idx in _classes(3):
        yield diamond_closed_form(d, idx), absolute_shelling_order(d, idx)
    yield from _relative_certificates(3)


def test_certificates_and_their_controls_match_the_reference():
    broken = {NotAShelling: 0, CertificateMismatch: 0}
    for target, cert in _targets():
        want = _ref_verify_certificate(target, cert)
        assert want.ok
        assert verify_certificate(target, cert) == want
        for bad in _controls(cert):
            got = _outcome(verify_certificate, target, bad)
            assert got == _outcome(_ref_verify_certificate, target, bad)
            if isinstance(got, tuple):
                broken[got[0]] += 1
    # both kinds of failure occur
    assert min(broken.values()) > 0, broken


def test_swapped_certificates_break_where_they_must():
    """A swap breaks a certificate unless the swapped order shells with the
    same restrictions; every class at d <= 3 has a swap that breaks it."""
    for d, idx in _classes(3):
        target, cert = diamond_closed_form(d, idx), absolute_shelling_order(d, idx)
        n = len(cert.order)
        outcomes = []
        for i, j in itertools.combinations(range(n), 2):
            order = list(cert.order)
            order[i], order[j] = order[j], order[i]
            bad = ShellingCertificate(tuple(order), cert.restrictions)
            got = _outcome(verify_certificate, target, bad)
            assert got == _outcome(_ref_verify_certificate, target, bad), (d, idx, i, j)
            outcomes.append(got)
        if n > 1:
            assert any(isinstance(o, tuple) for o in outcomes), (d, idx)


def test_a_passing_run_builds_no_facet_subsets(monkeypatch):
    """Neither a step nor the report of a failing one enumerates the faces
    of a facet: `shelling` binds no face enumerator, and the library's own
    is never called."""
    calls = []

    def counting(f):
        calls.append(f)
        return _subsets(f)

    targets = list(_targets())
    sphere = cross_polytope(2)
    pinched = Complex.generated_by([frozenset("abc"), frozenset("ade")])
    assert not hasattr(shelling, "_subsets")
    monkeypatch.setattr(complexes, "_subsets", counting)
    for target, cert in targets:
        assert verify_certificate(target, cert).ok
    assert find_shelling(sphere) is not None
    verdict = is_shelling(pinched, sorted(pinched.facets, key=sorted_face))
    assert not verdict.ok and verdict.minimal_new_faces == tuple(_faces("d", "e"))
    assert calls == []


def test_minimal_new_faces_match_the_enumeration():
    """The transversal pass of `shelling._new_faces` against every face of
    f, on seeded random covered facets over labels whose string order is
    not the vertex order: nothing covered, f itself covered, and covered
    facets none of which meets f among them."""
    rng = random.Random(31)
    labels = [str(i) for i in range(12)] + ["v0", "v1", "a"]
    seen = collections.Counter()
    for _ in range(4000):
        facets = [frozenset(rng.sample(labels, rng.randint(0, 7)))
                  for _ in range(rng.randint(0, 5))]
        f = frozenset(rng.sample(labels, rng.randint(0, 9)))
        if rng.random() < 0.1:
            facets.append(f)
        covered = shelling._Covered(facets)
        _, want = _ref_new_faces(f, covered)
        assert shelling._new_faces(f, covered) == want, (sorted_face(f), facets)
        seen["nothing covered" if not facets else "f covered" if f in covered
             else "nothing meets f" if not any(f & h for h in facets) else "other"] += 1
    assert min(seen.values()) >= 20 and len(seen) == 4, seen


def _stacked_ball(rng, n):
    """A seeded 2-ball grown by gluing a triangle with a new vertex onto a
    random boundary edge; the build order is a shelling."""
    order = [("a", "b", "c")]
    rim = [("a", "b"), ("b", "c"), ("a", "c")]
    for k in range(n - 1):
        u, v = rim.pop(rng.randrange(len(rim)))
        w = "x%d" % k
        order.append((u, v, w))
        rim += [(u, w), (v, w)]
    return Complex(map(frozenset, order))


def test_the_search_places_more_facets_than_the_recursion_limit():
    """The search keeps its prefixes on a list, not on the call stack: a
    1200-facet ball shells under the default recursion limit, and smaller
    balls get the reference order."""
    ball = _stacked_ball(random.Random(1), 1200)
    order = find_shelling(ball, budget=2000)
    assert len(order) == 1200 and is_shelling(ball, order).ok
    for seed in range(3):
        ball = _stacked_ball(random.Random(seed), 40)
        assert find_shelling(ball, budget=40) == _ref_find_shelling(ball, budget=40)
