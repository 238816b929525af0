"""Diamond complexes inside the cross-polytope boundary.

For an index set I inside {0, ..., d+1}, ``gamma(d, I)`` is the union of
the facets of the (d+1)-simplex boundary missing each chosen index, and
``diamond`` is the iterated stellar subdivision at the tail faces
{i+1, ..., d+1} that carries such a union into the boundary of the
(d+1)-dimensional cross-polytope.  ``diamond_closed_form`` builds the same
complex directly as a join of a simplex with a smaller cross-polytope
boundary; equality of the two constructions is a permanent test and the
closed form is the production path.

The module also provides the degree-lexicographic facet orders, which
shell a diamond complex absolutely (ascending blocks, forward order) and
relatively inside an ambient manifold (descending blocks, reversed order),
together with their restriction faces.
"""

from __future__ import annotations

import functools
import itertools
from math import comb

from . import moves as _moves
from .complexes import (
    Complex,
    ComplexError,
    _as_face,
    base,
    pair_index,
    sub,
    sorted_face,
)
from .shelling import ShellingCertificate


class EmptyIndexSet(ComplexError):
    pass


class MismatchedGamma(ComplexError):
    pass


class HintNotAFacet(ComplexError):
    pass


class HintMissing(ComplexError):
    pass


class InvalidSequence(ComplexError):
    pass


class NotSubcomplexOfSimplexBoundary(ComplexError):
    pass


class IndexSetViolatesPrecondition(ComplexError):
    pass


# ---------------------------------------------------------------------------
# index sets


def _check_index_set(indices, top: int) -> tuple:
    """*indices* sorted without repeats, the one rule for naming a class: it
    must be nonempty (else ``EmptyIndexSet``), of ints (else ``TypeError``,
    for 2.0 and True too) in 0..top (else ``ValueError``)."""
    out = tuple(sorted(set(indices)))
    if not out:
        raise EmptyIndexSet("index set must be nonempty")
    if not all(type(i) is int for i in out):
        raise TypeError("index set entries must be integers")
    if out[0] < 0 or out[-1] > top:
        raise ValueError("indices must lie in 0..%d" % top)
    return out


def canonicalize(d: int, indices) -> tuple:
    """The unique representative inside {0, ..., d} of an index set.

    A trailing run {m, ..., d+1} describes the same complex, up to the
    vertex swap at position m-1, as the single index m-1; the rewrite is
    applied greedily until d+1 disappears.
    """
    s = set(_check_index_set(indices, d + 1))
    while d + 1 in s:
        m = d + 1
        while m - 1 in s:
            m -= 1
        if m == 0:
            raise ValueError("the full index set describes a sphere, not a ball")
        s.difference_update(range(m, d + 2))
        s.add(m - 1)
    return tuple(sorted(s))


def complement_index(d: int, indices) -> tuple:
    """Canonical index set of the cross-polytope complement."""
    s = _check_index_set(indices, d)
    return canonicalize(d, set(range(d + 2)) - set(s))


# ---------------------------------------------------------------------------
# generators


def cross_polytope_on(indices) -> Complex:
    """Boundary of the cross-polytope on the token pairs of the given indices.

    An empty index list yields the void-face complex, the identity for the
    join.  The facets, one token of each pair, are an antichain: trusted.
    """
    indices = tuple(indices)
    if not indices:
        return Complex.void()
    picks = itertools.product(*[(base(i), sub(i)) for i in indices])
    return Complex._trusted(map(frozenset, picks))


def cross_polytope(d: int) -> Complex:
    """Boundary of the (d+1)-dimensional cross-polytope, 2^(d+1) facets."""
    if d < 0:
        raise ValueError("dimension must be nonnegative")
    return cross_polytope_on(range(d + 1))


def simplex_boundary(d: int) -> Complex:
    """Boundary of the (d+1)-simplex on plain tokens 0..d+1 (a d-sphere)."""
    if d < 0:
        raise ValueError("dimension must be nonnegative")
    verts = [base(i) for i in range(d + 2)]
    return Complex(frozenset(c) for c in itertools.combinations(verts, d + 1))


def gamma(d: int, indices) -> Complex:
    """Union of the simplex-boundary facets missing each chosen index."""
    idx = _check_index_set(indices, d + 1)
    verts = set(base(i) for i in range(d + 2))
    return Complex(frozenset(verts - {base(i)}) for i in idx)


def standard_coloring(d: int) -> dict:
    """The proper (d+1)-coloring of the cross-polytope boundary: both
    members of pair i receive color i."""
    out = {}
    for i in range(d + 1):
        out[base(i)] = i
        out[sub(i)] = i
    return out


# ---------------------------------------------------------------------------
# the diamond operation


def diamond(c: Complex, d: int) -> Complex:
    """Iterated stellar subdivision of a subcomplex of the simplex boundary.

    Subdivides at the tail face {i+1, ..., d+1} for i = 0, ..., d whenever
    it is present, naming the new vertex v_i.  The final step renames the
    vertex d+1 to v_d.
    """
    allowed = {base(i) for i in range(d + 2)}
    for f in c.facets:
        if len(f) != d + 1 or not f <= allowed:
            raise NotSubcomplexOfSimplexBoundary(
                "facets must be d-faces on the plain tokens 0..d+1"
            )
    cur = c
    for i in range(d + 1):
        tail = frozenset(base(j) for j in range(i + 1, d + 2))
        if cur.has_face(tail):
            cur = _moves.stellar_subdivide(cur, tail, new_vertex=sub(i))
    return cur


def diamond_closed_form(d: int, indices) -> Complex:
    """Direct facet description of diamond(gamma(d, I)).

    The part for index i <= d is the join of the simplex on
    {0, ..., i-1, v_i} with the cross-polytope boundary on pairs i+1..d;
    index d+1 contributes the single facet {0, ..., d}.
    """
    if d < 0:
        raise ValueError("dimension must be nonnegative")
    return _closed_form(d, _check_index_set(indices, d + 1))


@functools.lru_cache(maxsize=None)
def _closed_form(d: int, idx: tuple) -> Complex:
    """The diamond complex of the checked index tuple, built once per
    (d, I): at most 2^(d+2) - 1 complexes per dimension, shared as values."""
    return Complex(frozenset().union(*[_block_facets(d, i) for i in idx]))


@functools.lru_cache(maxsize=None)
def _block_facets(d: int, i: int) -> frozenset:
    """The facets of block i, built once per (d, i)."""
    if i == d + 1:
        return frozenset([frozenset(base(t) for t in range(d + 1))])
    head = frozenset([base(t) for t in range(i)] + [sub(i)])
    return frozenset(
        head | frozenset(pick)
        for pick in itertools.product(*[(base(j), sub(j)) for j in range(i + 1, d + 1)])
    )


def entry_facet(d: int, i: int) -> frozenset:
    """The facet {0, ..., i-1, v_i, ..., v_d} of block i, subdivided at
    every pair from i on; {0, ..., d} for i = d+1.  The absolute shelling
    order enters each block there, and a flip script's anchor names the
    images of this facet of the lowest block."""
    return frozenset([base(t) for t in range(i)] + [sub(t) for t in range(i, d + 1)])


def block_of_facet(d: int, f) -> int:
    """The index i whose block a diamond-complex facet belongs to."""
    f = _as_face(f)
    subs = [int(v[1:]) for v in f if v.startswith("v")]
    return min(subs) if subs else d + 1


def minimal_nonfaces(d: int, indices) -> list:
    """The minimal non-faces of the diamond complex of I on its vertex set,
    partner pairs {j, v_j} first, read from I with no face built.  A facet
    takes one token per pair, its first v_j at an index of I (index d+1 if
    it has none), so the others are {v_a} with the indices of I below a,
    for a outside I and below some index of I, and the indices of I when
    d+1 is not in I; each set is kept when its tokens are vertices."""
    idx = _check_index_set(indices, d + 1)
    found = [frozenset([base(j), sub(j)]) for j in range(d + 1)]
    found += [frozenset([sub(a)] + [base(j) for j in idx if j < a])
              for a in range(idx[-1]) if a not in idx]
    if idx[-1] <= d:
        found.append(frozenset(map(base, idx)))
    vs = _closed_form(d, idx).vertices
    return [n for n in found if n <= vs]


# ---------------------------------------------------------------------------
# characteristic vectors and the degree-lexicographic order


def _check_block_facet(d: int, ell: int, f: frozenset) -> None:
    if f not in _block_facets(d, ell):
        raise MismatchedGamma(
            "%r is not a facet of the index-%d diamond block" % (sorted_face(f), ell)
        )


def char_vector(d: int, ell: int, base_facet, g) -> tuple:
    """0/1 tuple over pair positions ell+1..d: 1 where the facets differ.

    A block facet holds exactly one token of each pair past ell, so the
    facets differ at j exactly when one of them holds v_j.  They share
    the rest, so g - base_facet is g's token at each differing position.
    """
    base_facet = _as_face(base_facet)
    g = _as_face(g)
    _check_block_facet(d, ell, base_facet)
    _check_block_facet(d, ell, g)
    return tuple(
        int((sub(j) in g) != (sub(j) in base_facet)) for j in range(ell + 1, d + 1)
    )


def deg_lex_key(d: int, ell: int, base_facet):
    """Sort key for block facets: degree first, then bits with 0 before 1."""

    def key(f):
        bits = char_vector(d, ell, base_facet, f)
        return (sum(bits), bits)

    return key


@functools.lru_cache(maxsize=None)
def _block_order(d: int, ell: int, f0: frozenset) -> tuple:
    """The facets of block ell sorted by ``deg_lex_key(d, ell, f0)``, built
    once per block facet f0 and shared."""
    return tuple(sorted(_block_facets(d, ell), key=deg_lex_key(d, ell, f0)))


def deg_lex_less(d: int, ell: int, base_facet, a, b) -> bool:
    """Whether facet a precedes facet b of block ell in the
    degree-lexicographic order relative to base_facet."""
    k = deg_lex_key(d, ell, base_facet)
    return k(_as_face(a)) < k(_as_face(b))


# ---------------------------------------------------------------------------
# shelling orders
#
# A sequence is written (i_1; i_2 < ... < i_k): the first block may be any
# member, the rest ascend.  m(l) below is the position of the smallest
# earlier-or-equal index that is >= i_l; because i_2 < ... < i_k, a strictly
# earlier such index can only be i_1.


def _check_sequence(d: int, seq) -> tuple:
    seq = tuple(seq)
    if not seq:
        raise EmptyIndexSet("sequence must be nonempty")
    if len(set(seq)) != len(seq):
        raise InvalidSequence("indices must be pairwise distinct")
    if any(not (0 <= i <= d + 1) for i in seq):
        raise InvalidSequence("indices must lie in 0..d+1")
    if list(seq[1:]) != sorted(seq[1:]):
        raise InvalidSequence("indices after the first must ascend")
    if len(seq) == d + 2:
        raise InvalidSequence("the full index set is a sphere, not a ball")
    return seq


def initial_facet(d: int, seq, ell: int, boundary_facet_hint=None) -> frozenset:
    """Entry facet of block ell (1-based) for the relative shelling order.

    For ell = 1 the caller must supply the facet of the first block meeting
    the ambient boundary; later blocks use the closed formula."""
    seq = _check_sequence(d, seq)
    if not (1 <= ell <= len(seq)):
        raise InvalidSequence("block position out of range")
    if ell > 1:
        return _later_entry(d, seq, ell)
    if boundary_facet_hint is None:
        raise HintMissing("the first block needs its entry facet")
    hint = _as_face(boundary_facet_hint)
    try:
        _check_block_facet(d, seq[0], hint)
    except MismatchedGamma as exc:
        raise HintNotAFacet(str(exc)) from None
    return hint


def _later_entry(d: int, seq: tuple, ell: int) -> frozenset:
    """``initial_facet`` of a block ell >= 2 of the checked sequence seq:
    ``entry_facet`` of the block, plain at the pairs between it and seq[0]."""
    i_l = seq[ell - 1]
    i_m = max(seq[0], i_l)
    heads = [base(t) for t in range(i_m) if t != i_l]
    return frozenset(heads + [sub(t) for t in range(i_l, d + 1) if t == i_l or t >= i_m])


def relative_shelling_order(d: int, seq, boundary_face) -> ShellingCertificate:
    """Facet order shelling (ambient, ambient minus the diamond complex).

    ``boundary_face`` is the ridge in which the diamond complex meets the
    ambient boundary; it must lie in a unique facet of the first block.
    Blocks are emitted from the last back to the first, each in reversed
    degree-lexicographic order from its entry facet, so that reading the
    order backwards removes facets by elementary shellings.  Restriction
    faces follow the case analysis on block positions.
    """
    seq = _check_sequence(d, seq)
    bface = _as_face(boundary_face)
    carriers = [h for h in _block_facets(d, seq[0]) if bface < h]
    if len(carriers) != 1:
        raise HintNotAFacet("boundary face must lie in exactly one facet of the first "
                            "block; got %d" % len(carriers))
    order, rests = [], []
    for ell in range(len(seq), 0, -1):
        i_l = seq[ell - 1]
        f0 = carriers[0] if ell == 1 else _later_entry(d, seq, ell)
        ordered = _block_order(d, i_l, f0)
        # f less the interior part of its removal decomposition: the tokens
        # where it differs from f0 (f & f0 is left) and some lower indices
        prior_low = frozenset(base(i_j) for i_j in seq[: ell - 1] if i_j < i_l)
        if ell == 1:
            restrictions = [bface] + [f & f0 for f in ordered[1:]]
        elif seq[0] > i_l:
            # where f agrees with f0 at every pair up to seq[0], holding
            # low, v_{i_l} is interior as well
            low = frozenset(v for v in f0 if i_l < pair_index(v) <= seq[0])
            with_sub = prior_low | {sub(i_l)}
            restrictions = [(f & f0) - (with_sub if low <= f else prior_low)
                            for f in ordered]
        else:
            restrictions = [(f & f0) - prior_low for f in ordered]
        order.extend(reversed(ordered))
        rests.extend(reversed(restrictions))
    return ShellingCertificate(order=tuple(order), restrictions=tuple(rests))


def absolute_shelling_order(d: int, indices) -> ShellingCertificate:
    """Shelling of the diamond complex itself: ascending blocks, forward
    degree-lexicographic order, entry facets all-subdivided past the index."""
    idx = _check_index_set(indices, d + 1)
    order, rests = [], []
    for pos, i_l in enumerate(idx):
        f0 = entry_facet(d, i_l)
        ordered = _block_order(d, i_l, f0)
        prior = frozenset(base(i_j) for i_j in idx[:pos])
        order.extend(ordered)
        rests.extend([prior | (f - f0) for f in ordered])
    return ShellingCertificate(order=tuple(order), restrictions=tuple(rests))


def h_vector_formula(d: int, indices) -> tuple:
    """Entrywise h-vector of the diamond complex from its index set alone."""
    idx = _check_index_set(indices, d + 1)
    # block d+1 is one facet: it counts like a block of index d
    return tuple(
        sum(comb(max(d - i_j, 0), ell - j) for j, i_j in enumerate(idx) if j <= ell)
        for ell in range(d + 2)
    )


# ---------------------------------------------------------------------------
# relabeling decompositions


def shift_down_map(d: int) -> dict:
    """Index shift i -> i-1 modulo d+1 on both members of every pair."""
    out = {}
    for i in range(d + 1):
        j = (i - 1) % (d + 1)
        out[base(i)] = base(j)
        out[sub(i)] = sub(j)
    return out


def swap_top_map(d: int) -> dict:
    """Exchange of the two members of the top pair d, v_d."""
    return {base(d): sub(d), sub(d): base(d)}


def _compose(outer: dict, inner: dict) -> dict:
    return {v: outer.get(w, w) for v, w in inner.items()}


def decompose_rho_sigma(d: int, indices):
    """Split a diamond complex with d unused into two shifted copies.

    Returns (rho part, sigma part, rho map, sigma map) where both parts are
    relabelings of the diamond complex of the shifted index set I+1, their
    union is the original complex and their intersection the one-dimension-
    lower diamond complex of I.
    """
    idx = _check_index_set(indices, d)
    if d in idx:
        raise IndexSetViolatesPrecondition("requires d outside the index set")
    shifted = tuple(i + 1 for i in idx)
    source = diamond_closed_form(d, shifted)
    rho = shift_down_map(d)
    sigma = _compose(swap_top_map(d), rho)
    from .complexes import relabel

    rho_map = {v: rho[v] for v in source.vertices}
    sigma_map = {v: sigma[v] for v in source.vertices}
    return (
        relabel(source, rho_map),
        relabel(source, sigma_map),
        rho_map,
        sigma_map,
    )


def decompose_zero(d: int, indices):
    """Split off the 0-block: parts for I minus 0 and for {0} alone.

    Returns (rest part, zero part, pi) with pi the upward index shift
    identifying the intersection with the one-dimension-lower diamond
    complex of (I minus 0) shifted down.
    """
    idx = _check_index_set(indices, d)
    if 0 not in idx:
        raise IndexSetViolatesPrecondition("requires 0 inside the index set")
    if len(idx) < 2:
        raise IndexSetViolatesPrecondition("requires a second index besides 0")
    rest = diamond_closed_form(d, [i for i in idx if i != 0])
    zero = diamond_closed_form(d, [0])
    pi = {}
    for i in range(d):
        pi[base(i)] = base(i + 1)
        pi[sub(i)] = sub(i + 1)
    return rest, zero, pi
