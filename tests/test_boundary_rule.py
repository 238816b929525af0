"""The boundary test of `moves` against the boundary complex it replaced.

`moves._on_boundary(c, g)` says whether g is a face of
`boundary_complex(c)` from the star index alone: some facet h containing g
has a ridge h - {y}, y outside g, that lies in one facet.  Conditions (2)
and (3) of an elementary shelling are decided with it.  Here it must agree
with membership in the built boundary complex on every face of balls,
spheres, pinched complexes and seeded random pure complexes, the empty
face included, and every condition verdict must equal the
one read from the whole boundary's face set, as the library did before.
"""

import itertools
import random

import pytest

from crossflips import complexes, moves
from crossflips.complexes import (
    Complex,
    NotPure,
    boundary_complex,
    face,
    sorted_face,
)
from crossflips.diamond import cross_polytope, diamond_closed_form, simplex_boundary
from crossflips.moves import (
    ConditionViolated,
    find_shelling_decomposition,
    inverse_shelling,
    shelling_move,
)


def _stacked_ball(seed: int, d: int, steps: int) -> Complex:
    """A d-ball grown from a simplex by inverse shellings onto random
    boundary ridges."""
    rng = random.Random(seed)
    c = Complex([frozenset("abcd"[: d + 1])])
    for k in range(steps):
        rim = sorted(boundary_complex(c).facets, key=sorted_face)
        e = rim[rng.randrange(len(rim))]
        v = "n%d" % k
        c = inverse_shelling(c, e | {v}, e, frozenset([v]))
    return c


BALLS = [_stacked_ball(seed, d, 3 + 2 * seed) for seed in range(4) for d in (1, 2, 3)]
SPHERES = [cross_polytope(d) for d in (1, 2, 3)] + [simplex_boundary(d) for d in (1, 2)]
PINCHED = [
    Complex([face("a", "b", "c"), face("a", "d", "e")]),  # two triangles at a vertex
    Complex([face("a", "b", "c", "d"), face("a", "b", "e", "f")]),  # tetrahedra at an edge
    Complex([face("a", "b"), face("a", "c"), face("a", "d")]),  # a vertex of degree 3
    Complex([face("a", "b", "c"), face("a", "b", "d"), face("a", "b", "e")]),  # a book
]
DIAMONDS = [diamond_closed_form(d, idx) for d in (1, 2, 3)
            for r in range(1, d + 1) for idx in itertools.combinations(range(d + 1), r)]
PURE = BALLS + SPHERES + PINCHED + DIAMONDS


def _random_pure(rng: random.Random) -> Complex:
    d = rng.randint(1, 3)
    pool = "abcdefg"[: d + 1 + rng.randint(1, 4)]
    return Complex.generated_by([frozenset(rng.sample(pool, d + 1))
                                 for _ in range(rng.randint(1, 8))])


RANDOM_PURE = [_random_pure(random.Random(seed)) for seed in range(300)]


def test_boundary_faces_are_read_from_the_star_index():
    """Every face, the empty face included: it is on the boundary exactly
    when there is one."""
    on, off = 0, 0
    for c in PURE + RANDOM_PURE:
        bd = boundary_complex(c).all_faces()
        for g in c.all_faces():
            got = moves._on_boundary(c, g)
            assert got == (g in bd), (c.canonical_facets(), sorted_face(g))
            on, off = on + got, off + (not got)
    assert on and off


def _ref_conditions(c, f, a, r):
    """Conditions (2) and (3) read from every face of the boundary, as
    before the star-index test; condition (3)'s pieces in canonical order."""
    bd = boundary_complex(c)
    bd_faces = bd.all_faces() if bd.facets else frozenset()
    if not c.has_face(a) or a in bd_faces:
        raise ConditionViolated(2, "A must be a face interior to the complex")
    for x in sorted_face(a):
        piece = (a - {x}) | r
        if piece not in bd_faces:
            raise ConditionViolated(3, "%r is not in the boundary" % (sorted_face(piece),))


def _verdict(fn, *args):
    try:
        fn(*args)
    except ConditionViolated as exc:
        return str(exc)
    return "ok"


def test_every_split_gets_the_whole_boundary_verdict():
    seen = set()
    for c in PURE:
        for f in sorted(c.facets, key=sorted_face):
            first = None
            for size in range(1, len(f)):
                for a_tuple in itertools.combinations(sorted_face(f), size):
                    a = frozenset(a_tuple)
                    want = _verdict(_ref_conditions, c, f, a, f - a)
                    assert _verdict(shelling_move, c, f, a, f - a) == want
                    if first is None and want == "ok":
                        first = (a, f - a)
                    seen.add(want[:13])
            assert find_shelling_decomposition(c, f) == first
    assert seen == {"ok", "condition (2)", "condition (3)"}


def test_non_pure_and_zero_dimensional_inputs_raise_the_boundary_errors():
    non_pure = Complex([face("a", "b", "c"), face("c", "d")])
    points = Complex([face("a"), face("b")])
    for c in (non_pure, points, Complex.empty()):
        with pytest.raises(NotPure) as want:
            boundary_complex(c)
        with pytest.raises(NotPure) as got:
            complexes._require_boundary(c)
        assert str(got.value) == str(want.value)
    with pytest.raises(NotPure, match="pure nonempty"):
        shelling_move(non_pure, face("a", "b", "c"), face("a"), face("b", "c"))
    with pytest.raises(NotPure, match="pure nonempty"):
        find_shelling_decomposition(non_pure, face("a", "b", "c"))
    with pytest.raises(NotPure, match="pure nonempty"):
        inverse_shelling(Complex([face("a", "b")]), face("b", "c", "d"), face("b"),
                         face("c", "d"))
    # a 0-dimensional facet has no split, so the conditions stop at (1)
    assert find_shelling_decomposition(points, face("a")) is None
    with pytest.raises(ConditionViolated) as err:
        shelling_move(points, face("a"), face("a"), face())
    assert err.value.condition == 1


def test_no_condition_check_builds_the_boundary(monkeypatch):
    built = []

    def counting(c):
        built.append(c)
        return boundary_complex(c)

    monkeypatch.setattr(complexes, "boundary_complex", counting)
    monkeypatch.setattr(moves, "boundary_complex", counting)
    for c in BALLS + SPHERES + PINCHED:
        for f in c.facets:
            split = find_shelling_decomposition(c, f)
            if split is not None:
                shelling_move(c, f, *split)
                inverse_shelling(Complex(c.facets - {f}), f, *split)
            _verdict(shelling_move, c, f, f - {min(f)}, frozenset([min(f)]))
    assert built == []
    assert not hasattr(moves, "_boundary_faces")
