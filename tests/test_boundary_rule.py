"""The boundary test of `moves`, and the boundary realization of a flip,
against the boundary complexes they replaced.

`moves._on_boundary(c, g)` says whether g is a face of
`boundary_complex(c)` from the star index alone: some facet h containing g
has a ridge h - {y}, y outside g, that lies in one facet.  Conditions (2)
and (3) of an elementary shelling are decided with it.  Here it must agree
with membership in the built boundary complex on every face of balls,
spheres, pinched complexes and seeded random pure complexes, the empty
face included, and every condition verdict must equal the
one read from the whole boundary's face set, as the library did before.

A facet has at most one split, A = its rim: every split of every facet
is tried against the removal conditions, and the split search must find
that one with a single boundary test.  The removal report of a facet with
no split reads its boundary intersection from the boundary ridges near
it; `_ref_boundary_intersection` below is the former test of each face.

`moves.boundary_bistellar_realization` is one checked elementary
shelling; `_ref_realization` below is the former one, which flipped the
whole boundary complex and compared it with the result's.  Both must
give the same result or the same error on every input tried.
"""

import collections
import itertools
import json
import random

import pytest

from crossflips import cli, complexes, moves
from crossflips.cli import WalkConfig, run_walk
from crossflips.complexes import (
    Complex,
    ManifoldVerdict,
    NotPure,
    _as_face,
    _subsets,
    boundary_complex,
    face,
    is_combinatorial_manifold,
    sorted_face,
    vertex_key,
)
from crossflips.diamond import cross_polytope, diamond_closed_form, simplex_boundary
from crossflips.moves import (
    BistellarFlip,
    ConditionViolated,
    NotApplicable,
    NotApplicableOnBoundary,
    apply_bistellar,
    boundary_bistellar_realization,
    find_shelling_decomposition,
    fresh_vertices,
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


def _random_pure(rng: random.Random, top: int = 3) -> Complex:
    d = rng.randint(1, top)
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


def _walk_sphere(d: int, seed: int, steps: int) -> Complex:
    return run_walk(WalkConfig(steps=steps, seed=seed, dimension=d))[0]


def _walk_balls(d: int, seed: int, steps: int):
    """A seeded walk's d-sphere less its first facet, and less the star of
    its first vertex."""
    c = _walk_sphere(d, seed, steps)
    facets = sorted(c.facets, key=sorted_face)
    v = min(c.vertices, key=vertex_key)
    return [Complex(facets[1:]), Complex(h for h in facets if v not in h)]


WALK_BALLS_D4 = [b for seed in range(3) for b in _walk_balls(4, seed, 6)]
# two 11-simplices f = {0..11} and g = {1..12}: removing f first, its rim
# is the 11 vertices it shares with g
TWO_SIMPLICES = Complex([frozenset(map(str, range(12))), frozenset(map(str, range(1, 13)))])


def test_a_facet_has_at_most_one_split_and_it_is_the_rim():
    """Of the 2^|f| - 2 splits of a facet, at most one passes the removal
    conditions: (A, R) = (rim, f - rim), the rim read from the built
    boundary complex, and the split search returns it."""
    sizes = collections.Counter()
    for c in PURE + WALK_BALLS_D4:
        rim_ridges = boundary_complex(c).facets
        for f in sorted(c.facets, key=sorted_face):
            rim = frozenset(x for x in f if f - {x} in rim_ridges)
            legal = [a for a in _subsets(sorted_face(f)) if a and a != f
                     and _verdict(shelling_move, c, f, a, f - a) == "ok"]
            assert legal in ([], [rim]), (c.canonical_facets(), sorted_face(f))
            assert find_shelling_decomposition(c, f) == ((rim, f - rim) if legal else None)
            sizes[len(rim) if legal else 0] += 1
    assert sizes[0] and sizes[1] and max(sizes) >= 3, sizes


def test_a_split_search_makes_at_most_one_boundary_test(monkeypatch):
    """The split is read from the facet's ridges; only A = rim is tested
    for the boundary.  A search over the rim's subsets would test
    2^|rim| - 1 of them before reaching it."""
    calls = []
    on_boundary = moves._on_boundary

    def counting(c, g):
        calls.append(g)
        return on_boundary(c, g)

    monkeypatch.setattr(moves, "_on_boundary", counting)
    found = 0
    for c in PURE + WALK_BALLS_D4 + [TWO_SIMPLICES]:
        for f in sorted(c.facets, key=sorted_face):
            calls.clear()
            found += find_shelling_decomposition(c, f) is not None
            assert len(calls) <= 1, (c.canonical_facets(), sorted_face(f), len(calls))
    f = frozenset(map(str, range(12)))
    assert find_shelling_decomposition(TWO_SIMPLICES, f) == (f - {"0"}, frozenset(["0"]))
    assert found


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
    realized = 0
    for c in BALLS + SPHERES + PINCHED:
        fresh = frozenset(fresh_vertices(c, 1))
        for f in c.facets:
            split = find_shelling_decomposition(c, f)
            if split is not None:
                shelling_move(c, f, *split)
                inverse_shelling(Complex(c.facets - {f}), f, *split)
            _verdict(shelling_move, c, f, f - {min(f)}, frozenset([min(f)]))
            for b in (frozenset([min(f)]), fresh):
                out = _outcome(boundary_bistellar_realization, c, f - {min(f)}, b)
                realized += out[0] == "ok"
    assert built == [] and realized
    assert not hasattr(moves, "_boundary_faces")
    assert "boundary_complex" not in vars(moves)


# ---------------------------------------------------------------------------
# the boundary realization of a bistellar flip


def _ref_realization(c, a, b):
    """The former realization: flip the boundary complex of c, build the
    boundary complex of the result, and compare the two."""
    a, b = _as_face(a), _as_face(b)
    if is_combinatorial_manifold(c) != ManifoldVerdict.WITH_BOUNDARY:
        raise NotApplicableOnBoundary("ambient must be a manifold with boundary")
    bd = boundary_complex(c)
    if not bd.has_face(a):
        raise NotApplicableOnBoundary("face is not on the boundary")
    if bd.has_face(b):
        raise NotApplicableOnBoundary("target face already on the boundary")
    if frozenset(bd._facets_containing(a)) != moves._join_boundary(a, b):
        raise NotApplicableOnBoundary("boundary link does not match")
    f_full = a | b
    if c.has_face(f_full):
        if f_full not in c.facets:
            raise NotApplicableOnBoundary("flip region is not a single facet")
        result = c._replaced(frozenset([f_full]), frozenset())
    else:
        result = moves._with_facet(c, f_full)
    want = apply_bistellar(bd, BistellarFlip(A=a, B=b))
    if boundary_complex(result) != want:
        raise NotApplicableOnBoundary("result boundary is not the flipped boundary")
    return result


def _outcome(fn, c, a, b):
    """The result's facets and star index, or the error's type and message."""
    try:
        out = fn(c, a, b)
    except (NotApplicableOnBoundary, NotApplicable) as exc:
        return type(exc).__name__, str(exc)
    return "ok", out.facets, out._star_index()


def _rim(c):
    return sorted(boundary_complex(c).facets, key=sorted_face)


def _grown_ball(seed: int, d: int, steps: int) -> Complex:
    """A d-ball grown from a simplex on boundary ridges by the former
    realization: mostly a cone from a ridge to a fresh vertex, sometimes a
    notch filled (a rim vertex set of d - 1 vertices with two rim ridges
    spanning a missing face) or a facet trimmed."""
    rng = random.Random(seed)
    c = Complex([frozenset("abcd"[: d + 1])])
    for _ in range(steps):
        rim = _rim(c)
        e = rim[rng.randrange(len(rim))]
        tries = []
        if rng.random() < 0.4:
            v = rng.choice(sorted_face(e))
            tries += [(e - {v}, frozenset([v, x])) for x in sorted(c.vertices - e, key=vertex_key)]
        if rng.random() < 0.2 and c.n_facets > 2:
            f = sorted(c.facets, key=sorted_face)[rng.randrange(c.n_facets)]
            tries += [(f - b, b) for b in _subsets(sorted_face(f))]
        rng.shuffle(tries)
        for a, b in tries + [(e, frozenset(fresh_vertices(c, 1)))]:
            try:
                c = _ref_realization(c, a, b)
                break
            except (NotApplicableOnBoundary, NotApplicable):
                pass
    return c


def _realization_inputs(c, rng):
    """(A, B) pairs: every facet split, A empty included; each rim ridge,
    and each rim ridge less a vertex v with v added to B, against each
    vertex and a fresh one; and random vertex sets."""
    fresh = fresh_vertices(c, 1)[0]
    verts = sorted(c.vertices, key=vertex_key) + [fresh]
    for f in sorted(c.facets, key=sorted_face):
        for a in _subsets(sorted_face(f)):
            yield a, f - a
    for e in _rim(c):
        for x in verts:
            yield e, frozenset([x])
            for v in sorted_face(e):
                yield e - {v}, frozenset([v, x])
    for _ in range(40):
        yield (frozenset(rng.sample(verts, rng.randint(0, c.dimension + 1))),
               frozenset(rng.sample(verts, rng.randint(0, c.dimension + 1))))


REALIZATION_BALLS = [_grown_ball(seed, d, 4 + 4 * seed)
                     for seed in range(4) for d in (1, 2, 3)]


def test_the_realization_has_the_former_outcome_on_every_input():
    seen = collections.Counter()
    for k, c in enumerate(REALIZATION_BALLS + SPHERES + PINCHED):
        for a, b in _realization_inputs(c, random.Random(k)):
            want = _outcome(_ref_realization, c, a, b)
            assert _outcome(boundary_bistellar_realization, c, a, b) == want, (
                c.canonical_facets(), sorted_face(a), sorted_face(b))
            seen[want[:2] if want[0] != "ok" else "ok"] += 1
    assert set(seen) == {
        "ok",
        ("NotApplicableOnBoundary", "ambient must be a manifold with boundary"),
        ("NotApplicableOnBoundary", "face is not on the boundary"),
        ("NotApplicableOnBoundary", "target face already on the boundary"),
        ("NotApplicableOnBoundary", "boundary link does not match"),
        ("NotApplicableOnBoundary", "result boundary is not the flipped boundary"),
        ("NotApplicable", "both faces of a flip must be nonempty"),
    }, seen


TRIANGLE = Complex([face("a", "b", "c")])
NOTCHED = Complex([face("a", "b", "c"), face("a", "c", "d")])  # b, d span no edge


@pytest.mark.parametrize("c, a, b, message", [
    (TRIANGLE, face(), face("a", "b", "c"), "both faces of a flip must be nonempty"),
    (cross_polytope(2), face("0"), face("x"), "ambient must be a manifold with boundary"),
    (NOTCHED, face("a", "c"), face("d"), "face is not on the boundary"),
    (NOTCHED, face("a", "b"), face("c"), "target face already on the boundary"),
    (NOTCHED, face("a"), face("x"), "boundary link does not match"),
    (Complex([face("x", "a", "b"), face("x", "b", "c"), face("x", "c", "d"),
              face("x", "d", "a"), face("a", "b", "e")]),  # ax an interior edge
     face("a", "e"), face("x"), "result boundary is not the flipped boundary"),
    (NOTCHED, face("c"), face("b", "d"), None),  # added
    (NOTCHED, face("b"), face("a", "c"), None),  # removed
])
def test_realization_cases(c, a, b, message):
    want = _outcome(_ref_realization, c, a, b)
    assert _outcome(boundary_bistellar_realization, c, a, b) == want
    assert want[1] == message if message else want[0] == "ok"


# ---------------------------------------------------------------------------
# the removal-mode report of a facet with no split


def _ref_boundary_intersection(c, f):
    """The maximal faces of f on the boundary of c, by testing every face
    of f, as the removal report did before it read the boundary ridges."""
    inter = [g for g in _subsets(f) if g and moves._on_boundary(c, g)]
    return sorted((g for g in inter if not any(g < h for h in inter)), key=_vertex_order)


def _vertex_order(g):
    return tuple(map(vertex_key, sorted_face(g)))


def _ref_report(c, f):
    maxi = _ref_boundary_intersection(c, f)
    if maxi:
        desc = "boundary intersection is " + ", ".join(str(list(sorted_face(g))) for g in maxi)
    elif moves._on_boundary(c, frozenset()):
        desc = "the facet does not meet the boundary"
    else:
        desc = "the complex has no boundary"
    return "FAIL at facet 1: no elementary shelling decomposition; %s\n" % desc


REPORT_CORPUS = (
    [_random_pure(random.Random(seed), top=4) for seed in range(300)]
    + [_walk_sphere(d, seed, steps) for d, steps in ((1, 12), (2, 15), (3, 4), (4, 6))
       for seed in range(2)]
    + [b for d, steps in ((2, 15), (3, 4)) for seed in range(2)
       for b in _walk_balls(d, seed, steps)] + WALK_BALLS_D4)


def test_the_removal_report_names_the_former_boundary_intersection(monkeypatch, capsys):
    """Every facet of the corpus, the split search told to find none so
    that each gets the report, which must be the face-by-face one."""
    monkeypatch.setattr(moves, "find_shelling_decomposition", lambda c, f: None)
    seen = collections.Counter()
    for c in REPORT_CORPUS:
        for f in sorted(c.facets, key=sorted_face):
            assert cli._check_removal_order(c, [f]) == 1
            want = _ref_report(c, f)
            assert capsys.readouterr().out == want, (c.canonical_facets(), sorted_face(f))
            seen[want.split("; ")[1][:12]] += 1
    assert set(seen) == {"boundary int", "the facet do", "the complex "}, seen
    assert {c.dimension for c in REPORT_CORPUS} == {1, 2, 3, 4}


def test_a_failing_removal_makes_at_most_one_boundary_test(tmp_path, monkeypatch, capsys):
    """Removing f = {0..11} from it and g = {1..12} passes; g alone then
    has no split, and its boundary intersection is its 12 ridges, read
    from the ridges of the stars of its vertices.  A search over the
    subsets of f's rim and a test of each face of g would make 10236
    boundary tests."""
    calls = []
    on_boundary = moves._on_boundary

    def counting(c, g):
        calls.append(g)
        return on_boundary(c, g)

    monkeypatch.setattr(moves, "_on_boundary", counting)
    f, g = [str(i) for i in range(12)], [str(i) for i in range(1, 13)]
    path = tmp_path / "removal.json"
    path.write_text(json.dumps({"complex": {"facets": [f, g]}, "order": [f, g],
                                "mode": "removal"}))
    assert cli.main(["check", str(path), "shelling-order"]) == 1
    ridges = ", ".join(str(list(sorted_face(r)))
                       for r in sorted((frozenset(g) - {x} for x in g), key=_vertex_order))
    assert capsys.readouterr().out == (
        "FAIL at facet 2: no elementary shelling decomposition; "
        "boundary intersection is %s\n" % ridges)
    assert len(calls) <= 1, len(calls)
