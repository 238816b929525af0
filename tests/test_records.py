"""The record contract: the move, result, verdict, certificate, class and
walk-config records are plain slotted classes with named fields, equality
by type and fields, hashes and reprs that skip the same fields as before,
immutability (but for ``WalkConfig``), and pickle and deepcopy round-trips."""

import copy
import pickle

import pytest

from crossflips.catalog import FlipClass
from crossflips.cli import WalkConfig
from crossflips.complexes import Complex, face
from crossflips.diamond import cross_polytope
from crossflips.moves import BistellarFlip, CrossFlip, CrossFlipResult, ShellingMove
from crossflips.shelling import RelativeComplex, ShellingCertificate, ShellingVerdict

OCTA = cross_polytope(2)
TRIANGLE = Complex([face(0, 1, 2)])
HALF = Complex([face(0, 1)])

# record class, its fields with one value each, and the fields the hash and
# the repr skip
RECORDS = [
    (BistellarFlip, {"A": face(0, 1), "B": face(2)}, (), ()),
    (CrossFlip, {"d": 2, "spec": (1,), "embedding": {"0": "0", "v0": "v0"}},
     ("embedding",), ()),
    (ShellingMove, {"facet": face(0, 1, 2), "A": face(0), "R": face(1, 2)}, (), ()),
    (CrossFlipResult, {"complex": OCTA, "vertex_map": {"0": "0"}, "fresh_vertices": ("w1",),
                       "glued": frozenset([face(0, 1, 2)]), "nonfaces": ((0, 1),),
                       "sources": ("v0",)},
     ("vertex_map",), ("glued", "nonfaces", "sources")),
    (RelativeComplex, {"ambient": TRIANGLE, "removed": HALF}, (), ()),
    (ShellingVerdict, {"ok": False, "failing_index": 3, "minimal_new_faces": (face(1),),
                       "restrictions": (face(),)}, (), ()),
    (ShellingCertificate, {"order": (face(0, 1, 2),), "restrictions": (face(),)}, (), ()),
    (FlipClass, {"canonical_index": (0, 1), "facet_count": 4, "h": (1, 2, 1),
                 "complement_class": (2,), "sufficient": True}, (), ()),
    (WalkConfig, {"steps": 3, "seed": 7, "dimension": 2, "allowed_flips": [(1,)],
                  "start": OCTA, "start_coloring": {"0": 0}}, (), ()),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]
FROZEN = [r for r in RECORDS if r[0] is not WalkConfig]
FROZEN_IDS = [cls.__name__ for cls, *_ in FROZEN]


@pytest.mark.parametrize("cls,fields,unhashed,hidden", RECORDS, ids=IDS)
def test_construction_by_position_and_by_keyword(cls, fields, unhashed, hidden):
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    for name, value in fields.items():
        assert getattr(by_position, name) is value
        assert getattr(by_keyword, name) is value
    assert by_position == by_keyword
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*fields.values(), None)
    with pytest.raises(TypeError):
        cls(**fields, extra=None)


def test_defaults():
    v = ShellingVerdict(True)
    assert (v.ok, v.failing_index, v.minimal_new_faces, v.restrictions) == (True, None, (), None)
    assert ShellingVerdict(ok=True, restrictions=()) == ShellingVerdict(True, None, (), ())
    w, w2 = WalkConfig(10, 1, 2), WalkConfig(steps=10, seed=1, dimension=2)
    assert (w.allowed_flips, w.start, w.start_coloring) == ([], None, None)
    assert w == w2 and w.allowed_flips is not w2.allowed_flips


@pytest.mark.parametrize("cls,fields,unhashed,hidden", RECORDS, ids=IDS)
def test_equality_is_by_type_and_every_field(cls, fields, unhashed, hidden):
    rec = cls(**fields)
    assert rec == cls(**copy.copy(fields)) and not rec != cls(**fields)
    assert rec != tuple(fields.values())
    assert rec.__eq__(tuple(fields.values())) is NotImplemented

    class Sub(cls):
        pass

    assert rec != Sub(**fields) and Sub(**fields) != rec
    for name in fields:
        if cls is RelativeComplex:
            changed = dict(fields, removed=TRIANGLE) if name == "removed" else dict(
                fields, ambient=Complex([face(0, 1, 2), face(1, 2, 3)]))
        else:
            changed = dict(fields, **{name: "other"})
        assert cls(**changed) != rec, name


def test_records_with_the_same_fields_but_another_type_differ():
    a, b = face(0, 1), face(2)
    assert BistellarFlip(a, b) != ShellingCertificate(a, b)
    assert ShellingCertificate(a, b) != BistellarFlip(a, b)


@pytest.mark.parametrize("cls,fields,unhashed,hidden", FROZEN, ids=FROZEN_IDS)
def test_hash_skips_the_same_fields_as_before(cls, fields, unhashed, hidden):
    rec = cls(**fields)
    assert hash(rec) == hash(cls(**fields))
    # the formula a frozen dataclass hashed by, so sets of records iterate
    # in the order they did
    assert hash(rec) == hash(tuple(v for k, v in fields.items() if k not in unhashed))
    for name in unhashed:
        other = cls(**dict(fields, **{name: {"x": "y"}}))
        assert other != rec and hash(other) == hash(rec)
    assert {rec, cls(**fields)} == {rec}


def test_walk_config_is_unhashable():
    with pytest.raises(TypeError):
        hash(WalkConfig(1, 2, 3))


@pytest.mark.parametrize("cls,fields,unhashed,hidden", RECORDS, ids=IDS)
def test_repr_shows_the_same_fields_as_before(cls, fields, unhashed, hidden):
    shown = ", ".join("%s=%r" % (k, v) for k, v in fields.items() if k not in hidden)
    assert repr(cls(**fields)) == "%s(%s)" % (cls.__name__, shown)


def test_repr_literals():
    assert repr(CrossFlip(2, (1,), {"0": "1"})) == "CrossFlip(d=2, spec=(1,), embedding={'0': '1'})"
    res = CrossFlipResult(OCTA, {"0": "0"}, ("w1",), frozenset(), (), ())
    assert repr(res) == ("CrossFlipResult(complex=Complex(dim=2, facets=8), "
                         "vertex_map={'0': '0'}, fresh_vertices=('w1',))")
    assert repr(ShellingVerdict(True)) == (
        "ShellingVerdict(ok=True, failing_index=None, minimal_new_faces=(), restrictions=None)")
    assert repr(WalkConfig(1, 2, 3)) == ("WalkConfig(steps=1, seed=2, dimension=3, "
                                         "allowed_flips=[], start=None, start_coloring=None)")


@pytest.mark.parametrize("cls,fields,unhashed,hidden", FROZEN, ids=FROZEN_IDS)
def test_assignment_and_deletion_raise(cls, fields, unhashed, hidden):
    rec = cls(**fields)
    for name in [*fields, "extra"]:
        with pytest.raises(AttributeError):
            setattr(rec, name, 1)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert all(getattr(rec, k) is v for k, v in fields.items())
    with pytest.raises(AttributeError):
        object.__getattribute__(rec, "__dict__")


def test_walk_config_is_mutable():
    w = WalkConfig(1, 2, 3)
    w.steps = 5
    w.allowed_flips.append((1,))
    assert w == WalkConfig(5, 2, 3, [(1,)])


@pytest.mark.parametrize("cls,fields,unhashed,hidden", RECORDS, ids=IDS)
def test_pickle_and_deepcopy_round_trips(cls, fields, unhashed, hidden):
    rec = cls(**fields)
    copies = [pickle.loads(pickle.dumps(rec, protocol))
              for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.deepcopy(rec), copy.copy(rec)]
    for other in copies:
        assert type(other) is cls and other == rec
        assert [getattr(other, k) for k in fields] == list(fields.values())
    assert copy.deepcopy(rec) is not rec
    if cls is not WalkConfig:
        assert all(hash(other) == hash(rec) for other in copies)


def test_relative_complex_refuses_a_part_that_is_not_a_subcomplex():
    with pytest.raises(ValueError, match="subcomplex"):
        RelativeComplex(HALF, TRIANGLE)
    with pytest.raises(ValueError, match="subcomplex"):
        RelativeComplex(ambient=TRIANGLE, removed=Complex([face(0, 3)]))
    assert RelativeComplex(TRIANGLE, HALF).pair_facets() == frozenset([face(0, 1, 2)])
