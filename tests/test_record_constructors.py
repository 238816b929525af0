"""The constructors ``_Record`` generates from ``__slots__``: one parameter
per field in slot order, defaults from ``_defaults``, and a hand-written
``__init__`` kept, by its record and by the record's subclasses."""

import inspect

import pytest

from crossflips import catalog, cli, moves, shelling
from crossflips.complexes import Complex, _Record, face

NO_DEFAULT = inspect.Parameter.empty

# every record of the library and the defaults of its fields
DEFAULTS = {
    moves.BistellarFlip: {},
    moves.CrossFlip: {},
    moves.ShellingMove: {},
    moves.CrossFlipResult: {},
    shelling.RelativeComplex: {},
    shelling.ShellingVerdict: {"failing_index": None, "minimal_new_faces": (),
                               "restrictions": None},
    shelling.ShellingCertificate: {},
    catalog.FlipClass: {},
    cli.WalkConfig: {"allowed_flips": None, "start": None, "start_coloring": None},
}


def _library_records():
    found, todo = set(), [_Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("crossflips."):
                found.add(sub)
    return found


def test_every_record_is_listed():
    assert _library_records() == set(DEFAULTS)


@pytest.mark.parametrize("cls", DEFAULTS, ids=lambda cls: cls.__name__)
def test_the_signature_is_the_slots_in_order_with_their_defaults(cls):
    params = inspect.signature(cls).parameters.values()
    assert [p.name for p in params] == list(cls.__slots__)
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params)
    assert {p.name: p.default for p in params if p.default is not NO_DEFAULT} == DEFAULTS[cls]


def test_only_records_that_do_more_than_fill_slots_write_init():
    generated = {cls for cls in DEFAULTS
                 if cls.__init__.__code__.co_filename == "<%s.__init__>" % cls.__qualname__}
    assert set(DEFAULTS) - generated == {shelling.RelativeComplex, cli.WalkConfig}


def test_a_field_is_stored_by_name_whatever_the_slot_order():
    class Move(_Record):
        __slots__ = ("A", "facet", "R")

    m = Move(facet="a", A="F", R="r")
    assert (m.A, m.facet, m.R) == ("F", "a", "r")
    assert m == Move("F", "a", "r")
    assert repr(m).endswith("Move(A='F', facet='a', R='r')")


def test_defaults_are_bound_as_given():
    marker = object()

    class Marked(_Record):
        __slots__ = ("a", "b")
        _defaults = {"b": marker}

    assert Marked(1).b is marker
    assert Marked(1, 2).b == 2
    with pytest.raises(TypeError):
        Marked()


def test_a_subclass_keeps_its_parents_constructor():
    triangle, half = Complex([face(0, 1, 2)]), Complex([face(0, 1)])

    class SubRelative(shelling.RelativeComplex):
        pass

    class SubVerdict(shelling.ShellingVerdict):
        pass

    assert SubRelative.__init__ is shelling.RelativeComplex.__init__
    with pytest.raises(ValueError, match="subcomplex"):
        SubRelative(half, triangle)
    with pytest.raises(ValueError, match="subcomplex"):
        SubRelative(ambient=triangle, removed=Complex([face(0, 3)]))
    assert SubRelative(triangle, half).removed is half
    assert SubVerdict.__init__ is shelling.ShellingVerdict.__init__
    assert SubVerdict(True).minimal_new_faces == ()
