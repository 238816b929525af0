"""Command-line failure paths: each input below is refused with the message
and exit code it gets today, and a refused walk writes no file."""

import json

import pytest

from crossflips.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


CHAIN = {"facets": [["a", "b", "c"], ["b", "c", "d"], ["c", "d", "e"]]}
# two facets each, with faces that hold both "9" and "10"
NOT_SHELLING = [[*map(str, range(9)), "a"], [*map(str, range(2, 11)), "a"]]
NOT_REMOVABLE = [["0", "1", "2", "3", "9"], ["1", "2", "3", "9", "10"]]


def test_a_truncated_file_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "cut.json"
    path.write_text('{"facets": [["a", "b"]')
    code, out, err = run(capsys, "check", str(path), "manifold")
    assert (code, out) == (1, "")
    assert err.startswith("parse error: ") and err.endswith("\n")


def test_facets_that_are_no_list_of_lists_are_an_error(tmp_path, capsys):
    path = write(tmp_path / "bad.json", {"facets": "abc"})
    assert run(capsys, "check", path, "manifold") == (
        1, "", "error: 'facets' must be a list of vertex-token lists\n")


@pytest.mark.parametrize("extra, code, message", [
    ({"order": [["a", "b", "c"], ["b", "c", "d"]]},
     1, "FAIL: order must be a permutation of the facets"),
    ({"order": [["a", "b", "c"], ["c", "d", "e"], ["b", "c", "d"]]},
     1, "FAIL at facet 2: minimal new faces ['d'], ['e']"),
    ({"order": CHAIN["facets"], "restrictions": [[], ["d"], ["c"]]},
     1, "FAIL: restriction faces do not match"),
    ({"order": CHAIN["facets"], "restrictions": [[], ["d"], ["e"]]},
     0, "PASS: shelling of 3 facets"),
    # reported faces are in vertex order, as `Complex.canonical_facets`
    # orders facets: "10" follows "9"
    ({"complex": {"facets": NOT_SHELLING}, "order": NOT_SHELLING},
     1, "FAIL at facet 2: minimal new faces ['9'], ['10']"),
    ({"complex": {"facets": NOT_REMOVABLE}, "order": NOT_REMOVABLE, "mode": "removal"},
     1, "FAIL at facet 2: no elementary shelling decomposition; boundary intersection is "
        "['1', '2', '3', '9'], ['1', '2', '3', '10'], ['1', '2', '9', '10'], "
        "['1', '3', '9', '10'], ['2', '3', '9', '10']"),
])
def test_shelling_order_verdicts(tmp_path, capsys, extra, code, message):
    path = write(tmp_path / "order.json", dict({"complex": CHAIN}, **extra))
    assert run(capsys, "check", path, "shelling-order") == (code, message + "\n", "")


def test_a_relative_shelling_order_passes(tmp_path, capsys):
    doc = {"complex": {"facets": [["a", "b", "c"], ["b", "c", "d"]]},
           "removed": {"facets": [["a", "b", "c"]]}, "order": [["b", "c", "d"]]}
    path = write(tmp_path / "relative.json", doc)
    assert run(capsys, "check", path, "shelling-order") == (
        0, "PASS: shelling of 1 facets\n", "")


@pytest.mark.parametrize("color, code, out, err", [
    ("x", 1, "", "error: color 'x' of vertex '0' is not an integer\n"),
    ("1.5", 1, "", "error: color '1.5' of vertex '0' is not an integer\n"),
    ("", 1, "", "error: color '' of vertex '0' is not an integer\n"),
    (1.5, 1, "", "error: color 1.5 of vertex '0' is not an integer\n"),
    ("2", 1, "balanced: False (stored coloring, 2 colors)\n", ""),
    ("1", 0, "balanced: True (stored coloring, 2 colors)\n", ""),
], ids=["letter", "decimal-string", "empty-string", "float", "numeric-string", "proper"])
def test_colors_that_are_no_integer_are_named(tmp_path, capsys, color, code, out, err):
    """A colour is an integer or a string int() reads as one; any other is
    refused by name, not with Python's own message."""
    doc = {"facets": [["0", "1"]], "coloring": {"0": color, "1": 0}}
    path = write(tmp_path / "colored.json", doc)
    assert run(capsys, "check", path, "balanced") == (code, out, err)


def test_removal_of_a_face_that_is_no_facet(tmp_path, capsys):
    doc = {"complex": {"facets": [["a", "b", "c"], ["b", "c", "d"]]},
           "order": [["b", "c"]], "mode": "removal"}
    path = write(tmp_path / "removal.json", doc)
    assert run(capsys, "check", path, "shelling-order") == (
        1, "FAIL at facet 1: not a facet of the current complex\n", "")


@pytest.mark.parametrize("line, message", [
    ("crossflip I=2 anchor=0,1", "step ?: anchor needs 3 vertices"),
    ("crossflip I=2 anchor", "expected key=value, got 'anchor'"),
    ("swap A=0", "unknown move 'swap'"),
    ("crossflip I=2,,1 anchor=0,1,2", "I= wants a comma list of integers, got '2,,1'"),
    ("crossflip I=x anchor=0,1,2", "I= wants a comma list of integers, got 'x'"),
    ("crossflip I=2 anchor=0,1,2 new=a,b,c", "crossflip line takes no new="),
    ("shell R=1,2 x=0 F=0,1,2 A=0 y=1", "shell line takes no x=, y="),
])
def test_flip_script_lines_that_are_refused(tmp_path, capsys, line, message):
    src = tmp_path / "c2.json"
    run(capsys, "gen", "cross-polytope", "--dim", "2", "--out", str(src))
    script = tmp_path / "moves.txt"
    script.write_text(line + "\n")
    out = tmp_path / "out.json"
    assert run(capsys, "flip", str(src), "--script", str(script), "--out", str(out)) == (
        1, "FAIL at line 1: %s\n" % message, "")
    assert not out.exists()


def test_a_walk_with_no_site_writes_nothing(tmp_path, capsys):
    """The octahedron holds no induced {1,2} diamond complex."""
    out = tmp_path / "w.json"
    assert run(capsys, "walk", "--dim", "2", "--index", "1,2", "--steps", "1",
               "--out", str(out)) == (1, "FAIL: step 1: no applicable flip site\n", "")
    assert list(tmp_path.iterdir()) == []
