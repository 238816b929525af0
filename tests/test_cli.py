"""Command-line surface: formats, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from crossflips import catalog
from crossflips.cli import WalkConfig, main, run_walk
from crossflips.diamond import cross_polytope, standard_coloring
from crossflips.moves import NotInduced

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_cross_polytope(tmp_path, capsys):
    out = tmp_path / "c2.json"
    code, _, _ = run(capsys, "gen", "cross-polytope", "--dim", "2", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["facets"]) == 8
    assert doc["coloring"]["0"] == 0 and doc["coloring"]["v0"] == 0
    assert doc["facets"][0] == ["0", "1", "2"]


def test_gen_diamond_and_stacked(tmp_path, capsys):
    out = tmp_path / "d.json"
    code, _, _ = run(capsys, "gen", "diamond", "--dim", "2", "--index", "0,1",
                     "--out", str(out))
    assert code == 0
    assert len(json.loads(out.read_text())["facets"]) == 6
    code, _, _ = run(capsys, "gen", "stacked", "--dim", "2", "--copies", "2",
                     "--out", str(out))
    assert code == 0
    assert len(json.loads(out.read_text())["facets"]) == 14


def test_check_manifold_and_balanced(tmp_path, capsys):
    out = tmp_path / "c.json"
    run(capsys, "gen", "cross-polytope", "--dim", "2", "--out", str(out))
    code, text, _ = run(capsys, "check", str(out), "manifold")
    assert code == 0 and "closed" in text
    code, text, _ = run(capsys, "check", str(out), "balanced")
    assert code == 0
    run(capsys, "gen", "cross-polytope", "--dim", "4", "--out", str(out))
    code, text, _ = run(capsys, "check", str(out), "manifold")
    assert code == 2 and "undecided" in text
    # a 2-sphere needing four colors fails the balance check
    run(capsys, "gen", "simplex-boundary", "--dim", "2", "--out", str(out))
    code, _, _ = run(capsys, "check", str(out), "balanced")
    assert code == 1


def test_check_induced(tmp_path, capsys):
    doc = {
        "complex": {"facets": [["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"]]},
        "sub": {"facets": [["a", "b"], ["c", "d"]]},
    }
    path = tmp_path / "ind.json"
    path.write_text(json.dumps(doc))
    code, _, _ = run(capsys, "check", str(path), "induced")
    assert code == 1


def test_check_non_shelling_fixture(capsys):
    path = os.path.join(FIXTURES, "non_shelling.json")
    code, text, _ = run(capsys, "check", path, "shelling-order")
    assert code == 1
    assert "FAIL at facet 6" in text
    assert "boundary intersection" in text


def test_check_unbalanced_3sphere_fixture(capsys):
    """A 3-sphere with no proper 4-coloring, on which the former vertex
    backtracking did not finish: the ridge classes answer at once."""
    path = os.path.join(FIXTURES, "unbalanced_3sphere.json")
    code, text, err = run(capsys, "check", path, "balanced")
    assert (code, text, err) == (1, "balanced: False (coloring search, 4 colors)\n", "")


def test_removal_mode_builds_no_boundary_complex(tmp_path, capsys, monkeypatch):
    """Removal mode decides each split from the star index, and a failing
    run reads the boundary intersection it reports from there too: no run
    builds a boundary complex."""
    from crossflips import complexes, moves

    built = []
    boundary_complex = complexes.boundary_complex

    def counting(c):
        built.append(c.n_facets)
        return boundary_complex(c)

    monkeypatch.setattr(complexes, "boundary_complex", counting)
    assert "boundary_complex" not in vars(moves)  # so moves can only reach the patched one
    # a fan of five triangles around "o", removed from the far end down
    # to the first
    fan = [["o", "p%d" % i, "p%d" % (i + 1)] for i in range(5)]
    path = tmp_path / "fan.json"
    path.write_text(json.dumps({"complex": {"facets": fan}, "order": fan[:0:-1],
                                "mode": "removal"}))
    code, text, _ = run(capsys, "check", str(path), "shelling-order")
    assert (code, text) == (0, "PASS: 4 elementary shellings\n")
    assert built == []
    # the middle triangle meets the boundary in an edge and a vertex
    path.write_text(json.dumps({"complex": {"facets": fan}, "order": [fan[2]],
                                "mode": "removal"}))
    code, text, _ = run(capsys, "check", str(path), "shelling-order")
    assert (code, text) == (1, "FAIL at facet 1: no elementary shelling decomposition; "
                               "boundary intersection is ['o'], ['p2', 'p3']\n")
    assert built == []


def test_removal_mode_on_a_closed_complex_says_it_has_no_boundary(tmp_path, capsys):
    octahedron = tmp_path / "octahedron.json"
    assert run(capsys, "gen", "cross-polytope", "--dim", "2",
               "--out", str(octahedron))[0] == 0
    doc = json.loads(octahedron.read_text())
    path = tmp_path / "removal.json"
    path.write_text(json.dumps({"complex": doc, "order": doc["facets"][:1],
                                "mode": "removal"}))
    assert run(capsys, "check", str(path), "shelling-order") == (
        1, "FAIL at facet 1: no elementary shelling decomposition; "
           "the complex has no boundary\n", "")


def test_unknown_shelling_order_mode_is_usage_error(tmp_path, capsys):
    """Only an absent or null mode checks an addition order; any other
    mode than "removal", a misspelling say, is refused."""
    path = tmp_path / "mode.json"
    edge = {"complex": {"facets": [["a", "b"]]}, "order": [["a", "b"]]}
    for mode in (None, "removel", "bogus", 1, ["removal"]):
        path.write_text(json.dumps(dict(edge, mode=mode)))
        code, text, err = run(capsys, "check", str(path), "shelling-order")
        if mode is None:
            assert (code, text, err) == (0, "PASS: shelling of 1 facets\n", "")
        else:
            assert code == 3 and text == ""
            assert err.startswith("usage error:") and err.count("\n") == 1


def test_removal_mode_names_a_facet_that_misses_the_boundary(capsys):
    """The octahedron without the facet {0, 1, 2} has that triangle for its
    boundary, which the opposite facet {v0, v1, v2} does not meet."""
    path = os.path.join(FIXTURES, "holed_octahedron_removal.json")
    assert run(capsys, "check", path, "shelling-order") == (
        1, "FAIL at facet 1: no elementary shelling decomposition; "
           "the facet does not meet the boundary\n", "")


def test_shelling_condition_messages_do_not_depend_on_the_hash_seed(tmp_path):
    """Condition (3) names the first failing ridge in canonical order,
    whatever order PYTHONHASHSEED gives a set of strings; here both ridges
    of the split fail."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    doc = tmp_path / "ball.json"
    doc.write_text(json.dumps({"facets": [["a", "b", "c"], ["a", "b", "e"], ["a", "e", "h"],
                                          ["b", "e", "f"], ["e", "h", "i"]]}))
    script = tmp_path / "moves.txt"
    script.write_text("shell F=a,b,e A=a,b R=e\n")
    for seed in ("0", "1", "2", "3"):
        done = subprocess.run(
            [sys.executable, "-m", "crossflips", "flip", str(doc), "--script", str(script),
             "--out", str(tmp_path / "out.json")],
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
            capture_output=True, text=True)
        assert (done.returncode, done.stdout) == (
            1, "FAIL at line 1: condition (3): ('b', 'e') is not in the boundary\n"), seed


def _module_run(argv, seed="0", cwd=None):
    """`python -m crossflips` in a fresh interpreter with the given hash seed."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "crossflips", *argv], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
                          capture_output=True, text=True)


def test_antichain_message_does_not_depend_on_the_hash_seed(tmp_path):
    """Four facets lie in others; the message names the least of them by
    (size, sorted vertices) and its least container, here one of three
    vertices although a four-vertex container sorts first."""
    doc = tmp_path / "nested.json"
    doc.write_text(json.dumps({"facets": [
        ["j", "k"], ["j", "k", "l"], ["g", "h"], ["g", "h", "i"], ["d", "e"], ["d", "e", "f"],
        ["a", "b"], ["a", "b", "x", "y"], ["a", "b", "z"]]}))
    for seed in ("1", "2", "3", "4", "5", "6"):
        done = _module_run(["check", str(doc), "manifold"], seed)
        assert (done.returncode, done.stdout, done.stderr) == (
            1, "", "error: facet list is not an antichain: "
                   "('a', 'b') is contained in ('a', 'b', 'z')\n"), seed


@pytest.mark.parametrize("argv", [
    ["check", "{dir}", "manifold"],
    ["flip", "{file}", "--script", "{dir}", "--out", "{dir}/out.json"],
    ["walk", "--dim", "2", "--steps", "1", "--out", "{dir}"],
], ids=["check-file", "flip-script", "walk-out"])
def test_a_directory_for_a_file_is_a_usage_error(tmp_path, argv):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"facets": [["0", "1"]]}))
    argv = [a.format(dir=tmp_path, file=path) for a in argv]
    done = _module_run(argv, cwd=tmp_path)
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr.startswith("usage error:") and done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr
    assert sorted(os.listdir(tmp_path)) == ["c.json"]


def test_check_certificate_pass(tmp_path, capsys):
    from crossflips.complexes import complex_to_doc
    from crossflips.diamond import absolute_shelling_order, diamond_closed_form

    cert = absolute_shelling_order(2, (0, 1))
    doc = {
        "complex": complex_to_doc(diamond_closed_form(2, (0, 1))),
        "order": [sorted(f) for f in cert.order],
    }
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    code, text, _ = run(capsys, "check", str(path), "shelling-order")
    assert code == 0 and "PASS" in text


def test_flip_script(tmp_path, capsys):
    src = tmp_path / "c2.json"
    run(capsys, "gen", "cross-polytope", "--dim", "2", "--out", str(src))
    script = tmp_path / "moves.txt"
    script.write_text("crossflip I=2 anchor=0,1,v2\n")
    out = tmp_path / "out.json"
    code, _, _ = run(capsys, "flip", str(src), "--script", str(script),
                     "--out", str(out))
    assert code == 0
    assert len(json.loads(out.read_text())["facets"]) == 14


def test_shell_script_lines(tmp_path, capsys):
    src = tmp_path / "two.json"
    src.write_text(json.dumps({"facets": [["a", "b", "c"], ["b", "c", "d"]]}))
    script = tmp_path / "moves.txt"
    script.write_text(
        "shell F=b,c,d A=b,c R=d\n"
        "inverse-shell F=b,c,d A=b,c R=d\n"
    )
    out = tmp_path / "out.json"
    code, _, _ = run(capsys, "flip", str(src), "--script", str(script),
                     "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text())["facets"] == [["a", "b", "c"], ["b", "c", "d"]]


def test_flip_script_failure_reports_line(tmp_path, capsys):
    src = tmp_path / "c2.json"
    run(capsys, "gen", "cross-polytope", "--dim", "2", "--out", str(src))
    script = tmp_path / "moves.txt"
    script.write_text("# comment\nbistellar A=0,1 B=0,1\n")
    code, text, _ = run(capsys, "flip", str(src), "--script", str(script),
                        "--out", str(tmp_path / "out.json"))
    assert code == 1
    assert "line 2" in text


@pytest.mark.parametrize("line, message", [
    ("crossflip anchor=a,b,c", "crossflip line lacks I="),
    ("bistellar B=0", "bistellar line lacks A="),
    ("shell F=0,1,2 A=0", "shell line lacks R="),
    ("inverse-shell F=0,1,2", "inverse-shell line lacks A=, R="),
])
def test_flip_script_line_names_its_missing_keys(tmp_path, capsys, line, message):
    src = tmp_path / "c2.json"
    run(capsys, "gen", "cross-polytope", "--dim", "2", "--out", str(src))
    script = tmp_path / "moves.txt"
    script.write_text(line + "\n")
    code, text, _ = run(capsys, "flip", str(src), "--script", str(script),
                        "--out", str(tmp_path / "out.json"))
    assert (code, text) == (1, "FAIL at line 1: %s\n" % message)


@pytest.mark.parametrize("line, message", [
    ("crossflip I=2 I=1 anchor=0,1,2", "crossflip line repeats I="),
    ("bistellar A=0,1 B=v0,v1 A=0,1", "bistellar line repeats A="),
    ("shell F=0,1,2 A=0 R=1,2 R=2", "shell line repeats R="),
    ("inverse-shell F=0,1,2 F=0,1 A=0 R=1,2", "inverse-shell line repeats F="),
])
def test_flip_script_line_that_repeats_a_key_is_refused(tmp_path, capsys, line, message):
    """A repeated key is refused, not overridden by its last value: on the
    octahedron the I=1 cross-flip alone applies."""
    src = tmp_path / "c2.json"
    run(capsys, "gen", "cross-polytope", "--dim", "2", "--out", str(src))
    script = tmp_path / "moves.txt"
    script.write_text(line + "\n")
    code, text, _ = run(capsys, "flip", str(src), "--script", str(script),
                        "--out", str(tmp_path / "out.json"))
    assert (code, text) == (1, "FAIL at line 1: %s\n" % message)
    assert not (tmp_path / "out.json").exists()
    script.write_text("crossflip I=1 anchor=0,1,2\n")
    assert run(capsys, "flip", str(src), "--script", str(script),
               "--out", str(tmp_path / "out.json"))[0] == 0


def test_bistellar_round_trip_fixture(tmp_path, capsys):
    """Subdividing a facet, flipping an edge and undoing both gives the
    octahedron back; after the first two lines the edge 0,1 has given way
    to v2,w0."""
    src = tmp_path / "c2.json"
    run(capsys, "gen", "cross-polytope", "--dim", "2", "--out", str(src))
    script = os.path.join(FIXTURES, "bistellar_round_trip.txt")
    with open(script) as fh:
        moves = [line for line in fh if not line.startswith("#")]
    half = tmp_path / "half.txt"
    half.write_text("".join(moves[:2]))
    for path, out in ((script, tmp_path / "out.json"), (half, tmp_path / "half.json")):
        code, _, _ = run(capsys, "flip", str(src), "--script", str(path), "--out", str(out))
        assert code == 0
    original = json.loads(src.read_text())["facets"]
    assert json.loads((tmp_path / "out.json").read_text())["facets"] == original
    facets = json.loads((tmp_path / "half.json").read_text())["facets"]
    assert len(facets) == 10
    assert [any(e <= set(f) for f in facets) for e in ({"0", "1"}, {"v2", "w0"})] == [False, True]


def test_crossflip_script_fixture(tmp_path, capsys):
    """A seeded d=2 walk over all seven classes, replayed from its
    entry-facet anchors, gives the result pinned in CI byte for byte."""
    src = tmp_path / "c2.json"
    run(capsys, "gen", "cross-polytope", "--dim", "2", "--out", str(src))
    script = os.path.join(FIXTURES, "crossflip_script.txt")
    with open(script) as fh:
        classes = {line.split()[1] for line in fh if not line.startswith("#")}
    assert len(classes) == 7
    out = tmp_path / "out.json"
    assert run(capsys, "flip", str(src), "--script", script, "--out", str(out)) == (0, "", "")
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "efee2788306d7394cead0c5850a344675693e4e9d576e7ab51a4350f774b8467"


def test_trivial_crossflip_script_isomorphic(tmp_path, capsys):
    from crossflips.complexes import are_isomorphic, complex_from_doc

    src = tmp_path / "c2.json"
    run(capsys, "gen", "cross-polytope", "--dim", "2", "--out", str(src))
    script = tmp_path / "moves.txt"
    script.write_text("crossflip I=0 anchor=v0,v1,v2\n")
    out = tmp_path / "out.json"
    code, _, _ = run(capsys, "flip", str(src), "--script", str(script),
                     "--out", str(out))
    assert code == 0
    flipped, _ = complex_from_doc(json.loads(out.read_text()))
    original, _ = complex_from_doc(json.loads(src.read_text()))
    assert are_isomorphic(flipped, original) is not None


def test_walk_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "w1.json", tmp_path / "w2.json"
    args = ["walk", "--dim", "2", "--steps", "12", "--seed", "99",
            "--index", "2", "--index", "0,1,2"]
    code, _, _ = run(capsys, *args, "--out", str(out1))
    assert code == 0
    code, _, _ = run(capsys, *args, "--out", str(out2))
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    stats1 = (tmp_path / "w1.stats.csv").read_text()
    stats2 = (tmp_path / "w2.stats.csv").read_text()
    assert stats1 == stats2
    header, first = stats1.splitlines()[:2]
    assert header == "step,flip_index,facets,vertices,euler,balanced"
    assert first.split(",")[0] == "1"
    for line in stats1.splitlines()[1:]:
        cells = line.split(",")
        assert cells[4] == "2" and cells[5] == "True"


def test_walk_negative_steps_is_usage_error(tmp_path, capsys):
    out = tmp_path / "w.json"
    code, text, err = run(capsys, "walk", "--dim", "2", "--steps", "-1",
                          "--out", str(out))
    assert code == 3 and text == ""
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert not out.exists()


def test_walk_index_outside_dimension_is_usage_error(tmp_path, capsys):
    out = tmp_path / "w.json"
    for index in ("3", "0,5", ""):
        code, text, err = run(capsys, "walk", "--dim", "2", "--steps", "2",
                              "--index", "2", "--index", index, "--out", str(out))
        assert code == 3 and text == ""
        assert err.startswith("usage error:") and err.count("\n") == 1
    assert not out.exists()


def test_walk_repeated_index_is_usage_error(tmp_path, capsys):
    # a class given twice would be searched twice and drawn with double weight
    out = tmp_path / "w.json"
    for indices in (["0", "0"], ["0,1", "1,0"], ["2", "0,1", "1,,0"]):
        argv = ["walk", "--dim", "2", "--steps", "2", "--out", str(out)]
        for index in indices:
            argv += ["--index", index]
        code, text, err = run(capsys, *argv)
        assert code == 3 and text == ""
        assert err.startswith("usage error:") and err.count("\n") == 1
    assert not out.exists()


def test_walk_start_without_coloring_searches_for_one(tmp_path, capsys):
    src, out = tmp_path / "st.json", tmp_path / "w.json"
    run(capsys, "gen", "stacked", "--dim", "2", "--copies", "2", "--out", str(src))
    doc = json.loads(src.read_text())
    del doc["coloring"]
    src.write_text(json.dumps(doc))
    code, text, _ = run(capsys, "walk", str(src), "--dim", "2", "--steps", "6",
                        "--seed", "1", "--out", str(out))
    assert (code, text) == (0, "")
    rows = (tmp_path / "w.stats.csv").read_text().splitlines()[1:]
    assert len(rows) == 6 and all(row.endswith(",True") for row in rows)
    # the 3-simplex boundary needs four colours
    run(capsys, "gen", "simplex-boundary", "--dim", "2", "--out", str(src))
    out.unlink()
    code, text, err = run(capsys, "walk", str(src), "--dim", "2", "--steps", "3",
                          "--out", str(out))
    assert (code, err) == (1, "")
    assert text == "FAIL: the start complex has no proper 3-coloring\n"
    assert not out.exists()


def test_a_long_polygon_is_balanced_and_walks(tmp_path, capsys):
    """The coloring search is as deep as the vertex count, here above the
    interpreter's default recursion limit."""
    src, out = tmp_path / "gon.json", tmp_path / "w.json"
    n = 1200
    src.write_text(json.dumps({"facets": [[str(i), str((i + 1) % n)] for i in range(n)]}))
    assert run(capsys, "check", str(src), "balanced") == (
        0, "balanced: True (coloring search, 2 colors)\n", "")
    assert run(capsys, "walk", str(src), "--dim", "1", "--steps", "1",
               "--out", str(out)) == (0, "", "")
    assert len(json.loads(out.read_text())["facets"]) == n


def test_walk_dimension_must_match_start(tmp_path, capsys):
    src, out = tmp_path / "st.json", tmp_path / "w.json"
    run(capsys, "gen", "cross-polytope", "--dim", "2", "--out", str(src))
    for dim in ("3", "1"):
        code, text, err = run(capsys, "walk", str(src), "--dim", dim, "--steps", "2",
                              "--out", str(out))
        assert code == 3 and text == ""
        assert err.startswith("usage error:") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("dim,start_dim", [(2, 3), (3, 2)])
def test_run_walk_refuses_a_start_of_another_dimension(dim, start_dim):
    """The library refuses what the CLI refuses: the walk would search the
    start with index sets and colour counts of the wrong dimension."""
    start = cross_polytope(start_dim)
    for coloring in (standard_coloring(start_dim), None):
        config = WalkConfig(steps=1, seed=0, dimension=dim, start=start,
                            start_coloring=coloring)
        with pytest.raises(ValueError, match="dimension %d, not %d" % (start_dim, dim)):
            run_walk(config)


def test_repeated_vertex_after_coercion_is_an_error(tmp_path, capsys):
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"facets": [[1, "1", "a"]]}))
    code, text, err = run(capsys, "check", str(path), "manifold")
    assert code == 1 and text == ""
    assert err.startswith("error:") and "repeated vertices" in err


def test_catalog_table(capsys):
    code, text, _ = run(capsys, "catalog", "2")
    assert code == 0
    assert "7 classes (expected 7)" in text


def test_verify_targets(capsys):
    code, text, _ = run(capsys, "verify", "count", "3")
    assert code == 0 and "PASS" in text
    code, text, _ = run(capsys, "verify", "matroid")
    assert code == 0
    code, text, _ = run(capsys, "verify", "hvector", "2")
    assert code == 0
    code, text, _ = run(capsys, "verify", "count", "9")
    assert code == 2


@pytest.mark.parametrize("target", ["pentagon", "matroid"])
def test_verify_targets_without_a_dimension_refuse_one(capsys, target):
    """`pentagon` and `matroid` take no D: without one they run and pass;
    given one, positional or by --dim, they run nothing and exit 3."""
    code, text, err = run(capsys, "verify", target)
    assert code == 0 and text.endswith("\nPASS\n") and err == ""
    for argv in (["3"], ["2"], ["--dim", "3"]):
        code, text, err = run(capsys, "verify", target, *argv)
        assert (code, text, err) == (3, "", "usage error: verify %s takes no dimension\n" % target)


def test_usage_errors(capsys):
    code, _, err = run(capsys, "gen", "bogus")
    assert code == 3
    code, _, err = run(capsys, "walk", "--steps", "3")
    assert code == 3
    code, _, _ = run(capsys, "check", "/nonexistent.json", "manifold")
    assert code == 3


def test_dimension_caps_are_undecided(tmp_path, capsys):
    code, text, err = run(capsys, "catalog", "7")
    assert (code, text, err) == (2, "UNDECIDED: dimension 7 exceeds the cap 6\n", "")
    out = tmp_path / "b.json"
    code, text, err = run(capsys, "gen", "barycentric", "--dim", "4", "--out", str(out))
    assert (code, err) == (2, "")
    assert text == "UNDECIDED: barycentric spheres are built for d <= 3\n"
    assert not out.exists()
    code, text, _ = run(capsys, "verify", "count", "7")
    assert (code, text) == (2, "UNDECIDED: dimension 7 exceeds the cap 6\n")


def test_verify_dimension_is_capped_and_nonnegative(capsys):
    for target in ("count", "hvector", "complement", "shelling-theorem", "reducibility"):
        for dim, want in (("7", (2, "UNDECIDED: dimension 7 exceeds the cap 6\n", "")),
                          ("-3", (1, "", "error: dimension must be nonnegative\n")),
                          ("0", (1, "", "error: dimension must be at least 1\n"))):
            assert run(capsys, "verify", target, dim) == want, (target, dim)


def test_gen_refuses_a_negative_dimension(tmp_path, capsys):
    out = tmp_path / "g.json"
    kinds = ("cross-polytope", "simplex-boundary", "stacked", "barycentric")
    for argv in [["diamond", "--dim", "-1", "--index", "0"]] + [[k, "--dim", "-1"] for k in kinds]:
        got = run(capsys, "gen", *argv, "--out", str(out))
        assert got == (1, "", "error: dimension must be nonnegative\n"), argv
        assert not out.exists()
    got = run(capsys, "gen", "barycentric", "--dim", "0", "--out", str(out))
    assert got == (1, "", "error: dimension must be at least 1\n")


def test_catalog_and_walk_read_negative_and_zero_dimensions_alike(tmp_path, capsys):
    """Every D < 0 reads `nonnegative`, as in `gen` and `verify`; D = 0
    reads `at least 1`."""
    for argv in (["catalog"], ["walk", "--out", str(tmp_path / "w"), "--dim"]):
        for dim, want in (("-1", "nonnegative"), ("-4", "nonnegative"), ("0", "at least 1")):
            got = run(capsys, *argv, dim)
            assert got == (1, "", "error: dimension must be %s\n" % want), (argv, dim)


def test_package_runs_as_a_module(tmp_path):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)

    def call(*argv):
        return subprocess.run([sys.executable, "-m", "crossflips", *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True)

    done = call("verify", "count", "2")
    assert (done.returncode, done.stdout.splitlines()[-1], done.stderr) == (0, "PASS", "")
    done = call("walk")
    assert (done.returncode, done.stdout, done.stderr) == (
        3, "", "usage error: walk requires --out\n")


def test_void_and_empty_complexes_fail_with_a_message(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"facets": [[]]}))
    assert run(capsys, "check", str(path), "manifold") == (
        1, "", "error: manifold check requires dimension at least 0\n")
    path.write_text(json.dumps({"facets": []}))
    script = tmp_path / "moves.txt"
    script.write_text("crossflip I=2 anchor=0,1,v2\n")
    out = tmp_path / "out.json"
    assert run(capsys, "flip", str(path), "--script", str(script), "--out", str(out)) == (
        1, "FAIL at line 1: step ?: the empty complex has no flip site\n", "")
    assert not out.exists()


def test_malformed_tokens_and_colors_are_errors(tmp_path, capsys):
    path = tmp_path / "m.json"
    for doc in (
        {"facets": [[1.5, None]]},
        {"facets": [[["a"], "b"]]},
        {"facets": [[True, "b"]]},
        {"facets": [["0", "1"]], "coloring": {"0": 2.7, "1": 1}},
        {"facets": [["0", "1"]], "coloring": {"0": [1], "1": 1}},
        {"facets": [["0", "1"]], "coloring": {"0": None, "1": 1}},
    ):
        path.write_text(json.dumps(doc))
        code, text, err = run(capsys, "check", str(path), "balanced")
        assert code == 1 and text == ""
        assert err.startswith("error:") and err.count("\n") == 1
    path.write_text(json.dumps({"facets": [[0, 1]], "coloring": {"0": "1", "1": 0}}))
    code, text, _ = run(capsys, "check", str(path), "balanced")
    assert (code, text) == (0, "balanced: True (stored coloring, 2 colors)\n")


def test_flip_budget_is_a_usage_error(tmp_path, capsys):
    # cross-flips are decided by verified certificates; no search budget
    src = tmp_path / "c2.json"
    run(capsys, "gen", "cross-polytope", "--dim", "2", "--out", str(src))
    script = tmp_path / "moves.txt"
    script.write_text("crossflip I=2 anchor=0,1,v2\n")
    out = tmp_path / "out.json"
    for argv in (["flip", str(src), "--script", str(script)],
                 ["walk", "--dim", "2", "--steps", "2"]):
        code, text, err = run(capsys, *argv, "--budget", "0", "--out", str(out))
        assert (code, text) == (3, "")
        assert err.startswith("usage error:") and "--budget" in err
    assert not out.exists()


def test_walk_refuses_an_improper_stored_coloring(tmp_path, capsys):
    src, out = tmp_path / "st.json", tmp_path / "w.json"
    run(capsys, "gen", "cross-polytope", "--dim", "2", "--out", str(src))
    doc = json.loads(src.read_text())
    # edge 0,1 monochrome; then the whole octahedron on two colours
    bad = {"0": 1, "v0": 0, "1": 1, "v1": 1, "2": 2, "v2": 2}
    for coloring in (bad, dict(bad, **{"2": 1, "v2": 1})):
        src.write_text(json.dumps(dict(doc, coloring=coloring)))
        code, text, err = run(capsys, "walk", str(src), "--dim", "2", "--steps", "3",
                              "--out", str(out))
        assert (code, err) == (1, "")
        assert text == "FAIL: the stored coloring is not a proper 3-coloring\n"
        assert not out.exists()


def test_unflippable_chord_is_an_error(monkeypatch, capsys):
    def refuse(c, flip):
        raise NotInduced("refused")

    monkeypatch.setattr(catalog, "apply_cross_flip_detailed", refuse)
    code, text, err = run(capsys, "verify", "shelling-theorem", "2")
    assert (code, text) == (1, "")
    assert err.startswith("error: no chord of (") and err.endswith(
        ") could be flipped away\n")


def test_anchor_walk_reads_ridges_of_the_ambient(tmp_path, capsys):
    # the octahedron without [0,1,2]: an anchor on that hole is no facet,
    # yet each of its edges lies in one facet, so the walk extends it and
    # the flip itself refuses the image; a fin on edge 0,1 puts that edge
    # in three facets, across which no anchor extends
    holed = {"facets": [["0", "1", "v2"], ["0", "v1", "2"], ["0", "v1", "v2"],
                        ["v0", "1", "2"], ["v0", "1", "v2"], ["v0", "v1", "2"],
                        ["v0", "v1", "v2"]]}
    finned = {"facets": [["0", "1", "2"], ["0", "1", "z"]] + holed["facets"]}
    cases = [
        (holed, "crossflip I=2 anchor=0,1,2",
         "FAIL at line 1: embedded complex is not a subcomplex of the ambient\n"),
        (holed, "crossflip I=1,2 anchor=2,0,1",
         "FAIL at line 1: embedded complex is not a subcomplex of the ambient\n"),
        (finned, "crossflip I=1,2 anchor=0,1,2",
         "FAIL at line 1: step ?: anchor does not extend across a ridge\n"),
    ]
    for doc, line, want in cases:
        src = tmp_path / "c.json"
        src.write_text(json.dumps(doc))
        script = tmp_path / "moves.txt"
        script.write_text(line + "\n")
        code, text, _ = run(capsys, "flip", str(src), "--script", str(script),
                            "--out", str(tmp_path / "out.json"))
        assert (code, text) == (1, want), line


def test_main_reads_every_command_line_with_one_parser(tmp_path, capsys, monkeypatch):
    """`main` builds its parser on its first call and reuses it: usage
    errors and valid commands, interleaved in one process, give the same
    exit codes and messages each time, and the parser is built once."""
    from crossflips import cli

    built = []

    def counting():
        built.append(1)
        return build_parser()

    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counting)
    cli._main_parser.cache_clear()
    out = tmp_path / "c.json"
    usage = [
        (("walk", "--dim", "2"), "usage error: walk requires --out\n"),
        (("check",), "usage error: the following arguments are required: file, what\n"),
        (("gen", "cross-polytope", "--dim", "x"),
         "usage error: argument --dim: invalid int value: 'x'\n"),
    ]
    for _ in range(2):
        for argv, err in usage:
            assert run(capsys, *argv) == (3, "", err)
        assert run(capsys, "gen", "cross-polytope", "--dim", "2", "--out", str(out))[0] == 0
        assert run(capsys, "check", str(out), "balanced") == (
            0, "balanced: True (stored coloring, 3 colors)\n", "")
        assert run(capsys, "check", str(out), "manifold") == (0, "manifold: closed\n", "")
    assert built == [1]
    assert build_parser() is not build_parser()


def test_walk_default_classes_and_plans_are_built_once_per_dimension(monkeypatch):
    """A walk over every class reads its classes and plans from one tuple
    per dimension; a walk given its classes checks them on each call."""
    from crossflips import moves
    from crossflips.catalog import enumerate_basic_flips
    from crossflips.cli import _basic_flip_classes

    def catalog_order(d):
        return [fc.canonical_index for fc in enumerate_basic_flips(d)]

    for d in (2, 3):
        classes, plans = _basic_flip_classes(d)
        assert _basic_flip_classes(d) is _basic_flip_classes(d)
        assert classes == tuple((spec, spec) for spec in catalog_order(d))
        assert plans == tuple(moves._flip_plan(d, spec) for spec in catalog_order(d))
    want = run_walk(WalkConfig(steps=4, seed=8, dimension=2))
    given = run_walk(WalkConfig(steps=4, seed=8, dimension=2, allowed_flips=catalog_order(2)))
    checked = []
    site_class = moves._site_class

    def counting(d, indices):
        checked.append(indices)
        return site_class(d, indices)

    monkeypatch.setattr(moves, "_site_class", counting)
    assert run_walk(WalkConfig(steps=4, seed=8, dimension=2)) == want == given
    assert checked == []
    run_walk(WalkConfig(steps=4, seed=8, dimension=2, allowed_flips=[(0,), (1, 2)]))
    assert checked == [(0,), (1, 2)]
