"""Command-line surface: formats, exit codes, determinism."""

import json
import os
import subprocess
import sys

import pytest

from crossflips import catalog
from crossflips.cli import main
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


def test_removal_mode_builds_a_boundary_only_for_its_report(tmp_path, capsys, monkeypatch):
    """Removal mode decides each split from the star index: a passing run
    builds no boundary complex, and a failing one builds one, for the
    boundary intersection it reports."""
    from crossflips import complexes, moves

    built = []
    boundary_complex = complexes.boundary_complex

    def counting(c):
        built.append(c.n_facets)
        return boundary_complex(c)

    monkeypatch.setattr(complexes, "boundary_complex", counting)
    monkeypatch.setattr(moves, "boundary_complex", counting)
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
    assert built == [5]


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


def test_walk_default_classes_are_one_cached_tuple_per_dimension():
    from crossflips.catalog import enumerate_basic_flips
    from crossflips.cli import _basic_flip_indices

    for d in range(1, 7):
        got = _basic_flip_indices(d)
        assert got == tuple(fc.canonical_index for fc in enumerate_basic_flips(d))
        assert _basic_flip_indices(d) is got
