"""Random JSON documents through the reader and the command line.

Whatever a complex file holds, `complex_from_doc` either reads it or raises
`ValueError`, and `cli.main` answers every `check`, `flip` and `walk` call
with an exit code of the contract (0 pass, 1 fail, 2 undecided, 3 usage)
instead of a traceback.  The documents mix arbitrary JSON with near-valid
complex files, so that most calls get past the reader.  The same holds for
`gen`, `catalog` and `verify` over dimensions from -2 to 7, non-integers
and bad `--index` and `--copies` values; `verify` runs only up to D=3,
where every suite is fast, and at D=7, where the cap answers at once.
The search is derandomized and bounded, so every run tries the same
examples.
"""

import contextlib
import io
import itertools
import json
import os
import tempfile

from hypothesis import example, given, settings, strategies as st

from crossflips.cli import main
from crossflips.complexes import complex_from_doc

SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 12),
                    st.floats(allow_nan=False, allow_infinity=False, width=16),
                    st.text(alphabet="0123abvw", max_size=3))
JSON = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=4)
                    | st.dictionaries(st.text(alphabet="acfirs", max_size=4), inner,
                                      max_size=3), max_leaves=12)
TOKENS = st.one_of(st.sampled_from(["0", "v0", "1", "v1", "2", "v2", "3", "a", "w0"]),
                   st.integers(0, 3))
OCTAHEDRON = [list(f) for f in itertools.product(("0", "v0"), ("1", "v1"), ("2", "v2"))]
FACET_LISTS = st.one_of(
    st.lists(st.lists(TOKENS, max_size=4), max_size=8),
    st.integers(1, 4).flatmap(lambda k: st.lists(
        st.lists(TOKENS, min_size=k, max_size=k, unique_by=str), max_size=8)),
    st.lists(st.sampled_from(OCTAHEDRON), min_size=4, unique_by=tuple),
)
COLORINGS = st.one_of(
    st.just({v: i for i in range(3) for v in (str(i), "v%d" % i)}),
    st.dictionaries(TOKENS.map(str), st.one_of(st.integers(-1, 4), JSON), max_size=6))
COMPLEX_DOCS = st.one_of(st.fixed_dictionaries({"facets": FACET_LISTS},
                                               optional={"coloring": COLORINGS}),
                         JSON)
DOCS = st.one_of(
    JSON,
    COMPLEX_DOCS,
    st.fixed_dictionaries({}, optional={
        "facets": FACET_LISTS, "coloring": COLORINGS,
        "complex": COMPLEX_DOCS, "sub": COMPLEX_DOCS,
        "order": st.one_of(FACET_LISTS, JSON), "removed": COMPLEX_DOCS,
        "restrictions": st.one_of(FACET_LISTS, JSON),
        "mode": st.sampled_from(["removal", "shelling", 3])}),
)
SCRIPT_LINES = st.lists(st.sampled_from([
    "crossflip I=2 anchor=0,1,v2",
    "crossflip I=0,1 anchor=v0,v1,2",
    "crossflip I=1 anchor=0,v1",
    "crossflip I=4 anchor=a",
    "crossflip I=x anchor=0",
    "crossflip anchor=0",
    "bistellar A=0,1 B=w0",
    "bistellar A=0 B=1",
    "shell F=0,1,2 A=0 R=1,2",
    "inverse-shell F=0,1,w0 A=w0 R=0,1",
    "shell F=a",
    "twist",
]), max_size=3)


def run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(doc=DOCS, script=SCRIPT_LINES, dim=st.integers(0, 3))
def test_no_document_escapes_the_exit_code_contract(doc, script, dim):
    try:
        # walk at the document's own dimension when it has one
        dim = complex_from_doc(doc)[0].dimension or dim
    except ValueError:
        pass
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        moves = os.path.join(tmp, "moves.txt")
        with open(moves, "w", encoding="utf-8") as fh:
            fh.write("\n".join(script) + "\n")
        out = os.path.join(tmp, "out.json")
        calls = [["check", path, what]
                 for what in ("manifold", "balanced", "induced", "shelling-order")]
        calls.append(["flip", path, "--script", moves, "--out", out])
        calls.append(["walk", path, "--dim", str(dim), "--steps", "2", "--out", out])
        for argv in calls:
            assert run(argv) in (0, 1, 2, 3), argv


NOT_INTEGERS = ["2.5", "x", "", "1e1"]
DIM_VALUES = [str(d) for d in range(-2, 8)] + NOT_INTEGERS
INDEX_SETS = st.lists(st.sampled_from([str(i) for i in range(-2, 10)] + ["x", "", "1.5"]),
                      max_size=4).map(",".join)
COPIES = st.sampled_from([str(n) for n in range(-2, 4)] + NOT_INTEGERS)
GEN = st.tuples(
    st.sampled_from(["cross-polytope", "simplex-boundary", "diamond", "stacked",
                     "barycentric", "sphere"]),
    st.sampled_from([["--dim", d] for d in DIM_VALUES] + [[]]),
    INDEX_SETS.map(lambda ix: ["--index", ix]) | st.just([]),
    COPIES.map(lambda n: ["--copies", n]) | st.just([]),
).map(lambda t: ["gen", t[0], *t[1], *t[2], *t[3]])
CATALOG = st.tuples(st.sampled_from([[], ["--dim"]]), st.sampled_from(DIM_VALUES)).map(
    lambda t: ["catalog", *t[0], t[1]])
SUITES = ["count", "hvector", "complement", "shelling-theorem", "reducibility"]
VERIFY = st.tuples(
    st.sampled_from(SUITES + ["pentagon", "matroid"]),
    st.sampled_from([str(d) for d in range(-2, 4)] + ["7"] + NOT_INTEGERS),
).map(lambda t: ["verify", *t])


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(argv=st.one_of(GEN, CATALOG, VERIFY), to_file=st.booleans())
@example(argv=["verify", "shelling-theorem", "7"], to_file=False)
def test_no_generator_or_suite_call_escapes_the_exit_code_contract(argv, to_file):
    with tempfile.TemporaryDirectory() as tmp:
        if to_file and argv[0] != "verify":
            argv = argv + ["--out", os.path.join(tmp, "out.json")]
        code = run(argv)
    assert code in (0, 1, 2, 3), argv
    if argv[0] == "verify" and argv[1] in SUITES and argv[2] == "7":
        assert code == 2, argv
