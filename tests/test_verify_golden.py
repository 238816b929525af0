"""Exact outputs of the `verify` suites.

`fixtures/verify_golden.json` holds the exit code, standard output and
standard error of every `verify` target at d = 1..3, of `pentagon` and of
`matroid`, recorded from the command line before the flip path stopped
searching for shellings.  A refactor of the verify path must keep them
byte for byte.  The d=4 suites are pinned by their lines below: before
certificate-backed flips they failed, one with a traceback.
"""

import json
import os

import pytest

from crossflips.cli import main

with open(os.path.join(os.path.dirname(__file__), "fixtures", "verify_golden.json"),
          encoding="utf-8") as fh:
    GOLDEN = json.load(fh)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("target", sorted(GOLDEN))
def test_verify_output_matches_golden(target, capsys):
    want = GOLDEN[target]
    got = run(capsys, "verify", *target.split())
    assert got == (want["code"], want["stdout"], want["stderr"])


def test_d4_suites_pass(capsys):
    code, text, err = run(capsys, "verify", "shelling-theorem", "4")
    assert (code, err) == (0, "")
    assert text.splitlines() == [
        "absolute shelling orders verified: 63 (d=4)",
        "relative shelling orders verified: 186 (skipped 0 entry choices with no "
        "boundary ridge in the first block, d=4)",
        "PASS",
    ]
    code, text, err = run(capsys, "verify", "reducibility", "4")
    lines = text.splitlines()
    assert (code, err, lines[-1]) == (0, "", "PASS")
    assert len(lines) == 16
    assert all(line.startswith("reducibility d=4 I=[") and line.endswith("]: ok")
               for line in lines[:-1])
    for target, want in (
        ("count", "catalog size d=4: 31 (expected 31)"),
        ("hvector", "h-vector formula agreed on 63 index sets (d=4)"),
        ("complement", "complement identity verified on 31 canonical index sets (d=4)"),
    ):
        assert run(capsys, "verify", target, "4") == (0, want + "\nPASS\n", ""), target
