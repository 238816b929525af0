"""What ``import crossflips`` loads: the library keeps its import light, so
that every one-shot command pays little before it starts work."""

import os
import subprocess
import sys

import crossflips

IMPORT = ("import sys; before = set(sys.modules); sys.path.insert(0, sys.argv[1]); "
          "import crossflips; print(crossflips.__file__); "
          "print(*sorted(set(sys.modules) - before))")


def test_import_loads_neither_dataclasses_inspect_nor_json():
    """In a fresh interpreter, ``import crossflips`` adds none of
    ``dataclasses``, ``inspect`` and ``json`` to the modules loaded before
    it (those the site loads at startup do not count)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(crossflips.__file__)))
    out = subprocess.run([sys.executable, "-c", IMPORT, src], capture_output=True,
                         text=True, timeout=60, check=True).stdout.splitlines()
    assert out[0] == os.path.abspath(crossflips.__file__)
    added = set(out[1].split())
    assert {"crossflips.moves", "crossflips.catalog"} <= added
    assert not added & {"dataclasses", "inspect", "json"}
