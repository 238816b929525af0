"""Golden digests of seeded walks and of the flip-site lists they end on.

Each digest covers the stats rows, final complex and coloring of a fixed-seed
`run_walk` over all flip classes, plus every class's `find_cross_flip_sites`
list (embeddings in list order) on the final complex.  The digests were
recorded with the full per-step site recomputation, so any faster site search
must reproduce the walks and the site order exactly.
"""

import hashlib
import json

import pytest

from crossflips.catalog import enumerate_basic_flips
from crossflips.cli import WalkConfig, run_walk
from crossflips.complexes import complex_to_doc, vertex_key
from crossflips.moves import find_cross_flip_sites

GOLDEN = {
    (2, 1, 30): "f66c4858542b1f6f62ba4b883adb570fe924b967f45f77d770ecbca370da164c",
    (2, 2, 30): "8f0bb73c10a2965568740f73e1e9e4bc2b48436a30d3b9f9536d54390267813e",
    (2, 3, 30): "317eb39c6f4218f22a2e6214e0cb4467c0c343be137e92c9421b0ba2dd54fd5d",
    (2, 4, 30): "17357b8c465112baa29de384126e6f5d0b5e5507d0200e867d2bdf1e1a9129fb",
    (3, 1, 3): "198732bab8d80368a8e9f16e2621743a63a53143a51f9bb71b55bb4d64d1d9be",
    (3, 2, 3): "9b901988d6e7600724e47a49af15625576f84fda44e395a91fbec8931cb70640",
    (4, 1, 2): "9e54f676f9d44e5ee931588a2b70e7401790a6f6f11a915fa1f767def6507960",
}


def walk_digest(d: int, seed: int, steps: int) -> str:
    final, coloring, rows = run_walk(WalkConfig(steps=steps, seed=seed, dimension=d))
    sites = {}
    for fc in enumerate_basic_flips(d):
        spec = fc.canonical_index
        sites[",".join(map(str, spec))] = [
            [[v, s.embedding[v]] for v in sorted(s.embedding, key=vertex_key)]
            for s in find_cross_flip_sites(final, coloring, spec)
        ]
    record = {"rows": rows, "final": complex_to_doc(final, coloring), "sites": sites}
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: "d%d-seed%d-steps%d" % c)
def test_walk_and_sites_match_golden_digest(case):
    assert walk_digest(*case) == GOLDEN[case]
