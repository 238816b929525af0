"""Digests of what the shelling-theorem and reducibility suites verify.

The suites print counts only, so a change that verified other balls or
other certificates would keep their outputs.  These digests pin, for
d = 1..4:

- ``absolute``: every absolute certificate, its order and restrictions;
- ``relative``: for each index set and first block, the boundary ridge,
  the ball's facets, the removed part (the ball minus the diamond
  complex), and the certificate order with its restrictions;
- ``ambients``: every ambient of the chord pass with its colouring.

Faces are written as ``sorted_face`` tuples, and sets of faces sorted by
those tuples compared as strings.  The digests were recorded before the
suites' set-up was reworked and are never re-recorded.
"""

import hashlib

import pytest

from crossflips import catalog, diamond
from crossflips.complexes import sorted_face, vertex_key


def _faces(fs) -> list:
    return sorted(map(sorted_face, fs))


def _seq(fs) -> list:
    return [sorted_face(f) for f in fs]


def _proper_index_sets(d: int):
    return [idx for idx in catalog._all_index_sets(d + 1) if len(idx) < d + 2]


def absolute_rows(d: int) -> list:
    rows = []
    for idx in catalog._all_index_sets(d + 1):
        cert = diamond.absolute_shelling_order(d, idx)
        rows.append((idx, _seq(cert.order), _seq(cert.restrictions)))
    return rows


def relative_rows(d: int) -> list:
    rows = []
    for sset in _proper_index_sets(d):
        amb, _coloring, _emb = catalog.ambient_with_induced_diamond_any(d, sset)
        settings = catalog._relative_settings(d, sset, amb)
        for i1 in sset:
            setting = settings[i1]
            if setting is None:
                rows.append((sset, i1, None))
                continue
            rc, ridge = setting
            seq = (i1,) + tuple(i for i in sset if i != i1)
            cert = diamond.relative_shelling_order(d, seq, ridge)
            rows.append((sset, i1, sorted_face(ridge), _faces(rc.ambient.facets),
                         _faces(rc.removed.facets), _seq(cert.order),
                         _seq(cert.restrictions)))
    return rows


def ambient_rows(d: int) -> list:
    rows = []
    for sset in _proper_index_sets(d):
        amb, coloring, emb = catalog.ambient_with_induced_diamond_any(d, sset)
        rows.append((sset, _faces(amb.facets),
                     [(v, coloring[v]) for v in sorted(coloring, key=vertex_key)],
                     sorted(emb.items())))
    return rows


ROWS = {"absolute": absolute_rows, "relative": relative_rows, "ambients": ambient_rows}

DIGESTS = {
    ("absolute", 1): "d56c9ca7e84407015fde8593beea11620ce7d0ed2e7cb4fda3f06deef34eeaca",
    ("absolute", 2): "a13439a0946ff5c4e407c8045f28bce8b5bd07ee265c4301d3f9908132ca7e1b",
    ("absolute", 3): "5284144548f84687647b97039688039f58aabdd8c3dfdd3af6331a874c6237bd",
    ("absolute", 4): "2c98069fa21b0d2dc1ce789ff76130e8e5b4da2c704deba9f5601839d3377bff",
    ("relative", 1): "4afa130648cc7867c65114107d8a67b91925c651c2a84c8b3503e1059f711b82",
    ("relative", 2): "d956811436e9408cf999b1633b6a7e5e46bd7b99e3b397611246a79727e6bc28",
    ("relative", 3): "c5dc6ad7df09530612fa52e05a9eeefb21d068cc33a29910a69e6df8ea5647b0",
    ("relative", 4): "694f21e6b1ac987db8863e9ffd61950e8333742267d9ca22156fdba045fa3b71",
    ("ambients", 1): "c6d3df0d0033cb3d0909f380d6e7eabfa441880f976255a0eecf9e1832763254",
    ("ambients", 2): "cafc25fae24ddee05ebf6198f14a3d3c0ea3f63c2a17f5b447b2f03bfba61715",
    ("ambients", 3): "d27ed3ef1ce621af2f350028f79219f4c012d0ced8491959fb30f73c5fe77318",
    ("ambients", 4): "29348252a124b3127dc5f692e8e1251ba99085fd2fb14855b1785b653976a12e",
}


def digest(kind: str, d: int) -> str:
    return hashlib.sha256(repr(ROWS[kind](d)).encode()).hexdigest()


@pytest.mark.parametrize("kind,d", sorted(DIGESTS))
def test_suite_inputs_match_the_recorded_digest(kind, d):
    assert digest(kind, d) == DIGESTS[kind, d]
