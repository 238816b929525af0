"""Command-line surface: generation, checking, move scripts, random walks,
the flip catalog, and the verification suites.

Exit codes are a contract: 0 pass, 1 fail, 2 undecided or dimension cap,
3 usage error.  All outputs are byte-stable for fixed inputs and seeds.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import random
import sys
from dataclasses import dataclass, field

from . import catalog as _catalog
from . import moves as _moves
from .complexes import (
    Complex,
    ComplexError,
    ManifoldVerdict,
    _faces_from_doc,
    _subsets,
    complex_from_doc,
    complex_to_doc,
    find_balanced_coloring,
    is_combinatorial_manifold,
    is_induced,
    is_proper_coloring,
    sorted_face,
)
from .diamond import (
    _check_index_set,
    cross_polytope,
    diamond_closed_form,
    simplex_boundary,
    standard_coloring,
)
from .shelling import (
    NotAPermutation,
    RelativeComplex,
    is_relative_shelling,
    is_shelling,
)


class UsageError(Exception):
    pass


class StepFailed(Exception):
    def __init__(self, step, reason):
        super().__init__("step %s: %s" % (step, reason))
        self.step = step
        self.reason = reason


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _read_doc(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _dump_doc(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _parse_face(text: str) -> frozenset:
    items = [t for t in text.split(",") if t]
    return frozenset(items)


def _parse_index(text: str) -> tuple:
    try:
        return tuple(sorted({int(t) for t in text.split(",") if t != ""}))
    except ValueError:
        raise UsageError("--index wants a comma list of integers")


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args) -> int:
    kind = args.kind
    d = args.dim
    if d is None:
        raise UsageError("gen requires --dim")
    if kind == "cross-polytope":
        c = cross_polytope(d)
        coloring = standard_coloring(d)
    elif kind == "simplex-boundary":
        c = simplex_boundary(d)
        coloring = None
    elif kind == "diamond":
        if args.index is None:
            raise UsageError("gen diamond requires --index")
        c = diamond_closed_form(d, args.index)
        full = standard_coloring(d)
        coloring = {v: full[v] for v in c.vertices}
    elif kind == "stacked":
        copies = args.copies if args.copies is not None else 1
        c, coloring = _catalog.stacked_cross_sphere_colored(copies, d)
    elif kind == "barycentric":
        c, coloring = _catalog.barycentric_sphere(d)
    else:
        raise UsageError("unknown generator %r" % (kind,))
    _write_text(args.out, _dump_doc(complex_to_doc(c, coloring)))
    return 0


# ---------------------------------------------------------------------------
# check


def cmd_check(args) -> int:
    doc = _read_doc(args.file)
    what = args.what
    if what == "manifold":
        c, _ = complex_from_doc(doc)
        verdict = is_combinatorial_manifold(c)
        print("manifold: %s" % verdict.value)
        if verdict in (ManifoldVerdict.CLOSED, ManifoldVerdict.WITH_BOUNDARY):
            return 0
        if verdict is ManifoldVerdict.UNDECIDED:
            return 2
        return 1
    if what == "balanced":
        c, coloring = complex_from_doc(doc)
        m = (c.dimension or 0) + 1
        if coloring is not None:
            ok = is_proper_coloring(c, coloring, m)
            print("balanced: %s (stored coloring, %d colors)" % (ok, m))
            return 0 if ok else 1
        found = find_balanced_coloring(c)
        print("balanced: %s (coloring search, %d colors)" % (found is not None, m))
        return 0 if found is not None else 1
    if what == "induced":
        if not isinstance(doc, dict) or "complex" not in doc or "sub" not in doc:
            raise UsageError("induced check wants {\"complex\": ..., \"sub\": ...}")
        c, _ = complex_from_doc(doc["complex"])
        s, _ = complex_from_doc(doc["sub"])
        ok = is_induced(c, s)
        print("induced: %s" % ok)
        return 0 if ok else 1
    if what == "shelling-order":
        if not isinstance(doc, dict) or "complex" not in doc or "order" not in doc:
            raise UsageError(
                "shelling-order check wants {\"complex\": ..., \"order\": ...,"
                " \"removed\"?: ..., \"restrictions\"?: ..., \"mode\"?: ...}"
            )
        c, _ = complex_from_doc(doc["complex"])
        order = _faces_from_doc(doc, "order")
        if doc.get("mode") == "removal":
            return _check_removal_order(c, order)
        try:
            if "removed" in doc and doc["removed"] is not None:
                removed, _ = complex_from_doc(doc["removed"])
                verdict = is_relative_shelling(RelativeComplex(c, removed), order)
            else:
                verdict = is_shelling(c, order)
        except NotAPermutation as exc:
            print("FAIL: %s" % exc)
            return 1
        if not verdict.ok:
            offending = ", ".join(str(list(sorted_face(f))) for f in verdict.minimal_new_faces)
            print("FAIL at facet %d: minimal new faces %s"
                  % (verdict.failing_index + 1, offending))
            return 1
        if "restrictions" in doc and doc["restrictions"] is not None:
            want = tuple(_faces_from_doc(doc, "restrictions"))
            if want != verdict.restrictions:
                print("FAIL: restriction faces do not match")
                return 1
        print("PASS: shelling of %d facets" % len(order))
        return 0
    raise UsageError("unknown check %r" % (what,))


def _check_removal_order(c: Complex, order) -> int:
    """Validate a sequence of elementary shelling removals facet by facet.

    Reports the first facet admitting no interior/boundary decomposition,
    together with its intersection with the current boundary, or that it
    does not meet that boundary, or that the complex has none.  The
    boundary complex is built for that report only, and only the facet's
    subsets are tested on it: the splits are checked from the star index.
    """
    from .complexes import boundary_complex

    cur = c
    for pos, f in enumerate(order, start=1):
        if f not in cur.facets:
            print("FAIL at facet %d: not a facet of the current complex" % pos)
            return 1
        if _moves.find_shelling_decomposition(cur, f) is None:
            bd = boundary_complex(cur)
            inter = [g for g in _subsets(f) if g and bd.has_face(g)]
            maxi = [g for g in inter if not any(g < h for h in inter)]
            if maxi:
                desc = "boundary intersection is " + ", ".join(
                    str(list(sorted_face(g))) for g in sorted(maxi, key=sorted_face))
            elif bd.facets:
                desc = "the facet does not meet the boundary"
            else:
                desc = "the complex has no boundary"
            print("FAIL at facet %d: no elementary shelling decomposition; %s"
                  % (pos, desc))
            return 1
        cur = cur._replaced(frozenset([f]), frozenset())
    print("PASS: %d elementary shellings" % len(order))
    return 0


# ---------------------------------------------------------------------------
# flip scripts


def _anchor_embedding(c: Complex, spec: tuple, anchor: tuple) -> dict:
    """Embedding determined by the images of the entry facet of the lowest
    block, extended along the flip plan's ridge walk from that facet.

    Each step reads the facets containing the image of the ridge from the
    star index: the anchor's own image need not be a facet of c.
    """
    d = c.dimension
    if d is None:
        raise StepFailed("?", "the empty complex has no flip site")
    plan = _moves._flip_plan(d, _check_index_set(d, spec, d))
    if len(anchor) != d + 1:
        raise StepFailed("?", "anchor needs %d vertices" % (d + 1))
    img = list(anchor)  # ambient vertex of each abstract vertex slot
    fmap = [frozenset(anchor)]  # ambient facet of each abstract facet slot
    fslots = [frozenset(range(d + 1))]  # vertex slots of each abstract facet
    for x_new, x_drop, origin in plan.anchor_steps:
        kept = fslots[origin] - {x_drop}
        ridge = frozenset(img[i] for i in kept)
        cands = [h for h in c._facets_containing(ridge)
                 if len(h) == len(ridge) + 1 and h != fmap[origin]]
        if len(cands) != 1:
            raise StepFailed("?", "anchor does not extend across a ridge")
        (w_new,) = cands[0] - ridge
        if x_new < len(img):
            if img[x_new] != w_new:
                raise StepFailed("?", "anchor extension is inconsistent")
        else:
            img.append(w_new)
        fmap.append(cands[0])
        fslots.append(kept | {x_new})
    return dict(zip(plan.anchor_order, img))


def _parse_assignments(parts):
    out = {}
    for part in parts:
        if "=" not in part:
            raise ValueError("expected key=value, got %r" % (part,))
        key, val = part.split("=", 1)
        out[key] = val
    return out


def apply_script_line(c: Complex, line: str):
    """One move-script line applied to a complex; returns the new complex."""
    parts = line.split()
    op, kv = parts[0], _parse_assignments(parts[1:])
    if op == "crossflip":
        spec = tuple(int(t) for t in kv["I"].split(","))
        anchor = tuple(t for t in kv["anchor"].split(",") if t)
        emb = _anchor_embedding(c, spec, anchor)
        flip = _moves.CrossFlip(d=c.dimension, spec=spec, embedding=emb)
        return _moves.apply_cross_flip(c, flip)
    if op == "bistellar":
        flip = _moves.BistellarFlip(A=_parse_face(kv["A"]), B=_parse_face(kv["B"]))
        return _moves.apply_bistellar(c, flip)
    if op == "shell":
        return _moves.shelling_move(c, _parse_face(kv["F"]), _parse_face(kv["A"]), _parse_face(kv["R"]))
    if op == "inverse-shell":
        return _moves.inverse_shelling(c, _parse_face(kv["F"]), _parse_face(kv["A"]), _parse_face(kv["R"]))
    raise ValueError("unknown move %r" % (op,))


def cmd_flip(args) -> int:
    if args.script is None:
        raise UsageError("flip requires --script")
    c, coloring = complex_from_doc(_read_doc(args.file))
    with open(args.script, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            c = apply_script_line(c, line)
        except (ComplexError, ValueError, KeyError, StepFailed) as exc:
            print("FAIL at line %d: %s" % (lineno, exc))
            return 1
    _write_text(args.out, _dump_doc(complex_to_doc(c, None)))
    return 0


# ---------------------------------------------------------------------------
# random walks


@dataclass
class WalkConfig:
    steps: int
    seed: int
    dimension: int
    allowed_flips: list = field(default_factory=list)
    start: Complex | None = None
    start_coloring: dict | None = None


@functools.lru_cache(maxsize=None)
def _basic_flip_indices(d: int) -> tuple:
    """The canonical index sets of every basic flip class of dimension d,
    in catalog order; one tuple per dimension."""
    return tuple(fc.canonical_index for fc in _catalog.enumerate_basic_flips(d))


def run_walk(config: WalkConfig):
    """Seeded random cross-flip walk.

    Each step picks uniformly among the allowed flip classes that have at
    least one site, then uniformly from that class's deterministic site
    list.  Returns (complex, coloring, stats rows).
    """
    d = config.dimension
    cur = config.start if config.start is not None else cross_polytope(d)
    coloring = (
        dict(config.start_coloring)
        if config.start_coloring is not None
        else standard_coloring(d)
    )
    allowed = config.allowed_flips or _basic_flip_indices(d)
    rng = random.Random(config.seed)
    rows = []
    for step in range(1, config.steps + 1):
        # each class's search stops at its first site; the drawn one resumes
        per_class = []
        for spec in allowed:
            search = _moves._iter_cross_flip_sites(cur, coloring, spec)
            first = next(search, None)
            if first is not None:
                per_class.append((spec, first, search))
        if not per_class:
            raise StepFailed(step, "no applicable flip site")
        spec, first, search = per_class[rng.randrange(len(per_class))]
        sites = [first, *search]
        site = sites[rng.randrange(len(sites))]
        res = _moves.apply_cross_flip_detailed(cur, site)
        coloring = _moves.extend_coloring_after_cross_flip(coloring, res)
        cur = res.complex
        rows.append(
            {
                "step": step,
                "flip_index": "-".join(str(i) for i in spec),
                "facets": cur.n_facets,
                "vertices": len(cur.vertices),
                "euler": cur.euler_characteristic(),
                "balanced": is_proper_coloring(cur, coloring, d + 1),
            }
        )
    return cur, coloring, rows


def _stats_path(out: str) -> str:
    root, _ext = os.path.splitext(out)
    return root + ".stats.csv"


def cmd_walk(args) -> int:
    if args.out is None:
        raise UsageError("walk requires --out")
    if args.dim is None:
        raise UsageError("walk requires --dim")
    if args.steps is not None and args.steps < 0:
        raise UsageError("--steps must be nonnegative")
    for idx in args.index or []:
        if not idx or idx[0] < 0 or idx[-1] > args.dim:
            raise UsageError(
                "--index %s is not a nonempty subset of 0..%d"
                % (",".join(str(i) for i in idx), args.dim)
            )
    start = None
    start_coloring = None
    if args.file is not None:
        start, start_coloring = complex_from_doc(_read_doc(args.file))
        if start.dimension != args.dim:
            raise UsageError("--dim %d differs from the dimension %s of %s"
                             % (args.dim, start.dimension, args.file))
        if start_coloring is None:
            start_coloring = find_balanced_coloring(start)
            if start_coloring is None:
                print("FAIL: the start complex has no proper %d-coloring" % (args.dim + 1))
                return 1
        elif not is_proper_coloring(start, start_coloring, args.dim + 1):
            print("FAIL: the stored coloring is not a proper %d-coloring" % (args.dim + 1))
            return 1
    config = WalkConfig(
        steps=args.steps if args.steps is not None else 100,
        seed=args.seed if args.seed is not None else 0,
        dimension=args.dim,
        allowed_flips=[tuple(i) for i in (args.index or [])],
        start=start,
        start_coloring=start_coloring,
    )
    try:
        final, coloring, rows = run_walk(config)
    except StepFailed as exc:
        print("FAIL: %s" % exc)
        return 1
    _write_text(args.out, _dump_doc(complex_to_doc(final, coloring)))
    with open(_stats_path(args.out), "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(
            fh,
            fieldnames=["step", "flip_index", "facets", "vertices", "euler", "balanced"],
            lineterminator="\n",
        )
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    return 0


# ---------------------------------------------------------------------------
# catalog and verify


def cmd_catalog(args) -> int:
    if args.dim is None:
        raise UsageError("catalog requires --dim or a positional dimension")
    classes = _catalog.enumerate_basic_flips(args.dim)
    if args.out is not None:
        _write_text(args.out, json.dumps([fc.to_doc() for fc in classes], indent=2) + "\n")
        return 0
    header = ("index", "facets", "h", "complement", "sufficient")
    rows = [
        (
            ",".join(str(i) for i in fc.canonical_index),
            str(fc.facet_count),
            "(" + ",".join(str(x) for x in fc.h) + ")",
            ",".join(str(i) for i in fc.complement_class),
            "yes" if fc.sufficient else "no",
        )
        for fc in classes
    ]
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(len(header))]
    fmt = "  ".join("%%-%ds" % w for w in widths)
    print(fmt % header)
    for r in rows:
        print(fmt % r)
    print("%d classes (expected %d)" % (len(classes), 2 ** (args.dim + 1) - 1))
    return 0


# verify target -> (catalog suite, whether it takes the dimension D); the
# suite is looked up by name when run, so that a catalog function rebound
# after import (by a tracer, say) is the one called
_VERIFY_SUITES = {
    "count": ("verify_count", True),
    "hvector": ("verify_hvector", True),
    "complement": ("verify_complement", True),
    "shelling-theorem": ("verify_shelling_theorem", True),
    "reducibility": ("verify_reducibility", True),
    "pentagon": ("verify_pentagon", False),
    "matroid": ("verify_matroid", False),
}


def run_verify(target: str, d: int):
    name, takes_dim = _VERIFY_SUITES[target]
    if not takes_dim:
        return getattr(_catalog, name)()
    _catalog.check_dimension(d)
    return getattr(_catalog, name)(d)


def cmd_verify(args) -> int:
    d = args.dim if args.dim is not None else 2
    ok, lines = run_verify(args.target, d)
    for line in lines:
        print(line)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> _Parser:
    p = _Parser(prog="crossflips", description=__doc__)
    subs = p.add_subparsers(dest="command", required=True)

    g = subs.add_parser("gen", help="generate a complex")
    g.add_argument("kind", choices=["cross-polytope", "simplex-boundary", "diamond", "stacked", "barycentric"])
    g.add_argument("--dim", type=int)
    g.add_argument("--index", type=_parse_index)
    g.add_argument("--copies", type=int)
    g.add_argument("--out")
    g.set_defaults(func=cmd_gen)

    c = subs.add_parser("check", help="check a property of a complex file")
    c.add_argument("file")
    c.add_argument("what", choices=["manifold", "balanced", "induced", "shelling-order"])
    c.set_defaults(func=cmd_check)

    f = subs.add_parser("flip", help="apply a move script")
    f.add_argument("file")
    f.add_argument("--script")
    f.add_argument("--out")
    f.set_defaults(func=cmd_flip)

    w = subs.add_parser("walk", help="seeded random cross-flip walk")
    w.add_argument("file", nargs="?")
    w.add_argument("--dim", type=int)
    w.add_argument("--steps", type=int)
    w.add_argument("--seed", type=int)
    w.add_argument("--index", type=_parse_index, action="append")
    w.add_argument("--out")
    w.set_defaults(func=cmd_walk)

    k = subs.add_parser("catalog", help="table of basic flip classes")
    k.add_argument("dim", type=int, nargs="?")
    k.add_argument("--dim", dest="dim_flag", type=int)
    k.add_argument("--out")
    k.set_defaults(func=cmd_catalog)

    v = subs.add_parser("verify", help="run a verification suite")
    v.add_argument("target", choices=list(_VERIFY_SUITES))
    v.add_argument("dim", type=int, nargs="?")
    v.add_argument("--dim", dest="dim_flag", type=int)
    v.set_defaults(func=cmd_verify)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "dim_flag", None) is not None:
            args.dim = args.dim_flag
        return args.func(args)
    except (UsageError, OSError) as exc:  # OSError: a FILE, --script or --out unusable
        print("usage error: %s" % exc, file=sys.stderr)
        return 3
    except json.JSONDecodeError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 1
    except _catalog.DimensionCapExceeded as exc:
        print("UNDECIDED: %s" % exc)
        return 2
    except (ComplexError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
