"""Spans recorded from outside the library, for the traced run only.

`Tracer.install` rebinds the public functions of the six crossflips modules
(and the public methods of `Complex`) to timing wrappers, under every name
the package binds them to: `moves.is_induced` and `complexes.is_induced`
are one function and get one wrapper, and `cli._moves` is the `moves`
module itself.  `Tracer.uninstall` puts every original back.  Nothing here
runs in the untraced process.

Each call becomes a span: a name, a start and an end in nanoseconds, the
span that was open when it began, and whether it raised.  Spans stay in
flat arrays in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import array
import gzip
import json
import math
import sys
import time
import types

MODULES = ("complexes", "shelling", "diamond", "moves", "catalog", "cli")

# The per-vertex token helpers of `complexes` run hundreds of thousands of
# times per second as sort keys; a span around each would cost more than the
# work it measures.  Their time stays in the calling span.
TOKEN_HELPERS = frozenset({"base", "sub", "pair_index", "is_sub", "partner",
                           "vertex_key", "face", "sorted_face"})

# In `cli` only the three library entry points get spans.  Argument
# parsing, JSON reading and writing and printing stay as `cli.main` self time.
CLI_TRACED = ("main", "run_walk", "apply_script_line")

COMPLEX_METHODS = ("__init__", "generated_by", "all_faces", "faces",
                   "has_face", "euler_characteristic", "is_subcomplex_of",
                   "canonical_facets")

# The per-layer metrics, in the order of the layer table in NOTES.md.  The
# last one is measured by the runner, not from spans.
LAYER_METRICS = tuple(["%s.self_s" % m for m in MODULES] + [
    "complexes.Complex.calls",
    "complexes.is_induced.calls", "complexes.is_induced.self_s",
    "complexes.Complex.all_faces.calls", "complexes.Complex.all_faces.self_s",
    "complexes.Complex.has_face.calls", "complexes.Complex.has_face.self_s",
    "complexes.is_combinatorial_manifold.calls",
    "complexes.is_combinatorial_manifold.self_s",
    "complexes.are_isomorphic.calls", "complexes.are_isomorphic.self_s",
    "moves.find_cross_flip_sites.calls", "moves.find_cross_flip_sites.self_s",
    "moves.site_yield", "moves.sites_used_ratio",
    "moves.apply_cross_flip_detailed.calls",
    "moves.apply_cross_flip_detailed.self_s",
    "moves.apply_cross_flip_detailed.failed",
    "moves.find_shelling_decomposition.calls",
    "moves.find_shelling_decomposition.self_s",
    "shelling.find_shelling.calls", "shelling.find_shelling.self_s",
    "shelling.verify_certificate.calls", "shelling.verify_certificate.self_s",
    "diamond.diamond_closed_form.calls", "diamond.diamond_closed_form.self_s",
    "diamond.diamond_closed_form.repeat_ratio",
    "catalog.ambient_with_induced_diamond_any.calls",
    "catalog.ambient_with_induced_diamond_any.self_s",
    "cli.main.calls", "cli.main.self_s",
    "cli.run_walk.calls", "cli.run_walk.self_s",
    "cli.apply_script_line.calls", "cli.apply_script_line.self_s",
    "trace.overhead_ratio",
])

SITES = "moves.find_cross_flip_sites"
WALK = "cli.run_walk"
CLOSED_FORM = "diamond.diamond_closed_form"
CONSTRUCTORS = ("complexes.Complex.__init__", "complexes.Complex.generated_by")


def _traced_functions(mods: dict) -> dict:
    """Map each function to trace to its span name."""
    out = {}
    for short, mod in mods.items():
        if short == "cli":
            names = CLI_TRACED
        else:
            names = [n for n, v in vars(mod).items()
                     if not n.startswith("_")
                     and isinstance(v, types.FunctionType)
                     and v.__module__ == mod.__name__
                     and n not in TOKEN_HELPERS]
        for n in names:
            out[vars(mod)[n]] = "%s.%s" % (short, n)
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.parent = array.array("q")
        self.start = array.array("q")
        self.end = array.array("q")
        self.failed: set[int] = set()
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        # call arguments and results the per-layer ratios need
        self.site_calls: list[tuple] = []  # (span, facets, dimension, sites)
        self.walk_steps: dict[int, int] = {}  # run_walk span -> steps
        self.closed_form_seen: set = set()
        self.closed_form_repeats = 0

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str):
        nid = self._id(name)
        stack = self._stack
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        clock = time.perf_counter_ns
        hook = {SITES: self._on_sites, WALK: self._on_walk,
                CLOSED_FORM: self._on_closed_form}.get(name)

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(i)
            start.append(clock())
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                self.failed.add(i)
                raise
            finally:
                end[i] = clock()
                stack.pop()
                if hook is not None:
                    hook(i, args, kwargs, result)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _on_sites(self, i, args, kwargs, result):
        c = args[0] if args else kwargs["c"]
        sites = len(result) if result is not None else 0
        self.site_calls.append((i, c.n_facets, c.dimension, sites))

    def _on_walk(self, i, args, kwargs, result):
        config = args[0] if args else kwargs["config"]
        self.walk_steps[i] = config.steps

    def _on_closed_form(self, i, args, kwargs, result):
        d = args[0] if args else kwargs.get("d")
        idx = args[1] if len(args) > 1 else kwargs.get("indices")
        if not isinstance(idx, (tuple, list, set, frozenset)):
            return
        key = (d, tuple(idx))
        if key in self.closed_form_seen:
            self.closed_form_repeats += 1
        else:
            self.closed_form_seen.add(key)

    # -- rebinding ---------------------------------------------------------

    def install(self, mods: dict) -> None:
        """Rebind every traced function under every name that holds it."""
        wrappers = {fn: self._wrap(fn, name)
                    for fn, name in _traced_functions(mods).items()}
        holders = [m for n, m in sys.modules.items()
                   if n == "crossflips" or n.startswith("crossflips.")]
        for mod in holders:
            for attr, val in list(vars(mod).items()):
                if isinstance(val, types.FunctionType) and val in wrappers:
                    self._saved.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])
        cls = mods["complexes"].Complex
        for meth in COMPLEX_METHODS:
            raw = cls.__dict__[meth]
            name = "complexes.Complex.%s" % meth
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name))
            else:
                new = self._wrap(raw, name)
            self._saved.append((cls, meth, raw))
            setattr(cls, meth, new)

    def uninstall(self) -> None:
        for holder, attr, val in reversed(self._saved):
            setattr(holder, attr, val)
        self._saved.clear()

    # -- results -----------------------------------------------------------

    def self_ns(self) -> array.array:
        """Span duration minus the time its child spans cover."""
        out = array.array("q", (e - s for s, e in zip(self.start, self.end)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= self.end[i] - self.start[i]
        return out

    def per_name(self) -> dict:
        """name -> [calls, self seconds, failed calls]."""
        agg = {n: [0, 0, 0] for n in self.names}
        self_ns = self.self_ns()
        for i, nid in enumerate(self.name_id):
            row = agg[self.names[nid]]
            row[0] += 1
            row[1] += self_ns[i]
        for i in self.failed:
            agg[self.names[self.name_id[i]]][2] += 1
        return {n: (c, ns / 1e9, f) for n, (c, ns, f) in agg.items()}

    def _inside_walk(self, i: int) -> bool:
        p = self.parent[i]
        while p >= 0:
            if p in self.walk_steps:
                return True
            p = self.parent[p]
        return False

    def layer_metrics(self) -> dict:
        """The per-layer figures, by metric name (see NOTES.md)."""
        agg = self.per_name()

        def calls(name):
            return agg.get(name, (0, 0.0, 0))[0]

        def self_s(name):
            return agg.get(name, (0, 0.0, 0))[1]

        m = {}
        for mod in MODULES:
            m["%s.self_s" % mod] = sum(s for n, (_, s, _f) in agg.items()
                                       if n.startswith(mod + "."))
        m["complexes.Complex.calls"] = sum(calls(n) for n in CONSTRUCTORS)
        for name in ("complexes.is_induced", "complexes.Complex.all_faces",
                     "complexes.Complex.has_face",
                     "complexes.is_combinatorial_manifold",
                     "complexes.are_isomorphic", SITES,
                     "moves.apply_cross_flip_detailed",
                     "moves.find_shelling_decomposition",
                     "shelling.find_shelling", "shelling.verify_certificate",
                     CLOSED_FORM, "catalog.ambient_with_induced_diamond_any",
                     "cli.main", WALK, "cli.apply_script_line"):
            m[name + ".calls"] = calls(name)
            m[name + ".self_s"] = self_s(name)
        m["moves.apply_cross_flip_detailed.failed"] = agg.get(
            "moves.apply_cross_flip_detailed", (0, 0.0, 0))[2]

        candidates = sum(f * math.factorial(d + 1) for _i, f, d, _s in self.site_calls
                         if d is not None)
        found = sum(s for *_rest, s in self.site_calls)
        m["moves.site_yield"] = found / candidates if candidates else 0.0
        steps = sum(self.walk_steps.values())
        walk_sites = sum(s for i, _f, _d, s in self.site_calls if self._inside_walk(i))
        m["moves.sites_used_ratio"] = steps / walk_sites if walk_sites else 0.0
        n_cf = calls(CLOSED_FORM)
        m[CLOSED_FORM + ".repeat_ratio"] = self.closed_form_repeats / n_cf if n_cf else 0.0
        return {name: m[name] for name in LAYER_METRICS[:-1]}

    def write(self, path: str) -> int:
        """Write every span to a gzip file: one JSON header line (span names,
        span count, failed spans), then the name-id, parent, start and end
        arrays as native machine words, in that order.  Returns the count."""
        n = len(self.name_id)
        header = {"names": self.names, "spans": n, "failed": sorted(self.failed),
                  "arrays": [["name_id", "i"], ["parent", "q"], ["start", "q"], ["end", "q"]]}
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                fh.write(arr.tobytes())
        return n


def read_spans(path: str) -> dict:
    """The header of a span file plus its arrays, by name."""
    with gzip.open(path, "rb") as fh:
        header = json.loads(fh.readline())
        for name, code in header["arrays"]:
            arr = array.array(code)
            arr.frombytes(fh.read(arr.itemsize * header["spans"]))
            header[name] = arr
    return header
