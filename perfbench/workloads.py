"""The three workloads: `walk`, `stack` and `check`.

Each is a single closed-loop client: the next op is sent only after the
previous one returns, on one thread.  A run is a sequence of episodes (a
walk from the octahedron, a stacking from the 3-dimensional cross-polytope
boundary, a round of CLI calls), each generated from the run's seed and the
episode number.  `generate` builds an episode's inputs and `episode` runs
its ops through a `Recorder`, which times each op; the output checks run
between ops, outside the timed calls, and use only this file's own code,
never the library they check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import time

from probe import speed_probe_ns

FAILED = object()

class Recorder:
    """Wall latency and outcome of every op of a run, in order, with the
    speed probe taken just before each op."""

    def __init__(self):
        self.lat_ns: list[int] = []
        self.probe_ns: list[int] = []
        self.failures: list[tuple] = []  # (op number, label, reason)
        self.known_defects: dict[str, int] = {}

    def call(self, label: str, fn, *args):
        self.probe_ns.append(speed_probe_ns())
        t0 = time.perf_counter_ns()
        try:
            out = fn(*args)
        except Exception as exc:  # a raising op is a failed op, not a crash
            self.lat_ns.append(time.perf_counter_ns() - t0)
            self.fail(label, "raised %s: %s" % (type(exc).__name__, exc))
            return FAILED
        self.lat_ns.append(time.perf_counter_ns() - t0)
        return out

    @classmethod
    def merged(cls, *recs) -> "Recorder":
        """One recorder holding the ops of several, in order."""
        out = cls()
        for r in recs:
            out.failures += [(n + len(out.lat_ns), label, reason)
                             for n, label, reason in r.failures]
            out.lat_ns += r.lat_ns
            out.probe_ns += r.probe_ns
            for label, count in r.known_defects.items():
                out.known_defects[label] = out.known_defects.get(label, 0) + count
        return out

    def fail(self, label: str, reason: str) -> None:
        """Mark the latest op failed."""
        n = len(self.lat_ns) - 1
        if not self.failures or self.failures[-1][0] != n:
            self.failures.append((n, label, reason))


# ---------------------------------------------------------------------------
# independent oracles


def pair_index(v: str) -> int:
    return int(v[1:]) if v[:1] == "v" else int(v)


class FaceCounter:
    """Faces of a complex, kept up to date across facet exchanges, with the
    Euler characteristic of its nonempty faces."""

    def __init__(self, facets):
        self.count: dict[frozenset, int] = {}
        self.euler = 0
        self.update((), facets)

    @staticmethod
    def _faces(f):
        vs = sorted(f)
        n = len(vs)
        for mask in range(1, 1 << n):
            yield frozenset(vs[i] for i in range(n) if mask >> i & 1)

    def update(self, removed, added) -> None:
        for f in removed:
            for g in self._faces(f):
                left = self.count[g] - 1
                if left:
                    self.count[g] = left
                else:
                    del self.count[g]
                    self.euler -= (-1) ** (len(g) - 1)
        for f in added:
            for g in self._faces(f):
                if g in self.count:
                    self.count[g] += 1
                else:
                    self.count[g] = 1
                    self.euler += (-1) ** (len(g) - 1)


def coloring_error(before: dict, after: dict, vertices, added, m: int):
    """Why `after` is not a proper m-colouring, given that `before` was one
    on every facet that survived; None when it is."""
    for v in vertices:
        col = after.get(v)
        if not isinstance(col, int) or not 0 <= col < m:
            return "vertex %s has colour %r" % (v, col)
        if v in before and before[v] != col:
            return "vertex %s changed colour" % v
    for f in added:
        if len({after[v] for v in f}) != len(f):
            return "facet %s is not rainbow" % sorted(f)
    return None


def digest(facets, coloring) -> str:
    doc = {"facets": sorted(sorted(f) for f in facets),
           "coloring": sorted((v, c) for v, c in coloring.items())}
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()[:16]


def diamond_size(d: int, spec) -> int:
    return sum(2 ** (d - i) for i in spec)


# ---------------------------------------------------------------------------
# walk


class Walk:
    """The paper's random walk at d=2 over all 7 basic flip classes, from the
    octahedron with its standard colouring.  One op is one step through
    `cli.run_walk`; an episode is `steps` steps."""

    name = "walk"
    d = 2

    def __init__(self, lib, seed: int, expected: dict, steps: int = 20):
        self.lib, self.seed, self.steps = lib, seed, steps
        self.digests = expected.get("walk_digests", {}).get(str(seed), {})

    def setup(self) -> None:
        pass

    def generate(self, e: int):
        rng = random.Random("walk:%d:%d" % (self.seed, e))
        dm = self.lib.diamond
        return (dm.cross_polytope(self.d), dm.standard_coloring(self.d),
                [rng.randrange(2 ** 31) for _ in range(self.steps)])

    def episode(self, e: int, inputs, rec: Recorder) -> str:
        """Run one walk; returns the digest of its final complex."""
        cli = self.lib.cli
        cur, col, seeds = inputs
        faces = FaceCounter(cur.facets)
        for s in seeds:
            config = cli.WalkConfig(steps=1, seed=s, dimension=self.d,
                                    start=cur, start_coloring=col)
            out = rec.call("walk step", cli.run_walk, config)
            if out is FAILED:
                continue
            nxt, ncol, rows = out
            err = self.check(cur, col, nxt, ncol, rows, faces)
            if err:
                rec.fail("walk step", err)
            cur, col = nxt, ncol
        got = digest(cur.facets, col)
        if self.digests.get(str(e), got) != got:
            rec.fail("walk step", "final complex of episode %d differs from the "
                     "recorded digest" % e)
        return got

    def check(self, cur, col, nxt, ncol, rows, faces):
        d = self.d
        if len(rows) != 1:
            return "one step gave %d stats rows" % len(rows)
        row = rows[0]
        spec = tuple(int(t) for t in row["flip_index"].split("-"))
        removed = cur.facets - nxt.facets
        added = nxt.facets - cur.facets
        faces.update(removed, added)
        small = diamond_size(d, spec)
        want = cur.n_facets + 2 ** (d + 1) - 2 * small
        if nxt.n_facets != want or row["facets"] != want:
            return "flip %s: %d facets, expected %d" % (spec, nxt.n_facets, want)
        if len(removed) != small:
            return "flip %s removed %d facets" % (spec, len(removed))
        if faces.euler != 2 or row["euler"] != 2:
            return "Euler characteristic %d" % faces.euler
        err = coloring_error(col, ncol, nxt.vertices, added, d + 1)
        if err or row["balanced"] is not True:
            return err or "step reports an unbalanced complex"
        return None


# ---------------------------------------------------------------------------
# stack


class Stack:
    """Seeded facet stacking at d=3: each op flips one seeded facet for its
    cross-polytope complement (class (3,)) and extends the colouring.  An
    episode is `ops` ops from the 16-facet cross-polytope boundary."""

    name = "stack"
    d = 3

    def __init__(self, lib, seed: int, expected: dict, ops: int = 100):
        self.lib, self.seed, self.ops = lib, seed, ops
        self.digests = expected.get("stack_digests", {}).get(str(seed), {})

    def setup(self) -> None:
        (self.abstract,) = self.lib.diamond.diamond_closed_form(self.d, (self.d,)).facets

    def generate(self, e: int):
        dm = self.lib.diamond
        return (dm.cross_polytope(self.d), dm.standard_coloring(self.d),
                random.Random("stack:%d:%d" % (self.seed, e)))

    def _op(self, cur, flip, col):
        moves = self.lib.moves
        res = moves.apply_cross_flip_detailed(cur, flip)
        return res.complex, moves.extend_coloring_after_cross_flip(col, res)

    def episode(self, e: int, inputs, rec: Recorder) -> str:
        """Run one stacking; returns the digest of its final complex."""
        d, moves = self.d, self.lib.moves
        cur, col, rng = inputs
        faces = FaceCounter(cur.facets)
        order = sorted(tuple(sorted(f)) for f in cur.facets)
        for k in range(1, self.ops + 1):
            j = rng.randrange(len(order))
            target = order[j]
            by_colour = {col[v]: v for v in target}
            emb = {a: by_colour[pair_index(a)] for a in self.abstract}
            flip = moves.CrossFlip(d=d, spec=(d,), embedding=emb)
            out = rec.call("stack op", self._op, cur, flip, col)
            if out is FAILED:
                continue
            nxt, ncol = out
            removed = cur.facets - nxt.facets
            added = nxt.facets - cur.facets
            faces.update(removed, added)
            err = None
            if nxt.n_facets != 16 + 14 * k:
                err = "%d facets after %d ops" % (nxt.n_facets, k)
            elif removed != {frozenset(target)}:
                err = "the flip did not replace exactly the chosen facet"
            elif faces.euler != 0:
                err = "Euler characteristic %d" % faces.euler
            else:
                err = coloring_error(col, ncol, nxt.vertices, added, d + 1)
            if err:
                rec.fail("stack op", err)
            order[j] = order[-1]
            order.pop()
            order.extend(sorted(tuple(sorted(f)) for f in added))
            cur, col = nxt, ncol
        got = digest(cur.facets, col)
        if self.digests.get(str(e), got) != got:
            rec.fail("stack op", "final complex of episode %d differs from the "
                     "recorded digest" % e)
        return got


# ---------------------------------------------------------------------------
# check


def _fresh_stack(coloring: dict, target: tuple, label: int):
    """Replace one facet of a balanced sphere by the other facets of a
    cross-polytope boundary on it; new vertices copy their partner's colour."""
    partner = {v: "s%d_%d" % (label, coloring[v]) for v in target}
    for v, w in partner.items():
        coloring[w] = coloring[v]
    n = len(target)
    added = []
    for mask in range(1, 1 << n):
        added.append(tuple(sorted(partner[v] if mask >> i & 1 else v
                                  for i, v in enumerate(target))))
    return added


def stacked_sphere(rng: random.Random, d: int, stacks: int):
    """A seeded stacked cross-polytopal d-sphere with its colouring."""
    verts = [(str(i), "v%d" % i) for i in range(d + 1)]
    facets = []
    for mask in range(1 << (d + 1)):
        facets.append(tuple(sorted(verts[i][mask >> i & 1] for i in range(d + 1))))
    coloring = {v: i for i, pair in enumerate(verts) for v in pair}
    for k in range(stacks):
        j = rng.randrange(len(facets))
        target = facets[j]
        facets[j] = facets[-1]
        facets.pop()
        facets.extend(_fresh_stack(coloring, target, k))
    return sorted(facets), coloring


def stacked_ball(rng: random.Random, n: int):
    """A seeded 2-ball grown by gluing a triangle with a new vertex onto a
    random boundary edge; the build order is a shelling."""
    order = [("a", "b", "c")]
    rim = [("a", "b"), ("b", "c"), ("a", "c")]
    for k in range(n - 1):
        u, v = rim.pop(rng.randrange(len(rim)))
        w = "x%d" % k
        order.append((u, v, w))
        rim += [(u, w), (v, w)]
    return order


def induced_in(facets, sub_facets) -> bool:
    """Facet-trace test: every facet meets the sub's vertex set in a face."""
    sub = [frozenset(f) for f in sub_facets]
    span = frozenset().union(*sub)
    for f in facets:
        trace = span.intersection(f)
        if not any(trace <= g for g in sub):
            return False
    return True


def run_cli(main, argv):
    """One in-process CLI call: (exit code or raised type, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:  # an uncaught library error is an outcome
            code = "raised " + type(exc).__name__
    return code, out.getvalue(), err.getvalue()


VERIFY_OPS = (
    [("verify", t, str(d)) for d in (2, 3)
     for t in ("count", "hvector", "complement", "shelling-theorem", "reducibility")]
    + [("verify", "pentagon"), ("verify", "matroid")]
    + [("verify", t, "4")
       for t in ("count", "hvector", "complement", "shelling-theorem", "reducibility")]
)


def fixed_ops(fixture: str) -> list:
    """The `check` ops whose input does not depend on the seed, as
    (label, argv); their expected outputs are recorded in expected.json."""
    return ([("check shelling-order non-shelling", ["check", fixture, "shelling-order"])]
            + [(" ".join(argv), list(argv)) for argv in VERIFY_OPS])


KNOWN_DEFECTS = {"verify shelling-theorem 4", "verify reducibility 4"}


class Check:
    """The one-shot CLI user: rounds of in-process `cli.main` calls."""

    name = "check"
    d = 3

    def __init__(self, lib, seed: int, expected: dict, workdir: str,
                 fixture: str, stacks: int = 20, ball: int = 80,
                 script_steps: int = 6):
        self.lib, self.seed, self.workdir = lib, seed, workdir
        self.fixture = fixture
        self.stacks, self.ball, self.script_steps = stacks, ball, script_steps
        self.expected = expected.get("check", {})

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def setup(self) -> None:
        """Record one flip script from a seeded d=2 walk, and its result."""
        lib = self.lib
        dm, moves, cx = lib.diamond, lib.moves, lib.complexes
        d = 2
        rng = random.Random("check-script:%d" % self.seed)
        cur, col = dm.cross_polytope(d), dm.standard_coloring(d)
        self._write("start.json", {"facets": sorted(sorted(f) for f in cur.facets)})
        specs = [fc.canonical_index for fc in lib.catalog.enumerate_basic_flips(d)]
        lines = []
        for _ in range(self.script_steps):
            # the first class in a seeded order that has a site: one site
            # search per step keeps set-up time nearly the same for every seed
            rng.shuffle(specs)
            spec, sites = next((s, found) for s in specs
                               if (found := moves.find_cross_flip_sites(cur, col, s)))
            site = sites[rng.randrange(len(sites))]
            i1 = min(spec)
            entry = ([cx.base(t) for t in range(i1)]
                     + [cx.sub(t) for t in range(i1, d + 1)])
            anchor = [site.embedding[v] for v in cx.sorted_face(entry)]
            lines.append("crossflip I=%s anchor=%s\n"
                         % (",".join(map(str, spec)), ",".join(anchor)))
            res = moves.apply_cross_flip_detailed(cur, site)
            col = moves.extend_coloring_after_cross_flip(col, res)
            cur = res.complex
        with open(self.path("script.txt"), "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        self.flip_result = {frozenset(f) for f in cur.facets}

    def _write(self, name: str, doc) -> str:
        with open(self.path(name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return self.path(name)

    def generate(self, r: int):
        """Write round r's input files; return its ops as
        (label, argv, expected (code, stdout, stderr) or None)."""
        rng = random.Random("check:%d" % (self.seed + r))
        facets, coloring = stacked_sphere(rng, self.d, self.stacks)
        doc = {"facets": [list(f) for f in facets]}
        colored = self._write("sphere.json", dict(doc, coloring=coloring))
        plain = self._write("sphere_plain.json", doc)
        v = rng.choice(sorted(coloring))
        star = [f for f in facets if v in f]
        induced = self._write("induced.json", {"complex": doc, "sub": {"facets": star}})
        ok = induced_in(facets, star)
        order = stacked_ball(rng, self.ball)
        ball = {"facets": [list(f) for f in order]}
        shell = self._write("ball.json", {"complex": ball, "order": ball["facets"]})
        removal = self._write("ball_removal.json", {
            "complex": ball, "order": ball["facets"][:0:-1], "mode": "removal"})
        out = self.path("flipped.json")
        m = self.d + 1
        ops = [
            ("check manifold", ["check", colored, "manifold"], (0, "manifold: closed\n", "")),
            ("check manifold, no colouring", ["check", plain, "manifold"],
             (0, "manifold: closed\n", "")),
            ("check balanced", ["check", colored, "balanced"],
             (0, "balanced: True (stored coloring, %d colors)\n" % m, "")),
            ("check balanced, search", ["check", plain, "balanced"],
             (0, "balanced: True (coloring search, %d colors)\n" % m, "")),
            ("check induced", ["check", induced, "induced"],
             (0 if ok else 1, "induced: %s\n" % ok, "")),
            ("check shelling-order", ["check", shell, "shelling-order"],
             (0, "PASS: shelling of %d facets\n" % len(order), "")),
            ("check shelling-order removal", ["check", removal, "shelling-order"],
             (0, "PASS: %d elementary shellings\n" % (len(order) - 1), "")),
            ("flip", ["flip", self.path("start.json"), "--script",
                      self.path("script.txt"), "--out", out], (0, "", "")),
        ]
        return ops + [(label, argv, None) for label, argv in fixed_ops(self.fixture)]

    def episode(self, r: int, ops, rec: Recorder) -> None:
        main = self.lib.cli.main
        for label, argv, want in ops:
            if label == "flip" and os.path.exists(argv[-1]):
                os.remove(argv[-1])
            got = rec.call(label, run_cli, main, argv)
            if got is FAILED:
                continue
            err = self.judge(label, want, got)
            if err:
                rec.fail(label, err)
            elif label in KNOWN_DEFECTS and got[0] != 0:
                rec.known_defects[label] = rec.known_defects.get(label, 0) + 1

    def judge(self, label: str, want, got):
        if want is None:
            rec = self.expected.get(label)
            if rec is None:
                return "no expected output recorded"
            want = (rec["code"], rec["stdout"], rec["stderr"])
        if label in KNOWN_DEFECTS and got[0] == 0 and got[1].endswith("PASS\n"):
            return None  # the known defect is fixed
        if got != tuple(want):
            return "got %r, expected %r" % (got, tuple(want))
        if label == "flip":
            try:
                with open(self.path("flipped.json"), encoding="utf-8") as fh:
                    doc = json.load(fh)
                facets = {frozenset(f) for f in doc["facets"]}
            except (OSError, ValueError, KeyError, TypeError) as exc:
                return "unreadable flip output: %s" % exc
            if set(doc) != {"facets"} or facets != self.flip_result:
                return "flip script result differs from the recorded walk"
        return None
