"""crossflips benchmark: one workload, one process, one JSON line.

    python3 perfbench/run.py --workload {walk,stack,check} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from its `src`
directory.  With `--trace 0` the run prints the end-to-end metrics; with
`--trace 1` it prints the per-layer metrics of a traced run (see
NOTES.md).  Every op's output is checked.  The last line of standard
output is {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_REPS = 11


sys.path.insert(0, HERE)
import tracing  # noqa: E402
import workloads  # noqa: E402
from probe import scaled, speed_probe_ns  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "op/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {"calls": "count", "self_s": "s", "failed": "count"}

IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; "
    "from probe import speed_probe_ns; p = speed_probe_ns(); "
    "t = time.perf_counter_ns(); import crossflips; "
    "print(time.perf_counter_ns() - t, p, crossflips.__file__)"
)


class Lib:
    """The six crossflips modules, as imported from the checkout."""

    def __init__(self):
        for short in tracing.MODULES:
            setattr(self, short, importlib.import_module("crossflips." + short))

    def modules(self) -> dict:
        return {short: getattr(self, short) for short in tracing.MODULES}


def import_library() -> Lib:
    if not os.path.isfile(os.path.join(SRC, "crossflips", "__init__.py")):
        raise SystemExit("perfbench: no crossflips sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import crossflips

    if not os.path.abspath(crossflips.__file__).startswith(SRC + os.sep):
        raise SystemExit("perfbench: imported crossflips from %s" % crossflips.__file__)
    return Lib()


def cold_import_s() -> float:
    """Time `import crossflips` in a fresh interpreter, rescaled by a speed
    probe taken there just before."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC, HERE],
                          capture_output=True, text=True, timeout=120, check=True)
    ns, probe, path = proc.stdout.split()
    if not path.startswith(SRC + os.sep):
        raise SystemExit("perfbench: the import probe found crossflips at %s" % path)
    return scaled(int(ns), int(probe)) / 1e9


def load_expected() -> dict:
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


def make_workload(name: str, lib: Lib, seed: int, workdir: str, sizes: dict):
    expected = load_expected()
    if name == "walk":
        return workloads.Walk(lib, seed, expected, **sizes)
    if name == "stack":
        return workloads.Stack(lib, seed, expected, **sizes)
    fixture = os.path.join(HERE, "fixtures", "non_shelling.json")
    return workloads.Check(lib, seed, expected, workdir, fixture, **sizes)


def latency_summary(rec: workloads.Recorder, scale: bool) -> dict:
    """Throughput and latency percentiles, each op's time rescaled by its
    speed probe when `scale`.  A failed op counts as missing every latency
    limit."""
    lat = [scaled(t, p) if scale else t for t, p in zip(rec.lat_ns, rec.probe_ns)]
    failed = {n for n, _l, _r in rec.failures}
    ok_ns = sum(t for i, t in enumerate(lat) if i not in failed)
    worst = sum(lat)  # longer than any single op
    lat = [worst if i in failed else t for i, t in enumerate(lat)]
    return {
        "ops_per_s": (len(lat) - len(failed)) / (ok_ns / 1e9) if ok_ns else 0.0,
        "op_p50_ms": statistics.median(lat) / 1e6,
        "op_p90_ms": statistics.quantiles(lat, n=10)[8] / 1e6 if len(lat) > 1 else lat[0] / 1e6,
    }


def set_up(wl) -> tuple:
    """One set-up: import in a fresh interpreter, then build the workload's
    set-up and its first episode's inputs.  Returns (seconds rescaled by a
    speed probe, inputs)."""
    t_import = cold_import_s()
    probe = speed_probe_ns()
    t0 = time.perf_counter_ns()
    wl.setup()
    first = wl.generate(0)
    return t_import + scaled(time.perf_counter_ns() - t0, probe) / 1e9, first


def run_episodes(wl, rec, seconds: float, first, between=None,
                 pause=contextlib.nullcontext) -> int:
    """Run whole episodes until `seconds` of wall time have passed; between
    episodes call `between(elapsed seconds)`."""
    t0 = time.monotonic()
    e, inputs = 0, first
    while True:
        wl.episode(e, inputs, rec)
        e += 1
        elapsed = time.monotonic() - t0
        if elapsed >= seconds:
            return e
        if between is not None:
            between(elapsed)
        with pause():
            inputs = wl.generate(e)


def main(argv=None, sizes=None, out=sys.stdout) -> dict:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("walk", "stack", "check"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    lib = import_library()
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, "work-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = make_workload(args.workload, lib, args.seed, workdir, sizes or {})
        if not args.trace:
            # The set-ups are spread evenly over the run rather than done
            # back to back, so that they see the machine as the ops do.
            setup_s, first = set_up(wl)
            setups = [setup_s]

            def between(elapsed):
                if len(setups) < SETUP_REPS and elapsed >= len(setups) * args.seconds / SETUP_REPS:
                    setups.append(set_up(wl)[0])

            rec = workloads.Recorder()
            episodes = run_episodes(wl, rec, args.seconds, first, between)
            while len(setups) < SETUP_REPS:
                setups.append(set_up(wl)[0])
            metrics = {"setup_s": statistics.median(setups),
                       **latency_summary(rec, scale=True),
                       "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
            units = END_TO_END
        else:
            metrics, episodes, rec = traced_run(wl, lib, args, set_up(wl)[1])
            units = per_layer_units()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(rec.failures)
    attempted = len(rec.lat_ns)
    print("workload %s, seed %d, trace %d: %d episodes, %d ops"
          % (args.workload, args.seed, args.trace, episodes, attempted), file=out)
    for name, unit in units.items():
        print("  %-48s %14.6g %s" % (name, metrics[name], unit), file=out)
    if not args.trace:
        raw = latency_summary(rec, scale=False)
        for name, unit in (("ops_per_s", "op/s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms")):
            print("  %-48s %14.6g %s" % ("unscaled " + name, raw[name], unit), file=out)
        print("  %-48s %14.6g %s" % ("speed probe, median", statistics.median(rec.probe_ns) / 1e3, "us"),
              file=out)
    print("  %-48s %14d %s" % ("ops", attempted, "count"), file=out)
    print("  %-48s %14.6g %s" % ("fail_ratio", failed / attempted, "ratio"), file=out)
    for n, label, reason in rec.failures[:20]:
        print("  FAILED op %d (%s): %s" % (n, label, reason), file=out)
    for label, count in sorted(rec.known_defects.items()):
        print("  known defect reproduced %d times: %s" % (count, label), file=out)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result), file=out)
    return result


def per_layer_units() -> dict:
    return {n: PER_LAYER_UNITS.get(n.rsplit(".", 1)[1], "ratio")
            for n in tracing.LAYER_METRICS}


def traced_run(wl, lib: Lib, args, first) -> tuple:
    """Episode 0 untraced twice (a warm-up, then the reference), then whole
    episodes from episode 0 on with every layer traced.  Returns (metrics,
    episodes, recorder of every op)."""
    warm, untraced, rec = workloads.Recorder(), workloads.Recorder(), workloads.Recorder()
    wl.episode(0, first, warm)
    wl.episode(0, wl.generate(0), untraced)
    tracer = tracing.Tracer()

    @contextlib.contextmanager
    def pause():
        tracer.uninstall()
        try:
            yield
        finally:
            tracer.install(lib.modules())

    inputs = wl.generate(0)
    tracer.install(lib.modules())
    try:
        episodes = run_episodes(wl, rec, args.seconds, inputs, pause=pause)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    n0 = len(untraced.lat_ns)
    metrics["trace.overhead_ratio"] = (
        sum(map(scaled, rec.lat_ns[:n0], rec.probe_ns[:n0]))
        / sum(map(scaled, untraced.lat_ns, untraced.probe_ns)))
    tracer.write(os.path.join(OUT, "spans-%s-seed%d.gz" % (args.workload, args.seed)))
    return metrics, episodes, workloads.Recorder.merged(warm, untraced, rec)


if __name__ == "__main__":
    main()
