"""Self-test of the benchmark, at a tiny size.

    python3 perfbench/selftest.py

Runs each workload for one short episode, in this process, and checks
that
  1. every end-to-end metric of BENCHMARK.json is printed with its unit;
  2. a deliberately wrong expected output is counted as a failed op;
  3. the traced run prints every per-layer metric of BENCHMARK.json and
     writes its spans out;
  4. the untraced run leaves every crossflips attribute as imported, and
     the traced run puts every one back.
Exits 1 with a message at the first check that does not hold.
"""

from __future__ import annotations

import copy
import io
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
import tracing  # noqa: E402

TINY = {"walk": {"steps": 4}, "stack": {"ops": 5},
        "check": {"stacks": 3, "ball": 8, "script_steps": 2}}
SEED = 424242  # no digests are recorded for it


def bench_run(workload: str, trace: int) -> tuple:
    buf = io.StringIO()
    result = run.main(["--workload", workload, "--seed", str(SEED), "--seconds", "0",
                       "--trace", str(trace)], sizes=TINY[workload], out=buf)
    return result, buf.getvalue()


def attributes() -> dict:
    """Every attribute of every crossflips module and of Complex."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "crossflips" or name.startswith("crossflips."):
            out.update({(name, a): v for a, v in vars(mod).items()})
    cls = sys.modules["crossflips.complexes"].Complex
    out.update({("Complex", a): v for a, v in vars(cls).items()})
    return out


def expect(ok: bool, message: str) -> None:
    if not ok:
        print("selftest FAILED: " + message)
        sys.exit(1)


def check_printed(text: str, result: dict, declared: list, what: str) -> None:
    last = json.loads(text.strip().splitlines()[-1])
    expect(last == json.loads(json.dumps(result)), what + ": last line is not the result")
    expect(set(last) == {"correct", "attempted", "failed", "metrics"},
           what + ": result keys %s" % sorted(last))
    expect(set(last["metrics"]) == {m["name"] for m in declared},
           what + ": metric names differ from BENCHMARK.json")
    for m in declared:
        got = last["metrics"][m["name"]]
        expect(got["unit"] == m["unit"], what + ": %s unit %s" % (m["name"], got["unit"]))
        expect(any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in text.splitlines()),
               what + ": %s is not printed with its unit" % m["name"])


def wrong_check_output(expected: dict) -> None:
    expected["check"]["verify matroid"]["stdout"] = "wrong\n"


def wrong_walk_digest(expected: dict) -> None:
    expected.setdefault("walk_digests", {})[str(SEED)] = {"0": "0" * 16}


def main() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    run.import_library()
    for workload in ("walk", "stack", "check"):
        before = attributes()
        result, text = bench_run(workload, 0)
        after = attributes()
        expect(all(after.get(k) is v for k, v in before.items()),
               "%s: the untraced run changed a crossflips attribute" % workload)
        expect(result["correct"] and result["failed"] == 0,
               "%s: untraced run failed:\n%s" % (workload, text))
        check_printed(text, result, bench["end_to_end"], workload)

        result, text = bench_run(workload, 1)
        expect(all(attributes().get(k) is v for k, v in before.items()),
               "%s: the traced run left a crossflips attribute rebound" % workload)
        expect(result["correct"], "%s: traced run failed:\n%s" % (workload, text))
        check_printed(text, result, bench["per_layer"], workload + " traced")
        spans = tracing.read_spans(os.path.join(run.OUT, "spans-%s-seed%d.gz" % (workload, SEED)))
        expect(spans["spans"] > 0 and len(spans["end"]) == spans["spans"]
               and all(e >= s for s, e in zip(spans["start"], spans["end"])),
               "%s: the span file does not hold the run's spans" % workload)
        print("selftest %s: metrics printed with units, traced and untraced" % workload)

    real = run.load_expected
    try:
        for workload, tamper in (("check", wrong_check_output), ("walk", wrong_walk_digest)):
            wrong = copy.deepcopy(real())
            tamper(wrong)
            run.load_expected = lambda wrong=wrong: wrong
            result, text = bench_run(workload, 0)
            expect(result["failed"] >= 1 and not result["correct"],
                   "%s: a wrong expected output was not counted as failed" % workload)
            print("selftest %s: a wrong expected output counts as a failed op" % workload)
    finally:
        run.load_expected = real
    print("selftest passed")


if __name__ == "__main__":
    main()
