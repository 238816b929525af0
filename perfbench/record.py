"""Record the expected outputs the benchmark checks against.

    python3 perfbench/record.py

Run at the commit whose outputs are the reference.  Writes
perfbench/expected.json: the exit code, stdout and stderr of every `check`
op whose input does not depend on the seed (the `verify` suites and the
non-shelling fixture), and the digests of the final complex and colouring
of the first three `walk` and `stack` episodes for seed 0.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 0
EPISODES = {"walk": 3, "stack": 3}


def main() -> None:
    lib = run.import_library()
    expected = {"check": {}}
    fixture = os.path.join(run.HERE, "fixtures", "non_shelling.json")
    for label, argv in workloads.fixed_ops(fixture):
        code, out, err = workloads.run_cli(lib.cli.main, argv)
        entry = {"code": code, "stdout": out, "stderr": err}
        if label in workloads.KNOWN_DEFECTS:
            entry["known_defect"] = True
        expected["check"][label] = entry
    for name, cls in (("walk", workloads.Walk), ("stack", workloads.Stack)):
        wl = cls(lib, DEFAULT_SEED, {})
        wl.setup()
        rec = workloads.Recorder()
        digests = {str(e): wl.episode(e, wl.generate(e), rec) for e in range(EPISODES[name])}
        if rec.failures:
            raise SystemExit("%s: %d ops failed while recording" % (name, len(rec.failures)))
        expected["%s_digests" % name] = {str(DEFAULT_SEED): digests}
    with open(os.path.join(run.HERE, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
