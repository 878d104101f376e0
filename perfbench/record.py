"""Write expected.json: the current code's output for every pool item.

    python3 perfbench/record.py

Run it only when a change of outputs is intended, and say in the change
which fingerprints moved and why.  It takes a few minutes (every
tri-platform-a variant is classified once).
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    env = run.setup()
    expected: dict = {kind: {} for kind in run.TASKS}
    for kind, name, item in run.all_tasks():
        stats = run.Stats()
        got = run.TASKS[kind](env, name, item, stats)
        if stats.problems:
            sys.stderr.write("\n".join(stats.problems) + "\n")
            return 1
        expected[kind][run.inputs.key(name, item)] = got
        print(kind, name, item, json.dumps(got), flush=True)
    run.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
