"""Regenerate ``references.json``: checked values for every pool input.

Run from the repository root, on a commit whose outputs are trusted:

    python3 bench/make_references.py [workload ...]

Workloads not named keep their stored references.  Before writing, the
script asserts what must hold for any correct library: the paper's solve
identity on every optimize input, and eigenvalues that agree across
eigensolver start seeds within the check tolerance.
"""

import json
import sys

import run

run.import_library()

import numpy as np  # noqa: E402

from workloads import WORKLOADS, build, mismatches  # noqa: E402


def main(names):
    path = run.BENCH / "references.json"
    refs = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    setup = build()
    for name in names or sorted(WORKLOADS):
        w = WORKLOADS[name]
        table = {}
        for entry in range(w.pool_size):
            values = w.values(setup, w.run(setup, entry))
            table[str(entry)] = {
                k: np.asarray(v).tolist() for k, v in values.items()
            }
            print(name, entry, flush=True)
        first = table["0"]
        for entry, values in table.items():
            if name == "optimize-randomized" and not values["identity_holds"]:
                raise AssertionError(f"solve identity broken on input {entry}")
            if name == "eigenbasis-setup" and mismatches(values, first, w.tolerances):
                raise AssertionError(f"eigenvalues of input {entry} disagree")
        refs[name] = table
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
