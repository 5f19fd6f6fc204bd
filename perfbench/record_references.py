"""Record the reference outputs that the servo and bp-suite checks compare against.

Run from the root of a checkout whose outputs are known to be right:

    python3 perfbench/record_references.py

It rewrites ``perfbench/references.json`` for each workload's default seed
and one held-out seed. Re-record only when a change is meant to alter the
outputs, and say so with the change.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads

SEEDS = {"servo": (42, 1001), "bp-suite": (7, 1001)}


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.WORK.mkdir(exist_ok=True)
    references = {}
    try:
        for name, seeds in SEEDS.items():
            workload = run.make_workload(name)
            references[name] = {}
            for seed in seeds:
                mods = run.import_coghier()
                state = workload.setup(mods, seed)
                found = workload.outcome(workload.call(mods, state))
                if found is None:
                    raise SystemExit(f"{name} seed {seed}: no usable output")
                references[name][str(seed)] = found
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    workloads.REFERENCES.write_text(json.dumps(references, indent=2, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
