"""Record reference outputs for the correctness gate.

Run from the repository root on the commit whose outputs are the
reference (it was run on the commit that introduced the benchmark):

    python3 perfbench/record_references.py

For each of the ``check.REFERENCE_SEEDS`` input seeds and each workload
it runs the CLI once, checks the output with the benchmark's independent
checks, and stores the output sha256 and the ``--json`` payload in
``references.json`` under the workload's size parameters. Every later run must reproduce the entry of its input seed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from check import REFERENCE_SEEDS, REFERENCES
from procs import SRC, STATE, cli, spawn
from workloads import WORKLOADS


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    sys.path.insert(0, str(SRC))
    table = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    for name, workload in WORKLOADS.items():
        entry = table.get(name, {})
        if entry.get("params") != workload.params:
            entry = {"params": workload.params, "seeds": {}}
        table[name] = entry
        for seed in range(REFERENCE_SEEDS):
            work = STATE / f"record-{name}-{seed}"
            work.mkdir(parents=True, exist_ok=True)
            try:
                prepared = workload.prepare(seed, work)
                key = prepared.key(spawn(cli(prepared.argv), work / "cli.out"))
                problems = ["CLI run failed"] if key is None else prepared.verify(key[1])
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if problems:
                print(f"{name} seed {seed}: not recorded: {problems[:3]}", file=sys.stderr)
                return 1
            entry["seeds"][str(seed)] = {"sha256": key[0], "payload": key[1]}
            print(f"{name} seed {seed}: {key[0]}")
        REFERENCES.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
