"""Reference output digests per (workload, seed, op index).

``references.json`` holds, for each workload and each seed in
:data:`SEEDS`, the digests of the first ops a run makes. A run compares
every op that has a reference and counts a mismatch as a failed op;
later ops, and seeds outside the table, get the output checks alone.

Regenerate after a deliberate change of the inputs or the outputs::

    python3 perfbench/references.py [workload ...]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

__all__ = ["load", "SEEDS", "OPS"]

PATH = Path(__file__).resolve().parent / "references.json"
#: Seeds with stored references.
SEEDS = range(0, 16)
#: Ops per seed with a stored reference.
OPS = {"session": 160, "fleet": 3, "corpus": 24}


def load() -> dict[str, dict[str, list[str]]]:
    return json.loads(PATH.read_text()) if PATH.is_file() else {}


def dump(table: dict[str, dict[str, list[str]]]) -> str:
    """JSON with one line per (workload, seed), so a diff shows which changed."""
    blocks = []
    for name in sorted(table):
        rows = ",\n".join(
            f"  {json.dumps(seed)}: {json.dumps(table[name][seed])}"
            for seed in sorted(table[name], key=int)
        )
        blocks.append(f" {json.dumps(name)}: {{\n{rows}\n }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def generate(name: str) -> dict[str, list[str]]:
    import run
    import workloads
    from repro.parallel import PersistentPool

    cls, unit = workloads.WORKLOADS[name]
    workload = cls(name, unit, work_dir=run.WORK_DIR)
    if name == "corpus":
        workload.workers = workloads.cpu_count()
        workload.pool = PersistentPool(max_workers=workload.workers).warm()
    table = {}
    try:
        for seed in SEEDS:
            digests = []
            for index in range(OPS[name]):
                outcome = workload.run(workload.make_input(seed, index))
                if outcome.problems:
                    raise RuntimeError(f"{name} seed {seed} op {index}: {outcome.problems}")
                digests.append(outcome.digest)
            table[str(seed)] = digests
            print(f"{name} seed {seed}: {len(digests)} ops", file=sys.stderr)
    finally:
        workload.close()
    return table


def main(names: list[str]) -> int:
    import run

    if not run.bootstrap():
        print("references: no program under the repository root", file=sys.stderr)
        return 2
    table = load()
    for name in names or list(OPS):
        table[name] = generate(name)
        PATH.write_text(dump(table))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
