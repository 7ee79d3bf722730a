"""Record the reference outputs that the benchmark's checks compare against.

    python3 perfbench/make_reference.py

Run from the root of a source checkout at the commit whose outputs are the
reference.  For every workload and every seed in ``run.REFERENCE_SEEDS`` this
runs one untimed pass of the workload's CLI calls and writes the compact
record of its outputs to ``reference.jsonl``, replacing the file.  Invariant
checks that fail are printed; the record is still stored, because it is what
the commit produces.
"""

import json
import shutil
from pathlib import Path

import run


def main() -> int:
    root = Path.cwd()
    definitions = json.loads((run.HERE / "workloads.json").read_text())
    lines = []
    for name in sorted(definitions["workloads"]):
        for seed in run.REFERENCE_SEEDS:
            work = root / ".perfbench" / f"reference-{name}-seed{seed}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            calls = run.prepare(definitions, name, seed, work)
            result = run.run_client("reference", name, calls, 0.0, 1, False, work.name,
                                    run.child_env(root), root, work, 170.0)
            shutil.rmtree(work)
            failed = [c for c in result["calls"] if c["code"] != 0]
            (last,) = result["passes"]
            if failed or last["record"] is None:
                raise SystemExit(f"{name} seed {seed}: {failed or last['checks']}")
            entry = {"workload": name, "seed": seed, "record": last["record"]}
            lines.append(json.dumps(entry, separators=(",", ":")) + "\n")
            broken = [c for c in last["checks"] if not c["ok"]]
            print(f"{name} seed {seed}: recorded" + (f"; invariants failed: {broken}" if broken else ""),
                  flush=True)
    (run.HERE / "reference.jsonl").write_text("".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
