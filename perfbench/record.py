"""Write expected.json: each job's exit code, verdict and document digests.

    python3 perfbench/record.py

Runs every workload once at the recording seed and stores, per job, what it
printed and the SHA-256 of each document it wrote.  The table pins the
program as it was when recorded; the benchmark counts any difference as a
failed operation.  Record again only in a change that is allowed to change
the verdicts or the document bytes.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from child import EXPECTED, RECORD_SEED, ROOT, import_cli, run_job, run_recheck
from workloads import WORKLOADS


def record(cli, name: str, out_dir: Path) -> dict:
    jobs = {}
    for job in WORKLOADS[name](RECORD_SEED):
        before = set(out_dir.iterdir())
        _, rc, verdict, error = run_job(cli, job.argv(str(out_dir)))
        if error:
            raise RuntimeError(f"{name}: {job.key} raised {error}")
        written = sorted(set(out_dir.iterdir()) - before)
        jobs[job.key] = {
            "exit": rc,
            "verdict": verdict,
            "docs": {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in written},
        }
    _, statuses, error = run_recheck(cli, out_dir)
    bad = {doc: word for doc, word in statuses.items() if word != "OK"}
    if error or bad:
        raise RuntimeError(f"{name}: recheck failed: {error or bad}")
    return {"jobs": jobs}


def main() -> int:
    cli = import_cli()
    table = {"seed": RECORD_SEED}
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    for name in WORKLOADS:
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            table[name] = record(cli, name, Path(tmp))
        print(f"{name}: {len(table[name]['jobs'])} jobs", file=sys.stderr)
    EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
