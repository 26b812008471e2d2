"""One benchmark child process: set up, print `ready`, measure, print a JSON line.

Run by `run.py`, one child at a time:

    python3 perfbench/child.py --mode setup|measure|trace --workload NAME \
        --seed N --seconds S --work-dir DIR

`setup` stops after `ready`; `run.py` times each child from its start to
that line.  `measure` warms up for WARMUP_S, then repeats (pass, recheck),
with tracing off, while one more iteration still ends within S seconds of
its start (see `another`); then it reruns the largest job alone until its
samples cover TOP_RUNG_MIN_S.  `trace` warms up and repeats (untraced pass,
traced pass, traced recheck) by the same rule.  Every pass writes into its own fresh directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXPECTED = Path(__file__).resolve().parent / "expected.json"
RECORD_SEED = 0  # the CLI's default seed; expected.json holds its digests
MAX_REPORTED_FAILURES = 20
TOP_RUNG_MIN_S = 8.0
WARMUP_S = 3.0


def import_cli():
    """Import `monadcert.cli` from the checkout's own `src`, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    from monadcert import cli

    where = Path(cli.__file__).resolve().parent.parent
    if where != SRC.resolve():
        raise ImportError(f"monadcert imported from {where}, expected {SRC}")
    return cli


def run_job(cli, argv: list[str]) -> tuple[float, int | None, str | None, str | None]:
    """One in-process CLI call: (seconds, exit code, verdict, error)."""
    out = io.StringIO()
    rc, error = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
    except (Exception, SystemExit) as exc:  # a job that raises is a failed job
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    verdicts = [ln[9:] for ln in out.getvalue().splitlines() if ln.startswith("verdict: ")]
    return seconds, rc, (verdicts[-1] if verdicts else None), error


def run_pass(cli, jobs, out_dir: Path, tracer=None) -> list[tuple]:
    results = []
    for i, job in enumerate(jobs):
        scope = tracer.job(f"job{i}") if tracer else contextlib.nullcontext()
        with scope:
            results.append(run_job(cli, job.argv(str(out_dir))))
    return results


def run_recheck(cli, out_dir: Path, tracer=None) -> tuple[float, dict, str | None]:
    """One `recheck` over every document in out_dir: (seconds, name -> status, error)."""
    paths = sorted(str(p) for p in out_dir.iterdir())
    out = io.StringIO()
    error = None
    scope = tracer.job("recheck") if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with scope, contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            cli.main(["recheck", *paths])
    except (Exception, SystemExit) as exc:
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    status = {}
    for line in out.getvalue().splitlines():
        path, _, word = line.rpartition(": ")
        status[Path(path).name] = word
    return seconds, status, error


def check(expected: dict, jobs, results, out_dir: Path, seed: int, recheck) -> tuple[int, list[str]]:
    """Count attempted operations (jobs and documents) and list the failures.

    A job fails if it raises or its exit code or verdict differs from the
    expected table.  A document fails if it is missing, if `recheck` (when it
    ran) does not print OK for it, or if its SHA-256 differs from the
    recorded digest.  The digests were recorded at RECORD_SEED; documents of
    jobs that take no seed are compared at every seed.
    """
    _, statuses, recheck_error = recheck
    failures = [f"recheck raised {recheck_error}"] if recheck_error else []
    attempted = 0
    wanted = set()
    for job, (_, rc, verdict, error) in zip(jobs, results):
        want = expected["jobs"][job.key]
        attempted += 1
        if error or rc != want["exit"] or verdict != want["verdict"]:
            failures.append(
                f"{job.key}: exit {rc} verdict {verdict} error {error}, "
                f"expected exit {want['exit']} verdict {want['verdict']}"
            )
        for name, digest in want["docs"].items():
            attempted += 1
            wanted.add(name)
            path = out_dir / name
            if not path.is_file():
                failures.append(f"{name}: missing")
            elif statuses is not None and statuses.get(name) != "OK":
                failures.append(f"{name}: recheck {statuses.get(name)}")
            elif (job.seed is None or seed == RECORD_SEED) and (
                hashlib.sha256(path.read_bytes()).hexdigest() != digest
            ):
                failures.append(f"{name}: SHA-256 differs from the recorded digest")
    for path in sorted(out_dir.iterdir()):
        if path.name not in wanted:
            attempted += 1
            failures.append(f"{path.name}: unexpected document")
    return attempted, failures


class Run:
    """Samples and correctness counts of one child's measurement."""

    def __init__(self, cli, workload: str, seed: int, work_dir: Path):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.jobs = WORKLOADS[workload](seed)
        self.expected = None
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0

    def checked_pass(self, tracer=None, recheck=True, jobs=None) -> tuple[float, list, tuple]:
        """Run the jobs (default: all) into a fresh directory, optionally recheck, and check.

        Returns the pass's wall time, the per-job results and the recheck's.
        """
        jobs = self.jobs if jobs is None else jobs
        if self.expected is None:
            self.expected = json.loads(EXPECTED.read_text())[self.workload]
        out_dir = Path(tempfile.mkdtemp(prefix="pass-", dir=self.work_dir))
        try:
            start = time.perf_counter()
            results = run_pass(self.cli, jobs, out_dir, tracer)
            pass_s = time.perf_counter() - start
            rechecked = run_recheck(self.cli, out_dir, tracer) if recheck else (0.0, None, None)
            attempted, failures = check(self.expected, jobs, results, out_dir, self.seed, rechecked)
        finally:
            shutil.rmtree(out_dir)
        self.attempted += attempted
        self.failed += len(failures)
        self.failures += failures[: MAX_REPORTED_FAILURES - len(self.failures)]
        return pass_s, results, rechecked

    def warm_up(self, seconds: float) -> None:
        """Run jobs in list order, untimed but checked, until `seconds` have gone by.

        The first calls of a fresh interpreter run slower (bytecode is not
        yet specialized, the allocator has not grown); this keeps that cost
        out of the first timed pass.
        """
        start = time.perf_counter()
        for job in self.jobs:
            if time.perf_counter() - start >= seconds:
                break
            self.checked_pass(recheck=False, jobs=[job])

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "jobs": len(self.jobs),
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }


def another(start: float, iterations: int, deadline: float) -> bool:
    """Whether to start another iteration: always the first one, then only
    if one more, as long as the mean so far, still ends by `deadline`.
    A run then takes about its seconds whether an iteration is short or long."""
    if not iterations:
        return True
    now = time.perf_counter()
    return now + (now - start) / iterations <= deadline


def measure(run: Run, seconds: float) -> dict:
    top = next(i for i, job in enumerate(run.jobs) if job.top)
    passes, rechecks, tops, job_s = [], [], [], []
    deadline = time.perf_counter() + seconds
    run.warm_up(WARMUP_S)
    start = time.perf_counter()
    while another(start, len(passes), deadline):
        pass_s, results, (recheck_s, statuses, _) = run.checked_pass()
        passes.append(pass_s)
        rechecks.append(recheck_s)
        tops.append(results[top][0])
        job_s += [r[0] for r in results]
    # The largest job runs once per pass.  Time it again, alone, until its
    # samples cover TOP_RUNG_MIN_S, so that one slow stretch of the host does
    # not decide top_rung_s.
    while sum(tops) < TOP_RUNG_MIN_S:
        tops.append(run.checked_pass(recheck=False, jobs=[run.jobs[top]])[1][0][0])
    return {"pass_s": passes, "recheck_s": rechecks, "top_rung_s": tops,
            "job_s": job_s, "docs": len(statuses), **run.summary()}


def trace(run: Run, seconds: float) -> dict:
    from tracer import Tracer  # imported here so that setup_s never includes it

    tracer = Tracer()
    untraced, traced, iterations = [], [], []
    gap = 0.0
    deadline = time.perf_counter() + seconds
    run.warm_up(WARMUP_S)
    start = time.perf_counter()
    while another(start, len(iterations), deadline):
        untraced.append(run.checked_pass(recheck=False)[0])
        tracer.reset()
        with tracer.installed():
            traced.append(run.checked_pass(tracer)[0])
        metrics, job_gap = tracer.aggregate()
        iterations.append(metrics)
        gap = max(gap, job_gap)
    return {"untraced_pass_s": untraced, "traced_pass_s": traced,
            "iterations": iterations, "accounting_gap_s": gap,
            "spans": tracer.spans, **run.summary()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    args = parser.parse_args()

    cli = import_cli()
    run = Run(cli, args.workload, args.seed, args.work_dir)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0
    if args.mode == "measure":
        result = measure(run, args.seconds)
    else:
        result = trace(run, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
