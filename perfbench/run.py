"""monadcert benchmark: drive the CLI in-process over a fixed job list.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Starts one child process at a time (see
child.py), prints every metric by name and unit with the machine it ran on,
and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
`--trace 0` reports the end-to-end metrics of BENCHMARK.json, `--trace 1`
the per-layer ones.  `--workload all` runs every workload in turn and
prefixes each metric name with its workload.  Exits 1 when a correctness
check fails and 2 when the benchmark cannot run.  Details and spans go to
`.perfbench/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 9  # child start-ups per run; setup_s is their median
TIME_LIMIT_S = 170  # per workload: a run ends within 180 s even if a child hangs
ACCOUNTING_TOLERANCE_S = 1e-6
# Every child hashes strings with the same seed.  How long the program's
# searches take depends on the string-hash seed Python picks per process (the
# largest verify job took 8-16% longer at one seed than at another, run
# alternately), so a per-process random seed adds that much to the spread
# between runs.  Documents do not depend on it.
HASH_SEED = "0"


class BenchError(Exception):
    """The benchmark itself could not run."""


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "mem_total_kb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 1024,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
    }


def spawn(mode: str, workload: str, args, work_dir: Path, deadline: float) -> tuple[float, dict | None]:
    """Start one child; return (seconds from start to `ready`, its JSON result)."""
    cmd = [
        sys.executable, str(HERE / "child.py"), "--mode", mode,
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--work-dir", str(work_dir),
    ]
    start = time.perf_counter()
    env = {**os.environ, "PYTHONHASHSEED": HASH_SEED}
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} child ran past the time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if first.strip() != "ready" or proc.returncode != 0 or (mode != "setup" and not rest.strip()):
        raise BenchError(f"{mode} child exited with {proc.returncode} before finishing")
    if mode == "setup":
        return setup_s, None
    return setup_s, json.loads(rest.splitlines()[-1])


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all order statistics.

    The job lists hold clusters of similar jobs, and on the grid workloads a
    gap between two clusters falls at the median.  A single order statistic
    then jumps across the gap when one job runs a little faster or slower;
    this estimate moves smoothly instead.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(t: float) -> float:
        if not 0 < t < 1:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))

    steps = 16  # Simpson's rule over each order statistic's cell [i/n, (i+1)/n]
    h = 1 / (n * steps)
    weights = []
    for i in range(n):
        cell = [density(i / n + j * h) for j in range(steps + 1)]
        weights.append(cell[0] + cell[-1] + 4 * sum(cell[1:-1:2]) + 2 * sum(cell[2:-1:2]))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(setups: list[float], res: dict) -> tuple[dict, list[str]]:
    """Metrics of one measuring child.

    Repeats of the same work (passes, rechecks, top-rung runs) are averaged,
    not reduced to their median: the host alternates between a fast and a
    slow speed for tens of seconds at a time, and the mean weighs the two by
    the time the run spent in each, where the median of a few repeats snaps
    to one of them.  In three sets of ten runs of `verify-section3` on a
    2-core VM, the interquartile range of the mean was 0.10-0.18 of its
    median across runs, that of the median 0.14-0.23.
    """
    jobs = res["job_s"]
    p50, p75 = quantile(jobs, 0.5), quantile(jobs, 0.75)
    passes = len(res["pass_s"])
    metrics = {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.mean(res["pass_s"]),
        "job_p50_ms": p50 * 1e3,
        "job_p75_ms": p75 * 1e3,
        "top_rung_s": statistics.mean(res["top_rung_s"]),
        "recheck_s": statistics.mean(res["recheck_s"]),
        "peak_rss_mb": res["peak_rss_kb"] / 1024,
        "ok_frac": 1 - res["failed"] / res["attempted"],
    }
    notes = {
        "setup_s": f"median of {len(setups)} child start-ups, range {min(setups):.4f}-{max(setups):.4f}",
        "pass_s": f"mean of {passes} passes of {res['jobs']} jobs, range "
                  f"{min(res['pass_s']):.4f}-{max(res['pass_s']):.4f}",
        "job_p50_ms": f"Harrell-Davis median of {len(jobs)} job latencies "
                      f"(sample median {statistics.median(jobs) * 1e3:.4f})",
        "job_p75_ms": f"Harrell-Davis 75th percentile of {len(jobs)} job latencies, "
                      f"{sum(j > p75 for j in jobs)} beyond it",
        "top_rung_s": f"mean of {len(res['top_rung_s'])} runs of the largest job, "
                      f"{passes} of them in a pass",
        "recheck_s": f"mean of {passes} rechecks of {res['docs']} documents",
        "peak_rss_mb": "ru_maxrss of the measuring child",
        "ok_frac": f"failed_frac = {res['failed']} failed / {res['attempted']} attempted "
                   f"(jobs plus documents) = {res['failed'] / res['attempted']:.4f}",
    }
    return metrics, [f"{name}: {notes[name]}" for name in metrics]


def per_layer(res: dict) -> tuple[dict, list[str], list[str]]:
    """Times are medians over traced iterations; counts must repeat exactly."""
    iterations = res["iterations"]
    metrics, problems = {}, []
    for name, first in iterations[0].items():
        values = [it[name] for it in iterations]
        if name.endswith((".s", "_s")):
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = first
            if any(v != first for v in values):
                problems.append(f"count {name} differs between traced passes: {values}")
    calls = metrics["polyring.triangular_witness.calls"]
    metrics["polyring.triangular_witness.found_ratio"] = (
        metrics["polyring.triangular_witness.found"] / calls if calls else 0.0
    )
    metrics["trace.overhead_s"] = (
        statistics.median(res["traced_pass_s"]) - statistics.median(res["untraced_pass_s"])
    )
    if res["accounting_gap_s"] > ACCOUNTING_TOLERANCE_S:
        problems.append(f"self times miss a job's time by {res['accounting_gap_s']:.3g} s")
    notes = [
        f"{len(iterations)} traced passes (each with one traced recheck); "
        f"counts are per pass, times are medians",
        f"untraced pass_s {statistics.median(res['untraced_pass_s']):.4f} s, "
        f"traced pass_s {statistics.median(res['traced_pass_s']):.4f} s",
        f"largest gap between a job's time and its spans' self times: "
        f"{res['accounting_gap_s']:.3g} s",
    ]
    return metrics, notes, problems


def write_spans(path: Path, spans: list) -> None:
    origin = spans[0][3] if spans else 0.0
    with path.open("w", encoding="utf-8") as f:
        for i, (job, parent, name, start, end, counters) in enumerate(spans):
            f.write(json.dumps({
                "id": i, "job": job, "parent": parent, "name": name,
                "start_s": start - origin, "end_s": end - origin, "counters": counters,
            }) + "\n")


def run_workload(workload: str, args, wanted: list[dict]) -> dict:
    """Run one workload, print its metrics and notes, and return the result object."""
    deadline = time.monotonic() + TIME_LIMIT_S
    OUT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        if args.trace:
            _, res = spawn("trace", workload, args, work_dir, deadline)
            metrics, notes, problems = per_layer(res)
        else:
            setups = [spawn("setup", workload, args, work_dir, deadline)[0]
                      for _ in range(SETUP_SAMPLES - 1)]
            setup_s, res = spawn("measure", workload, args, work_dir, deadline)
            metrics, notes = end_to_end([*setups, setup_s], res)
            problems = []
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    host = machine()
    print(f"workload {workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("machine: " + ", ".join(f"{k} {v}" for k, v in host.items()))
    for m in wanted:
        print(f"  {m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    for line in notes:
        print(f"  {line}")
    for failure in res["failures"] + problems:
        print(f"  FAILED: {failure}")
    label = f"{workload}-seed{args.seed}-trace{args.trace}"
    detail = {"machine": host, "args": {**vars(args), "workload": workload},
              "metrics": metrics, "notes": notes,
              **{k: v for k, v in res.items() if k != "spans"}}
    (OUT / f"{label}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if args.trace:
        write_spans(OUT / f"{label}.spans.jsonl", res["spans"])
    return {
        "correct": res["failed"] == 0 and not problems,
        "attempted": res["attempted"],
        "failed": res["failed"] + len(problems),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    # on SIGTERM, unwind so that the running child is killed and the work dir removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "monadcert" / "cli.py").is_file():
        raise BenchError(f"no monadcert source under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args, wanted) for name in names}
    if args.workload == "all":
        # one object over all workloads; metric names carry the workload
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    else:
        result = results[args.workload]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
