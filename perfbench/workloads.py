"""The fixed job lists the benchmark drives through `monadcert.cli.main`.

A job is one CLI invocation without `--out-dir`; the runner adds the output
directory.  The workload seed reaches the program only as `--seed` on
`verify` jobs, where it chooses the random rank-evidence points.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

# The acceptance grid of tests/test_acceptance.py, in CLI form.
SECTION3_COPIES = ("2", "1,1", "1,0,1", "2,1")  # (1,1), (1,3), (1,5), (1,1,3)
SECTION4_GRID = [
    (n, m, l, a, b, g, k)
    for (n, m, l) in [(1, 1, 1), (2, 1, 1), (2, 2, 1)]
    for a, b, g in itertools.product((1, 2), repeat=3)
    for k in (1, 2)
]
SECTION4_NAMES = ("n", "m", "l", "alpha", "beta", "gamma", "k")

# section4 5,5,5,1,2,3,3 is left out: one stability job takes about 64 s.
TOTAL_TOP_RUNG = (4, 4, 4, 1, 2, 3, 2)
PERGROUP_TOP_RUNG = (3, 3, 3, 1, 2, 3, 2)
SECTION3_LADDER = (("6", 3), ("7", 3), ("8", 3), ("0,3", 1), ("3,0,1", 3))
SECTION3_TOP_RUNG = ("verify", "8", 3)


@dataclass(frozen=True)
class Job:
    base: tuple[str, ...]  # CLI arguments; also the key into expected.json
    seed: int | None  # passed as --seed when set (verify jobs only)
    top: bool  # the workload's largest job, timed as top_rung_s

    @property
    def key(self) -> str:
        return " ".join(self.base)

    def argv(self, out_dir: str) -> list[str]:
        seed = [] if self.seed is None else ["--seed", str(self.seed)]
        return [*self.base, *seed, "--out-dir", out_dir]


def _section4(params, extra=()) -> tuple[str, ...]:
    args = ["certify-stability", "--family", "section4"]
    for name, value in zip(SECTION4_NAMES, params):
        args += [f"--{name}", str(value)]
    return (*args, *extra)


def _stability(top_rung, extra):
    # Jobs of one size (n, m, l, k) take about the same time, and a job's
    # latency follows the host's speed at the moment it runs.  Spreading each
    # size over the pass, with the long top rung in the middle, keeps one slow
    # stretch of the host from moving a whole cluster past the median.
    grid = sorted(SECTION4_GRID, key=lambda p: (p[3:6], p[:3], p[6]))
    jobs = [Job(_section4(p, extra), None, False) for p in grid]
    jobs.insert(len(jobs) // 2, Job(_section4(top_rung, extra), None, True))
    return jobs


def _verify_section3(seed):
    instances = [(c, k) for c in SECTION3_COPIES for k in (1, 2, 3)]
    instances += list(SECTION3_LADDER)
    jobs = []
    for copies, k in instances:
        for command in ("build", "verify", "certify-simplicity"):
            base = (command, "--family", "section3", "--copies", copies, "--k", str(k))
            jobs.append(Job(
                base,
                seed if command == "verify" else None,
                (command, copies, k) == SECTION3_TOP_RUNG,
            ))
    return jobs


WORKLOADS = {
    "stability-total": lambda seed: _stability(TOTAL_TOP_RUNG, ()),
    "stability-pergroup": lambda seed: _stability(
        PERGROUP_TOP_RUNG, ("--constraint", "per-group-negative")
    ),
    "verify-section3": _verify_section3,
}
