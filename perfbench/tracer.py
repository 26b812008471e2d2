"""Spans recorded from outside the program, around calls into each layer.

The package modules import each other's functions by name, so a function is
wrapped wherever a module holds it: every attribute of every package module
that is the original function object is replaced for the duration of
`installed()`.  Spans stay in memory as (job, parent, name, start, end,
counters); a span's self time is its duration minus its direct children's.

Counters come only from arguments and return values that the program keeps
(a returned witness or None, the `trials` argument, the serialized bytes),
never from intermediate structures such as DP profiles or dense matrices.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time


def _found(bound, result):
    return int(result is not None)


# (span name, defining module, function, {counter name: f(bound arguments, result)})
TRACED = (
    ("certify.vanishing_all_twists", "certify", "vanishing_all_twists", {}),
    ("certify.stability_certificate", "certify", "stability_certificate", {}),
    ("certify.simplicity_certificate", "certify", "simplicity_certificate", {}),
    ("polyring.triangular_witness", "polyring", "triangular_witness", {"polyring.triangular_witness.found": _found}),
    ("polyring.rank_at_random_points", "polyring", "rank_at_random_points",
     {"polyring.rank_at_random_points.trials": lambda bound, result: bound.arguments["trials"]}),
    ("polyring.mat_mul", "polyring", "mat_mul", {}),
    ("monad.build", "monad", "build_section3", {}),
    ("monad.build", "monad", "build_section4", {}),
    ("monad.verify_monad", "monad", "verify_monad", {}),
    ("cohomology.h_sum", "cohomology", "h_sum", {}),
    ("cohomology.exterior_power", "cohomology", "exterior_power", {}),
    ("cli.json_bytes", "cli", "json_bytes",
     {"cli.docs": lambda bound, result: 1, "cli.doc_bytes": lambda bound, result: len(result)}),
    ("cli.to_jsonable", "cli", "to_jsonable", {}),
)
MODULES = ("space", "cohomology", "polyring", "monad", "certify", "cli")
LAYERS = MODULES[1:]  # `space` holds only arithmetic helpers, no call worth timing
JOB = "cli.job"


class Tracer:
    def __init__(self):
        self.modules = {name: importlib.import_module(f"monadcert.{name}") for name in MODULES}
        self.spans: list[list] = []  # [job, parent, name, start, end, counters]
        self._stack: list[int] = []
        self._job = None

    @contextlib.contextmanager
    def installed(self):
        patches = []
        try:
            for name, module, attr, counters in TRACED:
                original = getattr(self.modules[module], attr)
                wrapper = self._wrap(name, original, counters)
                for mod in self.modules.values():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            patches.append((mod, key, original))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for mod, key, original in reversed(patches):
                setattr(mod, key, original)

    @contextlib.contextmanager
    def job(self, job_id: str):
        self._job = job_id
        try:
            with self._span(JOB):
                yield
        finally:
            self._job = None

    @contextlib.contextmanager
    def _span(self, name):
        index = len(self.spans)
        span = [self._job, self._stack[-1] if self._stack else None, name, 0.0, 0.0, {}]
        self.spans.append(span)
        self._stack.append(index)
        span[3] = time.perf_counter()
        try:
            yield span
        finally:
            span[4] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, counters):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # a recursive call is part of the outermost span of the same name
            if self._job is None or any(self.spans[i][2] == name for i in self._stack):
                return fn(*args, **kwargs)
            with self._span(name) as span:
                result = fn(*args, **kwargs)
            if counters:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[5] = {key: count(bound, result) for key, count in counters.items()}
            return result

        return wrapper

    def reset(self) -> None:
        self.spans = []

    def aggregate(self) -> tuple[dict, float]:
        """Per-name and per-layer totals, and the worst per-job accounting gap.

        Returns metrics named `<name>.calls`, `<name>.s`, `<name>.self_s`,
        `<layer>.self_s`, `trace.job_s` and the counters.  The gap is
        the largest |job duration - sum of self times in the job| in seconds.
        """
        child = [0.0] * len(self.spans)
        for job, parent, name, start, end, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        metrics = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for name, _, _, counters in TRACED:
            metrics[f"{name}.calls"] = 0
            metrics[f"{name}.s"] = 0.0
            metrics[f"{name}.self_s"] = 0.0
            for key in counters:
                metrics[key] = 0
        metrics["trace.job_s"] = 0.0
        job_total: dict = {}
        job_self: dict = {}
        for i, (job, parent, name, start, end, counters) in enumerate(self.spans):
            duration = end - start
            own = duration - child[i]
            metrics[f"{name.split('.')[0]}.self_s"] += own
            job_self[job] = job_self.get(job, 0.0) + own
            if name == JOB:
                metrics["trace.job_s"] += duration
                job_total[job] = duration
                continue
            metrics[f"{name}.calls"] += 1
            metrics[f"{name}.s"] += duration
            metrics[f"{name}.self_s"] += own
            for key, value in counters.items():
                metrics[key] += value
        gap = max((abs(job_total[j] - job_self[j]) for j in job_total), default=0.0)
        return metrics, gap
