"""The benchmark's traced mode wraps package functions by name; each must exist.

`perfbench/run.py --trace 1` patches every `monadcert.<module>.<attr>` that
`perfbench/tracer.py` lists in TRACED, so a renamed function would break it
with an AttributeError, and a call made through a reference the patch does
not replace would go uncounted.  The tracer is loaded from its file and not
changed.
"""

import contextlib
import importlib
import importlib.util
import io
import re
from pathlib import Path

from monadcert.cli import main

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_traced_functions_exist():
    tracer = _load_tracer()
    assert tracer.TRACED
    for _, module, attr, _ in tracer.TRACED:
        fn = getattr(importlib.import_module(f"monadcert.{module}"), attr, None)
        assert callable(fn), f"monadcert.{module}.{attr}"


# calls each command makes to the traced builders, certifiers and writer; a
# call that goes around the names the tracer patches is missing from its counts
CALLS = {
    "build": {"monad.build": 1, "cli.json_bytes": 1},
    "verify": {"monad.build": 1, "monad.verify_monad": 1, "cli.json_bytes": 1},
    "certify-stability": {
        "monad.build": 1,
        "certify.stability_certificate": 1,
        "cli.json_bytes": 1,
    },
    "certify-simplicity": {
        "monad.build": 1,
        "certify.stability_certificate": 1,
        "certify.simplicity_certificate": 1,
        "cli.json_bytes": 2,
    },
    # over the four documents the commands above write: one shared build, and
    # one stability certificate shared by the simplicity and stability documents
    "recheck": {
        "monad.build": 1,
        "monad.verify_monad": 1,
        "certify.stability_certificate": 1,
        "certify.simplicity_certificate": 1,
        "cli.json_bytes": 4,
    },
}
# the recheck of one certificate document alone, by its file suffix: sharing a
# certificate never skips one that a document needs
ALONE = {
    "stability": {"monad.build": 1, "certify.stability_certificate": 1, "cli.json_bytes": 1},
    "simplicity": {
        "monad.build": 1,
        "certify.stability_certificate": 1,
        "certify.simplicity_certificate": 1,
        "cli.json_bytes": 1,
    },
}
WROTE = re.compile(r"wrote: ([^)\n]+)")
# calls that read a map or a rank witness: only `verify` and the recheck of
# its document make them, and the certificates make none
READERS = ("polyring.mat_mul", "polyring.rank_at_random_points", "polyring.triangular_witness")


def _traced(tracer, argv):
    """The metrics of one traced `main(argv)`, which must exit 0, and what it printed."""
    tracer.reset()
    with tracer.job(argv[0]), contextlib.redirect_stdout(io.StringIO()) as printed:
        assert main(argv) == 0, argv
    metrics, _ = tracer.aggregate()
    return metrics, printed.getvalue()


def _calls(metrics):
    return {name: metrics[f"{name}.calls"] for name in CALLS["recheck"]}


def test_traced_calls_reach_every_command(tmp_path):
    tracer = _load_tracer().Tracer()
    instances = (
        ("--family", "section3", "--copies", "1,1", "--k", "2"),
        ("--family", "section4"),
    )
    with tracer.installed():
        for i, instance in enumerate(instances):
            out = tmp_path / str(i)
            for command, calls in CALLS.items():
                if command == "recheck":
                    argv = [command, *map(str, sorted(out.iterdir()))]
                    assert len(argv) == 5, argv
                else:
                    argv = [command, *instance, "--out-dir", str(out)]
                metrics, printed = _traced(tracer, argv)
                got = _calls(metrics)
                assert got == dict.fromkeys(got, 0) | calls, (instance, command)
                # every document byte goes through the traced writer
                written = argv[1:] if command == "recheck" else WROTE.findall(printed)
                assert len(written) == calls["cli.json_bytes"], (instance, command)
                total = sum(Path(path).stat().st_size for path in written)
                assert metrics["cli.doc_bytes"] == total, (instance, command)
                mat_mul, rank, witness = (metrics[f"{name}.calls"] for name in READERS)
                if "monad.verify_monad" in calls:
                    assert (mat_mul, rank) == (1, 2) and witness > 0, (instance, command)
                else:
                    assert (mat_mul, rank, witness) == (0, 0, 0), (instance, command)
            for suffix, calls in ALONE.items():
                (path,) = out.glob(f"*.{suffix}.json")
                got = _calls(_traced(tracer, ["recheck", str(path)])[0])
                assert got == dict.fromkeys(got, 0) | calls, (instance, suffix)


def test_no_certificate_is_shared_across_main_calls(tmp_path):
    # two runs of one command on one instance in one process compute twice
    tracer = _load_tracer().Tracer()
    argv = ["certify-stability", "--family", "section3", "--copies", "1,1", "--k", "2",
            "--out-dir", str(tmp_path)]
    with tracer.installed():
        tracer.reset()
        with tracer.job("twice"), contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == main(argv) == 0
        metrics, _ = tracer.aggregate()
    assert metrics["certify.stability_certificate.calls"] == 2
