"""Command-line interface: exit codes, document layout, determinism."""

import contextlib
import hashlib
import importlib.util
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monadcert import cli, monad
from monadcert.certify import TwistMode
from monadcert.cli import main
from monadcert.cohomology import LineBundleSum
from monadcert.oracles import first_violated
from monadcert.space import ProductSpace


COUNTEREXAMPLE = {
    "name": "O11 counterexample",
    "factors": [1, 1],
    "terms": {
        "a": [[[-1, -1], 1]],
        "m": [[[1, 1], 1], [[-2, -2], 2], [[0, 0], 1]],
        "c": [[[1, 1], 1]],
    },
    "polarization": [1, 1],
}


def run(*argv):
    return main(list(argv))


def test_build_writes_document(tmp_path):
    assert run("build", "--family", "section3", "--copies", "1,1",
               "--k", "1", "--out-dir", str(tmp_path)) == 0
    doc = json.loads((tmp_path / "section3-dims1x3-k1.build.json").read_text())
    assert list(doc) == ["kind", "tool", "version", "instance", "result"]
    assert doc["kind"] == "monad-build"
    assert doc["tool"] == "monadcert"
    assert doc["instance"] == {"family": "section3", "dims": [1, 3], "k": 1}
    assert doc["result"]["instance_id"] == "section3-dims1x3-k1"
    assert doc["result"]["display"]["rank_e"] == 6


def test_verify_document_and_exit(tmp_path):
    assert run("verify", "--family", "section3", "--copies", "2",
               "--k", "1", "--out-dir", str(tmp_path)) == 0
    doc = json.loads((tmp_path / "section3-dims1x1-k1.report.json").read_text())
    assert doc["kind"] == "monad-report"
    assert doc["result"]["valid"] is True
    assert doc["result"]["composite_zero"] is True


def test_certify_stability_stable(tmp_path):
    assert run("certify-stability", "--family", "section3", "--copies", "1,1",
               "--k", "2", "--out-dir", str(tmp_path)) == 0
    doc = json.loads((tmp_path / "section3-dims1x3-k2.stability.json").read_text())
    assert doc["kind"] == "stability-certificate"
    assert doc["result"]["verdict"] == "stable"
    assert doc["result"]["rank_t"] == 8
    assert doc["result"]["slope_t"] == "-1/1"


def test_certify_stability_counterexample(tmp_path):
    spec_file = tmp_path / "ce.json"
    spec_file.write_text(json.dumps(COUNTEREXAMPLE))
    code = run("certify-stability", "--family", "custom",
               "--spec-file", str(spec_file), "--out-dir", str(tmp_path))
    assert code == 1
    doc = json.loads((tmp_path / "custom-o11-counterexample.stability.json").read_text())
    assert doc["result"]["verdict"] == "fails"
    failed = [q for q in doc["result"]["per_q"] if not q["passed"]]
    assert failed[0]["witness_twist"] == [-1, -1]


def test_certify_stability_witnesses_every_q_of_a_wide_middle(tmp_path, capsys):
    # every degree of {-1, 0, 1}^3 twice on (P^1)^3: all 52 exterior powers
    # fail, and listing each of them to pick its witness took over a minute
    m = [[list(d), 2] for d in itertools.product((-1, 0, 1), repeat=3)]
    spec = {"name": "cube", "factors": [1, 1, 1],
            "terms": {"a": [], "m": m, "c": [[[3, 3, 3], 1]]},
            "constraint": "total-negative"}
    spec_file = tmp_path / "cube.json"
    spec_file.write_text(json.dumps(spec))
    t0 = time.monotonic()
    code = run("certify-stability", "--family", "custom",
               "--spec-file", str(spec_file), "--out-dir", str(tmp_path))
    elapsed = time.monotonic() - t0
    assert code == 1
    path = tmp_path / "custom-cube.stability.json"
    result = json.loads(path.read_text())["result"]
    assert result["verdict"] == "fails"
    assert [r["q"] for r in result["per_q"]] == list(range(1, 53))
    x = ProductSpace((1, 1, 1))
    middle = LineBundleSum((tuple(d), mult) for d, mult in m)
    for r in result["per_q"]:
        assert not r["passed"]
        profile = r["witness_profile"]
        assert sum(profile) >= 1
        assert r["witness_twist"] == [-t for t in profile]
        if r["q"] <= 4:
            assert tuple(profile) == first_violated(x, middle, r["q"], TwistMode.TOTAL_NEGATIVE)
    capsys.readouterr()
    assert run("recheck", str(path)) == 0
    assert capsys.readouterr().out == f"{path}: OK\n"
    assert elapsed < 5.0, f"certify-stability took {elapsed:.1f}s"


def test_certify_simplicity_writes_both_documents(tmp_path):
    assert run("certify-simplicity", "--family", "section3", "--copies", "1,1",
               "--k", "1", "--out-dir", str(tmp_path)) == 0
    stab = json.loads((tmp_path / "section3-dims1x3-k1.stability.json").read_text())
    simp = json.loads((tmp_path / "section3-dims1x3-k1.simplicity.json").read_text())
    assert stab["result"]["verdict"] == "stable"
    assert simp["kind"] == "simplicity-certificate"
    assert simp["result"]["verdict"] == "simple"
    assert simp["result"]["h0_endo"] == 1


def test_certify_simplicity_inconclusive_exit(tmp_path):
    code = run("certify-simplicity", "--family", "section3", "--copies", "2",
               "--k", "1", "--out-dir", str(tmp_path))
    assert code == 1
    doc = json.loads((tmp_path / "section3-dims1x1-k1.simplicity.json").read_text())
    assert doc["result"]["verdict"] == "inconclusive"
    assert doc["result"]["h0_endo"] is None


def test_cohom_prints_dimension(capsys):
    assert run("cohom", "--space", "1,3", "--degree=-2,-4", "--p", "4") == 0
    assert capsys.readouterr().out == "1\n"
    assert run("cohom", "--space", "1,3", "--degree", "1,1", "--p", "0") == 0
    assert capsys.readouterr().out == "8\n"


def test_cohom_multiplicities(capsys):
    code = run("cohom", "--space", "1", "--degree", "1", "--mult", "2", "--p", "0")
    assert code == 0
    assert capsys.readouterr().out == "4\n"
    # mult count must match degree count when given
    assert run("cohom", "--space", "1", "--degree", "1", "--degree", "2",
               "--mult", "2", "--p", "0") == 2
    assert run("cohom", "--space", "1", "--degree", "1", "--degree", "2",
               "--mult", "2", "--mult", "1", "--p", "0") == 0
    assert capsys.readouterr().out.endswith("7\n")  # 2*h0(O(1)) + h0(O(2))


def test_cohom_mult_that_is_not_an_int_names_the_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run("cohom", "--space", "1,1", "--degree", "0,0", "--mult", "x", "--p", "0")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == "monadcert cohom: error: argument --mult: invalid int value: 'x'"


def test_negative_list_values_accepted(capsys):
    # "--degree -2,0" would normally be eaten as a flag; the folding step fixes it
    assert run("cohom", "--space", "1,1", "--degree", "-2,-2", "--p", "2") == 0
    assert capsys.readouterr().out == "1\n"


def test_recheck_accepts_fresh_documents(tmp_path, capsys):
    run("certify-simplicity", "--family", "section3", "--copies", "1,1",
        "--k", "1", "--out-dir", str(tmp_path))
    files = sorted(tmp_path.glob("*.json"))
    assert len(files) == 2
    assert run("recheck", *map(str, files)) == 0


def test_recheck_flags_tampering(tmp_path):
    run("certify-stability", "--family", "section3", "--copies", "1,1",
        "--k", "1", "--out-dir", str(tmp_path))
    path = tmp_path / "section3-dims1x3-k1.stability.json"
    doc = json.loads(path.read_text())
    doc["result"]["verdict"] = "fails"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    assert run("recheck", str(path)) == 1


def _recheck_lines(*paths):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run("recheck", *map(str, paths))
    return code, out.getvalue().splitlines()


def test_recheck_names_the_first_differing_value(tmp_path):
    run("verify", "--family", "section3", "--copies", "2", "--k", "2",
        "--out-dir", str(tmp_path))
    path = tmp_path / "section3-dims1x1-k2.report.json"
    doc = json.loads(path.read_text())
    for change, where in (
        (lambda d: d["result"]["map_f"]["rank"]["ranks"].__setitem__(3, 0),
         "result.map_f.rank.ranks[3]"),
        (lambda d: d["result"]["map_g"]["rank"]["ranks"].append(1), "result.map_g.rank.ranks[20]"),
        (lambda d: d["result"]["map_g"]["rank"]["ranks"].pop(), "result.map_g.rank.ranks[19]"),
        (lambda d: d["result"].__setitem__("valid", 1), "result.valid"),
        (lambda d: d["result"].pop("notes"), "result.notes"),
        (lambda d: d["result"].__setitem__("a b", []), 'result["a b"]'),
    ):
        tampered = json.loads(json.dumps(doc))
        change(tampered)
        path.write_text(json.dumps(tampered, indent=2) + "\n")
        assert _recheck_lines(path) == (1, [f"{path}: MISMATCH at {where}"])
    # of two changed values, the one that comes first in the document
    tampered = json.loads(json.dumps(doc))
    tampered["result"]["map_g"]["rows"] = 7
    tampered["result"]["map_f"]["cols"] = 7
    path.write_text(json.dumps(tampered, indent=2) + "\n")
    assert _recheck_lines(path) == (1, [f"{path}: MISMATCH at result.map_f.cols"])


def test_recheck_names_the_first_differing_byte(tmp_path):
    run("build", "--family", "section3", "--copies", "1,1", "--out-dir", str(tmp_path))
    path = tmp_path / "section3-dims1x3-k1.build.json"
    raw = path.read_bytes()
    doc = json.loads(raw)
    reordered = {key: doc[key] for key in reversed(doc)}
    for text, offset in (
        (raw[:-1], len(raw) - 1),  # no final newline
        (raw + b" ", len(raw)),
        (json.dumps(doc, indent=1).encode(), 3),  # the same tree, indented by one
        (json.dumps(reordered, indent=2).encode(), 5),  # the same tree, keys reordered
    ):
        path.write_bytes(text)
        assert _recheck_lines(path) == (1, [f"{path}: MISMATCH at byte {offset}"])


def _recheck_output(path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run("recheck", str(path))
    return code, out.getvalue(), err.getvalue()


def test_recheck_of_documents_the_head_does_not_settle(tmp_path):
    # recheck regenerates a document from the part before its result; each of
    # these is then read whole, and prints what a whole read alone prints
    run("verify", "--family", "section3", "--copies", "2", "--k", "1", "--out-dir", str(tmp_path))
    path = tmp_path / "section3-dims1x1-k1.report.json"
    raw = path.read_bytes()
    doc = json.loads(raw)
    cut = raw.index(b'"result": ') + 40

    def parse_error(text):
        try:
            json.loads(text)
        except json.JSONDecodeError as exc:
            return f"error: {path}:{exc.lineno}:{exc.colno}: {exc.msg}\n"
        raise AssertionError("parsed")

    last_line = len(raw.splitlines()) + 1
    other_instance = json.loads(raw)
    other_instance["instance"]["k"] = 2
    cases = (
        # bytes after the final newline
        (raw + b"[]\n", (2, "", f"error: {path}:{last_line}:1: Extra data\n")),
        # cut off inside the result
        (raw[:cut], (2, "", parse_error(raw[:cut]))),
        # a valid head naming another valid instance
        (json.dumps(other_instance, indent=2).encode() + b"\n",
         (1, f"{path}: MISMATCH at result.instance_id\n", "")),
        # no line '  "result": ' at all
        (json.dumps(doc, indent=4).encode() + b"\n", (1, f"{path}: MISMATCH at byte 4\n", "")),
        # a list holding the document
        (json.dumps([doc], indent=2).encode(), (2, "", f"error: {path}: top level must be an object\n")),
    )
    for text, expected in cases:
        path.write_bytes(text)
        assert _recheck_output(path) == expected, text[:80]
    path.write_bytes(raw)
    assert _recheck_output(path) == (0, f"{path}: OK\n", "")


def test_recheck_of_a_name_holding_the_result_line(tmp_path, monkeypatch):
    # a string's newline and quotes are escaped, so its text never reads as
    # the result line, and its document is settled from the head alone; the
    # instance id keeps only the name's letters and digits, and a coordinate
    # letter carries the text into the document as given
    text = 'x\n  "result": {}, "kind": "monad-report"'
    spec = dict(COUNTEREXAMPLE, name=text, letters=[text, "y"])
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert run("build", "--family", "custom", "--spec-file", str(spec_path),
                   "--out-dir", str(out)) == 0
    (written,) = out.iterdir()
    path = written.rename(tmp_path / "named.json")
    assert b'\\n  \\"result\\": {}' in path.read_bytes()
    reads = []
    original = cli._read_json_object
    monkeypatch.setattr(cli, "_read_json_object", lambda p: reads.append(p) or original(p))
    assert _recheck_output(path) == (0, f"{path}: OK\n", "")
    assert reads == []


def test_recheck_shares_a_build_only_within_one_instance(tmp_path, monkeypatch):
    # four documents of each of two instances, rechecked in interleaved and in
    # sorted order, with two tampered documents each beside a fresh one of the
    # same instance: one names another k, one has a result value changed
    for copies in ("2", "1,1"):
        for command in ("build", "verify", "certify-simplicity"):
            run(command, "--family", "section3", "--copies", copies, "--k", "1",
                "--out-dir", str(tmp_path))
    fresh = sorted(tmp_path.iterdir())
    assert len(fresh) == 8
    other_k = json.loads((tmp_path / "section3-dims1x3-k1.stability.json").read_text())
    other_k["instance"]["k"] = 2
    changed = json.loads((tmp_path / "section3-dims1x1-k1.report.json").read_text())
    changed["result"]["map_f"]["rows"] += 1
    tampered = []
    for name, doc in (("a-other-k.json", other_k), ("a-changed.json", changed)):
        tampered.append(tmp_path / name)
        tampered[-1].write_text(json.dumps(doc, indent=2) + "\n")
    alone = {path: _recheck_lines(path) for path in fresh + tampered}
    assert [alone[p][0] for p in tampered] == [1, 1]
    assert {alone[p][0] for p in fresh} == {0}
    builds = []
    original = cli.build_section3
    monkeypatch.setattr(cli, "build_section3", lambda *a: builds.append(a) or original(*a))
    x1x3 = [p for p in fresh if "dims1x3" in p.name]
    x1x1 = [p for p in fresh if "dims1x1-" in p.name]
    orders = (
        [p for pair in zip(x1x1, x1x3) for p in pair],
        x1x1[:2] + [tampered[1]] + x1x1[2:] + x1x3[:3] + [tampered[0]] + x1x3[3:],
        fresh,
    )
    for order, count in zip(orders, (8, 4, 2)):
        builds.clear()
        code, lines = _recheck_lines(*order)
        assert lines == [line for p in order for line in alone[p][1]]
        assert code == max(alone[p][0] for p in order)
        assert len(builds) == count


def test_recheck_builds_a_custom_instance_once(tmp_path, monkeypatch):
    # the simplicity and stability documents of one custom run share a build and
    # its stability certificate; a document with a tampered term is its own instance
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"name": "O11", "factors": [1, 1], "terms": {
        "a": [[[-1, -1], 1]], "m": [[[0, 0], 4]], "c": [[[1, 1], 1]]}}))
    assert run("certify-simplicity", "--family", "custom", "--spec-file", str(spec),
               "--out-dir", str(tmp_path)) == 1  # stable, simplicity inconclusive
    simplicity, stability = (tmp_path / f"custom-o11.{kind}.json"
                             for kind in ("simplicity", "stability"))
    doc = json.loads(stability.read_text())
    doc["instance"]["terms"]["m"] = [[[0, 0], 5]]
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc, indent=2) + "\n")
    calls = Counter()
    for name in ("_custom_from_block", "stability_certificate"):
        def counted(*args, _call=getattr(cli, name), _name=name, **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    assert _recheck_lines(simplicity, stability) == (0, [f"{simplicity}: OK", f"{stability}: OK"])
    assert calls == {"_custom_from_block": 1, "stability_certificate": 1}
    assert _recheck_lines(tampered, stability) == (
        1, [f"{tampered}: MISMATCH at result.rank_t", f"{stability}: OK"]
    )
    # a block equal in Python (true == 1) but not in JSON is built, and refused
    doc = json.loads(stability.read_text())
    doc["instance"]["factors"] = [1, True]
    tampered.write_text(json.dumps(doc, indent=2) + "\n")
    assert _recheck_lines(stability, tampered) == (2, [f"{stability}: OK"])


# an instance of each built family, and its spec
LAZY_INSTANCES = {
    "section3": (("--family", "section3", "--copies", "1,1", "--k", "2"),
                 lambda: monad.build_section3(ProductSpace((1, 3)), 2)),
    "section4": (("--family", "section4", "--n", "2", "--k", "2"),
                 lambda: monad.build_section4(2, 1, 1, 1, 1, 1, 2)),
}


@pytest.mark.parametrize("family", LAZY_INSTANCES)
def test_commands_lay_out_only_what_they_read(tmp_path, monkeypatch, family):
    # the maps and witnesses each command makes; the certificates read the terms alone
    instance, build = LAZY_INSTANCES[family]
    witnesses = len(build().witnesses)
    made = Counter()
    for name in ("MonadMatrix", "TriangularWitness"):
        def counted(*args, _cls=getattr(monad, name), _name=name):
            made[_name] += 1
            return _cls(*args)

        monkeypatch.setattr(monad, name, counted)

    def made_by(*argv):
        made.clear()
        assert run(*argv) == 0, argv
        return made["MonadMatrix"], made["TriangularWitness"]

    out = str(tmp_path)
    assert made_by("certify-stability", *instance, "--out-dir", out) == (0, 0)
    assert made_by("certify-simplicity", *instance, "--out-dir", out) == (0, 0)
    assert made_by("build", *instance, "--out-dir", out) == (2, 0)
    assert made_by("verify", *instance, "--out-dir", out) == (2, witnesses)
    docs = sorted(map(str, tmp_path.iterdir()))
    assert [doc.split(".")[-2] for doc in docs] == ["build", "report", "simplicity", "stability"]
    assert made_by("recheck", *docs[2:]) == (0, 0)
    # the four documents share one build, which lays out its maps once
    assert made_by("recheck", *docs) == (2, witnesses)


def _no_layout(*args, **kwargs):
    raise AssertionError("a map or witness was laid out")


def test_wrong_length_polarization_exits_2_before_any_map(tmp_path, capsys, monkeypatch):
    instance = ("--family", "section3", "--copies", "8", "--k", "3")
    monkeypatch.setattr(monad, "_ladder_maps", _no_layout)
    monkeypatch.setattr(monad, "_staircases", _no_layout)
    assert run("certify-stability", *instance, "--out-dir", str(tmp_path)) in (0, 1)
    (doc_path,) = tmp_path.iterdir()
    doc = json.loads(doc_path.read_text())
    doc["instance"]["polarization"] = [1, 1]
    doc_path.write_text(json.dumps(doc, indent=2) + "\n")
    for argv in (
        ("certify-stability", *instance, "--polarization", "1,1", "--out-dir", str(tmp_path / "out")),
        ("certify-simplicity", *instance, "--polarization", "1,1", "--out-dir", str(tmp_path / "out")),
        ("recheck", str(doc_path)),
    ):
        capsys.readouterr()
        assert run(*argv) == 2, argv
        assert capsys.readouterr().err == "error: multidegree (1, 1) has length 2, expected 8\n"
    assert not (tmp_path / "out").exists()


def test_documents_are_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        out.mkdir()
        run("certify-simplicity", "--family", "section4", "--n", "1", "--m", "1",
            "--l", "1", "--alpha", "1", "--beta", "1", "--gamma", "1", "--k", "1",
            "--out-dir", str(out))
    name = "section4-n1-m1-l1-alpha1-beta1-gamma1-k1.simplicity.json"
    assert (a / name).read_bytes() == (b / name).read_bytes()


def test_out_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("MONADCERT_OUT", str(tmp_path))
    assert run("build", "--family", "section3", "--copies", "1,1", "--k", "1") == 0
    assert (tmp_path / "section3-dims1x3-k1.build.json").exists()


def test_unusable_out_dir_exits_2(tmp_path, monkeypatch, capsys):
    # a file, or a path below one, as --out-dir or $MONADCERT_OUT: exit 2, one line
    blocker = tmp_path / "file"
    blocker.write_text("")
    # a directory where the document would go
    taken = tmp_path / "taken"
    (taken / "section3-dims1x1-k1.build.json").mkdir(parents=True)
    instance = ("build", "--family", "section3", "--copies", "2", "--k", "1")
    cases = [
        (blocker, "output directory", "File exists"),
        (blocker / "sub", "output directory", "Not a directory"),
        (taken, "cannot write", "Is a directory"),
    ]
    for where, what, why in cases:
        for via_env in (False, True):
            if via_env:
                monkeypatch.setenv("MONADCERT_OUT", str(where))
                argv = instance
            else:
                monkeypatch.delenv("MONADCERT_OUT", raising=False)
                argv = (*instance, "--out-dir", str(where))
            capsys.readouterr()
            assert run(*argv) == 2, (where, via_env)
            captured = capsys.readouterr()
            assert captured.out == ""
            err = captured.err
            assert err.startswith(f"error: {what} {where}") and err.count("\n") == 1, err
            assert err.endswith(f": {why}\n"), err
    assert blocker.read_text() == ""
    assert [p.name for p in taken.iterdir()] == ["section3-dims1x1-k1.build.json"]


def test_unusable_out_dir_is_refused_before_the_build(tmp_path, monkeypatch, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setattr(cli, "_build_family", _no_build)
    instance = ("--family", "section3", "--copies", "8", "--k", "3")
    with pytest.raises(AssertionError):  # the patch reaches the build
        run("verify", *instance, "--out-dir", str(tmp_path / "usable"))
    for command in ("verify", "certify-simplicity"):
        for where, why in ((blocker, "File exists"), (blocker / "sub" / "dir", "Not a directory")):
            for via_env in (False, True):
                if via_env:
                    monkeypatch.setenv("MONADCERT_OUT", str(where))
                    argv = (command, *instance)
                else:
                    monkeypatch.delenv("MONADCERT_OUT", raising=False)
                    argv = (command, *instance, "--out-dir", str(where))
                capsys.readouterr()
                assert run(*argv) == 2, argv
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err == f"error: output directory {where}: {why}\n", argv
    assert blocker.read_text() == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


def test_custom_spec_with_embedded_maps(tmp_path):
    # a tiny genuine monad supplied entirely through the spec file
    spec = {
        "name": "inline maps",
        "factors": [1],
        "letters": ["x"],
        "terms": {
            "a": [[[-1], 1]],
            "m": [[[0], 2]],
            "c": [[[1], 1]],
        },
        "maps": {
            "g": {
                "entries": [[[[1, [1, 0]]], [[1, [0, 1]]]]],
                "row_labels": [[1]],
                "col_labels": [[0], [0]],
            },
            "f": {
                "entries": [[[[-1, [0, 1]]]], [[[1, [1, 0]]]]],
                "row_labels": [[0], [0]],
                "col_labels": [[-1]],
            },
        },
        "polarization": [1],
    }
    p = tmp_path / "inline.json"
    p.write_text(json.dumps(spec))
    code = run("verify", "--family", "custom", "--spec-file", str(p),
               "--out-dir", str(tmp_path))
    # composite checks out, but with no witness families the everywhere-rank
    # claim stays uncovered, so the overall verdict is honestly negative
    assert code == 1
    doc = json.loads((tmp_path / "custom-inline-maps.report.json").read_text())
    assert doc["result"]["composite_zero"] is True
    assert doc["result"]["valid"] is False
    assert doc["result"]["map_g"]["rank"]["max_rank_seen"] == 1


def test_error_exits(tmp_path):
    # missing required parameter for the family
    assert run("build", "--family", "section3", "--k", "1",
               "--out-dir", str(tmp_path)) == 2
    # unusable geometry
    assert run("build", "--family", "section3", "--copies", "1", "--k", "1",
               "--out-dir", str(tmp_path)) == 2
    # malformed JSON reports a position instead of crashing
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert run("verify", "--family", "custom", "--spec-file", str(bad),
               "--out-dir", str(tmp_path)) == 2
    # missing file
    assert run("verify", "--family", "custom", "--spec-file",
               str(tmp_path / "absent.json"), "--out-dir", str(tmp_path)) == 2


def _no_build(*args, **kwargs):
    raise AssertionError("the instance was built before its values were checked")


def test_rank_check_parameters_out_of_range_exit_2(tmp_path, capsys, monkeypatch):
    # strong pseudoprimes to the bases 2..37 and 2..41, and too many trials
    cases = (("prime", 318665857834031151167461), ("prime", 3317044064679887385961981),
             ("trials", 1001))
    instance = ("--family", "section3", "--copies", "2", "--k", "1")
    assert run("verify", *instance, "--out-dir", str(tmp_path)) == 0
    (doc_path,) = tmp_path.iterdir()
    # refused from the values alone, before the instance is built
    monkeypatch.setattr(cli, "build_section3", _no_build)
    for key, value in cases:
        capsys.readouterr()
        assert run("verify", *instance, f"--{key}", str(value),
                   "--out-dir", str(tmp_path / "out")) == 2
        verify_err = capsys.readouterr().err
        doc = json.loads(doc_path.read_text())
        doc["instance"][key] = value
        path = tmp_path / f"{key}-{value}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        assert run("recheck", str(path)) == 2
        recheck_err = capsys.readouterr().err
        for err in verify_err, recheck_err:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert str(value) in err
    assert not (tmp_path / "out").exists()


def test_spec_file_with_non_object_terms_or_maps(tmp_path, capsys):
    for key, value in (("terms", [[[0, 0], 1]]), ("maps", [1, 2])):
        spec = dict(COUNTEREXAMPLE, **{key: value})
        p = tmp_path / f"{key}.json"
        p.write_text(json.dumps(spec))
        code = run("certify-stability", "--family", "custom", "--spec-file", str(p),
                   "--out-dir", str(tmp_path))
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"'{key}' must be an object" in err


def test_spec_file_and_document_read_errors_name_the_file(tmp_path, capsys):
    # one reader: the same message from a spec file and from a recheck
    cases = (
        (b"\xff{}", ": 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (b'{\n  "name": }', ":2:11: Expecting value"),
    )
    for i, (data, why) in enumerate(cases):
        p = tmp_path / f"bad{i}.json"
        p.write_bytes(data)
        for argv in (
            ("build", "--family", "custom", "--spec-file", str(p), "--out-dir", str(tmp_path)),
            ("recheck", str(p)),
        ):
            capsys.readouterr()
            assert run(*argv) == 2, argv
            assert capsys.readouterr().err == f"error: {p}{why}\n", argv


DEEP = 100_000  # nesting past any recursion limit of the json decoder


def test_spec_file_nested_too_deeply_exits_2(tmp_path, capsys):
    p = tmp_path / "deep.json"
    rest = json.dumps({key: v for key, v in COUNTEREXAMPLE.items() if key != "terms"})
    p.write_text(rest[:-1] + ', "terms": ' + "[" * DEEP + "]" * DEEP + "}")
    code = run("build", "--family", "custom", "--spec-file", str(p), "--out-dir", str(tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: {p}: JSON nested too deeply\n"


def test_recheck_of_json_nested_too_deeply_exits_2(tmp_path, capsys):
    p = tmp_path / "deep.json"
    p.write_text("[" * DEEP + "]" * DEEP)
    assert run("recheck", str(p)) == 2
    assert capsys.readouterr().err == f"error: {p}: JSON nested too deeply\n"


def test_spec_file_with_malformed_groups_or_letters(tmp_path, capsys):
    cases = (
        ("groups", 5, "'groups' must be a list of [name, [factor indices]] pairs"),
        ("groups", [["a"]], "'groups' must be a list of [name, [factor indices]] pairs"),
        # an empty group's sum is always 0: the per-group family would be
        # empty and this failing kernel a vacuous "stable"
        ("groups", [["g", [0, 1]], ["h", []]], "group 'h' has no factor indices"),
        ("letters", 5, "'letters' must be a list of strings"),
    )
    for i, (key, value, message) in enumerate(cases):
        p = tmp_path / f"bad{i}.json"
        p.write_text(json.dumps(dict(COUNTEREXAMPLE, **{key: value})))
        code = run("certify-stability", "--family", "custom", "--spec-file", str(p),
                   "--out-dir", str(tmp_path))
        assert code == 2
        assert capsys.readouterr().err == f"error: {p}: {message}\n"


def test_spec_file_with_malformed_monomials(tmp_path, capsys):
    g = {"entries": [[[[1, [1, 0]]], [[1, [0, 1]]]]],
         "row_labels": [[1]], "col_labels": [[0], [0]]}
    spec = {"name": "bad monomial", "factors": [1], "letters": ["x"],
            "terms": {"a": [], "m": [[[0], 2]], "c": [[[1], 1]]}}
    for i, mono in enumerate(([1.5, 0], [1, 0, 0], [-1, 1], "x0")):
        entries = [[[[1, mono]], [[1, [0, 1]]]]]
        p = tmp_path / f"mono{i}.json"
        p.write_text(json.dumps(dict(spec, maps={"g": dict(g, entries=entries)})))
        code = run("verify", "--family", "custom", "--spec-file", str(p),
                   "--out-dir", str(tmp_path))
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "is not 2 nonnegative integers" in err


SPEC_COMMANDS = ("build", "verify", "certify-stability", "certify-simplicity")
TERMS = COUNTEREXAMPLE["terms"]
G_BLOCK = {
    "entries": [[[[1, [1, 0, 1, 0]]], [], [], []]],
    "row_labels": [[1, 1]],
    "col_labels": [[-2, -2], [-2, -2], [0, 0], [1, 1]],
}
MALFORMED_KEYS = (
    ("name", 5),
    ("name", "!!"),
    ("factors", [1.5, 1]),
    ("factors", [True, 1]),
    ("factors", "11"),
    ("factors", [0, 1]),
    ("factors", [1]),
    ("terms", dict(TERMS, a=[[[-1, -1], 1.5]])),
    ("terms", dict(TERMS, a=[[[-1], 1]])),
    ("terms", dict(TERMS, m=[[[1, 1], 0]])),
    ("terms", dict(TERMS, c=5)),
    ("polarization", 5),
    ("polarization", [0, 1]),
    ("polarization", ["a", 1]),
    ("polarization", [1]),
    ("polarization", []),
    ("groups", [[5, [0, 1]]]),
    ("groups", [["a", [0.0, 1]]]),
    ("groups", [["a", [0]]]),
    ("letters", ["a"]),
    ("constraint", "bogus"),
    ("constraint", 5),
    ("maps", []),
    ("maps", {"f": 5}),
    ("maps", {"g": {}}),
    ("maps", {"g": dict(G_BLOCK, entries=[[[[1.5, [1, 0, 1, 0]]], [], [], []]])}),
    ("maps", {"g": dict(G_BLOCK, row_labels=[[1.5, 1]])}),
    ("maps", {"g": dict(G_BLOCK, entries=[[[[1, [1, 0, 1, 0]], [2, [1, 0, 1, 0]]], [], [], []]])}),
)


def assert_refused(command, key, value):
    # exit 2, one line on stderr, no document written
    with tempfile.TemporaryDirectory() as out:
        spec = Path(out) / "spec.json"
        spec.write_text(json.dumps(dict(COUNTEREXAMPLE, **{key: value})))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run(command, "--family", "custom", "--spec-file", str(spec),
                       "--out-dir", out)
        assert code == 2, (command, key, value)
        assert err.getvalue().startswith(f"error: {spec}: "), err.getvalue()
        assert err.getvalue().count("\n") == 1 and "Traceback" not in err.getvalue()
        assert list(Path(out).iterdir()) == [spec]


def test_spec_file_with_malformed_keys():
    # the unmutated spec is accepted; each single-key mutation is refused
    with tempfile.TemporaryDirectory() as out:
        spec = Path(out) / "spec.json"
        spec.write_text(json.dumps(dict(COUNTEREXAMPLE, maps={"g": G_BLOCK})))
        assert run("build", "--family", "custom", "--spec-file", str(spec),
                   "--out-dir", out) == 0
    for command in SPEC_COMMANDS:
        for key, value in MALFORMED_KEYS:
            assert_refused(command, key, value)


_SCALARS = st.one_of(
    st.integers(-3, 3),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.text(max_size=4),
)
_NON_INTS = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.booleans(), st.text())
# for each key, JSON values of a kind the key never accepts
_WRONG = {
    "name": st.one_of(
        st.integers(), st.booleans(), st.lists(st.integers(), max_size=2),
        st.text(alphabet="-_ .!", max_size=4),
    ),
    "factors": st.one_of(_SCALARS, st.lists(_NON_INTS, min_size=1, max_size=2)),
    "polarization": st.one_of(
        _SCALARS,
        st.lists(_NON_INTS, min_size=1, max_size=2),
        st.lists(st.integers(-3, 3), max_size=3).filter(
            lambda v: len(v) != 2 or min(v) < 1
        ),
    ),
    "groups": st.one_of(_SCALARS, st.lists(_SCALARS, min_size=1, max_size=2)),
    "letters": st.one_of(_SCALARS, st.lists(st.integers(), min_size=1, max_size=2)),
    "terms": st.one_of(_SCALARS, st.lists(st.integers(), max_size=2)),
    "maps": st.one_of(_SCALARS, st.lists(st.integers(), max_size=2)),
    "constraint": st.one_of(
        st.integers(),
        st.text(max_size=20).filter(lambda v: v not in ("per-group-negative", "total-negative")),
        st.lists(st.text(max_size=3), max_size=2),
    ),
}


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(SPEC_COMMANDS),
    mutation=st.sampled_from(sorted(_WRONG)).flatmap(
        lambda key: _WRONG[key].map(lambda value: (key, value))
    ),
)
def test_spec_file_with_wrong_typed_keys(command, mutation):
    assert_refused(command, *mutation)


def test_recheck_document_missing_instance_keys(tmp_path, capsys):
    run("verify", "--family", "section3", "--copies", "2", "--k", "1",
        "--out-dir", str(tmp_path))
    run("certify-stability", "--family", "section3", "--copies", "2", "--k", "1",
        "--out-dir", str(tmp_path))
    cases = [("section3-dims1x1-k1.report.json", key) for key in ("prime", "trials", "seed")]
    cases += [("section3-dims1x1-k1.stability.json", key)
              for key in ("polarization", "constraint")]
    for name, key in cases:
        doc = json.loads((tmp_path / name).read_text())
        del doc["instance"][key]
        path = tmp_path / f"no-{key}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        capsys.readouterr()
        assert run("recheck", str(path)) == 2
        err = capsys.readouterr().err
        assert err == f"error: instance block has no '{key}'\n"


def test_selftest_passes(capsys):
    assert run("selftest") == 0
    out = capsys.readouterr().out
    assert "monad-validity: pass" in out
    assert "rank-evidence-vs-entries: pass" in out


# a child process finds the package in the source tree, installed or not
CHILD_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))


def test_console_script_version():
    proc = subprocess.run(
        [sys.executable, "-m", "monadcert.cli", "--version"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "monadcert 0.1.0"


START_UP_PROBE = """
import sys
import monadcert.cli as cli
assert "monadcert.oracles" not in sys.modules, "oracles loaded on import"
assert cli._template.cache_info().currsize == 0, "templates made on import"
assert cli.main(["verify", "--family", "section3", "--copies", "2", "--k", "1",
                 "--out-dir", sys.argv[1]]) == 0
assert "monadcert.oracles" not in sys.modules, "oracles loaded by verify"
assert cli._template.cache_info().currsize > 0, "no template used for the witnesses"
"""


def test_start_up_loads_no_oracles_and_makes_no_templates(tmp_path):
    # every benchmark child imports the CLI, so what the import loads is start-up time
    proc = subprocess.run(
        [sys.executable, "-c", START_UP_PROBE, str(tmp_path)],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(list(tmp_path.iterdir())) == 1


def test_recheck_document_wrong_typed_instance_values(tmp_path, capsys):
    run("verify", "--family", "section3", "--copies", "2", "--k", "1",
        "--out-dir", str(tmp_path))
    run("certify-stability", "--family", "section3", "--copies", "2", "--k", "1",
        "--out-dir", str(tmp_path))
    report = "section3-dims1x1-k1.report.json"
    stability = "section3-dims1x1-k1.stability.json"
    cases = [
        (report, "prime", "abc", "an integer"),
        (report, "trials", "x", "an integer"),
        (report, "trials", 2.5, "an integer"),
        (report, "seed", True, "an integer"),
        (stability, "polarization", 5, "a list of integers"),
        (stability, "polarization", [1, "1"], "a list of integers"),
        (stability, "constraint", ["total-negative"],
         "one of per-group-negative, total-negative"),
    ]
    for name, key, value, expected in cases:
        doc = json.loads((tmp_path / name).read_text())
        doc["instance"][key] = value
        path = tmp_path / f"bad-{key}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        capsys.readouterr()
        assert run("recheck", str(path)) == 2
        err = capsys.readouterr().err
        assert err == f"error: instance {key!r} must be {expected}, got {value!r}\n"


def test_main_calls_in_one_process_are_independent(tmp_path, capsys):
    # the parser is built once per process; no value of one call reaches the next
    assert run("verify", "--family", "section3", "--copies", "2", "--k", "1",
               "--prime", "1048583", "--seed", "5", "--trials", "3",
               "--out-dir", str(tmp_path / "a")) == 0
    assert run("verify", "--family", "section3", "--copies", "2", "--k", "1",
               "--out-dir", str(tmp_path / "b")) == 0
    inst = json.loads((tmp_path / "b" / "section3-dims1x1-k1.report.json").read_text())["instance"]
    assert (inst["prime"], inst["trials"], inst["seed"]) == (2147483629, 20, 0)
    # a flag of one subcommand is refused by another, after reuse too
    for _ in range(2):
        try:
            run("build", "--family", "section3", "--copies", "2", "--seed", "1",
                "--out-dir", str(tmp_path))
        except SystemExit as exc:
            assert exc.code == 2
        else:
            raise AssertionError("--seed accepted by build")
    assert run("build", "--family", "section3", "--copies", "1,1",
               "--out-dir", str(tmp_path / "c")) == 0
    doc = json.loads((tmp_path / "c" / "section3-dims1x3-k1.build.json").read_text())
    assert doc["instance"] == {"family": "section3", "dims": [1, 3], "k": 1}
    assert run("certify-stability", "--family", "section3", "--copies", "2", "--k", "2",
               "--constraint", "total-negative", "--out-dir", str(tmp_path / "d")) in (0, 1)
    assert run("certify-stability", "--family", "section3", "--copies", "2", "--k", "2",
               "--out-dir", str(tmp_path / "e")) in (0, 1)
    inst = json.loads((tmp_path / "e" / "section3-dims1x1-k2.stability.json").read_text())["instance"]
    assert inst["constraint"] == "per-group-negative"
    capsys.readouterr()
    assert run("build", "--family", "section3", "--k", "1", "--out-dir", str(tmp_path)) == 2
    assert capsys.readouterr().err == "error: --copies is required for family section3\n"


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _benchmark_workloads():
    # loaded from its file and not changed; its dataclass needs the module registered
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def test_documents_match_pinned_digests(tmp_path):
    # every benchmark job at seed 0 (the CLI's default), run once: its exit code
    # and the SHA-256 of each document it writes, as perfbench/expected.json
    # records them, so a change of any result or of serialization shows here
    expected = json.loads((PERFBENCH / "expected.json").read_text())
    assert expected["seed"] == 0
    workloads = _benchmark_workloads()
    assert sorted(workloads) == sorted(k for k in expected if k != "seed")
    for name, make_jobs in workloads.items():
        jobs = make_jobs(0)
        want = expected[name]["jobs"]
        assert sorted(job.key for job in jobs) == sorted(want), name
        for i, job in enumerate(jobs):
            out = tmp_path / name / str(i)
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(job.argv(str(out)))
            assert code == want[job.key]["exit"], job.key
            got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
            assert got == want[job.key]["docs"], job.key


def test_recheck_reads_every_benchmark_document_ok(tmp_path, monkeypatch):
    # one recheck over all the documents of each workload's seed-0 pass, as the
    # benchmark runs it, prints OK for each, from each document's head alone:
    # a writer that put the result before the instance would read them whole
    reads = []
    original = cli._read_json_object
    monkeypatch.setattr(cli, "_read_json_object", lambda path: reads.append(path) or original(path))
    for name, make_jobs in _benchmark_workloads().items():
        out = tmp_path / name
        with contextlib.redirect_stdout(io.StringIO()):
            for job in make_jobs(0):
                main(job.argv(str(out)))
        paths = sorted(out.iterdir())
        reads.clear()
        code, lines = _recheck_lines(*paths)
        assert lines == [f"{path}: OK" for path in paths], name
        assert code == 0
        assert reads == [], name
    # a tampered document is read whole once, to name its difference
    doc = json.loads(paths[0].read_text())
    doc["instance"]["k"] += 1
    paths[0].write_text(json.dumps(doc, indent=2) + "\n")
    code, lines = _recheck_lines(*paths)
    assert code == 1
    assert lines[0].startswith(f"{paths[0]}: MISMATCH at ")
    assert lines[1:] == [f"{path}: OK" for path in paths[1:]]
    assert reads == [paths[0]]


SECTION_DOCS = (
    (("build", "--family", "section3", "--copies", "2", "--k", "1"),
     "section3-dims1x1-k1.build.json"),
    (("build", "--family", "section4", "--n", "1", "--m", "1", "--l", "1",
      "--alpha", "1", "--beta", "1", "--gamma", "1", "--k", "1"),
     "section4-n1-m1-l1-alpha1-beta1-gamma1-k1.build.json"),
)


def assert_instance_refused(doc, key, value, expected):
    # recheck of a document with one instance value changed: exit 2, one line
    with tempfile.TemporaryDirectory() as out:
        tampered = json.loads(json.dumps(doc))
        tampered["instance"][key] = value
        path = Path(out) / "tampered.json"
        path.write_text(json.dumps(tampered, indent=2) + "\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run("recheck", str(path))
        assert code == 2, (key, value)
        assert err.getvalue() == (
            f"error: instance {key!r} must be {expected}, got {value!r}\n"
        ), err.getvalue()


def _section_doc(tmp_path, i):
    argv, name = SECTION_DOCS[i]
    run(*argv, "--out-dir", str(tmp_path))
    return json.loads((tmp_path / name).read_text())


def test_recheck_refuses_tampered_section_instances(tmp_path, capsys):
    s3, s4 = _section_doc(tmp_path, 0), _section_doc(tmp_path, 1)
    for doc in s3, s4:
        path = tmp_path / "fresh.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        assert run("recheck", str(path)) == 0
    for key, value in (("k", "1"), ("k", 1.0), ("k", True), ("dims", [1.0, 1]),
                       ("dims", [1, "1"]), ("dims", "11")):
        expected = "a list of integers" if key == "dims" else "an integer"
        assert_instance_refused(s3, key, value, expected)
    for key in ("n", "m", "l", "alpha", "beta", "gamma", "k"):
        for value in ("1", 1.0, False, [1]):
            assert_instance_refused(s4, key, value, "an integer")
    # a value of the right type that build_section3/4 refuse: still one line
    for doc, key, value in ((s3, "dims", [2, 1]), (s3, "k", 0), (s4, "alpha", 0)):
        tampered = json.loads(json.dumps(doc))
        tampered["instance"][key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(tampered, indent=2) + "\n")
        capsys.readouterr()
        assert run("recheck", str(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad {doc['instance']['family']} parameters: ")
        assert err.count("\n") == 1


def test_recheck_unknown_kind_or_family_of_any_json_type(tmp_path, capsys):
    # a list or an object is refused by name like an unknown string
    doc = _section_doc(tmp_path, 0)
    for key, value, what in (
        ("kind", ["monad-build"], "document kind"),
        ("family", ["section3"], "family"),
        ("family", {"section3": 1}, "family"),
    ):
        tampered = json.loads(json.dumps(doc))
        (tampered if key == "kind" else tampered["instance"])[key] = value
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(tampered, indent=2) + "\n")
        capsys.readouterr()
        assert run("recheck", str(path)) == 2
        assert capsys.readouterr().err == f"error: unknown {what} {value!r}\n"


_INSTANCE_NON_INTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.booleans(), st.text(max_size=4),
    st.none(), st.lists(st.integers(-3, 3), max_size=2),
)


@settings(max_examples=100, deadline=None)
@given(
    which=st.sampled_from((0, 1)),
    data=st.data(),
)
def test_recheck_wrong_typed_section_instance_values(tmp_path_factory, which, data):
    doc = _section_doc(tmp_path_factory.mktemp("doc"), which)
    keys = sorted(k for k in doc["instance"] if k != "family")
    key = data.draw(st.sampled_from(keys))
    if key == "dims":
        value = data.draw(st.one_of(
            _INSTANCE_NON_INTS.filter(lambda v: not isinstance(v, list)),
            st.lists(_INSTANCE_NON_INTS.filter(lambda v: not isinstance(v, list)),
                     min_size=1, max_size=3),
        ))
        assert_instance_refused(doc, key, value, "a list of integers")
    else:
        assert_instance_refused(doc, key, data.draw(_INSTANCE_NON_INTS), "an integer")


def test_custom_spec_letters_without_maps(tmp_path, capsys):
    spec = dict(COUNTEREXAMPLE, letters=["x", "y"])
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    for command in ("build", "certify-stability"):
        assert run(command, "--family", "custom", "--spec-file", str(path),
                   "--out-dir", str(tmp_path)) in (0, 1)
    for name in ("build", "stability"):
        doc_path = tmp_path / f"custom-o11-counterexample.{name}.json"
        assert json.loads(doc_path.read_text())["instance"]["letters"] == ["x", "y"]
        capsys.readouterr()
        assert run("recheck", str(doc_path)) == 0


# instances just past the build budget (monad.BUILD_BUDGET = 200000, cells x degree
# plus monomials x variables): (P^1)^2 k=158 has 2*158*318 cells of degree 2, one k
# more than fits; section4 with alpha 8322 has 24 cells of degree 8322; P^1 x P^313
# has 628 Segre monomials in 316 variables, section4 with n = 153 has 632 in 316;
# 11 copies of P^1 and 2 of P^9 have 204800 Segre coordinates
OVER_BUDGET = (
    ("--family", "section3", "--copies", "2", "--k", "158"),
    ("--family", "section3", "--copies", "1," + "0," * 155 + "1"),
    ("--family", "section3", "--copies", "11,0,0,0,2"),
    ("--family", "section4", "--alpha", "8322"),
    ("--family", "section4", "--n", "153"),
)


def test_over_budget_sizes_exit_2(tmp_path, capsys):
    for command in ("build", "verify", "certify-stability", "certify-simplicity"):
        for args in OVER_BUDGET:
            capsys.readouterr()
            assert run(command, *args, "--out-dir", str(tmp_path)) == 2, (command, args)
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert "over the build budget" in err
    assert not list(tmp_path.iterdir())
    # the same budget holds for an instance block rebuilt by recheck
    s3, s4 = _section_doc(tmp_path, 0), _section_doc(tmp_path, 1)
    for doc, key, value in (
        (s3, "k", 158),
        (s3, "dims", [1, 313]),
        (s3, "dims", [1] * 11 + [9, 9]),
        (s4, "alpha", 8322),
        (s4, "n", 153),
    ):
        tampered = json.loads(json.dumps(doc))
        tampered["instance"][key] = value
        path = tmp_path / "big.json"
        path.write_text(json.dumps(tampered, indent=2) + "\n")
        capsys.readouterr()
        assert run("recheck", str(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad {doc['instance']['family']} parameters: ")
        assert "over the build budget" in err and err.count("\n") == 1


# custom specs just past the same budget, charged as the cells of f and g, plus
# the term ranks times the factor count, plus the ring's variable count: 200001
# variables; 199999 middle summands on P^1 (plus 2 variables); 99999 cells of f
# with 100000 summands in all
OVER_BUDGET_CUSTOM = (
    {"factors": [200000], "terms": {}},
    {"factors": [1], "terms": {"m": [[[0], 199999]]}},
    {"factors": [1], "terms": {"a": [[[-1], 1]], "m": [[[0], 99999]]}},
)


def _no_ring(*args, **kwargs):
    raise AssertionError("the ring was built before the budget check")


def test_custom_specs_over_budget_exit_2(tmp_path, capsys, monkeypatch):
    # recheck rebuilds a custom instance block by the same path as a spec file
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(COUNTEREXAMPLE))
    assert run("build", "--family", "custom", "--spec-file", str(path),
               "--out-dir", str(tmp_path / "doc")) == 0
    (doc_path,) = (tmp_path / "doc").iterdir()
    doc = json.loads(doc_path.read_text())
    # refused from the parameters alone, before the ring or a map is built
    monkeypatch.setattr(cli, "CoordinateRing", _no_ring)
    for spec in OVER_BUDGET_CUSTOM:
        spec = dict(spec, name="big")
        path.write_text(json.dumps(spec))
        doc["instance"] = dict(spec, family="custom")
        doc_path.write_text(json.dumps(doc, indent=2) + "\n")
        for argv in (("build", "--family", "custom", "--spec-file", str(path),
                      "--out-dir", str(tmp_path / "out")), ("recheck", str(doc_path))):
            capsys.readouterr()
            assert run(*argv) == 2, (argv, spec)
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert err.endswith("over the build budget of 200000\n"), err
    assert not (tmp_path / "out").exists()
    monkeypatch.undo()
    # one variable fewer fits, under build and recheck
    path.write_text(json.dumps({"name": "fits", "factors": [199999], "terms": {}}))
    assert run("build", "--family", "custom", "--spec-file", str(path),
               "--out-dir", str(tmp_path / "out")) == 0
    assert run("recheck", str(tmp_path / "out" / "custom-fits.build.json")) == 0
