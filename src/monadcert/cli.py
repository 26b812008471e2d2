"""Command-line front end: builds, verifications, certificates, and rechecks.

Every command that produces a verdict also writes a JSON document whose
bytes are a pure function of the instance parameters and seed; `recheck`
recomputes a stored document from its embedded instance block and compares
byte-for-byte.  Exit codes: 0 = positive verdict / completed, 1 = negative
or inconclusive verdict, 2 = input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import itertools
import json
import math
import os
import random
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from . import __version__
from .cohomology import LineBundleSum, exterior_power, h_line, h_pn, h_sum
from .monad import (
    MonadSpec,
    build_section3,
    build_section4,
    copies_to_factors,
    custom_monad,
    display_summary,
    nu,
    verify_monad,
)
from .certify import (
    TwistMode,
    simplicity_certificate,
    stability_certificate,
    vanishing_all_twists,
    vanishing_by_enumeration,
)
from .polyring import DEFAULT_PRIME, DEFAULT_TRIALS, CoordinateRing, MonadMatrix, SparsePoly
from .space import ProductSpace


class SpecError(ValueError):
    """Malformed command input or instance file."""


# ---------------------------------------------------------------------------
# serialization

def to_jsonable(obj):
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, LineBundleSum):
        return [[list(deg), mult] for deg, mult in obj.summands]
    if isinstance(obj, SparsePoly):
        return [[coeff, list(mono)] for mono, coeff in sorted(obj.terms.items())]
    if isinstance(obj, MonadMatrix):
        return {
            "row_labels": [list(lab) for lab in obj.row_labels],
            "col_labels": [list(lab) for lab in obj.col_labels],
            "entries": [[to_jsonable(e) for e in row] for row in obj.entries],
        }
    if isinstance(obj, CoordinateRing):
        return {"factors": list(obj.factors), "letters": list(obj.letters)}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return obj


def json_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, indent=2, ensure_ascii=True) + "\n").encode("utf-8")


def _document(kind: str, instance: dict, result) -> dict:
    return {
        "kind": kind,
        "tool": "monadcert",
        "version": __version__,
        "instance": instance,
        "result": to_jsonable(result),
    }


def _out_dir(args) -> Path:
    out = getattr(args, "out_dir", None) or os.environ.get("MONADCERT_OUT") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write(args, doc: dict, instance_id: str, suffix: str) -> Path:
    path = _out_dir(args) / f"{instance_id}.{suffix}.json"
    path.write_bytes(json_bytes(doc))
    return path


# ---------------------------------------------------------------------------
# instance ingestion

def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise SpecError(f"expected a comma-separated integer list, got {text!r}") from exc


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _monomial(ring: CoordinateRing, mono) -> tuple[int, ...]:
    if not (
        isinstance(mono, list)
        and len(mono) == ring.nvars
        and all(_is_int(e) and e >= 0 for e in mono)
    ):
        raise ValueError(f"monomial {mono!r} is not {ring.nvars} nonnegative integers")
    return tuple(mono)


def _matrix_from_block(ring: CoordinateRing, block: dict, where: str) -> MonadMatrix:
    try:
        rows = [
            [
                SparsePoly(ring, {_monomial(ring, mono): int(coeff) for coeff, mono in entry})
                for entry in row
            ]
            for row in block["entries"]
        ]
        return MonadMatrix(
            ring,
            rows,
            [tuple(lab) for lab in block["row_labels"]],
            [tuple(lab) for lab in block["col_labels"]],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"{where}: bad matrix block: {exc}") from exc


def _sum_from_block(block, where: str) -> LineBundleSum:
    try:
        return LineBundleSum([(tuple(deg), int(mult)) for deg, mult in block])
    except (TypeError, ValueError) as exc:
        raise SpecError(f"{where}: bad line-bundle sum: {exc}") from exc


def _custom_from_block(block: dict, where: str = "spec") -> MonadSpec:
    try:
        name = block["name"]
        factors = tuple(int(n) for n in block["factors"])
        groups = block.get("groups")
        terms = block["terms"]
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"{where}: {exc}") from exc
    maps = block.get("maps") or {}
    letters = block.get("letters")
    for key, value in (("terms", terms), ("maps", maps)):
        if not isinstance(value, dict):
            raise SpecError(f"{where}: {key!r} must be an object")
    if letters is not None and not (
        isinstance(letters, list) and all(isinstance(x, str) for x in letters)
    ):
        raise SpecError(f"{where}: 'letters' must be a list of strings")
    if groups:
        try:
            groups = [(name, tuple(idx)) for name, idx in groups]
        except (TypeError, ValueError) as exc:
            raise SpecError(
                f"{where}: 'groups' must be a list of [name, [factor indices]] pairs"
            ) from exc
    space = ProductSpace(factors, groups=groups or None)
    term_a = _sum_from_block(terms.get("a", []), where)
    term_m = _sum_from_block(terms.get("m", []), where)
    term_c = _sum_from_block(terms.get("c", []), where)
    ring = CoordinateRing(factors, letters=letters)
    map_f = _matrix_from_block(ring, maps["f"], where) if maps.get("f") else None
    map_g = _matrix_from_block(ring, maps["g"], where) if maps.get("g") else None
    try:
        return custom_monad(
            name,
            space,
            term_a,
            term_m,
            term_c,
            map_f=map_f,
            map_g=map_g,
            polarization=tuple(block["polarization"]) if block.get("polarization") else None,
            constraint=block.get("constraint", "per-group-negative"),
        )
    except ValueError as exc:
        raise SpecError(f"{where}: {exc}") from exc


def _custom_block_from_spec(spec: MonadSpec, embed_maps: bool) -> dict:
    block = {
        "family": "custom",
        "name": dict(spec.params)["name"],
        "factors": list(spec.space.factors),
        "groups": [[name, list(idxs)] for name, idxs in spec.space.groups],
        "terms": {
            "a": to_jsonable(spec.term_a),
            "m": to_jsonable(spec.term_m),
            "c": to_jsonable(spec.term_c),
        },
        "letters": list(spec.ring.letters),
        "polarization": list(spec.default_polarization),
        "constraint": spec.default_constraint,
    }
    if embed_maps:
        block["maps"] = {
            "f": to_jsonable(spec.map_f),
            "g": to_jsonable(spec.map_g),
        }
    return block


def _spec_from_instance(inst: dict) -> MonadSpec:
    family = inst.get("family")
    try:
        if family == "section3":
            return build_section3(ProductSpace(inst["dims"]), int(inst["k"]))
        if family == "section4":
            return build_section4(
                int(inst["n"]), int(inst["m"]), int(inst["l"]),
                int(inst["alpha"]), int(inst["beta"]), int(inst["gamma"]),
                int(inst["k"]),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"bad {family} parameters: {exc}") from exc
    if family == "custom":
        return _custom_from_block(inst)
    raise SpecError(f"unknown family {family!r}")


def _instance_from_args(args) -> tuple[dict, MonadSpec]:
    family = args.family
    if family == "section3":
        if args.copies is None:
            raise SpecError("--copies is required for family section3")
        dims = copies_to_factors(_parse_int_list(args.copies))
        inst = {"family": "section3", "dims": list(dims), "k": args.k}
    elif family == "section4":
        inst = {
            "family": "section4",
            "n": args.n, "m": args.m, "l": args.l,
            "alpha": args.alpha, "beta": args.beta, "gamma": args.gamma,
            "k": args.k,
        }
    elif family == "custom":
        if not args.spec_file:
            raise SpecError("--spec-file is required for family custom")
        path = Path(args.spec_file)
        try:
            block = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise SpecError(f"{path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise SpecError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
        if not isinstance(block, dict):
            raise SpecError(f"{path}: top level must be an object")
        block.setdefault("family", "custom")
        spec = _custom_from_block(block, where=str(path))
        inst = _custom_block_from_spec(spec, embed_maps=bool(block.get("maps")))
        return inst, spec
    else:
        raise SpecError(f"unknown family {family!r}")
    return inst, _spec_from_instance(inst)


# ---------------------------------------------------------------------------
# result documents (shared by commands and recheck)

def _build_result(spec: MonadSpec):
    return {
        "instance_id": spec.instance_id,
        "terms": {"a": spec.term_a, "m": spec.term_m, "c": spec.term_c},
        "ranks": [spec.term_a.rank, spec.term_m.rank, spec.term_c.rank],
        "display": display_summary(spec),
        "maps": {
            "f": {
                "rows": spec.map_f.nrows,
                "cols": spec.map_f.ncols,
                "degree_consistent": spec.map_f.degree_consistent,
            },
            "g": {
                "rows": spec.map_g.nrows,
                "cols": spec.map_g.ncols,
                "degree_consistent": spec.map_g.degree_consistent,
            },
        },
        "notes": list(spec.notes),
    }


_INSTANCE_TYPES = {
    "prime": (_is_int, "an integer"),
    "trials": (_is_int, "an integer"),
    "seed": (_is_int, "an integer"),
    "polarization": (
        lambda v: isinstance(v, list) and all(_is_int(x) for x in v),
        "a list of integers",
    ),
    "constraint": (
        lambda v: v in [mode.value for mode in TwistMode],
        f"one of {', '.join(mode.value for mode in TwistMode)}",
    ),
}


def _instance_values(inst: dict, *keys: str) -> list:
    missing = [key for key in keys if key not in inst]
    if missing:
        raise SpecError(f"instance block has no {missing[0]!r}")
    for key in keys:
        check, expected = _INSTANCE_TYPES[key]
        if not check(inst[key]):
            raise SpecError(f"instance {key!r} must be {expected}, got {inst[key]!r}")
    return [inst[key] for key in keys]


def _verify_result(spec: MonadSpec, inst: dict):
    prime, trials, seed = _instance_values(inst, "prime", "trials", "seed")
    return verify_monad(spec, prime=prime, trials=trials, seed=seed)


def _stability_result(spec: MonadSpec, inst: dict):
    polarization, constraint = _instance_values(inst, "polarization", "constraint")
    return stability_certificate(
        spec,
        polarization=tuple(polarization),
        constraint=TwistMode(constraint),
    )


def _simplicity_result(spec: MonadSpec, inst: dict):
    stab = _stability_result(spec, inst)
    return simplicity_certificate(spec, stab)


_KINDS = {
    "monad-build": ("build", lambda spec, inst: _build_result(spec)),
    "monad-report": ("report", _verify_result),
    "stability-certificate": ("stability", _stability_result),
    "simplicity-certificate": ("simplicity", _simplicity_result),
}


def _regenerate(doc: dict) -> dict:
    kind = doc.get("kind")
    if kind not in _KINDS:
        raise SpecError(f"unknown document kind {kind!r}")
    inst = doc.get("instance")
    if not isinstance(inst, dict):
        raise SpecError("document has no instance block")
    spec = _spec_from_instance(inst)
    _, rebuild = _KINDS[kind]
    return _document(kind, inst, rebuild(spec, inst))


# ---------------------------------------------------------------------------
# commands

def _certify_inst(args, spec: MonadSpec, inst: dict) -> dict:
    polarization = (
        _parse_int_list(args.polarization)
        if args.polarization
        else spec.default_polarization
    )
    constraint = args.constraint or spec.default_constraint
    try:
        TwistMode(constraint)
    except ValueError as exc:
        raise SpecError(f"unknown constraint {constraint!r}") from exc
    inst = dict(inst)
    inst["polarization"] = list(polarization)
    inst["constraint"] = constraint
    return inst


def cmd_build(args) -> int:
    inst, spec = _instance_from_args(args)
    result = _build_result(spec)
    doc = _document("monad-build", inst, result)
    path = _write(args, doc, spec.instance_id, "build")
    display = result["display"]
    print(f"instance: {spec.instance_id}")
    print(f"terms: A = {spec.term_a}  M = {spec.term_m}  C = {spec.term_c}")
    print(f"T: rank {display.rank_t}, c1 {display.c1_t}")
    print(f"E: rank {display.rank_e}, c1 {display.c1_e}")
    print(f"Q: rank {display.rank_q}, c1 {display.c1_q}")
    print(f"wrote: {path}")
    return 0


def cmd_verify(args) -> int:
    inst, spec = _instance_from_args(args)
    inst = dict(inst)
    inst["prime"] = args.prime
    inst["trials"] = args.trials
    inst["seed"] = args.seed
    report = _verify_result(spec, inst)
    doc = _document("monad-report", inst, report)
    path = _write(args, doc, spec.instance_id, "report")
    print(f"instance: {report.instance_id}")
    print(f"composite zero: {str(report.composite_zero).lower()}")
    for ev in (report.map_f, report.map_g):
        cover = (
            f"cover complete via {ev.covering_family}"
            if ev.covering_family
            else ("cover trivial" if ev.cover_complete else "cover INCOMPLETE")
        )
        print(
            f"map {ev.name}: {ev.rows}x{ev.cols}, required rank {ev.required_rank}, "
            f"{cover}, max rank seen {ev.rank.max_rank_seen}"
        )
    print(f"verdict: {'valid' if report.valid else 'invalid'}")
    print(f"wrote: {path}")
    return 0 if report.valid else 1


def cmd_certify_stability(args) -> int:
    inst, spec = _instance_from_args(args)
    inst = _certify_inst(args, spec, inst)
    cert = _stability_result(spec, inst)
    doc = _document("stability-certificate", inst, cert)
    path = _write(args, doc, spec.instance_id, "stability")
    print(f"instance: {cert.instance_id}")
    print(f"rank T = {cert.rank_t}, c1(T) = {cert.c1_t}")
    print(f"deg_L T = {cert.degree_t}, slope = {cert.slope_t}, k_E = {cert.k_e}")
    print(f"twist family: {cert.twist_family}")
    failing = [r for r in cert.per_q if not r.passed]
    if cert.verdict == "unsupported":
        print("deg_L T >= 0: normalization required, unsupported")
    elif failing:
        for r in failing:
            print(
                f"q = {r.q}: FAIL, witness B = {r.witness_twist} "
                f"for subset sum t_S = {r.witness_profile}"
            )
    elif cert.per_q:
        print(f"q = 1..{cert.rank_t - 1}: all pass")
    else:
        print("rank T = 1: nothing to check")
    print(f"verdict: {cert.verdict}")
    print(f"wrote: {path}")
    return 0 if cert.verdict == "stable" else 1


def cmd_certify_simplicity(args) -> int:
    inst, spec = _instance_from_args(args)
    inst = _certify_inst(args, spec, inst)
    stab = _stability_result(spec, inst)
    stab_doc = _document("stability-certificate", inst, stab)
    stab_path = _write(args, stab_doc, spec.instance_id, "stability")
    print(f"instance: {spec.instance_id}")
    print(f"stability verdict: {stab.verdict} (wrote: {stab_path})")
    if stab.verdict != "stable":
        print("simplicity not derivable without a stable kernel")
        return 1
    cert = simplicity_certificate(spec, stab)
    doc = _document("simplicity-certificate", inst, cert)
    path = _write(args, doc, spec.instance_id, "simplicity")
    print(f"twist: {cert.twist}")
    for step in cert.steps:
        print(
            f"h^{step.p}(twisted dual kernel): h^{step.p}(middle) = {step.h_middle}, "
            f"h^{step.p + 1}(first) = {step.h_first_next} -> "
            f"{'forced zero' if step.forced else 'NOT forced'}"
        )
    print(f"chain: {cert.chain}")
    print(f"verdict: {cert.verdict}")
    print(f"wrote: {path}")
    return 0 if cert.verdict == "simple" else 1


def cmd_cohom(args) -> int:
    factors = _parse_int_list(args.space)
    space = ProductSpace(factors)
    mults = [int(m) for m in (args.mult or [])]
    if mults and len(mults) != len(args.degree):
        raise SpecError("--mult must be given once per --degree")
    summands = []
    for i, text in enumerate(args.degree):
        deg = _parse_int_list(text)
        space.check_degree(deg)
        summands.append((deg, mults[i] if mults else 1))
    print(h_sum(space, LineBundleSum(summands), args.p))
    return 0


def cmd_recheck(args) -> int:
    ok = True
    for name in args.paths:
        path = Path(name)
        try:
            raw = path.read_bytes()
            doc = json.loads(raw.decode("utf-8"))
        except OSError as exc:
            raise SpecError(f"{path}: {exc}") from exc
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SpecError(f"{path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise SpecError(f"{path}: top level must be an object")
        regenerated = _regenerate(doc)
        if json_bytes(regenerated) == raw:
            print(f"{path}: OK")
        else:
            print(f"{path}: MISMATCH")
            ok = False
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# selftest oracle suites

def _count_monomials(n: int, d: int) -> int:
    if d < 0:
        return 0
    return sum(1 for _ in itertools.combinations_with_replacement(range(n + 1), d))


def _selftest_bott() -> None:
    for n in range(1, 4):
        for d in range(-8, 9):
            for i in range(0, n + 2):
                if i == 0:
                    want = _count_monomials(n, d)
                elif i == n:
                    want = _count_monomials(n, -d - n - 1)
                else:
                    want = 0
                got = h_pn(n, d, i)
                assert got == want, f"h_pn({n},{d},{i}) = {got}, counted {want}"


def _selftest_serre_kunneth() -> None:
    rng = random.Random(15485863)
    for _ in range(200):
        n = rng.randint(1, 4)
        d = rng.randint(-12, 12)
        i = rng.randint(0, n)
        assert h_pn(n, d, i) == h_pn(n, -d - n - 1, n - i)
    for _ in range(200):
        factors = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
        space = ProductSpace(factors)
        deg = tuple(rng.randint(-6, 6) for _ in factors)
        total = sum(h_line(space, deg, p) for p in range(space.dim + 1))
        prod = 1
        for n, d in zip(factors, deg):
            prod *= sum(h_pn(n, d, q) for q in range(n + 1))
        assert total == prod, f"kunneth total law fails at {factors} {deg}"


def _selftest_exterior() -> None:
    rng = random.Random(32452843)
    for _ in range(60):
        l = rng.randint(1, 3)
        summands = [
            (tuple(rng.randint(-2, 2) for _ in range(l)), rng.randint(1, 3))
            for _ in range(rng.randint(1, 3))
        ]
        g = LineBundleSum(summands)
        for q in range(0, g.rank + 2):
            assert exterior_power(g, q).rank == math.comb(g.rank, q)


def _selftest_vanishing() -> None:
    rng = random.Random(49979687)
    for _ in range(30):
        l = rng.randint(1, 3)
        space = ProductSpace(tuple(rng.randint(1, 3) for _ in range(l)))
        summands = [
            (tuple(rng.choice((-1, 0, 1)) for _ in range(l)), rng.randint(1, 2))
            for _ in range(rng.randint(1, 3))
        ]
        middle = LineBundleSum(summands)
        if middle.rank < 2:
            continue
        q = rng.randint(1, middle.rank - 1)
        mode = rng.choice((TwistMode.PER_GROUP_NEGATIVE, TwistMode.TOTAL_NEGATIVE))
        fast = vanishing_all_twists(space, middle, q, (1,) * l, mode)
        slow_pass, _ = vanishing_by_enumeration(space, middle, q, mode)
        assert fast.passed == slow_pass, f"disagreement at {summands} q={q} {mode}"
        if not fast.passed:
            # the witness twist lies in the family and gives a global section
            b = fast.witness_twist
            if mode is TwistMode.TOTAL_NEGATIVE:
                in_family = sum(b) < 0
            else:
                in_family = all(s < 0 for _, s in space.group_sums(b))
            lam = exterior_power(middle, q).twist(b)
            assert in_family and h_sum(space, lam, 0) >= 1, (
                f"unsound witness {b} at {summands} q={q} {mode}"
            )


def _copy_vectors(limit: int):
    """All copy vectors (no trailing zeros) with prod (2i+2)^{c_i} <= limit."""
    stack = [((), 1)]
    while stack:
        prefix, product = stack.pop()
        yield prefix
        pos = len(prefix)
        while True:
            radix = 2 * pos + 2
            if product * radix > limit:
                break
            c = 1
            while product * radix**c <= limit:
                stack.append(
                    (prefix + (0,) * (pos - len(prefix)) + (c,), product * radix**c)
                )
                c += 1
            pos += 1


def _selftest_nu() -> None:
    # every copy vector with factor-count product <= 512, compared against
    # the half-product form evaluated in exact rationals
    seen = 0
    for copies in _copy_vectors(512):
        half = Fraction(1, 2)
        for i, c in enumerate(copies):
            half *= Fraction(2 * i + 2) ** c
        if half.denominator != 1:
            continue
        assert nu(copies) == half - 1, f"nu({copies})"
        seen += 1
    assert seen > 10


def _selftest_monads() -> None:
    spec3 = build_section3(ProductSpace((1, 1)), 1)
    assert verify_monad(spec3).valid
    spec4 = build_section4(1, 1, 1, 1, 1, 1, 1)
    assert verify_monad(spec4).valid


def cmd_selftest(args) -> int:
    suites = (
        ("bott-vs-monomial-count", _selftest_bott),
        ("serre-kunneth", _selftest_serre_kunneth),
        ("exterior-rank", _selftest_exterior),
        ("vanishing-dp-vs-enumeration", _selftest_vanishing),
        ("nu-half-product", _selftest_nu),
        ("monad-validity", _selftest_monads),
    )
    failures = 0
    for name, fn in suites:
        try:
            fn()
        except AssertionError as exc:
            failures += 1
            print(f"selftest {name}: FAIL ({exc})")
        else:
            print(f"selftest {name}: pass")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# parser

_LIST_FLAGS = ("--copies", "--space", "--degree", "--polarization")
_LIST_RE = re.compile(r"-?\d+(,-?\d+)*$")


def _rewrite_negative_lists(argv: list[str]) -> list[str]:
    # "--degree -2,0" parses as a missing argument; fold the value into the flag
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _LIST_FLAGS and i + 1 < len(argv) and _LIST_RE.fullmatch(argv[i + 1]):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _add_instance_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--family",
        required=True,
        choices=("section3", "section4", "custom"),
        help="instance family",
    )
    sub.add_argument(
        "--copies",
        help="comma list: copies of P^1, P^3, P^5, ... (family section3)",
    )
    sub.add_argument("--k", type=int, default=1, help="band count k (default 1)")
    for name in ("n", "m", "l", "alpha", "beta", "gamma"):
        sub.add_argument(f"--{name}", type=int, default=1, help=f"{name} (family section4)")
    sub.add_argument("--spec-file", help="JSON instance file (family custom)")
    sub.add_argument("--out-dir", help="output directory (default $MONADCERT_OUT or .)")


def _add_certify_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--polarization", help="comma list; default: the family's polarization")
    sub.add_argument(
        "--constraint",
        choices=tuple(mode.value for mode in TwistMode),
        help="twist family; default: the family's constraint",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monadcert",
        description="Build, verify, and certify line-bundle monads on products of projective spaces.",
    )
    parser.add_argument("--version", action="version", version=f"monadcert {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("build", help="build an instance and report its display arithmetic")
    _add_instance_args(p)
    p.set_defaults(handler=cmd_build)

    p = subs.add_parser("verify", help="check composite, rank witnesses, and random-point ranks")
    _add_instance_args(p)
    p.add_argument("--prime", type=int, default=DEFAULT_PRIME)
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_verify)

    p = subs.add_parser("certify-stability", help="certify slope stability of the kernel bundle")
    _add_instance_args(p)
    _add_certify_args(p)
    p.set_defaults(handler=cmd_certify_stability)

    p = subs.add_parser("certify-simplicity", help="certify h^0 of the endomorphisms of E")
    _add_instance_args(p)
    _add_certify_args(p)
    p.set_defaults(handler=cmd_certify_simplicity)

    p = subs.add_parser("cohom", help="h^p of a sum of line bundles on a product space")
    p.add_argument("--space", required=True, help="comma list of factor dimensions")
    p.add_argument("--degree", action="append", required=True, help="comma list; repeatable")
    p.add_argument("--mult", action="append", help="multiplicity per --degree (default 1)")
    p.add_argument("--p", type=int, required=True, help="cohomological degree")
    p.set_defaults(handler=cmd_cohom)

    p = subs.add_parser("selftest", help="run the built-in oracle suites")
    p.set_defaults(handler=cmd_selftest)

    p = subs.add_parser("recheck", help="recompute stored documents and compare bytes")
    p.add_argument("paths", nargs="+", help="JSON documents to recheck")
    p.set_defaults(handler=cmd_recheck)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = _rewrite_negative_lists(list(argv))
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:  # includes SpecError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
