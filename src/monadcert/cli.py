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
import functools
import json
import operator
import os
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from . import __version__
from .cohomology import LineBundleSum, h_sum
from .monad import (
    MonadSpec,
    build_section3,
    build_section4,
    check_custom_budget,
    copies_to_factors,
    custom_monad,
    display_summary,
    verify_monad,
    zero_map,
)
from .certify import TwistMode, simplicity_certificate, stability_certificate
from .polyring import (
    DEFAULT_PRIME,
    DEFAULT_TRIALS,
    CoordinateRing,
    MonadMatrix,
    SparsePoly,
    check_rank_parameters,
)
from .space import ProductSpace, check_polarization


class SpecError(ValueError):
    """Malformed command input or instance file."""


# ---------------------------------------------------------------------------
# serialization

_PLAIN = frozenset({str, int, float, bool, type(None)})
_CONTAINERS = (dict, list, tuple)
_INT_ONLY = frozenset({int})
_STR_ONLY = frozenset({str})

# the types with a rule of their own, tried in order before the generic
# dataclass rule: LineBundleSum is a dataclass, so its rule must come first
_OWN_RULES = (
    (Fraction, lambda obj: f"{obj.numerator}/{obj.denominator}"),
    (LineBundleSum, lambda obj: obj.summands),
    (SparsePoly, lambda obj: [(coeff, mono) for mono, coeff in sorted(obj.terms.items())]),
    (MonadMatrix, lambda obj: {
        "row_labels": obj.row_labels,
        "col_labels": obj.col_labels,
        "entries": obj.entries,
    }),
)


@functools.cache
def _fields(cls: type) -> tuple[str, ...] | None:
    """The field names the generic dataclass rule writes for `cls`, or None if it does not apply."""
    if not dataclasses.is_dataclass(cls) or any(issubclass(cls, t) for t, _ in _OWN_RULES):
        return None
    return tuple(f.name for f in dataclasses.fields(cls))


@functools.cache
def _encoder(cls: type):
    """The rule for instances of `cls`: the first rule that matches wins.

    A rule maps an object to a string or to a shallow JSON container: a
    str-keyed dict, or a list or tuple, whose items may still need a rule.
    A type no rule names is left as it is, for the JSON scalar rules.  The
    rules of `_OWN_RULES` come first, then the generic dataclass rule.
    Held for the life of the process, one entry per type met.
    """
    for base, rule in _OWN_RULES:
        if issubclass(cls, base):
            return rule
    names = _fields(cls)
    if names is not None:
        return lambda obj: {name: getattr(obj, name) for name in names}
    if issubclass(cls, dict):
        return lambda obj: {str(k): v for k, v in obj.items()}
    if issubclass(cls, (list, tuple)):
        return list
    return lambda obj: obj


def to_jsonable(obj):
    """JSON data for a result: the rules of `_encoder` applied all the way down."""
    cls = type(obj)
    if cls in _PLAIN:
        return obj
    if cls is not list and cls is not tuple:
        obj = _encoder(cls)(obj)
        cls = type(obj)
    if cls is dict:
        return {k: v if type(v) in _PLAIN else to_jsonable(v) for k, v in obj.items()}
    if cls is list or cls is tuple:
        return [v if type(v) in _PLAIN else to_jsonable(v) for v in obj]
    return obj


_quote = json.encoder.encode_basestring_ascii
# JSON text of a scalar as json.dumps writes it, in the order json.dumps
# tests a value's type: bool before its base class int
_SCALAR_TEXT = {
    str: _quote,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
    int: int.__repr__,
    float: json.dumps,  # NaN, Infinity, -Infinity or float.__repr__
}


def _scalar_text(value) -> str:
    """JSON text of a value no rule turned into a container, by json.dumps' own tests."""
    for cls, text in _SCALAR_TEXT.items():
        if isinstance(value, cls):
            return text(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


@functools.cache
def _newline(depth: int) -> str:
    """A newline and the indent of `depth`."""
    return "\n" + "  " * depth


@functools.cache
def _record_values(cls: type):
    """A function from a `cls` record to its field values, or None unless `_fields` names them."""
    names = _fields(cls)
    if not names:
        return None
    if len(names) == 1:
        return lambda obj: (getattr(obj, names[0]),)
    return operator.attrgetter(*names)


@functools.lru_cache(maxsize=256)
def _template(cls: type, depth: int, shape: tuple[int, ...]) -> str:
    """The %-template of a `cls` record at `depth`, one %s per field written whole or list item.

    `shape` has one entry per field: -1 for a field written whole, else the
    length of the flat list the field holds.  A report needs a few shapes
    per record class, so the most recent 256 are kept.
    """
    inner, item = _newline(depth + 1), _newline(depth + 2)
    fields = []
    for name, size in zip(_fields(cls), shape):
        if size < 0:
            value = "%s"
        elif size == 0:
            value = "[]"
        else:
            value = "[" + item + ("," + item).join(["%s"] * size) + inner + "]"
        fields.append(_quote(name).replace("%", "%%") + ": " + value)
    return "{" + inner + ("," + inner).join(fields) + _newline(depth) + "}"


def _record_text(obj, depth: int) -> str:
    """The text of `obj` at `depth`, a record the generic dataclass rule writes, from its template.

    A list or tuple of exact ints or of exact strs is laid out item by item;
    any other field is written whole.
    """
    shape, args = [], []
    for value in _record_values(type(obj))(obj):
        cls = type(value)
        scalar = _SCALAR_TEXT.get(cls)
        flat = cls is tuple or cls is list
        if scalar is not None:
            shape.append(-1)
            args.append(scalar(value))
        elif flat and _INT_ONLY.issuperset(map(type, value)):
            shape.append(len(value))
            args += value
        elif flat and _STR_ONLY.issuperset(map(type, value)):
            shape.append(len(value))
            args += map(_quote, value)
        else:
            shape.append(-1)
            args.append(_text(value, depth + 1))
    return _template(type(obj), depth, tuple(shape)) % tuple(args)


def _text(obj, depth: int) -> str:
    """The text of `obj` at `depth` under json.dumps(indent=2).

    Every record the generic dataclass rule writes is filled into its
    template (`_record_text`), so a run of records such as the witnesses of
    a report costs one %-format each.  A container's text is one join.
    """
    cls = type(obj)
    if cls is not list and cls is not tuple:
        if cls not in _PLAIN:
            if cls is not dict and _record_values(cls) is not None:
                return _record_text(obj, depth)
            obj = _encoder(cls)(obj)
            cls = type(obj)
        if cls not in _CONTAINERS:
            return _scalar_text(obj)
    if not obj:
        return "{}" if cls is dict else "[]"
    inner = depth + 1
    newline, close = _newline(inner), _newline(depth)
    text = _SCALAR_TEXT.get
    if cls is dict:
        parts = ["{"]
        for key, value in obj.items():
            scalar = text(type(value))
            value = _text(value, inner) if scalar is None else scalar(value)
            parts += (newline, _quote(key), ": ", value, ",")
        parts[-1] = close + "}"
        return "".join(parts)
    if _INT_ONLY.issuperset(map(type, obj)):
        return f"[{newline}{(',' + newline).join(map(int.__repr__, obj))}{close}]"
    parts = ["["]
    for value in obj:
        kind = type(value)
        scalar = text(kind)
        if scalar is not None:
            value = scalar(value)
        elif kind in _CONTAINERS or _record_values(kind) is None:
            value = _text(value, inner)
        else:
            value = _record_text(value, inner)
        parts += (newline, value, ",")
    parts[-1] = close + "]"
    return "".join(parts)


def json_bytes(doc: dict) -> bytes:
    """The bytes of json.dumps(to_jsonable(doc), indent=2, ensure_ascii=True) plus a newline.

    Written from the result objects by `_text`, with no JSON tree between.
    """
    return (_text(doc, 0) + "\n").encode("ascii")


def _document(kind: str, instance: dict, result) -> dict:
    return {
        "kind": kind,
        "tool": "monadcert",
        "version": __version__,
        "instance": instance,
        "result": result,
    }


def _write(out: Path, kind: str, inst: dict, spec: MonadSpec, result) -> Path:
    """Write the `kind` document to `out` as {instance_id}.{suffix}.json, suffix as in _KINDS.

    `out` is made if missing; one that cannot be made or written to is a
    SpecError.
    """
    suffix, _, _ = _KINDS[kind]
    path = out / f"{spec.instance_id}.{suffix}.json"
    data = json_bytes(_document(kind, inst, result))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise SpecError(f"output directory {out}: {exc.strerror or exc}") from exc
    try:
        path.write_bytes(data)
    except OSError as exc:
        raise SpecError(f"cannot write {path}: {exc.strerror or exc}") from exc
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


def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(_is_int(x) for x in value)


def _is_pairs(value, first, second) -> bool:
    return isinstance(value, list) and all(
        isinstance(p, list) and len(p) == 2 and first(p[0]) and second(p[1]) for p in value
    )


_CONSTRAINTS = [mode.value for mode in TwistMode]

# the instance keys of each built family, in block order and builder argument order
_FAMILY_KEYS = {
    "section3": ("dims", "k"),
    "section4": ("n", "m", "l", "alpha", "beta", "gamma", "k"),
}

# what each key of a spec file or of a document's instance block must hold
_KEY_TYPES = {
    "name": (lambda v: isinstance(v, str), "a string"),
    "factors": (_is_int_list, "a list of integers"),
    "groups": (
        lambda v: _is_pairs(v, lambda name: isinstance(name, str), _is_int_list),
        "a list of [name, [factor indices]] pairs",
    ),
    "terms": (lambda v: isinstance(v, dict), "an object"),
    "letters": (
        lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
        "a list of strings",
    ),
    "maps": (lambda v: isinstance(v, dict), "an object"),
    "polarization": (_is_int_list, "a list of integers"),
    "constraint": (lambda v: v in _CONSTRAINTS, f"one of {', '.join(_CONSTRAINTS)}"),
    "dims": (_is_int_list, "a list of integers"),
    **{key: (_is_int, "an integer")
       for key in (*_FAMILY_KEYS["section4"], "prime", "trials", "seed")},
}
_SPEC_KEYS = ("name", "factors", "groups", "terms", "letters", "maps", "polarization", "constraint")
_REQUIRED_SPEC_KEYS = ("name", "factors", "terms")


def _poly(ring: CoordinateRing, entry) -> SparsePoly:
    terms = {}
    for coeff, mono in entry:
        if not (_is_int_list(mono) and len(mono) == ring.nvars and all(e >= 0 for e in mono)):
            raise ValueError(f"monomial {mono!r} is not {ring.nvars} nonnegative integers")
        if not _is_int(coeff):
            raise ValueError(f"coefficient {coeff!r} is not an integer")
        if tuple(mono) in terms:
            raise ValueError(f"monomial {mono} is listed twice in one entry")
        terms[tuple(mono)] = coeff
    return SparsePoly(ring, terms)


def _matrix_from_block(ring: CoordinateRing, block) -> MonadMatrix:
    try:
        rows = [[_poly(ring, entry) for entry in row] for row in block["entries"]]
        labels = (block["row_labels"], block["col_labels"])
        for lab in labels[0] + labels[1]:
            if not _is_int_list(lab):
                raise ValueError(f"label {lab!r} is not a list of integers")
        return MonadMatrix(ring, rows, *labels)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad matrix block: {exc}") from exc


def _sum_from_block(pairs, l: int, name: str) -> LineBundleSum:
    if not _is_pairs(pairs, lambda d: _is_int_list(d) and len(d) == l, _is_int):
        raise ValueError(
            f"term {name!r} must be a list of [degree, multiplicity] pairs, "
            f"{l} integers per degree"
        )
    return LineBundleSum(pairs)


def _custom_from_block(block: dict, where: str = "spec") -> MonadSpec:
    """Check every key of a spec file or custom instance block, then build the spec.

    Optional keys that are absent or null take their defaults.
    """
    try:
        for key in _SPEC_KEYS:
            check, expected = _KEY_TYPES[key]
            if block.get(key) is None:
                if key in _REQUIRED_SPEC_KEYS:
                    raise ValueError(f"missing key {key!r}")
            elif not check(block[key]):
                raise ValueError(f"{key!r} must be {expected}")
        factors = block["factors"]
        space = ProductSpace(factors, groups=block.get("groups"))
        term_a, term_m, term_c = (
            _sum_from_block(block["terms"].get(t, []), len(factors), t) for t in "amc"
        )
        check_custom_budget(factors, (term_a, term_m, term_c))
        ring = CoordinateRing(factors, letters=block.get("letters"))
        maps = block.get("maps") or {}
        # a missing map is zero over the spec's own ring, so its letters are kept
        map_f, map_g = (
            zero_map(ring, target, source) if maps.get(m) is None
            else _matrix_from_block(ring, maps[m])
            for m, target, source in (("f", term_m, term_a), ("g", term_c, term_m))
        )
        polarization = block.get("polarization")
        if polarization is not None:
            check_polarization(space, polarization)
        return custom_monad(
            block["name"],
            space,
            term_a,
            term_m,
            term_c,
            map_f=map_f,
            map_g=map_g,
            polarization=polarization,
            constraint=block.get("constraint") or "per-group-negative",
        )
    except ValueError as exc:
        raise SpecError(f"{where}: {exc}") from exc


def _custom_block_from_spec(spec: MonadSpec, embed_maps: bool) -> dict:
    block = {
        "family": "custom",
        "name": dict(spec.params)["name"],
        "factors": spec.space.factors,
        "groups": spec.space.groups,
        "terms": {"a": spec.term_a, "m": spec.term_m, "c": spec.term_c},
        "letters": spec.ring.letters,
        "polarization": spec.default_polarization,
        "constraint": spec.default_constraint,
    }
    if embed_maps:
        block["maps"] = {"f": spec.map_f, "g": spec.map_g}
    return block


def _check_values(values: dict) -> None:
    """Raise SpecError unless each value is what _KEY_TYPES asks of its key.

    Also raise ValueError unless a prime and a number of trials are ones the
    rank evidence accepts.
    """
    for key, value in values.items():
        check, expected = _KEY_TYPES[key]
        if not check(value):
            raise SpecError(f"instance {key!r} must be {expected}, got {value!r}")
    if "prime" in values:
        check_rank_parameters(values["prime"], values["trials"])


def _instance_values(inst: dict, keys: Sequence[str]) -> list:
    missing = [key for key in keys if key not in inst]
    if missing:
        raise SpecError(f"instance block has no {missing[0]!r}")
    values = {key: inst[key] for key in keys}
    _check_values(values)
    return list(values.values())


def _entry(table: dict, name, what: str):
    """`table[name]`, or a SpecError for an unknown `what`; `name` may be any JSON value."""
    if isinstance(name, str) and name in table:
        return table[name]
    raise SpecError(f"unknown {what} {name!r}")


def _family_key(inst: dict) -> tuple:
    """All that the build of an instance block reads: the family and its checked values.

    A custom build reads the whole block, so its key holds the block as JSON
    text, in which 1, 1.0 and true differ as the build's checks tell them apart.
    """
    family = inst.get("family")
    if family == "custom":
        return (family, json.dumps(inst, sort_keys=True))
    values = _instance_values(inst, _entry(_FAMILY_KEYS, family, "family"))
    return (family, *(tuple(v) if isinstance(v, list) else v for v in values))


def _build_family(key: tuple) -> MonadSpec:
    family, *values = key
    try:
        if family == "section3":
            dims, k = values
            return build_section3(ProductSpace(dims), k)
        return build_section4(*values)
    except ValueError as exc:
        raise SpecError(f"bad {family} parameters: {exc}") from exc


# the key and spec of the instance `recheck` built last: consecutive documents
# of one instance share its build and the certificates kept on it, and
# cmd_recheck empties it on return, so no spec outlives the command
_recheck_built: list = []


def _spec_from_instance(inst: dict) -> MonadSpec:
    key = _family_key(inst)
    if not _recheck_built or _recheck_built[0] != key:
        spec = _custom_from_block(inst) if key[0] == "custom" else _build_family(key)
        _recheck_built[:] = key, spec
    return _recheck_built[1]


def _read_json_object(path: Path) -> tuple[dict, bytes]:
    """The JSON object a file holds, and the file's bytes; any failure is a SpecError.

    Every message starts with the path, and a syntax error reads path:line:col.
    """
    try:
        raw = path.read_bytes()
        obj = json.loads(raw.decode("utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise SpecError(f"{path}: JSON nested too deeply") from exc
    if not isinstance(obj, dict):
        raise SpecError(f"{path}: top level must be an object")
    return obj, raw


def _instance_from_args(args) -> tuple[dict, MonadSpec]:
    """The instance block the flags name, and its spec, built once."""
    if args.family == "custom":
        if not args.spec_file:
            raise SpecError("--spec-file is required for family custom")
        path = Path(args.spec_file)
        block, _ = _read_json_object(path)
        block.setdefault("family", "custom")
        spec = _custom_from_block(block, where=str(path))
        return _custom_block_from_spec(spec, embed_maps=bool(block.get("maps"))), spec
    flags = vars(args)
    if args.family == "section3":
        if args.copies is None:
            raise SpecError("--copies is required for family section3")
        flags = dict(flags, dims=list(copies_to_factors(_parse_int_list(args.copies))))
    inst = {"family": args.family, **{key: flags[key] for key in _FAMILY_KEYS[args.family]}}
    return inst, _build_family(_family_key(inst))


# ---------------------------------------------------------------------------
# result documents (shared by commands and recheck)

def _build_result(spec: MonadSpec):
    return {
        "instance_id": spec.instance_id,
        "terms": {"a": spec.term_a, "m": spec.term_m, "c": spec.term_c},
        "ranks": [spec.term_a.rank, spec.term_m.rank, spec.term_c.rank],
        "display": display_summary(spec),
        "maps": {
            name: {"rows": m.nrows, "cols": m.ncols, "degree_consistent": m.degree_consistent}
            for name, m in (("f", spec.map_f), ("g", spec.map_g))
        },
        "notes": list(spec.notes),
    }


def _verify_result(spec: MonadSpec, prime: int, trials: int, seed: int):
    return verify_monad(spec, prime=prime, trials=trials, seed=seed)


def _stability_result(spec: MonadSpec, polarization, constraint: str):
    """The stability certificate of `spec`, computed once per (polarization, constraint).

    It is kept on the spec, so the simplicity and stability documents of
    one rechecked instance share it and no certificate outlives its spec.
    `stability_certificate` is called by this module's name, so a wrapper
    put on that name sees every computation.
    """
    key = (tuple(polarization), constraint)
    cert = spec.stability_certificates.get(key)
    if cert is None:
        cert = spec.stability_certificates[key] = stability_certificate(
            spec, polarization=key[0], constraint=TwistMode(constraint)
        )
    return cert


def _simplicity_result(spec: MonadSpec, polarization, constraint: str):
    return simplicity_certificate(spec, _stability_result(spec, polarization, constraint))


# document kind -> (file suffix, the instance keys its result reads, the result
# from the spec and those keys' values); each result calls the layers through
# this module's names, so a wrapper put on a name reaches every call
_KINDS = {
    "monad-build": ("build", (), _build_result),
    "monad-report": ("report", ("prime", "trials", "seed"), _verify_result),
    "stability-certificate": ("stability", ("polarization", "constraint"), _stability_result),
    "simplicity-certificate": ("simplicity", ("polarization", "constraint"), _simplicity_result),
}


def _regenerate(doc: dict) -> dict:
    kind = doc.get("kind")
    _, keys, result_of = _entry(_KINDS, kind, "document kind")
    inst = doc.get("instance")
    if not isinstance(inst, dict):
        raise SpecError("document has no instance block")
    values = _instance_values(inst, keys)
    spec = _spec_from_instance(inst)
    return _document(kind, inst, result_of(spec, *values))


def _run(args, kind: str, **values):
    """Build the flags' instance once, compute its `kind` result and write the document.

    Each instance key of the kind takes its value from `values`, else from
    the flag of its name, and is checked before the build, as is the output
    directory (--out-dir, else $MONADCERT_OUT, else the current one); a
    value of None is the built instance's `default_<key>`.  Returns the
    instance block, the spec, the result and the path written.
    """
    _, keys, result_of = _KINDS[kind]
    values = {**{key: getattr(args, key) for key in keys}, **values}
    _check_values({key: value for key, value in values.items() if value is not None})
    out = Path(getattr(args, "out_dir", None) or os.environ.get("MONADCERT_OUT") or ".")
    path = out  # up to the nearest directory, which must not be a file
    while not os.path.isdir(path) and path != path.parent:
        if os.path.exists(path):
            why = "File exists" if path == out else "Not a directory"
            raise SpecError(f"output directory {out}: {why}")
        path = path.parent
    inst, spec = _instance_from_args(args)
    inst.update(
        (key, getattr(spec, f"default_{key}") if value is None else value)
        for key, value in values.items()
    )
    result = result_of(spec, *(inst[key] for key in keys))
    return inst, spec, result, _write(out, kind, inst, spec, result)


# ---------------------------------------------------------------------------
# commands

def _run_stability(args):
    polarization = list(_parse_int_list(args.polarization)) if args.polarization else None
    return _run(args, "stability-certificate", polarization=polarization)


def cmd_build(args) -> int:
    _, spec, result, path = _run(args, "monad-build")
    display = result["display"]
    print(f"instance: {spec.instance_id}")
    print(f"terms: A = {spec.term_a}  M = {spec.term_m}  C = {spec.term_c}")
    print(f"T: rank {display.rank_t}, c1 {display.c1_t}")
    print(f"E: rank {display.rank_e}, c1 {display.c1_e}")
    print(f"Q: rank {display.rank_q}, c1 {display.c1_q}")
    print(f"wrote: {path}")
    return 0


def cmd_verify(args) -> int:
    _, _, report, path = _run(args, "monad-report")
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
    _, _, cert, path = _run_stability(args)
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
    inst, spec, stab, stab_path = _run_stability(args)
    print(f"instance: {spec.instance_id}")
    print(f"stability verdict: {stab.verdict} (wrote: {stab_path})")
    if stab.verdict != "stable":
        print("simplicity not derivable without a stable kernel")
        return 1
    cert = simplicity_certificate(spec, stab)
    path = _write(stab_path.parent, "simplicity-certificate", inst, spec, cert)
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
    mults = args.mult or []
    if mults and len(mults) != len(args.degree):
        raise SpecError("--mult must be given once per --degree")
    summands = []
    for i, text in enumerate(args.degree):
        deg = _parse_int_list(text)
        space.check_degree(deg)
        summands.append((deg, mults[i] if mults else 1))
    print(h_sum(space, LineBundleSum(summands), args.p))
    return 0


def _first_difference(expected, stored, path: str = "") -> str | None:
    """JSON path of the first value where `stored` differs from `expected`, or None.

    Keys are visited in the order of `expected`, then the keys only `stored` has.
    """
    if type(expected) is not type(stored):
        return path
    if type(expected) is dict:
        for key in [*expected, *(key for key in stored if key not in expected)]:
            where = f"{path}.{key}" if key.isidentifier() else f"{path}[{_quote(key)}]"
            if key not in expected or key not in stored:
                return where
            found = _first_difference(expected[key], stored[key], where)
            if found is not None:
                return found
        return None
    if type(expected) is list:
        for i, (value, other) in enumerate(zip(expected, stored)):
            found = _first_difference(value, other, f"{path}[{i}]")
            if found is not None:
                return found
        if len(expected) != len(stored):
            return f"{path}[{min(len(expected), len(stored))}]"
        return None
    return None if expected == stored else path


# the line of a canonical document's "result" key: its kind and instance come
# before it, and no JSON string holds a raw newline, so it occurs once
_RESULT_LINE = b',\n  "result": '


def _matches_head(path: Path) -> bool:
    """Whether the file equals the document regenerated from the part before its result.

    A canonical document's head, closed after its instance, is a few hundred
    bytes that hold all `_regenerate` reads.  Any failure (no file, no
    result line, a head that is not a JSON object, a regeneration that
    raises, other bytes) returns False, and the caller reads the whole file.
    """
    try:
        raw = path.read_bytes()
        cut = raw.find(_RESULT_LINE)
        if cut < 0:
            return False
        head = json.loads(raw[:cut] + b"\n}")
        return isinstance(head, dict) and json_bytes(_regenerate(head)) == raw
    except Exception:  # the whole read reports it, as if this path were not there
        return False


def cmd_recheck(args) -> int:
    """Print OK for each document that equals the one regenerated from its kind and instance.

    A document is regenerated from its head (`_matches_head`) and the bytes
    are compared.  Only a document that does not match is parsed whole, to
    name the first differing value, or the byte where a same-valued text
    departs, or to report why it cannot be read.
    """
    ok = True
    try:
        for name in args.paths:
            path = Path(name)
            if _matches_head(path):
                print(f"{path}: OK")
                continue
            doc, raw = _read_json_object(path)
            regenerated = _regenerate(doc)
            fresh = json_bytes(regenerated)
            if fresh == raw:
                print(f"{path}: OK")
                continue
            ok = False
            where = _first_difference(to_jsonable(regenerated), doc)
            if where is None:
                offset = next(
                    (i for i, (a, b) in enumerate(zip(fresh, raw)) if a != b),
                    min(len(fresh), len(raw)),
                )
                print(f"{path}: MISMATCH at byte {offset}")
            else:
                print(f"{path}: MISMATCH at {where.lstrip('.')}")
    finally:
        _recheck_built.clear()
    return 0 if ok else 1


def cmd_selftest(args) -> int:
    from . import oracles  # imported here: oracles reads this module's to_jsonable

    failures = 0
    for name, check in oracles.SUITES:
        try:
            check()
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
        choices=(*_FAMILY_KEYS, "custom"),
        help="instance family",
    )
    sub.add_argument(
        "--copies",
        help="comma list: copies of P^1, P^3, P^5, ... (family section3)",
    )
    sub.add_argument("--k", type=int, default=1, help="band count k (default 1)")
    for name in _FAMILY_KEYS["section4"]:
        if name not in _FAMILY_KEYS["section3"]:
            sub.add_argument(f"--{name}", type=int, default=1, help=f"{name} (family section4)")
    sub.add_argument("--spec-file", help="JSON instance file (family custom)")
    sub.add_argument("--out-dir", help="output directory (default $MONADCERT_OUT or .)")


def _add_certify_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--polarization", help="comma list; default: the family's polarization")
    sub.add_argument(
        "--constraint",
        choices=_CONSTRAINTS,
        help="twist family; default: the family's constraint",
    )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser as it was, so
    # every main() call in one process shares it
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
    p.add_argument(
        "--mult", type=int, action="append", help="multiplicity per --degree (default 1)"
    )
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
