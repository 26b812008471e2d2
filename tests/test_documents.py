"""Document bytes: the one-pass writer against the json module's own encoder."""

import dataclasses
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from monadcert.certify import simplicity_certificate, stability_certificate
from monadcert.cli import json_bytes, to_jsonable
from monadcert.cohomology import LineBundleSum
from monadcert.monad import build_section3, build_section4, display_summary, verify_monad
from monadcert.oracles import document_bytes_by_json
from monadcert.polyring import CoordinateRing, MonadMatrix, SparsePoly
from monadcert.space import ProductSpace


class Name(str):
    def __str__(self):
        return f"name:{str.__str__(self)}"


class Count(int):
    def __repr__(self):
        return f"Count({int.__repr__(self)})"


@dataclasses.dataclass(frozen=True)
class Holder:
    """A result dataclass of the test's own, nesting other results."""

    label: str
    value: object
    parts: tuple = ()


# every code point, lone surrogates and control characters included
TEXT = st.text(st.characters(exclude_categories=()), max_size=6)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-5, 5).map(Count),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from((-0.0, math.inf, -math.inf, math.nan)),
    TEXT,
    TEXT.map(Name),
)
KEYS = st.one_of(TEXT, TEXT.map(Name), st.booleans(), st.none(), st.integers(-3, 3))


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(KEYS, children, max_size=4),
        st.just([]),
        st.just({}),
        st.just(()),
    )


TREES = st.recursive(SCALARS, containers, max_leaves=40)


def assert_same_bytes(doc):
    assert json_bytes(doc) == document_bytes_by_json(doc)


@settings(max_examples=200, deadline=None)
@given(TREES)
def test_json_bytes_match_json_module_on_trees(tree):
    assert_same_bytes(tree)
    assert_same_bytes({"kind": "tree", "result": tree})


def test_json_bytes_match_json_module_on_edge_values():
    deep = []
    for _ in range(40):
        deep = [deep, {}, ()]
    for doc in (
        {"a": -0.0, "b": [math.inf, -math.inf, math.nan], "c": {True: None, None: 1, 2: True}},
        {"\x00\x1fé \ud800\U0001f600": "\x7f\"\\/\n\t"},
        {Name("k"): Count(3), "list": [Count(-1), Name("v"), 1, True, 1.5]},
        {1: "int key", "1": "str key"},
        deep,
        [[[]], [{}], [()], {"x": {"y": []}}],
        "top-level string",
        7,
    ):
        assert_same_bytes(doc)


RING = CoordinateRing((1, 2))
MONOMIALS = st.tuples(*[st.integers(0, 3)] * RING.nvars)
POLYS = st.dictionaries(MONOMIALS, st.integers(-9, 9), max_size=4).map(
    lambda terms: SparsePoly(RING, terms)
)
DEGREES = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
SUMS = st.lists(st.tuples(DEGREES, st.integers(1, 3)), max_size=4).map(LineBundleSum)


@st.composite
def matrices(draw):
    rows = draw(st.integers(0, 3))
    cols = draw(st.integers(0, 3))
    label = st.lists(st.integers(-3, 3), min_size=2, max_size=2)
    return MonadMatrix(
        RING,
        [[draw(POLYS) for _ in range(cols)] for _ in range(rows)],
        draw(st.lists(label, min_size=rows, max_size=rows)),
        draw(st.lists(label, min_size=cols, max_size=cols)),
    )


def _reports():
    out = []
    for spec in (
        build_section3(ProductSpace((1, 1)), 1),
        build_section3(ProductSpace((1, 3)), 2),
        build_section4(1, 1, 1, 1, 2, 1, 1),
    ):
        stab = stability_certificate(spec)
        out += [spec.map_f, spec.term_m, display_summary(spec), verify_monad(spec, trials=2),
                stab, simplicity_certificate(spec, stab)]
    return out


REPORTS = _reports()
RESULTS = st.recursive(
    st.one_of(
        st.fractions(), POLYS, SUMS, matrices(), st.sampled_from(REPORTS), SCALARS,
    ),
    lambda children: st.one_of(
        containers(children),
        st.builds(Holder, TEXT, children, st.lists(children, max_size=3).map(tuple)),
    ),
    max_leaves=12,
)


@settings(max_examples=100, deadline=None)
@given(RESULTS)
def test_json_bytes_match_json_module_on_results(result):
    assert_same_bytes({"kind": "result", "instance": {"k": 1}, "result": result})


def test_to_jsonable_gives_a_json_tree():
    # plain dicts with str keys, plain lists, and scalars all the way down
    def walk(value):
        if isinstance(value, dict):
            assert type(value) is dict and all(type(k) is str for k in value)
            for item in value.values():
                walk(item)
        elif isinstance(value, (list, tuple)):
            assert type(value) is list
            for item in value:
                walk(item)
        else:
            assert isinstance(value, (str, int, float, type(None)))

    for report in REPORTS:
        walk(to_jsonable(report))
    assert to_jsonable(Fraction(-3, 4)) == "-3/4"
    assert to_jsonable(LineBundleSum([((1, 0), 2)])) == [[[1, 0], 2]]


# ---------------------------------------------------------------------------
# records written from templates


@dataclasses.dataclass(frozen=True)
class Row:
    """A record shaped like a witness row: scalars and lists of ints or strs."""

    symbol: object
    rows: object
    strict: object
    guards: object = ()


@dataclasses.dataclass
class Verdict:
    """A second record class, mutable, shaped like a stability per-q row."""

    q: object
    witness: object = None


@dataclasses.dataclass(frozen=True)
class Empty:
    """A record with no fields, which the generic dataclass rule writes as {}."""


EXACT_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from((math.inf, -math.inf, math.nan, "%", "%s", "100%", "%(q)s %%")),
    TEXT,
)
INTS = st.one_of(st.integers(), st.integers(-5, 5).map(Count), st.booleans())
STRS = st.one_of(TEXT, TEXT.map(Name), st.sampled_from(("%s", "%d", "%%", "a%")))


def sequences(items):
    return st.one_of(st.lists(items, max_size=4), st.lists(items, max_size=4).map(tuple))


# mostly what a template lays out item by item (exact scalars, lists of exact
# ints or of exact strs), with subclasses, bools among ints, mixed lists and
# nested values mixed in, which a template takes whole
FIELDS = st.one_of(
    EXACT_SCALARS,
    sequences(st.integers()),
    sequences(TEXT),
    st.just(()),
    st.just([]),
    SCALARS,
    sequences(INTS),
    sequences(STRS),
    sequences(st.one_of(st.integers(), TEXT)),
    st.builds(Verdict, st.integers(), st.none()),
    SUMS,
)
RECORDS = st.one_of(
    st.builds(Row, FIELDS, FIELDS, FIELDS, FIELDS),
    st.builds(Row, FIELDS, FIELDS, FIELDS),
    st.builds(Verdict, FIELDS, FIELDS),
    st.builds(Verdict, FIELDS),
    st.builds(Empty),
    SUMS,
)
# one class, or classes mixed, with a scalar here and there
RUNS = st.one_of(
    st.lists(st.builds(Row, FIELDS, FIELDS, FIELDS, FIELDS), max_size=6),
    st.lists(RECORDS, max_size=6),
    st.lists(st.one_of(RECORDS, SCALARS), max_size=6),
)


def _nested(value, depth):
    for _ in range(depth):
        value = [value]
    return value


@settings(max_examples=300, deadline=None)
@given(RUNS, st.integers(0, 20))
def test_record_runs_match_json_module(run, depth):
    # nesting up to depth 20 included
    assert_same_bytes({"kind": "records", "result": _nested(run, depth)})
    assert_same_bytes({"kind": "records", "result": {"deep": _nested(tuple(run), depth)}})
