"""The formula nodes and the records of the tableau and the soundness
suite against the dataclasses they were (`oracles.DATACLASS_REFERENCES`),
on seeded corpora."""

import copy
import pickle
import random
from fractions import Fraction as F

import pytest

from wtl import (
    SCHEMAS, Sat, Schema, SchemaReport, SuiteReport, Unsat,
    build_tableau, parse_formula, print_formula, random_formula, run_suite,
)
from wtl.formulas import Formula
from wtl.tableau import Tableau, _verdict_of
from oracles import (
    DATACLASS_REFERENCES, commute, reference_print_formula, reference_record,
)

POOL = [F(0), F(1, 2), F(1), F(2), F(3)]


def _formulas(count: int, seed: int) -> list:
    """Random formulas, each with a structurally equal copy that is
    another object and a commuted variant, so that pairs are often equal."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        f = random_formula(seed * 1000 + k, ["p", "q"], 2, POOL)
        out += [f, parse_formula(print_formula(f)), commute(f, rng)]
    return out


def _shared_formulas(count: int, seed: int) -> list:
    """Formulas built by `<->`, which shares both its operands, each with
    a copy that shares them likewise and one that shares nothing: three
    equal formulas, and three objects."""
    out = []
    for k in range(count):
        x, y = (print_formula(random_formula(seed * 1000 + k + j, ["p", "q"], 1, POOL))
                for j in (0, 500))
        f = parse_formula(f"({x}) <-> ({y}) <-> ({x})")
        out += [f, parse_formula(print_formula(f)), parse_formula(reference_print_formula(f))]
    return out


def _subformulas(f):
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        stack += [v for v in g.__getstate__() if isinstance(v, Formula)]


def _walk(node):
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children)


def _state(values: list) -> list:
    return [reference_record(v) if isinstance(v, Formula) else v for v in values]


def _pickled(x):
    return pickle.loads(pickle.dumps(x))


def _check_like_reference(objects: list, copies=(_pickled, copy.deepcopy)) -> None:
    """Each object reads, hashes and compares as its reference does, and
    comes back equal from each of `copies`; so does every pair of
    neighbours, and every object against one of another class."""
    refs = [reference_record(x) for x in objects]
    for x, ref in zip(objects, refs):
        assert repr(x) == repr(ref)
        assert str(x) == str(ref)
        assert x.__match_args__ == ref.__match_args__
        if "__getstate__" in vars(type(ref)):
            assert _state(x.__getstate__()) == ref.__getstate__()
        else:
            assert "__getstate__" not in vars(type(x))
        if type(ref).__hash__ is None:
            assert type(x).__hash__ is None
            with pytest.raises(TypeError, match="unhashable type"):
                hash(x)
        else:
            assert hash(x) == hash(ref)
        for back in map(lambda make_copy: make_copy(x), copies):
            assert type(back) is type(x) and back == x and repr(back) == repr(x)
            if type(x).__hash__ is not None:
                assert hash(back) == hash(x)
        assert x.__eq__(0) is NotImplemented and x != 0
    other = object()
    for x, y, rx, ry in zip(objects, objects[1:] + [other], refs, refs[1:] + [other]):
        assert (x == y) == (rx == ry) and (x != y) == (rx != ry)
        assert (x.__eq__(y) is NotImplemented) == (rx.__eq__(ry) is NotImplemented)


def test_formula_nodes_behave_as_their_dataclasses():
    shared = _shared_formulas(10, 26)
    corpus = shared + [g for f in _formulas(100, 25) for g in _subformulas(f)]
    assert len({type(f) for f in corpus}) == 7
    _check_like_reference(corpus)
    head = corpus[:len(shared) + 90]
    refs = [reference_record(f) for f in head]
    for x, rx in zip(head, refs):
        for y, ry in zip(head, refs):
            assert (x == y) == (rx == ry)
    assert sum(x == y for x in head for y in head if x is not y) > 90
    assert all(shared[i] == shared[i + 1] == shared[i + 2] for i in range(0, len(shared), 3))


def test_verdicts_and_tableaux_behave_as_their_dataclasses():
    corpus = _formulas(60, 27)[::3]
    tableaux = [build_tableau(phi) for phi in corpus]
    verdicts = [_verdict_of(t.root) for t in tableaux]
    assert {type(v).__name__ for v in verdicts} == {"Sat", "Unsat"}
    # A copied tableau holds another root node, which compares by identity.
    _check_like_reference(tableaux, copies=())
    _check_like_reference([v for v in verdicts if isinstance(v, Unsat)])
    sats = [v for v in verdicts if not isinstance(v, Unsat)]
    refs = [reference_record(v) for v in sats]
    for x, ref in zip(sats, refs):
        assert repr(x) == repr(ref) and hash(x) == hash(ref)
        assert x.__getstate__() == ref.__getstate__()
        assert x.__match_args__ == ref.__match_args__
    others = sats[1:] + [Unsat()]
    for x, y, rx, ry in zip(sats, others, refs, map(reference_record, others)):
        assert (x == y) == (rx == ry)
    assert Tableau(root=tableaux[0].root) == tableaux[0]


def test_suite_reports_behave_as_their_dataclasses():
    reports = [run_suite(seed, 200) for seed in (3, 5, 3)]
    assert reports[0] == reports[2] and reports[0] != reports[1]
    _check_like_reference(reports)
    schema_reports = [r for report in reports for r in report.schemas.values()]
    assert any(r.first_violation is not None for r in schema_reports)
    _check_like_reference(schema_reports)
    for report in reports:
        assert report.as_dict() == reference_record(report).as_dict()
    # A schema holds lambdas, which do not pickle.
    _check_like_reference(list(SCHEMAS.values()), copies=(copy.deepcopy,))


def test_records_construct_with_their_defaults():
    refs = DATACLASS_REFERENCES
    built = [
        (Schema("X", 1, 2), refs["Schema"]("X", 1, 2)),
        (Schema(name="X", formula_slots=0, index_slots=1, sound=False),
         refs["Schema"](name="X", formula_slots=0, index_slots=1, sound=False)),
        (SchemaReport(name="A1", sound=True), refs["SchemaReport"](name="A1", sound=True)),
        (SchemaReport("A1", False, 3, violations=2), refs["SchemaReport"]("A1", False, 3, violations=2)),
        (SuiteReport(seed=1, trials=2), refs["SuiteReport"](seed=1, trials=2)),
        (SuiteReport(1, 2, {}), refs["SuiteReport"](1, 2, {})),
    ]
    for x, ref in built:
        assert repr(x) == repr(ref) and reference_record(x) == ref
    a, b = SuiteReport(seed=1, trials=2), SuiteReport(seed=1, trials=2)
    assert a.schemas == {} and a.schemas is not b.schemas
    a.schemas["A1"] = SchemaReport("A1", True)
    a.trials += 1
    assert a != b and a.trials == 3 and b.schemas == {}


@pytest.mark.parametrize("make", [
    lambda: parse_formula("L[1] p"),
    lambda: parse_formula("M[1/2] (p & !q)"),
    lambda: parse_formula("p & q"),
    lambda: parse_formula("!p"),
    lambda: parse_formula("true"),
    lambda: parse_formula("false"),
    lambda: build_tableau(parse_formula("p")),
    lambda: _verdict_of(build_tableau(parse_formula("L[1] p")).root),
    lambda: Unsat(),
    lambda: SCHEMAS["A1"],
], ids=["AtLeast", "AtMost", "And", "Not", "Top", "Bottom", "Tableau",
        "Sat", "Unsat", "Schema"])
def test_frozen_records_refuse_assignment_and_deletion(make):
    """Every node and frozen record refuses to assign or delete a field,
    and any other name, with the text of `dataclasses.FrozenInstanceError`
    (an `AttributeError`), on every Python version."""
    x = make()
    before = repr(x)
    for name in x.__match_args__ + ("_hash", "other"):
        with pytest.raises(AttributeError) as caught:
            setattr(x, name, 2)
        assert str(caught.value) == f"cannot assign to field {name!r}"
        with pytest.raises(AttributeError) as caught:
            delattr(x, name)
        assert str(caught.value) == f"cannot delete field {name!r}"
    assert repr(x) == before


@pytest.mark.parametrize("state_of", [
    lambda v: {"model": v.model, "state": v.state, "verified": v.verified},
    lambda v: [v.model, v.state],
    lambda v: None,
], ids=["dataclass-dict", "short-list", "none"])
def test_frozen_records_refuse_state_of_another_shape(state_of):
    """A pickle of the old `Sat` dataclass holds its `__dict__`; it is
    refused, not read back with the field names as the values."""
    verdict = _verdict_of(build_tableau(parse_formula("L[1] p")).root)
    x = Sat.__new__(Sat)
    with pytest.raises(TypeError, match="cannot restore Sat from state"):
        x.__setstate__(state_of(verdict))
    assert pickle.loads(pickle.dumps(verdict)) == verdict
