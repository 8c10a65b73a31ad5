import copy
import gc
import json
import pickle
import random
import re
import sys
import tracemalloc
from collections import Counter
from itertools import chain, combinations
from fractions import Fraction as F

import pytest

import wtl.wts
from wtl import (
    SCHEMAS, And, Atom, FormulaError, ModelError, NEG_INF, POS_INF, Partition,
    UnknownStateError, Wts, are_bisimilar,
    build_tableau, distinguishing_formula, extract_model, format_rational,
    generalized_bisimilarity, is_satisfiable, model_check, parse_formula,
    parse_rational, parse_wts, quotient_model, random_wts, sat_set,
    serialize_wts, weighted_bisimilarity,
)
from wtl.formulas import StateSets
from wtl.wts import MAX_RATIONAL_DIGITS

from conftest import make_coarse_pair_model, make_vacuum_model, mutated_model
from oracles import reference_model, reference_parse_wts

POOL = [F(0), F(1, 2), F(1), F(2), F(3)]


def test_image_set_vacuum(vacuum):
    assert vacuum.image_set("s2", {"s1"}) == {F(5), F(10), F(15)}
    assert vacuum.image_set("s1", {"s3"}) == {F(1), F(2)}
    assert vacuum.image_set("s2", set()) == frozenset()


def test_theta_bounds_vacuum(vacuum):
    assert vacuum.theta_min("s2", {"s1"}) == F(5)
    assert vacuum.theta_max("s2", {"s1"}) == F(15)
    assert vacuum.theta_min("s2", set()) == NEG_INF
    assert vacuum.theta_max("s2", set()) == POS_INF


def test_theta_singleton_image():
    m = Wts(["a", "b"], {}, [("a", F(7, 2), "b")])
    assert m.theta_min("a", {"b"}) == F(7, 2)
    assert m.theta_max("a", {"b"}) == F(7, 2)


def test_unknown_state_rejected(vacuum):
    with pytest.raises(UnknownStateError):
        vacuum.image_set("nope", {"s1"})
    with pytest.raises(UnknownStateError):
        vacuum.image_set("s1", {"nope"})
    # a value that is no state id, hashable or not, is named alike
    f = parse_formula("p")
    for state in (["s1"], {}, {"s1"}, 1, None):
        for call in (lambda: model_check(vacuum, state, f),
                     lambda: are_bisimilar(vacuum, state, "s2"),
                     lambda: distinguishing_formula(vacuum, "s2", state),
                     lambda: vacuum.image_set(state, ["s2"]),
                     lambda: vacuum.theta_min(state, ["s2"])):
            with pytest.raises(UnknownStateError, match=re.escape(f"unknown state {state!r}")):
                call()
    # so is each target: named once, sorted by its text whatever its type
    for targets, named in (([["b"]], "[['b']]"), ([{}], "[{}]"),
                           ([1, None], "[1, None]"), (["zz", 3], "[3, 'zz']"),
                           ([None, "s1", {"s1"}, "nope", None], "[None, 'nope', {'s1'}]"),
                           ({"zz", "nope"}, "['nope', 'zz']")):
        for call in (lambda: vacuum.image_set("s1", targets),
                     lambda: vacuum.theta_min("s1", targets),
                     lambda: vacuum.theta_max("s1", targets)):
            with pytest.raises(UnknownStateError,
                               match=re.escape(f"unknown target state(s) {named}")):
                call()


def test_construction_invariants():
    with pytest.raises(ModelError):
        Wts([], {}, [])
    with pytest.raises(ModelError):
        Wts(["a"], {}, [("a", 1, "ghost")])
    with pytest.raises(ModelError):
        Wts(["a"], {}, [("a", -1, "a")])
    with pytest.raises(ModelError):
        Wts(["a"], {}, [("a", F(-1, 2), "a")])
    with pytest.raises(ModelError):
        Wts(["a"], {"ghost": ["p"]}, [])
    with pytest.raises(ModelError):
        Wts(["bad id"], {}, [])
    # duplicate triples collapse
    m = Wts(["a"], {}, [("a", 1, "a"), ("a", F(2, 2), "a")])
    assert len(m.transitions) == 1


def test_bare_strings_are_not_collections():
    # A str iterates over its characters, which would make "ab" two
    # states and "pq" two propositions.
    with pytest.raises(ModelError, match="states"):
        Wts("ab", {}, [("a", "1", "b")])
    with pytest.raises(ModelError, match="states"):
        Wts("s", {}, [])
    with pytest.raises(ModelError, match="labels of 's'"):
        Wts(["s"], {"s": "pq"}, [])
    with pytest.raises(ModelError, match="labels of 's'"):
        Wts(["s"], {"s": ""}, [])
    m = Wts(("a", "b"), {"a": ("p", "q"), "b": frozenset()}, [("a", "1", "b")])
    assert m.labels["a"] == {"p", "q"} and m.labels["b"] == frozenset()
    # nor are a partition's blocks and a query's target states
    with pytest.raises(ValueError, match="block must be a collection of states, got 's0'"):
        Partition(["s0", "t1"])
    assert Partition([["s0"], ("t1",)]).as_lists() == [["s0"], ["t1"]]
    for query in (m.image_set, m.theta_min, m.theta_max):
        with pytest.raises(ModelError, match="targets must be a collection of state ids, got 'b'"):
            query("a", "b")
    # and values that do not iterate at all are named, not a TypeError
    with pytest.raises(ValueError, match="blocks must be a collection of blocks, got 5"):
        Partition(5)
    with pytest.raises(ValueError, match="block must be a collection of states, got 5"):
        Partition([5])
    for query in (m.image_set, m.theta_min, m.theta_max):
        for value in (5, None):
            with pytest.raises(ModelError, match=f"state ids, got {value}$"):
                query("a", value)
    assert m.image_set("a", ["b"]) == {F(1)} and m.theta_max("a", {"b"}) == F(1)


def test_parse_rational_formats():
    assert parse_rational("3") == F(3)
    assert parse_rational("7/2") == F(7, 2)
    assert parse_rational("1.5") == F(3, 2)
    assert parse_rational("0.25") == F(1, 4)
    with pytest.raises(ModelError):
        parse_rational("-1")
    with pytest.raises(ModelError):
        parse_rational("1/0")
    with pytest.raises(ModelError):
        parse_rational("1e3")


def test_wts_reads_weight_text_with_the_model_file_grammar():
    from wtl import Atom, AtLeast

    assert Wts(["a"], {}, [("a", "3/2", "a")]) == Wts(["a"], {}, [("a", F(3, 2), "a")])
    for text in ("1e3", " 1_0 ", "٣/٢", "1.٥"):
        with pytest.raises(ModelError):
            parse_rational(text)
        with pytest.raises(ModelError):
            Wts(["a"], {}, [("a", text, "a")])
    with pytest.raises(ModelError):
        AtLeast("1e2", Atom("p"))


def test_weight_text_may_have_surrounding_space_and_a_signed_zero():
    # a weight is `space* '-'? rat space*`, the sign only on a zero value,
    # in files and in `Wts(...)` alike; a formula bound is `rat` alone
    def model_file(text):
        return json.dumps({"states": [{"id": "a"}],
                           "transitions": [{"from": "a", "weight": text, "to": "a"}]})

    for text, value in ((" 1 ", F(1)), ("\t2/4\n", F(1, 2)), ("-0", F(0)),
                        ("-0/5", F(0)), ("-0.0", F(0)), (" -0 ", F(0))):
        assert parse_rational(text) == value
        assert parse_wts(model_file(text)).weights == (value,)
        assert Wts(["a"], {}, [("a", text, "a")]).weights == (value,)
    for text, message in (("-1", "negative weight '-1'"),
                          ("- 0", "malformed rational '- 0': expected digits"),
                          ("+1", "malformed rational '+1': expected digits"),
                          ("1 /2", "malformed rational '1 /2'"),
                          ("-0/0", "malformed rational '-0/0': zero denominator")):
        for read in (parse_rational, lambda t: parse_wts(model_file(t)),
                     lambda t: Wts(["a"], {}, [("a", t, "a")])):
            with pytest.raises(ModelError) as caught:
                read(text)
            assert str(caught.value) == message
    for text in ("L[-0] p", "L[+1] p"):
        with pytest.raises(FormulaError) as caught:
            parse_formula(text)
        assert str(caught.value) == f"position 2: unexpected character {text[2]!r}"
    assert parse_formula("L[ 1 ] p") == parse_formula("L[1] p")


def test_weights_are_equal_by_value_whatever_their_spelling_or_type():
    halves = ["1/2", "2/4", "0.5", F(1, 2)]
    models = [Wts(["a", "b"], {"b": ["p"]}, [("a", w, "b"), ("b", "3", "a")])
              for w in halves]
    models.append(Wts(["a", "b"], {"b": ["p"]},
                      [("a", w, "b") for w in halves + halves[::-1]]
                      + [("b", 3, "a"), ("b", "3.0", "a")]))
    first = models[0]
    for m in models:
        assert m == first and hash(m) == hash(first)
        assert m.weights == (F(1, 2), F(3))
        assert serialize_wts(m) == serialize_wts(first)
        assert m.transitions == {("a", F(1, 2), "b"), ("b", F(3), "a")}
        assert all(type(w) is F for _, w, _ in m.transitions)
    # A float is refused even after the text of the same value was read.
    with pytest.raises(ModelError):
        Wts(["a", "b"], {}, [("a", "1", "b"), ("a", 1.0, "b")])


def test_a_model_is_plain_data():
    m = random_wts(1953, 12, 3, POOL, ["p", "q"])
    slots = {name: getattr(m, name) for name in Wts.__slots__}
    f = parse_formula("L[1] p & !M[2] (q | L[0] p)")
    sat_set(m, f)
    for s in m.states:
        model_check(m, s, f)
    hash(m)
    p, q = sat_set(m, Atom("p")), sat_set(m, Atom("q"))
    SCHEMAS["A4"].conclusion(StateSets(m), p, q, F(1))
    for partition in (generalized_bisimilarity(m), weighted_bisimilarity(m)):
        quotient_model(m, partition)
    first, *rest = sorted(m.states)
    for t in rest:
        distinguishing_formula(m, first, t)
    # No query wrote a slot, or changed what one holds.
    for name, value in slots.items():
        assert getattr(m, name) is value, name
    assert m == random_wts(1953, 12, 3, POOL, ["p", "q"])


def test_format_rational():
    assert format_rational(F(3)) == "3"
    assert format_rational(F(7, 2)) == "7/2"
    assert format_rational(parse_rational("1.5")) == "3/2"
    # the interpreter's own message never shows past the digit limit, and
    # N and D together hold at most the limit's digits, as the reader's do
    at_limit = int("9" * MAX_RATIONAL_DIGITS)
    half = int("9" * (MAX_RATIONAL_DIGITS // 2))
    assert format_rational(F(at_limit)) == str(at_limit)
    assert format_rational(F(half, half - 1)) == f"{half}/{half - 1}"
    for q in (F(at_limit + 1), F(1, at_limit + 1), F(2 * at_limit - 1, 2),
              F(at_limit, at_limit - 1), F(half * 10 + 1, half)):
        with pytest.raises(ValueError, match="^more than 4300 digits in a rational to print$"):
            format_rational(q)


VACUUM_TEXT = b"""
{"states": [{"id": "s1", "labels": ["waiting"]},
            {"id": "s2", "labels": ["cleaning"]},
            {"id": "s3", "labels": ["charging"]}],
 "transitions": [{"from": "s1", "weight": "1", "to": "s1"},
                 {"from": "s1", "weight": "1", "to": "s3"},
                 {"from": "s1", "weight": "2", "to": "s3"},
                 {"from": "s3", "weight": "60", "to": "s1"},
                 {"from": "s3", "weight": "100", "to": "s1"},
                 {"from": "s1", "weight": "0", "to": "s2"},
                 {"from": "s2", "weight": "5", "to": "s1"},
                 {"from": "s2", "weight": "10", "to": "s1"},
                 {"from": "s2", "weight": "15", "to": "s1"}]}
"""


def test_parse_wts_vacuum(vacuum):
    m = parse_wts(VACUUM_TEXT)
    assert len(m.states) == 3
    assert len(m.transitions) == 9
    assert m == vacuum


def test_parse_wts_errors():
    with pytest.raises(ModelError, match="line"):
        parse_wts(b"{not json")
    with pytest.raises(ModelError, match="negative"):
        parse_wts(b'{"states":[{"id":"a"}],"transitions":[{"from":"a","weight":"-1","to":"a"}]}')
    with pytest.raises(ModelError, match="duplicate"):
        parse_wts(b'{"states":[{"id":"a"},{"id":"a"}],"transitions":[]}')
    with pytest.raises(ModelError, match="unknown"):
        parse_wts(b'{"states":[{"id":"a"}],"transitions":[{"from":"a","weight":"1","to":"b"}]}')
    with pytest.raises(ModelError, match="unknown key"):
        parse_wts(b'{"states":[{"id":"a","extra":1}],"transitions":[]}')
    with pytest.raises(ModelError, match="unknown key"):
        parse_wts(b'{"states":[{"id":"a"}],"transitions":[],"comment":"hi"}')
    with pytest.raises(ModelError, match=r"unknown key\(s\) \['x'\] in transition entry"):
        parse_wts(b'{"states":[{"id":"a"}],"transitions":[{"from":"a","weight":"1","x":0}]}')
    with pytest.raises(ModelError, match='transition without "to"'):
        parse_wts(b'{"states":[{"id":"a"}],"transitions":[{"from":"a","weight":"1"}]}')


def test_parse_wts_refuses_numbers_over_the_digit_limit():
    def model(weight: str) -> bytes:
        return ('{"states":[{"id":"a"}],"transitions":'
                f'[{{"from":"a","weight":{weight},"to":"a"}}]}}').encode()

    limit = MAX_RATIONAL_DIGITS
    assert parse_wts(model(f'"{"9" * limit}"')).weights == (F(int("9" * limit)),)
    for weight, message in [
        (f'"{"9" * (limit + 1)}"', "more than 4300 digits in a rational"),
        (f'"1/{"3" * limit}"', "more than 4300 digits in a rational"),
        ("9" * 5000, "more than 4300 digits in a JSON number"),
        ("-" + "9" * 5000, "more than 4300 digits in a JSON number"),
    ]:
        with pytest.raises(ModelError) as caught:
            parse_wts(model(weight))
        assert str(caught.value).endswith(message)
        assert "set_int_max_str_digits" not in str(caught.value)


def test_parse_wts_refuses_deep_nesting_with_a_model_error():
    message = "^model nested too deeply for this interpreter's recursion limit$"
    for blob in (b"[" * 100_000,
                 b'{"states": ' + b"[" * 100_000 + b"]" * 100_000 + b', "transitions": []}',
                 b'{"states": [], "transitions": [' + b'{"a": ' * 100_000 + b"1"
                 + b"}" * 100_000 + b"]}"):
        with pytest.raises(ModelError, match=message):
            parse_wts(blob)


def _outcome(check, *args):
    """What a model check gives: the model as plain data, or the type and
    text of what it raises."""
    try:
        result = check(*args)
    except (ModelError, TypeError, ValueError, AttributeError) as e:  # compared by type and text
        return type(e).__name__, str(e)
    if isinstance(result, Wts):
        assert result.weights == tuple(sorted({w for _, w, _ in result.transitions}))
        return "model", (result.states, dict(result.labels), result.transitions)
    return "model", result


def _faulty(rng, doc, faults: int) -> bytes:
    """`doc` with `faults` values replaced by bad ones, one after another."""
    blob = json.dumps(doc).encode()
    for _ in range(faults):
        try:
            doc = json.loads(blob)
        except ValueError:  # cut short by the last mutation
            break
        blob = mutated_model(rng, doc)
    return blob


def test_bulk_checks_agree_with_the_reference_checker(monkeypatch):
    """The model file reader and the constructor accept exactly what the
    element-by-element reference accepts, build the same model, and raise
    the same error with the same text for the first bad element.  The
    files are read twice: as they come, and with the bulk reader giving
    every file up, so the element-by-element checker alone must accept
    and refuse exactly the same."""
    rng = random.Random(2121)
    docs = [json.loads(serialize_wts(m)) for m in (
        make_vacuum_model(), make_coarse_pair_model(),
        random_wts(12, 9, 3, POOL, ["p", "q"]))]
    blobs = [_faulty(rng, rng.choice(docs), rng.choice([1, 1, 1, 2, 3]))
             for _ in range(700)]
    vacuum = json.loads(VACUUM_TEXT)
    hand_made = [
        # labels: unhashable, not text, not a list, one bad among good ones
        {"labels": [{}]}, {"labels": [["p"]]}, {"labels": [1]}, {"labels": [None]},
        {"labels": "p"}, {"labels": {"p": 1}}, {"labels": ["ok", "bad id"]},
        # identifiers to Python but not ASCII
        {"labels": ["p", "é"]}, {"id": "s٣"}, {"labels": ["ａ"]},
        # endpoints: not text, a list, an object, unknown
        {"from": 1}, {"to": ["s1"]}, {"from": {"id": "s1"}}, {"to": "ghost"},
        # weights: not text, unhashable, bad text
        {"weight": 1}, {"weight": ["1"]}, {"weight": None}, {"weight": "-1"},
        # extra and missing keys
        {"extra": 0}, {"from": None, "drop": "from"}, {"drop": "weight"},
        {"drop": "id"}, {"drop": "labels"},
    ]
    for fault in hand_made:
        for kind in ("states", "transitions"):
            doc = json.loads(json.dumps(vacuum))
            entry = doc[kind][rng.randrange(len(doc[kind]))]
            entry.update((k, v) for k, v in fault.items() if k != "drop")
            entry.pop(fault.get("drop"), None)
            blobs.append(json.dumps(doc).encode())
    # entries that are no object, yet pass the whole-list key passes: text
    # and lists of three, and state entries whose items are all state keys
    first = len(blobs)
    for kind, entry in [("transitions", "abc"), ("transitions", ["s1", "1", "s2"]),
                        ("states", ""), ("states", "id"), ("states", ["id"])]:
        doc = json.loads(json.dumps(vacuum))
        doc[kind][rng.randrange(len(doc[kind]))] = entry
        blobs.append(json.dumps(doc).encode())
    # a 2-key transition beside a 4-key one, either first: three keys per
    # transition in all
    for short, long in ((1, 4), (4, 1)):
        doc = json.loads(json.dumps(vacuum))
        del doc["transitions"][short]["weight"]
        doc["transitions"][long]["extra"] = 0
        blobs.append(json.dumps(doc).encode())
    shapes = range(first, len(blobs))
    # several faults of different kinds at once: the first one named wins
    faults = [("states", 0, "id", "9x"), ("states", 2, "labels", ["bad id"]),
              ("transitions", 1, "weight", "1/0"), ("transitions", 4, "to", "ghost"),
              ("transitions", 6, "weight", "x")]
    for chosen in chain.from_iterable(combinations(faults, k) for k in range(2, 6)):
        doc = json.loads(json.dumps(vacuum))
        for kind, i, key, value in chosen:
            doc[kind][i][key] = value
        blobs.append(json.dumps(doc).encode())
    # faults no transition shows: no state at all, and a state that no
    # transition touches with an id that is not an identifier
    blobs.append(b'{"states": [], "transitions": []}')
    for bad in ("9x", "s\u0663", "bad id"):
        doc = json.loads(json.dumps(vacuum))
        doc["states"].append({"id": bad})
        blobs.append(json.dumps(doc).encode())
    # valid files: entries shuffled, triples repeated, weights respelled
    spelled = {"1": ["1", "1.0", "2/2"], "2": ["2", "4/2"], "0": ["0", "0.00"]}
    for _ in range(80):
        doc = json.loads(json.dumps(rng.choice(docs)))
        doc["transitions"] += rng.sample(doc["transitions"], len(doc["transitions"]) // 2)
        for entries in doc.values():
            rng.shuffle(entries)
        for entry in doc["transitions"]:
            entry["weight"] = rng.choice(spelled.get(entry["weight"], [entry["weight"]]))
        blobs.append(json.dumps(doc).encode())
    wants = [_outcome(reference_parse_wts, blob) for blob in blobs]
    assert all(wants[i][0] == "ModelError" for i in shapes)
    for bulk in (True, False):
        if not bulk:
            monkeypatch.setattr(wtl.wts, "_in_bulk", lambda states, transitions: None)
        for blob, want in zip(blobs, wants):
            assert _outcome(parse_wts, blob) == want, (bulk, blob)
    rejected = Counter(want[0] for want in wants)
    assert rejected["model"] > 50 and rejected["ModelError"] > 500
    assert set(rejected) == {"model", "ModelError"}

    # The constructor on Python values the file format cannot hold.
    def cases():
        return [
            (["a", "b"], {"a": ["p"]}, [("a", F(1, 2), "b"), ("b", "0.5", "a"), ("a", 2, "a")]),
            (["b", "a", "b"], {}, [("a", "1", "b"), ("a", 1.0, "b")]),
            (("a",), {"a": ("p", {})}, []),
            (["a"], {"a": 5}, []),
            (["a", 7], {}, []),
            (["bad id", "9x"], {}, []),
            (["a", "été"], {"a": ["x٣"]}, []),
            (["a"], {}, [("a", "1")]),
            (["a"], {}, [("a", "1", "a", "extra")]),
            (["a"], {}, [("a", "1", "a"), 5]),
            (["a"], {}, [iter(("a", "1", "a"))]),
            (["a"], {}, [("a", "1", "ghost"), ("a", "x", "a")]),
            (["a"], {}, [("a", "x", "a"), ("a", "1", "ghost")]),
            (["a"], {}, [(["a"], "1", "a")]),
            (["a"], {"a": ["bad id"]}, [("a", "1", "ghost")]),
            (["bad id"], {"ghost": ["p"]}, []),
            (["a"], {"a": iter(["bad id"])}, []),
            (["a", "b"], {"a": iter(["p", "bad id"]), "b": 5}, []),
            (["a"], {}, ["a1a"]),
            (["a"], [], []),
            (["a"], None, []),
            (["a"], {}, None),
            (None, {}, []),
            ([["a"]], {}, []),
        ]
    # A label value that is not a collection, a transition that is not a
    # triple, an argument of the wrong shape and a state id that is not
    # hashable: the constructor names them in a ModelError, where the
    # reference lets Python's TypeError, ValueError or AttributeError out,
    # or reads three characters of text as a triple.
    named = {
        3: "labels of 'a' must be a collection, got 5",
        7: "transition ('a', '1') is not a (source, weight, target) triple",
        8: "transition ('a', '1', 'a', 'extra') is not a (source, weight, target) triple",
        9: "transition 5 is not a (source, weight, target) triple",
        18: "transition 'a1a' is not a (source, weight, target) triple",
        19: "labels must be a mapping from state ids to labels, got []",
        20: "labels must be a mapping from state ids to labels, got None",
        21: "transitions must be a collection of triples, got None",
        22: "states must be a collection of ids, got None",
        23: "bad state id ['a']: expected [A-Za-z_][A-Za-z0-9_]*",
    }
    for i, (want, got) in enumerate(zip(cases(), cases())):
        expected = _outcome(reference_model, *want)
        if i in named:
            assert expected[0] != "ModelError", want
            expected = "ModelError", named[i]
        assert _outcome(Wts, *got) == expected, want


def _calls(names, action):
    """The result of `action()` and how often it ran each named function of
    `wtl.wts`."""
    codes = {getattr(wtl.wts, name).__code__: name for name in names}
    seen = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            seen[codes[frame.f_code]] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = action()
    finally:
        sys.setprofile(previous)
    return result, seen


def test_model_construction_does_no_work_per_element():
    # A file of planted size: each distinct weight text is parsed once,
    # and no identifier goes through the per-element check.
    texts = ["1/2", "0.5", "2/4", "3", "10", "0"]
    rng = random.Random(2122)
    states = [f"s{i}" for i in range(300)]
    doc = {
        "states": [{"id": s, "labels": rng.sample(["p", "q", "r"], rng.randint(0, 2))}
                   for s in states],
        "transitions": [{"from": s, "weight": rng.choice(texts), "to": rng.choice(states)}
                        for s in states for _ in range(rng.randint(1, 4))],
    }
    watched = ("_check_ident", "parse_rational", "as_weight")
    m, seen = _calls(watched, lambda: parse_wts(json.dumps(doc).encode()))
    assert seen == Counter({"parse_rational": len(texts)})
    assert m.weights == (F(0), F(1, 2), F(3), F(10)) and len(m.transitions) > 400

    # Models the engines make from parts they have checked: no identifier
    # check at all, and `as_weight` only on the pool a draw is given.
    pool = POOL + ["7/2", "1.5"]
    drawn, seen = _calls(watched, lambda: random_wts(2123, 400, 5, pool, ["p", "q"]))
    assert seen == Counter({"as_weight": len(pool), "parse_rational": 2})
    assert len(drawn.transitions) > 400
    coarse = generalized_bisimilarity(m)
    quotient, seen = _calls(watched, lambda: quotient_model(m, coarse))
    assert seen == Counter() and len(quotient.transitions) > 100
    phi = parse_formula(" & ".join(f"L[{k}] (p & M[{k + 1}] q{k})" for k in range(20)))
    root = build_tableau(phi).root
    (extracted, _, verified), seen = _calls(watched, lambda: extract_model(root))
    assert seen == Counter() and verified and len(extracted.transitions) >= 40


def test_models_and_verdicts_pickle_and_deep_copy():
    # `Wts.labels` is a read-only view, which pickles only by a rebuild
    m = random_wts(2124, 12, 3, POOL, ["p", "q"])
    verdict = is_satisfiable(parse_formula("L[1] p"))
    copied = copy.deepcopy(m)
    assert copied == m and serialize_wts(copied) == serialize_wts(m)
    for value in (m, verdict, copied):
        again = pickle.loads(pickle.dumps(value))
        assert again == value and hash(again) == hash(value)
    with pytest.raises(TypeError):
        copied.labels["s1"] = frozenset()


def _assert_one_object_per_id(m, labels_shared: bool) -> None:
    """Every edge target and every key of `labels` and `_out` is the id
    object in `states`; with `labels_shared`, states with equal labels
    also share one frozenset."""
    own = {s: s for s in m.states}
    targets = (dst for es in m._out.values() for _, dst in es)
    for name, ids in (("labels", m.labels), ("_out", m._out), ("target", targets)):
        strays = [s for s in ids if s is not own[s]]
        assert not strays, f"{name}: {len(strays)} ids are copies of those in states"
    if labels_shared:
        one = {}
        assert all(one.setdefault(ps, ps) is ps for ps in m.labels.values())
        assert len(one) < len(m.states)


def _seeded_file(seed: int, n: int, degree: int) -> bytes:
    """A model file of `n` states with `degree` transitions each, entries
    shuffled; `json.loads` makes a fresh string per occurrence of an id."""
    rng = random.Random(seed)
    ids = [f"s{i}" for i in range(n)]
    states = [{"id": s, "labels": rng.sample(["busy", "idle", "done"], rng.randint(0, 2))}
              for s in ids]
    edges = [{"from": s, "weight": rng.choice(["1/2", "1", "2", "3"]), "to": rng.choice(ids)}
             for s in ids for _ in range(degree)]
    rng.shuffle(states)
    rng.shuffle(edges)
    return json.dumps({"states": states, "transitions": edges}).encode()


def test_models_keep_one_object_per_state_id_and_label_set(monkeypatch):
    data = _seeded_file(2701, 300, 3)
    read = parse_wts(data)
    _assert_one_object_per_id(read, labels_shared=True)
    _assert_one_object_per_id(pickle.loads(pickle.dumps(read)), labels_shared=True)

    # `Wts(...)`: ids and labels made at run time, a fresh copy per use
    # (the compiler would share literal identifiers)
    def fresh(s):
        return "".join(s)

    doc = json.loads(data)
    built = Wts([fresh(e["id"]) for e in doc["states"]],
                {fresh(e["id"]): [fresh(p) for p in e["labels"]] for e in doc["states"]},
                [(fresh(e["from"]), e["weight"], fresh(e["to"])) for e in doc["transitions"]])
    assert built == read
    _assert_one_object_per_id(built, labels_shared=True)

    # the element-by-element checker, on a file the bulk reader gives up
    monkeypatch.setattr(wtl.wts, "_in_bulk", lambda states, transitions: None)
    checked = parse_wts(data)
    assert checked == read
    _assert_one_object_per_id(checked, labels_shared=True)
    monkeypatch.undo()

    # the engines' own builders reuse the ids they are given
    drawn = random_wts(2702, 200, 4, POOL, ["p", "q"])
    quotient = quotient_model(read, generalized_bisimilarity(read))
    phi = parse_formula(" & ".join(f"L[{k}] (p & M[{k + 1}] q{k})" for k in range(8)))
    extracted, _, verified = extract_model(build_tableau(phi).root)
    assert verified and len(quotient.states) > 1
    for m in (drawn, quotient, extracted, pickle.loads(pickle.dumps(drawn))):
        _assert_one_object_per_id(m, labels_shared=False)


def _kept_bytes(build):
    """What the object `build()` returns keeps allocated, by tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        made = build()
        gc.collect()
        return made, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def _rebuilt_with_copies(m):
    """`m` as a reader that copies every occurrence builds it: one id
    object per state for `states`, `labels` and `_out`, but a fresh string
    per edge target and a fresh label set per state."""
    fresh = {s: "".join(s) for s in m.states}
    # `frozenset` of a frozenset is that same object; of a list, a new one
    labels = {fresh[s]: frozenset(list(ps)) for s, ps in m.labels.items()}
    edges = [(fresh[src], r, "".join(dst)) for src, es in m._out.items() for r, dst in es]
    return wtl.wts._assemble(frozenset(fresh.values()), labels, list(m.weights), edges)


def test_a_read_model_keeps_about_half_the_memory_of_per_occurrence_copies():
    # 4,000 states, 16,000 transitions: the shared targets and label sets
    # save a string per edge and a frozenset per state.  The read model
    # keeps 0.50-0.52 of the copies' bytes on Python 3.10-3.13, and kept
    # 1.06 when the readers made a copy per occurrence
    data = _seeded_file(2703, 4000, 4)
    read, kept = _kept_bytes(lambda: parse_wts(data))
    copied, kept_by_copies = _kept_bytes(lambda: _rebuilt_with_copies(read))
    assert copied == read and len(read.transitions) > 15_000
    assert kept < 0.7 * kept_by_copies, (kept, kept_by_copies)


def test_parse_wts_pauses_the_collector_and_restores_its_state():
    # every way out of a read leaves collection on or off as it found it:
    # a model, a file the bulk reader gives up and the checker refuses,
    # malformed JSON, and JSON nested past the recursion limit
    doc = json.loads(VACUUM_TEXT)
    doc["transitions"][3]["to"] = "ghost"
    reads = [(VACUUM_TEXT, None),
             (json.dumps(doc).encode(), "transition to unknown state 'ghost'"),
             (b"{not json", "line 1, column 2"),
             (b"[" * 100_000, "nested too deeply")]
    data = _seeded_file(2801, 4000, 4)
    was = gc.isenabled()
    try:
        for on in (True, False):
            for blob, error in reads:
                (gc.enable if on else gc.disable)()
                if error is None:
                    assert len(parse_wts(blob).states) == 3
                else:
                    with pytest.raises(ModelError, match=error):
                        parse_wts(blob)
                assert gc.isenabled() is on, (on, blob[:20])
        # 4,000 states, 16,000 transitions: not one collection during the
        # read.  `gc.collect` first, so the stats' own lists start none
        gc.enable()
        gc.collect()
        before = gc.get_stats()
        model = parse_wts(data)
        after = gc.get_stats()
    finally:
        (gc.enable if was else gc.disable)()
    assert len(model.states) == 4000 and len(model.transitions) > 15_000
    assert [s["collections"] for s in after] == [s["collections"] for s in before]


def test_constructor_reads_each_label_collection_once():
    m = Wts(["a", "b", "a"], {"a": iter(["p", "q"]), "b": (x for x in ["r"])}, [])
    assert m.labels == {"a": {"p", "q"}, "b": {"r"}}


def test_extraction_refuses_atom_names_that_are_not_identifiers():
    # `Atom` takes any name; the model a Sat verdict carries must still
    # be one the model file format can hold.
    for bad in ("bad id", "é", "9x"):
        with pytest.raises(ModelError, match=f"^bad proposition {bad!r}: expected"):
            is_satisfiable(And(parse_formula("L[1] p"), Atom(bad)))


def test_random_wts_checks_its_propositions_once():
    # a one-state draw still refuses a bad proposition it might not use
    for bad in ("bad id", "", "9x", "é"):
        with pytest.raises(ModelError, match=f"^bad proposition {bad!r}: expected"):
            random_wts(1, 1, 0, POOL, ["p", bad])
    with pytest.raises(ModelError, match="negative weight"):
        random_wts(1, 1, 0, POOL + ["-1"], ["p"])


def test_parse_wts_names_the_first_byte_that_is_not_utf8():
    with pytest.raises(ModelError, match=r"^byte 0: not UTF-8 \(invalid start byte\)$"):
        parse_wts(b"\xff{}")
    cut = b'{"states":[{"id":"\xc3"}],"transitions":[]}'
    with pytest.raises(ModelError, match=rf"^byte {cut.index(0xc3)}: not UTF-8"):
        parse_wts(cut)


def test_round_trip_vacuum(vacuum):
    data = serialize_wts(vacuum)
    assert parse_wts(data) == vacuum
    # serialization is byte-stable
    assert serialize_wts(parse_wts(data)) == data


def test_round_trip_minimal():
    m = Wts(["only"], {"only": []}, [])
    assert parse_wts(serialize_wts(m)) == m


def test_round_trip_random_models():
    for seed in range(100):
        m = random_wts(seed, 5, 3, POOL, ["p1", "p2", "p3"])
        assert parse_wts(serialize_wts(m)) == m


def test_serialized_bytes_are_those_of_the_standard_encoder():
    def encoded(m):
        doc = {
            "states": [{"id": s, "labels": sorted(m.labels[s])} for s in sorted(m.states)],
            "transitions": [
                {"from": src, "weight": format_rational(w), "to": dst}
                for src, w, dst in sorted(m.transitions)
            ],
        }
        return (json.dumps(doc, indent=2) + "\n").encode("utf-8")

    weights = POOL + [F(7, 3), F(10), F(5, 2)]
    for seed in range(300):
        rng = random.Random(seed)
        props = rng.choice([[], ["p"], ["p", "q", "r"]])
        m = random_wts(seed, rng.randint(1, 12), rng.randint(0, 4), weights, props)
        assert serialize_wts(m) == encoded(m), seed
    fixed = [
        Wts(["only"], {}, []),
        Wts(["b", "a"], {"a": ["q", "p"]}, []),
        Wts(["a", "b"], {}, [("a", "1/2", "b"), ("b", 3, "b")]),
        Wts(["a", "b", "c"], {"c": ["z"]}, [("a", 1, "c"), ("a", 1, "b"), ("c", 0, "a")]),
    ]
    for m in fixed:
        assert serialize_wts(m) == encoded(m), m


def test_random_wts_deterministic():
    a = random_wts(42, 6, 4, POOL, ["p", "q"])
    b = random_wts(42, 6, 4, POOL, ["p", "q"])
    assert a == b
    assert random_wts(43, 6, 4, POOL, ["p", "q"]) != a or True  # may coincide


def test_random_wts_single_isolated_state():
    m = random_wts(7, 1, 0, POOL, ["p"])
    assert len(m.states) == 1
    assert not m.transitions


def test_image_monotone_and_union_distribution():
    import random as rnd

    for seed in range(40):
        m = random_wts(seed + 900, 5, 3, POOL, ["p", "q"])
        rng = rnd.Random(seed)
        states = sorted(m.states)
        t1 = {s for s in states if rng.random() < 0.5}
        t2 = {s for s in states if rng.random() < 0.5}
        for s in states:
            assert m.image_set(s, t1 & t2) <= m.image_set(s, t1) & m.image_set(s, t2)
            assert m.image_set(s, t1 | t2) == m.image_set(s, t1) | m.image_set(s, t2)
            if t1 <= t2:
                assert m.image_set(s, t1) <= m.image_set(s, t2)


def test_theta_bound_ordering():
    for seed in range(40):
        m = random_wts(seed + 1300, 5, 3, POOL, ["p"])
        states = sorted(m.states)
        whole = set(states)
        for s in states:
            small = {t for t in states if t <= s}
            if m.image_set(s, small):
                # antitone min / monotone max under set growth
                assert m.theta_min(s, whole) <= m.theta_min(s, small)
                assert m.theta_max(s, small) <= m.theta_max(s, whole)
                assert m.theta_min(s, small) <= m.theta_max(s, small)
            else:
                assert m.theta_min(s, small) == NEG_INF
                assert m.theta_max(s, small) == POS_INF
