import json
import random
from fractions import Fraction as F

import pytest

from wtl import (
    ModelError, NEG_INF, POS_INF, UnknownStateError, Wts, format_rational,
    parse_rational, parse_wts, random_wts, serialize_wts,
)

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
    assert first.states_labelled("p") == {"b"}
    assert first.states_labelled("q") == frozenset()
    # A float is refused even after the text of the same value was read.
    with pytest.raises(ModelError):
        Wts(["a", "b"], {}, [("a", "1", "b"), ("a", 1.0, "b")])


def test_format_rational():
    assert format_rational(F(3)) == "3"
    assert format_rational(F(7, 2)) == "7/2"
    assert format_rational(parse_rational("1.5")) == "3/2"


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
