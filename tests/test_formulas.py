import pickle
import random
import re
import signal
import time
from fractions import Fraction as F
from math import inf

import pytest

from wtl import (
    And, AtLeast, AtMost, Atom, Bottom, FormulaError, Not, Top, Wts, box,
    diamond, iff, implies, lor, modal_depth, model_check, parse_formula,
    print_formula, random_formula, random_wts, sat_set,
)
from wtl.formulas import Formula

from oracles import reference_parse_formula

POOL = [F(0), F(1, 2), F(1), F(2), F(3)]
# Below, between and above POOL's weights, so every bisect edge case is hit.
OFF_POOL = [F(1, 3), F(5, 2), F(7)]


def test_parse_modalities():
    assert parse_formula("M[1] charging") == AtMost(1, Atom("charging"))
    assert parse_formula("L[7/2] p") == AtLeast(F(7, 2), Atom("p"))
    assert parse_formula("L[1.5] p") == AtLeast(F(3, 2), Atom("p"))


def test_parse_desugars_derived_forms():
    p, q = Atom("p"), Atom("q")
    assert parse_formula("<> p") == AtLeast(0, p)
    assert parse_formula("[] p") == Not(AtLeast(0, Not(p)))
    assert parse_formula("p -> q") == Not(And(p, Not(q)))
    assert parse_formula("p | q") == Not(And(Not(p), Not(q)))
    assert parse_formula("p <-> q") == iff(p, q)
    assert parse_formula("true & !false") == And(Top(), Not(Bottom()))


def test_parse_precedence_and_associativity():
    p, q, r = Atom("p"), Atom("q"), Atom("r")
    assert parse_formula("p & q & r") == And(And(p, q), r)
    assert parse_formula("p -> q -> r") == implies(p, implies(q, r))
    assert parse_formula("p | q & r") == lor(p, And(q, r))
    assert parse_formula("!p & q") == And(Not(p), q)
    assert parse_formula("L[1] p & q") == And(AtLeast(1, p), q)


def test_atoms_named_L_or_M_stay_atoms():
    assert parse_formula("L & M") == And(Atom("L"), Atom("M"))


def test_parse_errors_have_positions():
    for text in ["p &", "L[] p", "L[-1] p", "(p", "p q", "L[1/0] p", "L[1/] p",
                 "L[1.] p", "é", "p²", "L[٣] p", "L[1/٢] p"]:
        with pytest.raises(FormulaError, match="position"):
            parse_formula(text)
    # Errors quote the input's own text, rationals included.
    for text, message in [
        ("p & 0.5", "position 4: unexpected '0.5'"),
        ("p 0.5", "position 2: trailing input '0.5'"),
        ("L[2 3/4] p", "position 4: expected ']', got '3/4'"),
        ("(p 2.50", "position 3: expected ')', got '2.50'"),
        ("L[p] q", "position 2: expected a number, got 'p'"),
        ("M[", "position 2: expected a number, got end of input"),
        ("L[] p", "position 1: trailing input '[]'"),
        ("p &\u00a0", "position 4: unexpected end of input"),
        ("q é 1/0", "position 2: unexpected character 'é'"),
        ("L[1/0] é", "position 2: zero denominator"),
        ("L[٣] p", "position 2: unexpected character '٣'"),
    ]:
        with pytest.raises(FormulaError) as caught:
            parse_formula(text)
        assert str(caught.value) == message, text


def test_parse_formula_names_the_first_byte_that_is_not_utf8():
    with pytest.raises(FormulaError, match=r"^byte 0: not UTF-8 \(invalid start byte\)$"):
        parse_formula(b"\xff(p")
    with pytest.raises(FormulaError, match=r"^byte 4: not UTF-8"):
        parse_formula("p & é".encode("utf-8")[:-1])
    assert parse_formula("p & L[1/2] q".encode("utf-8")) == parse_formula("p & L[1/2] q")


# Pieces of formula text, valid and not: every token, rationals cut short
# or with a zero denominator, the spaces `str.isspace` knows beyond ASCII,
# and digits and letters outside ASCII.
_PIECES = [
    "p", "q", "x1", "_a", "L", "M", "true", "false", "Lp",
    "0", "1", "2", "12", "0.5", "7/2", "3/", "1/0", "2.", "1/00", "0/3",
    "L[", "M[", "L[1]", "M[1/2]", "[", "]", "[]", "(", ")", "!", "&", "|",
    "->", "<->", "<>", "<", "-", ">", "/", ".", " ", "  ", "\t", "\n",
    "\u00a0", "\u2003", "٣", "²", "é", "\u0301",
]


class _Hashed:
    """Stands in for a child whose hash is `value`."""

    def __init__(self, value: int):
        self.value = value

    def __hash__(self):
        return self.value


def _tuple_hash(f) -> int:
    """The stock frozen-dataclass hash of `f`, recomputed through the tree:
    the hash of the tuple of its fields, where a child hashes as its own
    tuple does."""
    return hash(tuple(
        _Hashed(_tuple_hash(v)) if isinstance(v, Formula) else v
        for v in (getattr(f, name) for name in f.__dataclass_fields__)
    ))


def _reference_message(text: str, message: str) -> str:
    """The reference parser's message as the current parser words it: a
    rational token is quoted as the input has it, and a missing bound is
    `expected a number`."""
    message = message.replace("expected 'rat'", "expected a number")
    rational = re.search(r"Fraction\(\d+, \d+\)$", message)
    if rational:
        pos = int(re.match(r"position (\d+):", message).group(1))
        number = re.compile(r"[0-9]+(?:/[0-9]*|\.[0-9]*)?").match(text, pos).group()
        message = message[:rational.start()] + repr(number)
    return message


def test_parser_agrees_with_the_reference_parser():
    rng = random.Random(20261018)
    parsed = failed = 0
    for case in range(24000):
        if case % 3 == 0:
            # A printed formula with a few pieces put in, so that most of
            # these parse, or fail deep inside.
            text = print_formula(random_formula(case, ["p", "q"], 3, POOL))
            for _ in range(rng.choice([0, 0, 1, 2])):
                at = rng.randrange(len(text) + 1)
                text = text[:at] + rng.choice(_PIECES) + text[at:]
        else:
            text = "".join(rng.choice(_PIECES) for _ in range(rng.randrange(13)))
        try:
            expected = reference_parse_formula(text)
        except FormulaError as e:
            with pytest.raises(FormulaError) as caught:
                parse_formula(text)
            assert str(caught.value) == _reference_message(text, str(e)), text
            failed += 1
        else:
            f = parse_formula(text)
            assert f == expected, text
            assert hash(f) == hash(expected) == _tuple_hash(f), text
            parsed += 1
    assert parsed > 5000 and failed > 5000


def test_print_round_trip_fixed():
    for text in [
        "(L[2] p1 & M[5] L[1] p1)",
        "p",
        "!(p & !q)",
        "L[3/2] (a & b)",
        "M[0] !x",
        "true",
        "false",
    ]:
        f = parse_formula(text)
        assert parse_formula(print_formula(f)) == f


def test_print_round_trip_random():
    for seed in range(200):
        f = random_formula(seed, ["p1", "p2", "p3"], 3, POOL)
        assert parse_formula(print_formula(f)) == f


def test_sat_set_boolean_clauses(vacuum):
    states = vacuum.states
    assert sat_set(vacuum, Top()) == states
    assert sat_set(vacuum, Bottom()) == frozenset()
    assert sat_set(vacuum, Atom("waiting")) == {"s1"}
    assert sat_set(vacuum, Atom("absent")) == frozenset()
    assert sat_set(vacuum, Not(Atom("waiting"))) == states - {"s1"}
    assert sat_set(vacuum, And(Atom("waiting"), Atom("cleaning"))) == frozenset()


def test_max_bound_modality_vacuum(vacuum):
    # the only charging state is s3; weights from s1 into it are {1,2}
    f = parse_formula("M[1] charging")
    assert "s1" not in sat_set(vacuum, f)
    assert model_check(vacuum, "s1", f) is False
    assert model_check(vacuum, "s1", parse_formula("M[2] charging")) is True
    assert vacuum.theta_max("s1", sat_set(vacuum, Atom("charging"))) == F(2)


def test_min_zero_never_holds_of_falsum():
    for seed in range(20):
        m = random_wts(seed + 50, 4, 3, POOL, ["p"])
        assert sat_set(m, AtLeast(0, Bottom())) == frozenset()


def test_diamond_is_nonempty_image():
    for seed in range(30):
        m = random_wts(seed + 80, 4, 3, POOL, ["p", "q"])
        f = Atom("p")
        targets = sat_set(m, f)
        for s in m.states:
            assert model_check(m, s, diamond(f)) == bool(m.image_set(s, targets))


def _theta_sat(m, f, targets):
    """`f`'s states by the definition: theta_min/theta_max toward `targets`."""
    if isinstance(f, AtLeast):
        return {s for s in m.states if m.theta_min(s, targets) >= f.bound}
    return {s for s in m.states if m.theta_max(s, targets) <= f.bound}


def test_bound_modalities_match_theta_definition():
    sink = Wts(["a", "b", "c"], {"b": ["p"]}, [("a", 1, "b"), ("a", 3, "c")])
    models = [random_wts(seed + 300, 6, 4, POOL, ["p", "q"]) for seed in range(30)]
    for i, m in enumerate(models + [sink]):
        # Bottom: an empty target set; Top: every state a target.
        for phi in (random_formula(i + 400, ["p", "q"], 1, POOL), Bottom(), Top()):
            targets = sat_set(m, phi)
            for r in POOL + OFF_POOL:
                for f in (AtLeast(r, phi), AtMost(r, phi)):
                    assert sat_set(m, f) == _theta_sat(m, f, targets), (i, f)
    # b and c have no out-edges, so no modality holds there.
    assert sat_set(sink, AtLeast(0, Top())) == {"a"}
    assert sat_set(sink, AtMost(7, Top())) == {"a"}
    assert sat_set(sink, AtLeast(0, Bottom())) == frozenset()


def test_bound_modalities_read_weights_by_value():
    # "1/2" in one model and "0.5" in the other are the same weight.
    halves = Wts(["a", "b"], {"b": ["p"]}, [("a", "1/2", "b"), ("a", "2", "b")])
    points = Wts(["a", "b"], {"b": ["p"]}, [("a", "0.5", "b"), ("a", "2", "b")])
    assert halves == points
    for r in POOL + OFF_POOL:
        for f in (AtLeast(r, Atom("p")), AtMost(r, Atom("p"))):
            assert sat_set(halves, f) == sat_set(points, f) == _theta_sat(
                halves, f, {"b"}), f


def test_each_model_answers_for_itself():
    cheap = Wts(["a", "b"], {"b": ["p"]}, [("a", 1, "b"), ("b", 3, "a")])
    dear = Wts(["a", "b"], {"b": ["p"]}, [("a", 3, "b"), ("b", 1, "b")])
    lo, hi = AtLeast(2, Atom("p")), AtMost(2, Atom("p"))
    # One model asked for two formulas, then the other for the same two.
    assert sat_set(cheap, lo) == frozenset() and sat_set(cheap, hi) == {"a"}
    assert sat_set(dear, lo) == {"a"} and sat_set(dear, hi) == {"b"}
    assert sat_set(cheap, lo) == frozenset() and sat_set(cheap, hi) == {"a"}
    assert cheap.ranked_in_edges()[0] == (F(1), F(3))
    assert sorted(dear.ranked_in_edges()[1]["b"]) == [(0, "b"), (1, "a")]


def _forward_sat(m, f, cache):
    """Reference model checker: each modality scans every state's out-edges
    with `bounds_by_block` toward the operand's states, and reads the
    ranks it returns back as weights."""
    if f not in cache:
        if isinstance(f, Atom):
            result = {s for s in m.states if f.name in m.labels[s]}
        elif isinstance(f, Top):
            result = set(m.states)
        elif isinstance(f, Bottom):
            result = set()
        elif isinstance(f, Not):
            result = set(m.states) - _forward_sat(m, f.operand, cache)
        elif isinstance(f, And):
            result = _forward_sat(m, f.left, cache) & _forward_sat(m, f.right, cache)
        else:
            targets = _forward_sat(m, f.operand, cache)
            inside = {s: s in targets for s in m.states}
            result = set()
            for s in m.states:
                ranks = m.bounds_by_block(s, inside).get(True)
                lo, hi = (m.weights[ranks[0]], m.weights[ranks[1]]) if ranks else (-inf, inf)
                if (lo >= f.bound) if isinstance(f, AtLeast) else (hi <= f.bound):
                    result.add(s)
        cache[f] = result
    return cache[f]


def test_backward_evaluation_matches_forward_scan_on_large_models():
    weights = POOL + OFF_POOL
    for seed in range(8):
        m = random_wts(seed + 700, 1000, 5, weights, ["p", "q", "r"])
        drawn = (random_formula(seed * 100 + k, ["p", "q", "r"], 3, weights + [F(3, 4)])
                 for k in range(40))
        modal = [f for f in drawn if modal_depth(f) > 0][:12]
        cache = {}
        for f in modal:
            assert sat_set(m, f) == _forward_sat(m, f, cache), (seed, f)


def test_formula_hash_is_the_dataclass_hash_and_stays_out_of_state():
    f = parse_formula("L[1/2] (p & M[2] !q)")
    assert hash(f) == hash((f.bound, f.operand))
    assert hash(Top()) == hash(()) and hash(Atom("p")) == hash(("p",))
    assert repr(f).startswith("AtLeast(bound=Fraction(1, 2), operand=And(")
    copy = pickle.loads(pickle.dumps(f))
    assert copy == f and hash(copy) == hash(f)
    assert f.__getstate__() == [F(1, 2), f.operand]


def test_complement_and_intersection_on_random_models():
    for seed in range(30):
        m = random_wts(seed + 200, 5, 3, POOL, ["p1", "p2"])
        phi = random_formula(seed, ["p1", "p2"], 2, POOL)
        psi = random_formula(seed + 1, ["p1", "p2"], 2, POOL)
        assert sat_set(m, Not(phi)) == m.states - sat_set(m, phi)
        assert sat_set(m, And(phi, psi)) == sat_set(m, phi) & sat_set(m, psi)
        for s in m.states:
            assert model_check(m, s, phi) == (s in sat_set(m, phi))


def test_local_model_check_agrees_with_sat_set_on_every_state():
    weights = POOL + OFF_POOL
    for seed in range(300):
        m = random_wts(seed + 900, 6, 4, POOL, ["p", "q"])
        f = random_formula(seed + 1900, ["p", "q"], 3, weights)
        expected = sat_set(m, f)
        for s in m.states:
            assert model_check(m, s, f) == (s in expected), (seed, s, f)
    for seed in range(2):
        m = random_wts(seed + 2900, 1000, 4, weights, ["p", "q", "r"])
        drawn = (random_formula(seed * 100 + k + 3900, ["p", "q", "r"], 3, weights)
                 for k in range(60))
        for f in [f for f in drawn if modal_depth(f) == 3][:4]:
            expected = sat_set(m, f)
            for s in m.states:
                assert model_check(m, s, f) == (s in expected), (seed, s, f)


def test_local_model_check_picks_the_extreme_edge_into_the_operand():
    p = Atom("p")
    # The least out-edge of a goes to b, which is no p-state.
    cheap_miss = Wts(["a", "b", "c"], {"c": ["p"]}, [("a", 1, "b"), ("a", 3, "c")])
    assert model_check(cheap_miss, "a", AtLeast(2, p))
    assert not model_check(cheap_miss, "a", AtMost(2, p))
    # The greatest out-edge of a goes to b, which is no p-state.
    dear_miss = Wts(["a", "b", "c"], {"c": ["p"]}, [("a", 3, "b"), ("a", 1, "c")])
    assert model_check(dear_miss, "a", AtMost(2, p))
    assert not model_check(dear_miss, "a", AtLeast(2, p))
    # Two p-edges: L reads the least, M the greatest.
    spread = Wts(["a", "b", "c"], {"b": ["p"], "c": ["p"]},
                 [("a", 1, "b"), ("a", 3, "c")])
    assert not model_check(spread, "a", AtMost(2, p))
    assert not model_check(spread, "a", AtLeast(2, p))
    assert model_check(spread, "a", AtMost(3, p)) and model_check(spread, "a", AtLeast(1, p))
    # One target reached at two weights.
    twice = Wts(["a", "b"], {"b": ["p"]}, [("a", 1, "b"), ("a", 4, "b")])
    assert model_check(twice, "a", AtLeast(1, p)) and not model_check(twice, "a", AtLeast(2, p))
    assert model_check(twice, "a", AtMost(4, p)) and not model_check(twice, "a", AtMost(3, p))
    # No out-edges: every modality is false, its negation true.
    for f in (AtLeast(0, Top()), AtMost(100, Top()), AtLeast(0, p)):
        assert not model_check(twice, "b", f) and model_check(twice, "b", Not(f))
    # A self-loop is its own successor, at every level.
    loop = Wts(["a"], {"a": ["p"]}, [("a", 2, "a")])
    assert model_check(loop, "a", AtLeast(2, AtLeast(2, p)))
    assert model_check(loop, "a", AtMost(2, AtLeast(2, p)))
    assert not model_check(loop, "a", AtMost(1, p))
    assert not model_check(loop, "a", AtLeast(3, AtMost(2, p)))


def test_local_model_check_evaluates_each_shared_subformula_once_per_state():
    m = Wts(["a", "b"], {"a": ["p"], "b": ["p"]},
            [("a", 0, "a"), ("a", 1, "b"), ("b", 2, "a"), ("b", 3, "b")])
    f = Atom("p")
    for _ in range(40):
        f = And(AtLeast(0, f), AtMost(3, f))  # a 2^40-node tree, 81 distinct nodes

    def hang(signum, frame):
        raise TimeoutError("model_check walked the tree, not the DAG")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.setitimer(signal.ITIMER_REAL, 10)
    try:
        start = time.perf_counter()
        assert model_check(m, "a", f) and model_check(m, "b", f)
        assert time.perf_counter() - start < 1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class _ReadLabels(dict):
    """A state -> labels map that records the states whose labels were read."""

    def __init__(self, labels):
        super().__init__(labels)
        self.read = set()

    def __getitem__(self, s):
        self.read.add(s)
        return super().__getitem__(s)


def test_local_model_check_stays_within_the_modal_depth_and_builds_no_index():
    weights = POOL + OFF_POOL
    m = random_wts(4900, 1000, 4, weights, ["p", "q", "r"])
    drawn = (random_formula(k + 5900, ["p", "q", "r"], 3, weights) for k in range(200))
    formulas = [f for f in drawn if modal_depth(f) > 0][:20]
    labels = m.labels
    for k, f in enumerate(formulas):
        s = sorted(m.states)[k * 37]
        near, frontier = {s}, {s}
        for _ in range(modal_depth(f)):
            frontier = {t for u in frontier for _, t in m._out[u]}
            near |= frontier
        m.labels = _ReadLabels(labels)
        model_check(m, s, f)
        assert m.labels.read <= near, f
    assert m._in is None and m._holding is None


def test_local_model_check_answers_deep_chains():
    loop = Wts(["a"], {"a": ["p"]}, [("a", 0, "a")])
    for depth in (400, 900):
        f = parse_formula("L[0] " * depth + "p")
        assert model_check(loop, "a", f)
        assert not model_check(loop, "a", parse_formula("L[1] " * depth + "p"))


def test_bound_pair_can_fail_both_ways():
    # a state whose cheapest route into p is below 2 and dearest above 2
    m = Wts(
        ["a", "b", "c"],
        {"b": ["p"], "c": ["p"]},
        [("a", 1, "b"), ("a", 3, "c")],
    )
    f = And(Not(AtLeast(2, Atom("p"))), Not(AtMost(2, Atom("p"))))
    assert model_check(m, "a", f) is True


def test_conjunction_distribution_is_not_a_law():
    m = Wts(
        ["a", "b", "c"],
        {"b": ["p"], "c": ["q"]},
        [("a", 2, "b"), ("a", 2, "c")],
    )
    premise = And(AtLeast(2, Atom("p")), AtLeast(2, Atom("q")))
    conclusion = AtLeast(2, And(Atom("p"), Atom("q")))
    assert model_check(m, "a", premise) is True
    assert model_check(m, "a", conclusion) is False


def test_modal_depth():
    p1 = Atom("p1")
    assert modal_depth(p1) == 0
    assert modal_depth(parse_formula("L[2] p1 & M[5] L[1] p1")) == 2
    for seed in range(50):
        f = random_formula(seed + 500, ["p"], 3, POOL)
        assert modal_depth(Not(f)) == modal_depth(f)


def test_random_formula_deterministic_and_bounded():
    assert random_formula(9, ["a", "b"], 2, POOL) == random_formula(9, ["a", "b"], 2, POOL)
    for seed in range(100):
        assert modal_depth(random_formula(seed, ["a", "b"], 0, POOL)) == 0
        assert modal_depth(random_formula(seed, ["a", "b"], 2, POOL)) <= 2


def test_box_dual(vacuum):
    # box f holds iff no transition leaves the f-states
    f = Atom("charging")
    outside = sat_set(vacuum, Not(f))
    for s in vacuum.states:
        assert model_check(vacuum, s, box(f)) == (not vacuum.image_set(s, outside))
