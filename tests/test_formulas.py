import json
import pickle
import random
import re
import sys
from fractions import Fraction as F
from math import inf

import pytest

from wtl import (
    And, AtLeast, AtMost, Atom, Bottom, FormulaError, ModelError, Not, Top,
    Wts, box, diamond, iff, implies, lor, model_check,
    parse_formula, parse_wts, print_formula, random_formula, random_wts,
    sat_set, serialize_wts,
)
from wtl import formulas
from wtl.cli import run as cli_run
from wtl.formulas import Formula, StateSets
from wtl.wts import MAX_RATIONAL_DIGITS

from conftest import in_time
from oracles import modal_depth, reference_parse_formula, reference_print_formula

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
    # "" ends the token list, so no name, "end" included, stops the parse.
    assert parse_formula("end & L & M") == And(And(Atom("end"), Atom("L")), Atom("M"))
    assert parse_formula("true_ | L") == lor(Atom("true_"), Atom("L"))


def test_bound_memo_stays_within_its_stated_size():
    info = formulas._read_bound.cache_info()
    assert info.maxsize == formulas.BOUND_MEMO_SIZE
    for k in range(5000):
        assert parse_formula(f"L[{k}/7] p") == AtLeast(F(k, 7), Atom("p"))
    assert formulas._read_bound.cache_info().currsize <= formulas.BOUND_MEMO_SIZE
    # A text read from the memo has the value of a fresh read.
    assert parse_formula("M[4999/7] q") == AtMost(F(4999, 7), Atom("q"))


def test_bound_errors_are_never_memoized():
    for _ in range(3):
        before = formulas._read_bound.cache_info()
        with pytest.raises(FormulaError) as caught:
            parse_formula("L[1/0] p")
        assert str(caught.value) == "position 2: zero denominator"
        after = formulas._read_bound.cache_info()
        # Read again every time, and not kept.
        assert after.misses == before.misses + 1
        assert after.currsize == before.currsize


def test_parsed_modalities_equal_the_constructed_ones_with_the_same_hash():
    p = Atom("p")
    inner = AtLeast(F(1, 2), Not(p))
    # A denominator of 2**61 - 1 has no inverse modulo it, so the bound's
    # hash is the interpreter's infinity sentinel, which an int keeps too.
    sentinel = F(1, 2**61 - 1)
    assert hash(sentinel) == sys.hash_info.inf == 314159
    nines = "9" * MAX_RATIONAL_DIGITS
    for text, value in (("0", F(0)), ("0.50", F(1, 2)), (nines, F(int(nines))),
                        ("1/2305843009213693951", sentinel)):
        for operand_text, operand in (("p", p), ("L[1/2] !p", inner)):
            for op, cls in (("L", AtLeast), ("M", AtMost)):
                built = cls(value, operand)
                # the second read comes from the bound memo
                for _ in range(2):
                    parsed = parse_formula(f"{op}[{text}] {operand_text}")
                    assert type(parsed) is cls and parsed == built, text
                    assert hash(parsed) == hash(built) == hash((value, operand)), text
                    assert parsed.__getstate__() == built.__getstate__()
    for text, built in (("<> p", diamond(p)), ("[] p", box(p))):
        parsed = parse_formula(text)
        assert parsed == built and hash(parsed) == hash(built)


def test_rationals_over_the_digit_limit_are_refused_with_a_stated_message():
    limit = MAX_RATIONAL_DIGITS
    assert print_formula(parse_formula(f"L[{'1' * limit}] p")) == f"L[{'1' * limit}] p"
    # Every value read prints: a decimal is refused when its canonical
    # text "N/D" would be over the limit, though its own text is not.
    tiny = parse_formula(f"L[0.{'0' * (limit - 3)}1] p")
    assert print_formula(tiny) == f"L[1/1{'0' * (limit - 2)}] p"
    for bound in ("1" * (limit + 1), "1" * 5000, f"1/{'3' * limit}",
                  f"{'1' * 3000}.{'1' * 3000}", f"0.{'0' * (limit - 2)}1",
                  f"1.{'3' * 2150}"):
        with pytest.raises(FormulaError) as caught:
            parse_formula(f"L[{bound}] p")
        assert str(caught.value) == f"position 2: more than {limit} digits in a rational"


def _rational_texts(rng, count):
    """Seeded rational texts "N", "N/D" and "N.M" of 1 to
    MAX_RATIONAL_DIGITS digits, many of them at or near the limit."""
    limit = MAX_RATIONAL_DIGITS
    for _ in range(count):
        n = rng.choice([1, 2, rng.randint(3, limit), limit // 2, limit - 1, limit])
        digits = "".join(rng.choice("0123456789") for _ in range(n))
        kind = rng.choice(["N", "N/D", "N.M"]) if n > 1 else "N"
        if kind == "N":
            yield digits
        else:
            cut = rng.randint(1, n - 1)
            yield digits[:cut] + ("/" if kind == "N/D" else ".") + digits[cut:]


def test_printed_formulas_and_models_read_back_up_to_the_digit_limit():
    rng = random.Random(1601)
    values = []
    refused = 0
    for text in _rational_texts(rng, 120):
        try:
            f = parse_formula(f"L[{text}] p")
        except FormulaError as e:
            # the model reader refuses the same texts, in its own terms
            with pytest.raises(ModelError, match=re.escape(str(e)[len("position 2: "):])):
                Wts(["a"], {}, [("a", text, "a")])
            refused += 1
            continue
        values.append(f.bound)
        assert parse_formula(print_formula(f)) == f
        m = Wts(["a"], {}, [("a", text, "a")])
        assert parse_wts(serialize_wts(m)) == m
    printed = [print_formula(AtLeast(v, Atom("p")))[2:-3] for v in values]
    assert max(len(t.replace("/", "")) for t in printed) == MAX_RATIONAL_DIGITS
    assert refused > 0 and len(values) > 60
    for seed in range(40):
        f = random_formula(seed, ["p", "q"], 2, rng.sample(values, 4))
        assert parse_formula(print_formula(f)) == f, seed
        m = random_wts(seed, 4, 2, rng.sample(values, 4), ["p", "q"])
        assert parse_wts(serialize_wts(m)) == m, seed


def test_prefix_chains_of_any_length_parse():
    p = Atom("p")
    built = p
    for _ in range(1000):
        built = Not(AtLeast(F(1, 2), AtMost(3, diamond(box(built)))))
    parsed = parse_formula("!L[1/2] M[3] <> [] " * 1000 + "p")
    # both are 7,000 levels deep
    assert parsed == built
    assert print_formula(parsed) == print_formula(built)
    assert hash(parsed) == hash(built)
    assert print_formula(parse_formula("(" + "!" * 5000 + "p)")) == "!" * 5000 + "p"


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
        # a lexical error after the token the parse stops at still wins
        ("p & & $", "position 6: unexpected character '$'"),
        ("(p 1/0", "position 3: zero denominator"),
        ("p ) é", "position 4: unexpected character 'é'"),
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
        for v in (getattr(f, name) for name in f.__match_args__)
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


def _texts(rng):
    """Parser inputs: printed formulas with a few pieces put in, so that
    most of these parse, or fail deep inside; strings of pieces; then
    chains of printed formulas joined by `->` and `<->`, in any mix, some
    with a piece put in."""
    for case in range(24000):
        if case % 3 == 0:
            text = print_formula(random_formula(case, ["p", "q"], 3, POOL))
            for _ in range(rng.choice([0, 0, 1, 2])):
                at = rng.randrange(len(text) + 1)
                text = text[:at] + rng.choice(_PIECES) + text[at:]
        else:
            text = "".join(rng.choice(_PIECES) for _ in range(rng.randrange(13)))
        yield text
    for case in range(1500):
        parts = [print_formula(random_formula(case + 24000, ["p", "q"], 1, POOL))
                 for _ in range(rng.randint(1, 8))]
        text = parts[0]
        for part in parts[1:]:
            text += rng.choice([" -> ", " <-> ", "->", "<->"]) + part
        if case % 4 == 0:
            at = rng.randrange(len(text) + 1)
            text = text[:at] + rng.choice(_PIECES) + text[at:]
        yield text


def test_parser_agrees_with_the_reference_parser():
    rng = random.Random(20261018)
    parsed = failed = chains = 0
    for text in _texts(rng):
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
            chains += text.count("->") >= 3
    assert parsed > 5000 and failed > 5000 and chains > 500


def test_a_text_that_parses_is_scanned_once(monkeypatch):
    """Only a parse that stops looks for a lexical error past the stop."""
    def scan(*args):
        raise AssertionError("a parse that succeeds scanned its tokens again")

    texts = []
    for text in _texts(random.Random(20261018)):
        try:
            texts.append((text, reference_parse_formula(text)))
        except FormulaError:
            pass
    monkeypatch.setattr(formulas, "_stopped", scan)
    for text, expected in texts:
        assert parse_formula(text) == expected, text
    assert len(texts) > 5000
    with pytest.raises(AssertionError):
        parse_formula("p &")


def test_a_chain_of_arrows_parses_in_one_loop():
    # arrows group to the right, `<->` and `->` alike
    for text, grouped in [("a <-> b -> c", "a <-> (b -> c)"),
                          ("a -> b <-> c", "a -> (b <-> c)"),
                          ("a | b -> c & d <-> e", "(a | b) -> ((c & d) <-> e)")]:
        assert parse_formula(text) == parse_formula(grouped)
    # `p -> p -> ... -> p` is `!(p & !!(p & ...))`
    f = parse_formula(" -> ".join(["p"] * 100_001))
    built = Atom("p")
    for _ in range(100_000):
        built = implies(Atom("p"), built)
    assert f == built
    for _ in range(100_000):
        assert type(f) is Not and type(f.operand) is And and f.operand.left == Atom("p")
        f = f.operand.right
        assert type(f) is Not
        f = f.operand
    assert f == Atom("p")


def test_equality_takes_each_shared_pair_once():
    # `<->` shares both its operands, so a chain's tree doubles with each
    # operand; `==` compares each pair of conjunctions once
    names = [f"p{i}" for i in range(200)]
    chain = " <-> ".join(names)
    a, b = parse_formula(chain), parse_formula(chain)
    renamed = parse_formula(" <-> ".join(names[:-1] + ["q"]))
    assert in_time(lambda: (a == b, a != renamed, renamed == a), 0.5) == (True, True, False)


def test_equality_compares_prefix_chains_of_any_depth():
    text = "!L[1/2] M[3] " * 33_334
    parsed = parse_formula(text + "p")
    built, other = Atom("p"), Atom("q")
    for _ in range(33_334):
        built = Not(AtLeast(F(1, 2), AtMost(3, built)))
        other = Not(AtLeast(F(1, 2), AtMost(3, other)))
    assert parsed == built and built == parsed
    assert parsed != other and other != parsed
    assert parsed != parse_formula(text + "!p")


def test_equality_reads_class_and_bound_not_only_the_stored_hash():
    p = Atom("p")
    assert hash(Top()) == hash(Bottom()) and Top() != Bottom()
    assert hash(AtLeast(1, p)) == hash(AtMost(1, p)) and AtLeast(1, p) != AtMost(1, p)
    assert AtLeast("1/2", p) == AtLeast(F(2, 4), p) != AtLeast(F(1, 3), p)
    assert And(p, Top()) != And(p, Bottom()) and Not(Top()) != Not(Bottom())
    # another class at the top is not compared, as a dataclass does not
    assert Top().__eq__(Bottom()) is NotImplemented and Not(Top()).__eq__(Not(Bottom())) is False


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


def test_printer_agrees_with_the_reference_printer():
    pools = [POOL, OFF_POOL + [F(10, 3), F(123456789, 1000)]]
    for seed in range(2400):
        f = random_formula(seed + 30000, ["p", "q", "r2"], 1 + seed % 4, pools[seed % 2])
        assert print_formula(f) == reference_print_formula(f)
    for f in (Top(), Bottom(), Not(Top()), And(Bottom(), Not(Not(Atom("x"))))):
        assert print_formula(f) == reference_print_formula(f)


def test_printer_prints_any_depth():
    depth = 5000
    f = Atom("p")
    for _ in range(depth):
        f = AtLeast(0, Not(f))
    assert print_formula(f) == "L[0] !" * depth + "p"
    wide = Atom("p0")
    for j in range(1, depth):
        wide = And(wide, Atom(f"p{j}"))
    text = print_formula(wide)
    assert text == "(" * (depth - 1) + "p0" + "".join(f" & p{j})" for j in range(1, depth))


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


def test_the_two_model_checkers_agree_on_shared_operands_and_negation_chains():
    # `<->` shares both operands, and a chain of them shares each link; a
    # run of `!` is a chain of `Not` nodes.
    rng = random.Random(17)
    weights = POOL + OFF_POOL
    for seed in range(40):
        m = random_wts(seed + 4900, 8, 3, POOL, ["p", "q"])
        parts = [print_formula(random_formula(5900 + 10 * seed + k, ["p", "q"], 2, weights))
                 for k in range(4)]
        chain = " <-> ".join(f"({t})" for t in parts)
        negated = " <-> ".join("!" * rng.randint(0, 5) + f"({t})" for t in parts)
        texts = [
            chain,
            negated,
            "!" * rng.randint(1, 9) + f"({parts[0]})",
            f"L[1/2] ({chain}) & !!M[2] !({negated})",
            f"[] !!!({chain}) <-> <> ({parts[1]} <-> {parts[2]})",
        ]
        for text in texts:
            f = parse_formula(text)
            expected = sat_set(m, f)
            for s in m.states:
                assert model_check(m, s, f) == (s in expected), (seed, s, text)


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


def test_local_model_check_is_exact_at_equality():
    p = Atom("p")
    m = Wts(["s", "t"], {"t": ["p"]}, [("s", "2/4", "t")])
    half, tiny = F(1, 2), F(1, 10**4000)
    cases = [
        (parse_formula("L[0.5] p"), True),
        (parse_formula("M[1/2] p"), True),
        (AtLeast(half + tiny, p), False),
        (AtMost(half + tiny, p), True),
        (AtLeast(half - tiny, p), True),
        (AtMost(half - tiny, p), False),
    ]
    for f, holds in cases:
        assert model_check(m, "s", f) is holds
        assert ("s" in sat_set(m, f)) is holds
        assert model_check(m, "s", Not(f)) is not holds
    # the infinity sentinel's hash, as a bound and as a weight
    sentinel = "1/2305843009213693951"
    m = Wts(["s", "t"], {"t": ["p"]}, [("s", sentinel, "t")])
    for text, holds in ((f"L[{sentinel}] p", True), (f"M[{sentinel}] p", True),
                        ("L[2/2305843009213693951] p", False), ("M[0] p", False)):
        f = parse_formula(text)
        assert model_check(m, "s", f) is holds and ("s" in sat_set(m, f)) is holds
    # `mc` on a model file compares alike: exit 0 when the formula holds,
    # 1 when it does not
    for weight, text, code in (
            ("2/4", "L[0.5] p", 0), ("2/4", "M[1/2] p", 0),
            ("2/4", "L[5000000000000000001/10000000000000000000] p", 1),
            ("2/4", "M[4999999999999999999/10000000000000000000] p", 1),
            (sentinel, f"L[{sentinel}] p", 0), (sentinel, f"M[{sentinel}] p", 0),
            (sentinel, "L[2/2305843009213693951] p", 1)):
        model = {"states": [{"id": "s", "labels": []}, {"id": "t", "labels": ["p"]}],
                 "transitions": [{"from": "s", "weight": weight, "to": "t"}]}
        argv = ["mc", "--model", "-", "--state", "s", "--formula", text]
        assert cli_run(argv, json.dumps(model).encode())[0] == code, (weight, text)


def test_equal_operands_answer_alike_whether_shared_or_distinct():
    for seed in range(60):
        m = random_wts(seed + 7100, 6, 3, POOL, ["p", "q"])
        a = random_formula(seed + 7200, ["p", "q"], 2, POOL + OFF_POOL)
        b = random_formula(seed + 7300, ["p", "q"], 2, POOL + OFF_POOL)
        # `iff` shares its operands' objects; the parse of its desugared
        # text, each operand written at each use, makes every node afresh
        shared = iff(AtLeast(F(1, 2), a), AtMost(F(2), b))
        apart = parse_formula(reference_print_formula(shared))
        assert apart == shared
        assert shared.left.operand.left is shared.right.operand.right.operand
        assert apart.left.operand.left is not apart.right.operand.right.operand
        expected = sat_set(m, shared)
        for s in m.states:
            assert model_check(m, s, shared) == model_check(m, s, apart) == (s in expected)
    m = Wts(["a", "b"], {"b": ["p"]}, [("a", 1, "b"), ("a", 2, "a")])
    one, other = AtLeast(1, Atom("p")), AtLeast(1, Atom("p"))
    for g, h in ((one, one), (one, other)):
        f = And(AtMost(2, g), Not(AtMost(1, h)))
        assert model_check(m, "a", f) and sat_set(m, f) == {"a"}
        assert not model_check(m, "a", And(g, Not(AtLeast(2, h))))


def _check_a_and_b_in_time(m, f):
    """`model_check` of `f` at states a and b, held to 1 s."""
    return in_time(lambda: (model_check(m, "a", f), model_check(m, "b", f)))


_TWO_STATES = (["a", "b"], {"a": ["p"], "b": ["p"]},
               [("a", 0, "a"), ("a", 1, "b"), ("b", 2, "a"), ("b", 3, "b")])


def test_local_model_check_evaluates_each_shared_subformula_once_per_state():
    m = Wts(*_TWO_STATES)
    f = Atom("p")
    for _ in range(40):
        f = And(AtLeast(0, f), AtMost(3, f))  # a 2^40-node tree, 121 distinct nodes
    assert _check_a_and_b_in_time(m, f) == (True, True)


def test_local_model_check_walks_shared_double_negations_as_a_dag():
    # The inner `Not` of each `Not(Not(f))` takes no memo entry; the
    # nodes above and below it do.
    m = Wts(*_TWO_STATES)
    f = Atom("p")
    for _ in range(40):
        g = Not(Not(f))
        f = And(AtLeast(0, g), AtMost(3, g))  # a 2^40-node tree, 201 distinct nodes
    assert _check_a_and_b_in_time(m, f) == (True, True)


def test_local_model_check_walks_a_shared_chain_of_negations_once_per_state(monkeypatch):
    # A chain of 150 negations shared by 150 conjunctions: were the chain
    # walked at each of its uses, it would take 150 * 150 calls.
    m = Wts(*_TWO_STATES)
    chain = Atom("p")
    for _ in range(150):
        chain = Not(chain)
    f = chain
    for _ in range(150):
        f = And(chain, f)
    calls = 0
    holds = formulas._holds

    def counted(*args):
        nonlocal calls
        calls += 1
        return holds(*args)

    monkeypatch.setattr(formulas, "_holds", counted)
    assert model_check(m, "a", f)
    assert calls <= 3 * 301, calls


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


def test_random_formula_draws_are_pinned():
    # Any change in the order of the draw's rng calls changes these.
    for seed, names, max_md, text in (
            (11, ["p1", "p2", "p3"], 2, "M[1/2] L[3] !(p1 & false)"),
            (26, ["p1", "p2", "p3"], 2, "!L[3] M[3] (p2 & p3)"),
            (50, ["p1", "p2", "p3"], 2, "(!L[0] (p1 & M[1] p1) & (p1 & p2))"),
            (65, ["p3", "p1", "p2"], 2, "(M[2] !false & M[2] L[3] (true & p1))"),
            (9, [], 1, "(true & false)")):
        assert print_formula(random_formula(seed, names, max_md, POOL)) == text, seed


def test_a_draw_into_the_int_keyed_sets_is_the_sat_set_of_the_drawn_formula():
    # The soundness suite draws its formulas into a `StateSets` whose keys
    # are the weights times the lcm of the pool's denominators, from the
    # pool scaled alike; `p3` labels no state.
    pool = sorted(POOL + OFF_POOL)
    scale = 6
    keys = [int(w * scale) for w in pool]
    assert [F(k, scale) for k in keys] == pool
    names = ["p1", "p2", "p3"]
    sizes = set()
    for seed in range(240):
        m = random_wts(seed + 5100, 5, 3, POOL, ["p1", "p2"])
        sets = StateSets(m, _keys=tuple(int(w * scale) for w in m.weights))
        max_md = seed % 4
        drawn = formulas._draw_formula(seed, names, max_md, keys, sets)
        assert drawn == sat_set(m, random_formula(seed, names, max_md, pool)), seed
        sizes.add(len(drawn))
    assert sizes == set(range(6))


def test_box_dual(vacuum):
    # box f holds iff no transition leaves the f-states
    f = Atom("charging")
    outside = sat_set(vacuum, Not(f))
    for s in vacuum.states:
        assert model_check(vacuum, s, box(f)) == (not vacuum.image_set(s, outside))
