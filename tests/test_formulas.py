from fractions import Fraction as F

import pytest

from wtl import (
    And, AtLeast, AtMost, Atom, Bottom, FormulaError, Not, Top, Wts, box,
    diamond, iff, implies, lor, modal_depth, model_check, parse_formula,
    print_formula, random_formula, random_wts, sat_set,
)

POOL = [F(0), F(1, 2), F(1), F(2), F(3)]


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
                 "L[1.] p"]:
        with pytest.raises(FormulaError, match="position"):
            parse_formula(text)


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


def test_bound_modalities_match_theta_definition():
    for seed in range(30):
        m = random_wts(seed + 300, 6, 4, POOL, ["p", "q"])
        phi = random_formula(seed + 400, ["p", "q"], 1, POOL)
        targets = sat_set(m, phi)
        for r in POOL:
            assert sat_set(m, AtLeast(r, phi)) == {
                s for s in m.states if m.theta_min(s, targets) >= r}, (seed, r)
            assert sat_set(m, AtMost(r, phi)) == {
                s for s in m.states if m.theta_max(s, targets) <= r}, (seed, r)


def test_complement_and_intersection_on_random_models():
    for seed in range(30):
        m = random_wts(seed + 200, 5, 3, POOL, ["p1", "p2"])
        phi = random_formula(seed, ["p1", "p2"], 2, POOL)
        psi = random_formula(seed + 1, ["p1", "p2"], 2, POOL)
        assert sat_set(m, Not(phi)) == m.states - sat_set(m, phi)
        assert sat_set(m, And(phi, psi)) == sat_set(m, phi) & sat_set(m, psi)
        for s in m.states:
            assert model_check(m, s, phi) == (s in sat_set(m, phi))


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
