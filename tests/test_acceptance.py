"""Acceptance suite: every criterion at its stated scale and tolerance.

Each test prints one pass line on success; a pytest failure is the fail
line.  All randomness is seeded, so the suite is deterministic.
"""

import json
import random
import warnings
from fractions import Fraction as F
from itertools import combinations

from wtl import (
    And, AtLeast, AtMost, Atom, ExtractionGapWarning, Not,
    Sat, Unsat, build_tableau, conjoin, distinguishing_formula,
    generalized_bisimilarity, is_satisfiable, model_check, parse_formula,
    parse_wts, print_formula, random_formula, random_wts, run_suite, sat_set,
    serialize_wts, tableau_to_json, weighted_bisimilarity,
)
from wtl.cli import run as cli_run

from conftest import make_coarse_pair_model, make_vacuum_model
from oracles import (
    bounded_model_search, commute, interval, is_bound_bisimulation,
    is_exact_bisimulation, naive_coarsest,
)

SEED = 20260810


def report(number, text):
    print(f"criterion {number:02d}: PASS — {text}")


def quiet_sat(phi):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtractionGapWarning)
        return is_satisfiable(phi)


def test_criterion_01_image_set_bounds():
    m = make_vacuum_model()
    assert m.image_set("s2", {"s1"}) == {F(5), F(10), F(15)}
    assert m.theta_min("s2", {"s1"}) == F(5)
    assert m.theta_max("s2", {"s1"}) == F(15)
    report(1, "image set {5,10,15} with bounds 5 and 15, exact")


def test_criterion_02_model_checking_upper_bound():
    m = make_vacuum_model()
    charging = sat_set(m, Atom("charging"))
    assert model_check(m, "s1", parse_formula("M[1] charging")) is False
    assert m.theta_max("s1", charging) == F(2)
    report(2, "M[1] charging fails at s1; the tight bound is exactly 2")


def test_criterion_03_two_bisimilarity_flavours():
    m = make_coarse_pair_model()
    gen = generalized_bisimilarity(m)
    wgt = weighted_bisimilarity(m)
    assert gen.as_lists() == [["s", "t"], ["sp", "tp"]]
    assert gen.same_block("s", "t")
    assert not wgt.same_block("s", "t")
    from wtl import are_bisimilar

    assert are_bisimilar(m, "s", "t", "generalized") is True
    assert are_bisimilar(m, "s", "t", "weighted") is False
    report(3, "bound partition {{s,t},{sp,tp}}; exact matching splits s from t")


def test_criterion_04_modal_rule_children_exact():
    p1, p2, p3 = Atom("p1"), Atom("p2"), Atom("p3")
    gamma = (p1, p2, AtLeast(2, p1), AtLeast(4, And(p1, p2)), AtLeast(0, p3),
             Not(AtLeast(5, p2)), Not(AtMost(6, p3)))
    # the search splits the conjunction, then fires the modal rule once
    node = build_tableau(conjoin(gamma)).root
    while node.kind != "modal":
        (node,) = node.children
    assert node.gamma == gamma and not node.closed
    children = node.children
    assert len(children) == 2
    first, second = children
    assert first.gamma == (And(p1, p2),)
    assert first.min_interval == interval("[4,5)")
    assert first.max_interval == interval("[0,inf)")
    assert second.gamma == (p3,)
    assert second.min_interval == interval("[0,inf)")
    assert second.max_interval == interval("(6,inf)")
    report(4, "modal rule yields {p1&p2, p3} with [4,5)/[0,inf) and [0,inf)/(6,inf)")


def test_criterion_05_satisfiable_with_verified_extraction():
    phi = parse_formula("!(!(L[2] p1 & M[5] L[1] p1) & !M[2] p2)")
    verdict = quiet_sat(phi)
    assert isinstance(verdict, Sat)
    assert verdict.verified is True
    assert model_check(verdict.model, verdict.state, phi)
    report(5, "nested bound formula is Sat and the extracted model verifies")


def test_criterion_06_unsat_with_inconsistent_interval():
    phi = parse_formula("p1 & L[4] p1 & !L[3] p1 & L[2] p2")
    assert isinstance(quiet_sat(phi), Unsat)
    dump = tableau_to_json(build_tableau(phi))

    def all_nodes(node):
        yield node
        for child in node["children"]:
            yield from all_nodes(child)

    bad = {"lower": "4", "lower_closed": True, "upper": "3", "upper_closed": False}
    assert any(node["min_interval"] == bad and node["closed"] for node in all_nodes(dump))
    assert dump["closed"] is True
    report(6, "conflicting thresholds give Unsat via the empty interval [4,3)")


def test_criterion_07_soundness_property_suite():
    small_a = run_suite(seed=SEED, trials=50)
    small_b = run_suite(seed=SEED, trials=50)
    assert small_a.as_dict() == small_b.as_dict()

    rep = run_suite(seed=SEED, trials=1000)
    sound_names = [n for n, r in rep.schemas.items() if r.sound]
    assert set(sound_names) >= {
        "A1", "A2", "A2'", "A3", "A3'", "A4", "A5", "A5'", "A6", "A7",
        "T1", "T1'", "T2", "T2'", "T3", "T4", "T5", "R1", "R1'", "R2",
    }
    for name in sound_names:
        assert rep.schemas[name].violations == 0, name
    for name in ("R1", "R1'", "R2", "T2", "T2'", "T4"):
        assert rep.schemas[name].applicable > 0, name
    control = rep.schemas["neg-control"]
    assert control.violations >= 1
    assert control.first_violation is not None
    report(7, f"1000 trials: 0 violations across 20 sound schemas; "
              f"control violated {control.violations}x with countermodel")


def test_criterion_08_verdicts_ignore_rule_order():
    pool = [F(0), F(1, 2), F(1), F(2)]
    flips = 0
    for i in range(200):
        phi = random_formula(5000 + i, ["p1", "p2", "p3"], 2, pool)
        base = isinstance(quiet_sat(phi), Sat)
        for k in range(5):
            variant = commute(phi, random.Random(i * 31 + k))
            if isinstance(quiet_sat(variant), Sat) != base:
                flips += 1
    assert flips == 0
    report(8, "200 formulas x 5 rule orders from randomly commuted "
              "conjunctions: identical verdicts")


def test_criterion_09_bounded_enumeration_cross_check():
    pool = [F(0), F(1), F(2)]
    atoms = ["p1", "p2"]
    candidate = parse_formula("L[2] !p1 & M[1] !p2")
    corpus = [candidate] + [
        random_formula(77000 + i, atoms, 1, pool) for i in range(99)
    ]
    gaps = []
    for phi in corpus:
        oracle_model = bounded_model_search(phi, atoms)
        verdict = quiet_sat(phi)
        if oracle_model is not None:
            assert isinstance(verdict, Sat), print_formula(phi)
        if isinstance(verdict, Unsat):
            assert oracle_model is None, print_formula(phi)
        if isinstance(verdict, Sat):
            if verdict.verified:
                assert model_check(verdict.model, verdict.state, phi)
            else:
                gaps.append(print_formula(phi))
    candidate_verdict = quiet_sat(candidate)
    assert isinstance(candidate_verdict, Sat)
    assert print_formula(candidate) in gaps
    for phi_text in gaps:
        print(f"  extraction gap reported for: {phi_text}")
    report(9, f"100 formulas agree with enumeration in all three directions; "
              f"{len(gaps)} extraction gap(s) reported")


def test_criterion_10_logical_equivalence_matches_bisimilarity():
    pool = [F(0), F(1, 2), F(1), F(2), F(3)]
    agreeing_pairs = separated_pairs = 0
    for i in range(20):
        m = random_wts(31000 + i, 6, 3, pool, ["p1", "p2"])
        partition = generalized_bisimilarity(m)
        satsets = [
            sat_set(m, random_formula(91000 + 997 * i + j, ["p1", "p2"], 2, pool))
            for j in range(500)
        ]
        for a, b in combinations(sorted(m.states), 2):
            if partition.same_block(a, b):
                agreeing_pairs += 1
                assert all((a in ss) == (b in ss) for ss in satsets), (i, a, b)
            else:
                separated_pairs += 1
                d = distinguishing_formula(m, a, b)
                assert d is not None, (i, a, b)
                assert model_check(m, a, d) != model_check(m, b, d), (i, a, b)
    assert agreeing_pairs > 0 and separated_pairs > 0
    report(10, f"20 models: {agreeing_pairs} bisimilar pairs agree on 500 formulas; "
               f"{separated_pairs} split by verified formulas")


def test_criterion_11_partition_refinement_vs_naive_fixpoint():
    for i in range(50):
        m = random_wts(61000 + i, 4, 2, [F(0), F(1), F(2)], ["p"])
        gen = generalized_bisimilarity(m)
        wgt = weighted_bisimilarity(m)
        assert naive_coarsest(m, is_bound_bisimulation) == gen, i
        assert naive_coarsest(m, is_exact_bisimulation) == wgt, i
        assert wgt.refines(gen), i
    report(11, "50 models: both flavours equal the brute-force fixpoints; "
               "exact refines bound")


def test_criterion_12_round_trips_and_fmt_idempotence(tmp_path):
    pool = [F(0), F(1, 2), F(1), F(2), F(3)]
    for seed in range(500):
        m = random_wts(seed, 5, 3, pool, ["p1", "p2", "p3"])
        once = serialize_wts(m)
        assert parse_wts(once) == m
        assert serialize_wts(parse_wts(once)) == once
        f = random_formula(seed, ["p1", "p2", "p3"], 2, pool)
        text = print_formula(f)
        assert parse_formula(text) == f
        assert print_formula(parse_formula(text)) == text

    code, out, _ = cli_run(["fmt", "--formula", "p ->q|  r & <> s"])
    assert code == 0
    assert cli_run(["fmt", "--formula", out.strip()])[1] == out

    messy = tmp_path / "messy.json"
    messy.write_bytes(
        b'{"transitions":[{"to":"b","from":"a","weight":"0.5"}],'
        b'"states":[{"id":"b"},{"id":"a","labels":["q","p"]}]}'
    )
    code, out, _ = cli_run(["fmt", "--model", str(messy)])
    assert code == 0
    clean = tmp_path / "clean.json"
    clean.write_text(out)
    assert cli_run(["fmt", "--model", str(clean)])[1] == out
    report(12, "500 model and formula round trips byte-stable; fmt idempotent")
