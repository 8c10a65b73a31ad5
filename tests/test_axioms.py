import random
from fractions import Fraction as F

import pytest

from wtl import (
    And, AtLeast, AtMost, Atom, Bottom, DEFAULT_INDEX_POOL, Not, SCHEMAS,
    SchemaReport, SideConditionError, SuiteReport, Wts, holds_everywhere,
    implies, instantiate, lor, premise_of, print_formula, random_formula,
    random_wts, run_suite, sat_set, serialize_wts,
)
from wtl import formulas
from wtl.formulas import Algebra, StateSets

P, Q = Atom("p"), Atom("q")


def test_instantiate_smallest_axiom():
    assert instantiate("A1") == Not(AtLeast(0, Bottom()))


def test_instantiate_bound_shift():
    inst = instantiate("A6", P, r=F(2), q=F(1))
    assert inst == implies(AtLeast(3, P), Not(AtMost(2, P)))


def test_instantiate_min_join():
    inst = instantiate("A3", P, Q, r=F(2), q=F(5))
    assert inst == implies(And(AtLeast(2, P), AtLeast(5, Q)), AtLeast(2, lor(P, Q)))


def test_side_conditions_enforced():
    for name in ("A2", "A2'", "A6"):
        with pytest.raises(SideConditionError):
            instantiate(name, P, r=F(1), q=F(0))
        instantiate(name, P, r=F(1), q=F(1, 2))  # fine
    with pytest.raises(SideConditionError):
        instantiate("A7", None, r=F(1))


def test_premise_of():
    assert premise_of("A1") is None
    assert premise_of("R2", P, Q) == implies(P, Q)
    assert premise_of("T4", P) == implies(P, Bottom())


def test_premise_of_and_instantiate_refuse_the_same_missing_slots():
    # Both read their slots in one order: formulas, then indices, then
    # q > 0; a premise reads the formula slots alone.
    def refusal(call, *args, **kwargs):
        with pytest.raises(SideConditionError) as refused:
            call(*args, **kwargs)
        return str(refused.value)

    assert refusal(premise_of, "T4") == "T4 needs a formula for phi"
    assert refusal(premise_of, "T2", P) == "T2 needs a formula for psi"
    assert refusal(premise_of, "R2", None, Q) == "R2 needs a formula for phi"
    assert refusal(instantiate, "T4") == "T4 needs a formula for phi"
    assert refusal(instantiate, "T2", P, r=1) == "T2 needs a formula for psi"
    assert refusal(instantiate, "A2", None, q=0) == "A2 needs a formula for phi"
    assert refusal(instantiate, "A2", P, q=0) == "A2 needs an index r"
    assert refusal(instantiate, "A2", P, r=1) == "A2 needs an index q"
    assert refusal(instantiate, "A2", P, r=1, q=0) == "A2 requires q > 0"
    assert premise_of("A2") is None
    assert premise_of("T2", P, Q) == premise_of(SCHEMAS["T2"], P, Q)
    assert instantiate("A7", P, r=1, q=0) == instantiate("A7", P, r=F(1))


def test_holds_everywhere(vacuum):
    assert holds_everywhere(vacuum, instantiate("A1"))
    assert holds_everywhere(vacuum, Atom("waiting")) is False
    assert holds_everywhere(vacuum, Not(Atom("absent")))


def test_schema_table_contents():
    expected = {
        "A1", "A2", "A2'", "A3", "A3'", "A4", "A5", "A5'", "A6", "A7",
        "T1", "T1'", "T2", "T2'", "T3", "T4", "T5", "R1", "R1'", "R2",
        "neg-control",
    }
    assert set(SCHEMAS) == expected
    assert not SCHEMAS["neg-control"].sound
    assert all(SCHEMAS[n].sound for n in expected - {"neg-control"})


def test_suite_short_run_is_clean_and_deterministic():
    a = run_suite(seed=7, trials=120)
    b = run_suite(seed=7, trials=120)
    assert a.as_dict() == b.as_dict()
    assert a.unexpected_violations == 0


def test_negative_control_flagged_with_countermodel():
    report = run_suite(seed=20260810, trials=400)
    control = report.schemas["neg-control"]
    assert control.violations > 0
    failure = control.first_violation
    assert failure is not None
    # the recorded data reproduces the violation
    from wtl import parse_formula, parse_wts, sat_set

    model = parse_wts(failure["model"].encode())
    instance = parse_formula(failure["instance"])
    assert not holds_everywhere(model, instance)
    assert set(failure["failing_states"]) == set(model.states - sat_set(model, instance))


def test_single_trial_reproducible():
    a = run_suite(seed=99, trials=1)
    b = run_suite(seed=99, trials=1)
    assert a.as_dict() == b.as_dict()


def test_schema_filter():
    report = run_suite(seed=3, trials=50, schemas=["A6"])
    assert set(report.schemas) == {"A6"}
    assert report.schemas["A6"].checked == 50


def test_broken_scheme_has_explicit_countermodel():
    # transitions into p-only and q-only states, none into both
    m = Wts(
        ["a", "b", "c"],
        {"b": ["p"], "c": ["q"]},
        [("a", 2, "b"), ("a", 2, "c")],
    )
    bad = instantiate("neg-control", P, Q, r=F(2))
    assert not holds_everywhere(m, bad)
    guarded = instantiate("T1", P, Q, r=F(2), q=F(2))
    assert holds_everywhere(m, guarded)


# Model weights, and bounds that mostly fall between them or beyond them.
_MODEL_WEIGHTS = (F(1, 2), F(1), F(3))
_BOUNDS = (F(0), F(1, 3), F(1, 2), F(1), F(2), F(5, 2), F(3), F(4))


def test_schemas_give_the_sat_sets_of_their_instances():
    # Each schema applied to the set algebra, with the sat sets of its
    # formula slots, must give the sat set of the formula `instantiate`
    # builds, and its premise that of `premise_of`.  The schemas' own
    # bounds (r + q, min, max, 0) are mostly absent from the weight table.
    rng = random.Random(4242)
    verdicts = {"conclusion": set(), "premise": set()}
    for i in range(200):
        m = random_wts(8100 + i, 5, 3, _MODEL_WEIGHTS, ["p1", "p2"])
        phi = random_formula(9100 + i, ["p1", "p2"], 2, _BOUNDS)
        psi = random_formula(9600 + i, ["p1", "p2"], 2, _BOUNDS)
        sets = StateSets(m)
        slots = [sat_set(m, phi), sat_set(m, psi)]
        for sch in SCHEMAS.values():
            r = rng.choice(_BOUNDS)
            q = rng.choice(_BOUNDS[1:] if sch.positive_q else _BOUNDS)
            formula_slots = slots[:sch.formula_slots]
            holding = sch.conclusion(sets, *formula_slots, *[r, q][:sch.index_slots])
            instance = instantiate(sch, phi, psi, r, q)
            assert holding == sat_set(m, instance), (i, sch.name)
            verdict = holding == m.states
            assert verdict == holds_everywhere(m, instance), (i, sch.name)
            verdicts["conclusion"].add(verdict)
            if sch.premise is not None:
                holding = sch.premise(sets, *formula_slots)
                premise = premise_of(sch, phi, psi)
                assert holding == sat_set(m, premise), (i, sch.name)
                verdict = holding == m.states
                assert verdict == holds_everywhere(m, premise), (i, sch.name)
                verdicts["premise"].add(verdict)
    assert verdicts == {"conclusion": {True, False}, "premise": {True, False}}


def test_integer_keys_give_the_sets_of_the_fraction_bounds():
    # The soundness suite's key table: the weights scaled by the lcm of
    # the denominators, with every bound scaled alike.  Over the bounds
    # between, on and beyond the weights, both algebras give the same set
    # for every target set of every model.
    scale = 6
    assert all((b * scale).denominator == 1 for b in _MODEL_WEIGHTS + _BOUNDS)
    seen = set()
    for i in range(60):
        m = random_wts(8700 + i, 5, 3, _MODEL_WEIGHTS, ["p1"])
        by_weight = StateSets(m)
        by_key = StateSets(m, _keys=tuple(int(w * scale) for w in m.weights))
        states = sorted(m.states)
        for bits in range(2 ** len(states)):
            targets = frozenset(s for k, s in enumerate(states) if bits >> k & 1)
            for b in _BOUNDS:
                key = int(b * scale)
                at_least = by_key.AtLeast(key, targets)
                at_most = by_key.AtMost(key, targets)
                assert at_least == by_weight.AtLeast(b, targets), (i, bits, b)
                assert at_most == by_weight.AtMost(b, targets), (i, bits, b)
                seen.add((bool(at_least), bool(at_most)))
        # The derived connectives, one set operation each, give the sets
        # of their desugarings into `Not` and `And`.
        subsets = [frozenset(s for k, s in enumerate(states) if bits >> k & 1)
                   for bits in range(2 ** len(states))]
        for a in subsets:
            for b in subsets:
                for connective in (Algebra.lor, Algebra.implies, Algebra.iff):
                    expected = connective(by_key, a, b)
                    assert getattr(by_key, connective.__name__)(a, b) == expected, (i, a, b)
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_a_trial_scans_each_modality_once_per_bound_and_operand_set(monkeypatch):
    # Every modality a trial asks for, its formula draws and its schemas
    # alike, is asked of one set algebra; a (modality, key, operand set)
    # asked again costs no scan.  A scan starts with one `bisect`.
    asked, scans = [], []
    for name in ("AtLeast", "AtMost"):
        def spy(self, r, a, method=getattr(StateSets, name), name=name):
            asked.append((self, name, r, a))
            return method(self, r, a)
        monkeypatch.setattr(StateSets, name, spy)
    for name in ("bisect_left", "bisect_right"):
        def counted(table, r, bisect=getattr(formulas, name)):
            scans.append(r)
            return bisect(table, r)
        monkeypatch.setattr(formulas, name, counted)
    repeats = 0
    for seed in range(30):
        asked.clear()
        scans.clear()
        run_suite(seed, 1)
        assert len({entry[0] for entry in asked}) == 1, seed
        assert len(scans) == len(set(asked)), seed
        repeats += len(asked) - len(scans)
    assert repeats > 0


def _reference_suite(seed, trials, schemas=None, index_pool=DEFAULT_INDEX_POOL):
    """`run_suite`'s draws, with every instance and premise built as a
    formula and checked by `holds_everywhere`."""
    atoms = ("p1", "p2", "p3")
    selected = [SCHEMAS[n] for n in schemas] if schemas else list(SCHEMAS.values())
    pool = sorted(index_pool)
    positive_pool = [w for w in pool if w > 0]
    rng = random.Random(seed)
    report = SuiteReport(seed=seed, trials=trials)
    for sch in selected:
        report.schemas[sch.name] = SchemaReport(name=sch.name, sound=sch.sound)
    for trial in range(trials):
        trial_seed = rng.getrandbits(32)
        model = random_wts(trial_seed, 4, 3, pool, atoms)
        phi = random_formula(trial_seed + 1, atoms, 2, pool)
        psi = random_formula(trial_seed + 2, atoms, 2, pool)
        r = pool[rng.randrange(len(pool))]
        q = pool[rng.randrange(len(pool))]
        q_pos = positive_pool[rng.randrange(len(positive_pool))]
        for sch in selected:
            rep = report.schemas[sch.name]
            q_used = q_pos if sch.positive_q else q
            instance = instantiate(sch, phi, psi, r, q_used)
            premise = premise_of(sch, phi, psi)
            if premise is not None:
                if not holds_everywhere(model, premise):
                    continue
                rep.applicable += 1
            rep.checked += 1
            if not holds_everywhere(model, instance):
                rep.violations += 1
                if rep.first_violation is None:
                    rep.first_violation = {
                        "trial": trial,
                        "trial_seed": trial_seed,
                        "instance": print_formula(instance),
                        "failing_states": sorted(model.states - sat_set(model, instance)),
                        "model": serialize_wts(model).decode("utf-8"),
                    }
    return report


# The suite scales its pool by the lcm of the denominators: 2 for the
# default pool, 42 for this one.
_THIRDS_AND_SEVENTHS = (F(1, 3), F(1, 2), F(5, 7), F(2))


@pytest.mark.parametrize("seed, schemas, index_pool", [
    pytest.param(3, None, DEFAULT_INDEX_POOL, id="3-None"),
    pytest.param(11, None, DEFAULT_INDEX_POOL, id="11-None"),
    pytest.param(32, None, DEFAULT_INDEX_POOL, id="32-None"),
    pytest.param(5, ["neg-control", "T2", "T4", "A6", "A3'"], DEFAULT_INDEX_POOL,
                 id="5-schemas3"),
    pytest.param(16, None, _THIRDS_AND_SEVENTHS, id="16-None-lcm42"),
])
def test_suite_report_equals_the_one_built_from_instance_formulas(seed, schemas, index_pool):
    expected = _reference_suite(seed, 80, schemas, index_pool).as_dict()
    assert run_suite(seed, 80, schemas, index_pool).as_dict() == expected
    control = next(e for e in expected["schemas"] if e["schema"] == "neg-control")
    assert "first_violation" in control


def test_suite_rejects_unknown_schemas_and_pools_without_a_positive_index():
    with pytest.raises(ValueError, match=r"unknown schema\(s\) \['nope', 'zz'\]"):
        run_suite(1, 5, schemas=["nope", "A1", "zz"])
    for pool in ([0], [], [F(0), 0]):
        with pytest.raises(ValueError, match="positive"):
            run_suite(1, 5, index_pool=pool)


def test_suite_checks_a_schema_named_twice_once():
    once = run_suite(1, 3, schemas=["A1"]).as_dict()
    assert run_suite(1, 3, schemas=["A1", "A1"]).as_dict() == once
    assert [entry["checked"] for entry in once["schemas"]] == [3]
    assert (run_suite(8, 30, schemas=["T2", "A6", "T2", "A6"]).as_dict()
            == run_suite(8, 30, schemas=["T2", "A6"]).as_dict())
