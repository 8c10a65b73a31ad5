from fractions import Fraction as F

import pytest

from wtl import (
    Partition, Wts, are_bisimilar, distinguishing_formula,
    generalized_bisimilarity, model_check, quotient_model, random_formula,
    random_wts, sat_set, weighted_bisimilarity,
)
from oracles import is_bound_bisimulation, is_exact_bisimulation, naive_coarsest

POOL = [F(0), F(1, 2), F(1), F(2), F(3)]


def test_coarse_pair_partitions(coarse_pair):
    assert generalized_bisimilarity(coarse_pair).as_lists() == [["s", "t"], ["sp", "tp"]]
    weighted = weighted_bisimilarity(coarse_pair)
    assert not weighted.same_block("s", "t")
    assert weighted.as_lists() == [["s"], ["sp", "tp"], ["t"]]


def test_are_bisimilar_flavors(coarse_pair):
    assert are_bisimilar(coarse_pair, "s", "t", "generalized") is True
    assert are_bisimilar(coarse_pair, "s", "t", "weighted") is False
    assert are_bisimilar(coarse_pair, "s", "s", "generalized") is True
    assert are_bisimilar(coarse_pair, "s", "s", "weighted") is True
    with pytest.raises(ValueError):
        are_bisimilar(coarse_pair, "s", "t", "fancy")


def test_vacuum_all_singletons(vacuum):
    # all three states carry different labels
    assert generalized_bisimilarity(vacuum).as_lists() == [["s1"], ["s2"], ["s3"]]


def test_single_state_self_loop():
    m = Wts(["a"], {"a": ["p"]}, [("a", 1, "a")])
    assert weighted_bisimilarity(m).as_lists() == [["a"]]
    assert generalized_bisimilarity(m).as_lists() == [["a"]]


def test_duplicate_states_share_a_block():
    m = Wts(
        ["a", "b", "sink"],
        {"a": ["p"], "b": ["p"], "sink": []},
        [("a", 1, "sink"), ("b", 1, "sink")],
    )
    assert weighted_bisimilarity(m).same_block("a", "b")
    assert generalized_bisimilarity(m).same_block("a", "b")


def test_weighted_refines_generalized_and_matches_naive_oracle():
    for seed in range(50):
        m = random_wts(seed + 61000, 4, 2, [F(0), F(1), F(2)], ["p"])
        gen = generalized_bisimilarity(m)
        wgt = weighted_bisimilarity(m)
        assert wgt.refines(gen), seed
        assert naive_coarsest(m, is_bound_bisimulation) == gen, seed
        assert naive_coarsest(m, is_exact_bisimulation) == wgt, seed


def test_fixpoint_stability():
    from wtl.bisimulation import _bound_signature, _split_by

    for seed in range(20):
        m = random_wts(seed + 71000, 5, 3, POOL, ["p", "q"])
        gen = generalized_bisimilarity(m)
        assert _split_by(m, gen, _bound_signature) == gen


def test_per_block_bound_constancy():
    models = [random_wts(seed + 72000, 5, 3, POOL, ["p", "q"]) for seed in range(20)]
    # up to 40 states over few weights and labels, so blocks keep many states
    models += [random_wts(seed + 73000, 40, 2, [F(1), F(2)], ["p"]) for seed in range(5)]
    for m in models:
        gen = generalized_bisimilarity(m)
        assert is_bound_bisimulation(m, [sorted(b) for b in gen.blocks])
        wgt = weighted_bisimilarity(m)
        for block in wgt.blocks:
            rep = min(block)
            for target in wgt.blocks:
                image = m.image_set(rep, target)
                assert all(m.image_set(s, target) == image for s in block)


def test_quotient_coarse_pair(coarse_pair):
    q = quotient_model(coarse_pair, generalized_bisimilarity(coarse_pair))
    assert len(q.states) == 2
    block, target = sorted(q.states)
    assert {(w) for (_, w, _) in q.transitions} == {F(1), F(3)}
    assert all(src == block and dst == target for (src, _, dst) in q.transitions)


def test_quotient_of_minimal_model_is_isomorphic():
    # already minimal, and no state pair carries more than the two
    # weights the quotient keeps, so the output is the input
    m = Wts(
        ["a", "b", "c"],
        {"a": ["x"], "b": ["y"], "c": []},
        [("a", 1, "b"), ("a", 3, "b"), ("b", 0, "c"), ("c", 2, "a")],
    )
    q = quotient_model(m, generalized_bisimilarity(m))
    assert q == m


def test_quotient_drops_interior_weights(vacuum):
    # weights strictly between a block pair's bounds are not preserved,
    # but the quotient stays bound-bisimilar to the original
    q = quotient_model(vacuum, generalized_bisimilarity(vacuum))
    assert q.image_set("s2", {"s1"}) == {F(5), F(15)}
    assert q.theta_min("s2", {"s1"}) == vacuum.theta_min("s2", {"s1"})
    assert q.theta_max("s2", {"s1"}) == vacuum.theta_max("s2", {"s1"})


def test_quotient_is_minimal_and_preserves_bisimilarity():
    for seed in range(25):
        m = random_wts(seed + 81000, 5, 3, POOL, ["p"])
        partition = generalized_bisimilarity(m)
        q = quotient_model(m, partition)
        assert all(len(b) == 1 for b in generalized_bisimilarity(q).blocks)
        # every original state is bound-bisimilar to its block state in
        # the disjoint union of model and quotient
        union = Wts(
            [f"m_{s}" for s in m.states] + [f"q_{s}" for s in q.states],
            {
                **{f"m_{s}": m.labels[s] for s in m.states},
                **{f"q_{s}": q.labels[s] for s in q.states},
            },
            [(f"m_{a}", w, f"m_{b}") for (a, w, b) in m.transitions]
            + [(f"q_{a}", w, f"q_{b}") for (a, w, b) in q.transitions],
        )
        joined = generalized_bisimilarity(union)
        for s in m.states:
            rep = min(partition.block_of(s))
            assert joined.same_block(f"m_{s}", f"q_{rep}"), (seed, s)


def test_quotient_rejects_non_bisimulation(coarse_pair):
    bad = Partition([{"s", "sp"}, {"t", "tp"}])
    with pytest.raises(ValueError):
        quotient_model(coarse_pair, bad)


def test_distinguishing_label_literal(vacuum):
    f = distinguishing_formula(vacuum, "s1", "s2")
    assert f is not None
    assert model_check(vacuum, "s1", f) != model_check(vacuum, "s2", f)


def test_distinguishing_none_for_bisimilar(coarse_pair):
    assert distinguishing_formula(coarse_pair, "s", "t") is None
    assert distinguishing_formula(coarse_pair, "s", "s") is None


def test_distinguishing_weight_gap():
    # same labels, dead p-successors, only the weights 2 vs 3 differ
    m = Wts(
        ["a", "b", "u", "v"],
        {"u": ["p"], "v": ["p"]},
        [("a", 2, "u"), ("b", 3, "v")],
    )
    f = distinguishing_formula(m, "a", "b")
    assert f is not None
    assert model_check(m, "a", f) != model_check(m, "b", f)


def test_distinguishing_empty_image_side():
    m = Wts(["a", "b", "u"], {"u": ["p"]}, [("a", 1, "u")])
    f = distinguishing_formula(m, "a", "b")
    assert f is not None
    assert model_check(m, "a", f) != model_check(m, "b", f)


def test_distinguishing_needs_unlabelled_split():
    # a and b differ only in bounds toward states that themselves carry
    # no distinguishing labels (whole space as the target class)
    m = Wts(["a", "b"], {}, [("a", 1, "a")])
    f = distinguishing_formula(m, "a", "b")
    assert f is not None
    assert model_check(m, "a", f) != model_check(m, "b", f)


def test_hennessy_milner_desk_check_small():
    from itertools import combinations

    for i in range(6):
        m = random_wts(31000 + i, 6, 3, POOL, ["p1", "p2"])
        partition = generalized_bisimilarity(m)
        cache: dict = {}
        satsets = [
            sat_set(m, random_formula(91000 + 997 * i + j, ["p1", "p2"], 2, POOL), cache)
            for j in range(200)
        ]
        for a, b in combinations(sorted(m.states), 2):
            if partition.same_block(a, b):
                assert all((a in ss) == (b in ss) for ss in satsets), (i, a, b)
            else:
                d = distinguishing_formula(m, a, b)
                assert d is not None
                assert model_check(m, a, d) != model_check(m, b, d), (i, a, b)
