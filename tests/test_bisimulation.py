import tracemalloc
from fractions import Fraction as F

import pytest

from wtl import (
    Partition, Wts, are_bisimilar, distinguishing_formula,
    generalized_bisimilarity, modal_depth, model_check, print_formula,
    quotient_model, random_formula, random_wts, sat_set, weighted_bisimilarity,
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


def test_distinguishing_upper_bound_gap():
    # equal least weights 1 toward the p-states, greatest 2 vs 3; the
    # q-states reached at 5 must be kept out of the M probe's operand
    m = Wts(
        ["a", "b", "u", "v", "x", "y"],
        {"u": ["p"], "v": ["p"], "x": ["q"], "y": ["q"]},
        [("a", 1, "u"), ("a", 2, "u"), ("b", 1, "v"), ("b", 3, "v"),
         ("a", 5, "x"), ("b", 5, "y")],
    )
    f = distinguishing_formula(m, "a", "b")
    assert f is not None
    assert model_check(m, "a", f) != model_check(m, "b", f)


def test_rank_bounds_map_back_to_weights():
    # weights 1/3 < 5 < 7 rank 0, 1, 2; a and c reach the p-block with
    # least 5 and greatest 7, b only at 7 and a q-state at 1/3.  The value
    # midpoint of 5 and 7 is 6, the rank midpoint 3/2, below both.
    m = Wts(
        ["a", "b", "c", "x", "x2", "y"],
        {"x": ["p"], "x2": ["p"], "y": ["q"]},
        [("a", 5, "x"), ("a", 7, "x"), ("b", 7, "x"), ("b", F(1, 3), "y"),
         ("c", 5, "x"), ("c", 7, "x2")],
    )
    assert m.weights == (F(1, 3), F(5), F(7))
    p = generalized_bisimilarity(m)
    assert p.as_lists() == [["a", "c"], ["b"], ["x", "x2"], ["y"]]
    q = quotient_model(m, p)
    assert q.transitions == {
        ("a", F(5), "x"), ("a", F(7), "x"), ("b", F(7), "x"), ("b", F(1, 3), "y"),
    }
    f = distinguishing_formula(m, "c", "b")
    assert print_formula(f) == "!L[6] p"
    assert model_check(m, "c", f) and not model_check(m, "b", f)
    g = distinguishing_formula(m, "b", "a")
    assert print_formula(g) == "L[6] p"
    assert model_check(m, "b", g) and not model_check(m, "a", g)


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


def _chain(n):
    """c0 -> ... -> c(n-1), weight 1, p on the last state."""
    states = [f"c{i}" for i in range(n)]
    edges = [(states[i], 1, states[i + 1]) for i in range(n - 1)]
    return Wts(states, {states[-1]: ["p"]}, edges)


def _ring(n):
    """r0 <-> r1 <-> ... <-> r(n-1) <-> r0, weight 1, p on r0."""
    states = [f"r{i}" for i in range(n)]
    edges = []
    for i in range(n):
        edges += [(states[i], 1, states[(i + 1) % n]), (states[(i + 1) % n], 1, states[i])]
    return Wts(states, {"r0": ["p"]}, edges)


@pytest.mark.parametrize("n", [8, 12, 16, 20])
def test_distinguishing_formulas_stay_small_on_chains_and_rings(n):
    # Printed size linear in n, at the modal depth of the splitting round.
    for m, a, b, depth in [(_chain(n), "c0", "c1", n - 2),
                           (_ring(n), f"r{n // 2 - 1}", f"r{n // 2}", n // 2 - 1)]:
        d = distinguishing_formula(m, a, b)
        assert model_check(m, a, d) != model_check(m, b, d)
        assert modal_depth(d) == depth
        assert len(print_formula(d)) <= 15 * n


def test_partition_callers_keep_one_round_at_a_time():
    # A chain splits one state off per round, so keeping every round's
    # partition would hold O(n^2): 13.5 MB at n = 300.  `are_bisimilar`
    # and the CLI's quotient call these two.
    m = _chain(300)
    for call in (generalized_bisimilarity, weighted_bisimilarity):
        tracemalloc.start()
        try:
            call(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, peak
    assert len(generalized_bisimilarity(m).blocks) == 300


def test_hennessy_milner_desk_check_small():
    from itertools import combinations
    from wtl.bisimulation import _bound_signature, _rounds

    for i in range(6):
        m = random_wts(31000 + i, 6, 3, POOL, ["p1", "p2"])
        history = list(_rounds(m, _bound_signature))
        partition = history[-1]
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
                first = next(k for k, p in enumerate(history) if not p.same_block(a, b))
                assert modal_depth(d) == first, (i, a, b)
