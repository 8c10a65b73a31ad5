import copy
import json
import pickle
import random
import tracemalloc
from fractions import Fraction as F

import pytest

from wtl import (
    Partition, Wts, are_bisimilar, distinguishing_formula,
    generalized_bisimilarity, minimize, model_check, print_formula,
    quotient_model, random_formula, random_wts, sat_set, serialize_wts,
    weighted_bisimilarity,
)
from wtl.cli import run as cli_run
from oracles import (
    all_partitions, is_bound_bisimulation, is_exact_bisimulation, modal_depth,
    naive_coarsest, naive_rounds, reference_quotient,
)

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
    from wtl.bisimulation import _bound_signature, _rounds

    for seed in range(20):
        m = random_wts(seed + 71000, 5, 3, POOL, ["p", "q"])
        gen = generalized_bisimilarity(m)
        *_, (blocks, block_of) = _rounds(m, _bound_signature)
        assert Partition(blocks) == gen
        # one more split by signature splits nothing
        for block in blocks:
            assert len({_bound_signature(m, block_of, s) for s in block}) == 1, seed


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


def test_bisimilar_states_agree_on_every_formula(coarse_pair):
    # Invariance: the states of one block, of either flavour, satisfy the
    # same formulas; here 40 formulas of modal depth up to 3 per model,
    # each checked statewise by `model_check`.  The coarse pair has a
    # bound-bisimilar pair that is not weighted-bisimilar.
    pool = [F(1), F(2), F(3)]
    agreeing = {"generalized": 0, "weighted": 0}
    models = [random_wts(41000 + seed, 6, 2, pool, ["p"]) for seed in range(150)]
    for seed, m in enumerate(models + [coarse_pair]):
        atoms = sorted(set().union(*m.labels.values()))
        formulas = [random_formula(51000 + 97 * seed + j, atoms, 3, pool)
                    for j in range(40)]
        for flavour, partition in (("generalized", generalized_bisimilarity(m)),
                                   ("weighted", weighted_bisimilarity(m))):
            for block in partition.blocks:
                first, *rest = sorted(block)
                agreeing[flavour] += len(rest)
                for f in formulas:
                    holds = model_check(m, first, f)
                    assert all(model_check(m, s, f) == holds for s in rest), (
                        seed, flavour, sorted(block), print_formula(f))
    assert agreeing["generalized"] > agreeing["weighted"] > 30, agreeing


def test_quotient_rejects_non_bisimulation(coarse_pair):
    bad = Partition([{"s", "sp"}, {"t", "tp"}])
    with pytest.raises(ValueError):
        quotient_model(coarse_pair, bad)


NOT_COVERING = "partition does not cover the model's states"
NOT_BISIMULATION = "partition is not a bound bisimulation for this model"


def _planted(base, copies, seed):
    """`base` with each state blown up into `copies` copies; each copy of
    a state keeps each of its edges toward a random non-empty set of the
    target's copies.  Mapping each copy to its original is a functional
    bound bisimulation, so the blow-up's bound bisimilarity is the base's,
    lifted to the copies."""
    rng = random.Random(seed)
    states = [f"{s}_{i}" for s in sorted(base.states) for i in range(copies)]
    labels = {f"{s}_{i}": base.labels[s] for s in base.states for i in range(copies)}
    edges = [
        (f"{a}_{i}", w, f"{b}_{j}")
        for a, w, b in sorted(base.transitions)
        for i in range(copies)
        for j in rng.sample(range(copies), rng.randint(1, copies))
    ]
    return Wts(states, labels, edges)


def test_quotient_matches_the_reference_quotient():
    models = [random_wts(seed + 82000, 6, 3, [F(1), F(2)], ["p"]) for seed in range(15)]
    for seed in range(8):
        base = random_wts(seed + 83000, 5, 2, POOL, ["p"])
        planted = _planted(base, 3, seed)
        lifted = [[f"{s}_{i}" for s in block for i in range(3)]
                  for block in generalized_bisimilarity(base).as_lists()]
        assert generalized_bisimilarity(planted) == Partition(lifted), seed
        models.append(planted)
    models += [_chain(n) for n in (1, 2, 12)] + [_ring(n) for n in (3, 8, 13)]
    for i, m in enumerate(models):
        p = generalized_bisimilarity(m)
        q = quotient_model(m, p)
        assert q == reference_quotient(m, p.as_lists()), i
        assert minimize(m) == (p, q), i


def test_quotient_refuses_exactly_the_non_bound_bisimulations():
    # Only the labels differ in the first model's pair; in the second only
    # b, not the block's least member a, differs in its bounds.
    labels_only = Wts(["a", "b"], {"a": ["p"]}, [("a", 1, "a"), ("b", 1, "a")])
    bounds_only = Wts(["a", "b", "z"], {}, [("a", 1, "z"), ("b", 2, "z")])
    for m, blocks in ((labels_only, [["a", "b"]]), (bounds_only, [["a", "b"], ["z"]])):
        assert not is_bound_bisimulation(m, blocks)
        with pytest.raises(ValueError) as refused:
            quotient_model(m, Partition(blocks))
        assert str(refused.value) == NOT_BISIMULATION
    models = [labels_only, bounds_only]
    models += [random_wts(seed + 84000, 5, 2, [F(1), F(2)], ["p"]) for seed in range(6)]
    accepted = 0
    for i, m in enumerate(models):
        for blocks in all_partitions(m.states):
            if is_bound_bisimulation(m, blocks):
                accepted += 1
                assert quotient_model(m, Partition(blocks)) == reference_quotient(m, blocks), i
                continue
            with pytest.raises(ValueError) as refused:
                quotient_model(m, Partition(blocks))
            assert str(refused.value) == NOT_BISIMULATION, (i, blocks)
    assert accepted > len(models)  # more than the partitions into singletons
    for blocks in ([["a"]], [["a", "b", "x"]]):
        with pytest.raises(ValueError) as refused:
            quotient_model(labels_only, Partition(blocks))
        assert str(refused.value) == NOT_COVERING


def test_partitions_read_off_the_last_round_equal_built_ones():
    models = [random_wts(seed + 85000, 6, 3, [F(1), F(2)], ["p", "q"]) for seed in range(20)]
    models += [_chain(9), _ring(8), _planted(random_wts(86000, 4, 2, POOL, ["p"]), 2, 0)]
    for i, m in enumerate(models):
        for p in (generalized_bisimilarity(m), weighted_bisimilarity(m)):
            built = Partition(p.blocks)
            assert p == built and hash(p) == hash(built), i
            assert repr(p) == repr(built) and p.blocks == built.blocks, i
            assert p.as_lists() == built.as_lists(), i
            assert all(p.block_of(s) == built.block_of(s) for s in m.states), i
            # the lists handed out are the caller's own
            lists = p.as_lists()
            lists[0].append("x")
            lists.append(["y"])
            assert p.as_lists() == built.as_lists(), i


def test_partitions_agree_with_a_frozenset_reference():
    # Seeded partitions of random subsets of six states, with one block of
    # each merged into another so that some refine others; each is checked
    # against a set of frozensets.
    rng = random.Random(20)
    drawn = []
    for _ in range(150):
        states = rng.sample("abcdef", rng.randint(1, 6))
        groups: dict = {}
        for s in states:
            groups.setdefault(rng.randrange(len(states)), []).append(s)
        blocks = list(groups.values())
        drawn.append(blocks)
        if len(blocks) > 1:
            drawn.append([blocks[0] + blocks[1], *blocks[2:]])
    refs = [frozenset(map(frozenset, blocks)) for blocks in drawn]
    parts = [Partition(blocks) for blocks in drawn]
    parts[-1] = generalized_bisimilarity(_ring(6))  # one read off a round
    refs[-1] = frozenset(map(frozenset, [["r0"], ["r1", "r5"], ["r2", "r4"], ["r3"]]))
    refining = 0
    for p, ref in zip(parts, refs):
        assert set(p.blocks) == ref and len(p.blocks) == len(ref)
        assert all(p.block_of(s) == b for b in ref for s in b)
        assert Partition(reversed([sorted(b, reverse=True) for b in ref])) == p
        for copied in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
            assert copied == p and hash(copied) == hash(p)
            assert copied.as_lists() == p.as_lists()
        for other, other_ref in zip(parts, refs):
            assert (p == other) == (ref == other_ref)
            assert ref != other_ref or hash(p) == hash(other)
            refines = all(any(b <= c for c in other_ref) for b in ref)
            assert p.refines(other) == refines, (p, other)
            refining += refines and ref != other_ref
    assert refining > 100


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
    # runs the same loop, and the CLI's `bisim` and `quotient` call these.
    m = _chain(300)
    for call in (generalized_bisimilarity, weighted_bisimilarity, minimize):
        tracemalloc.start()
        try:
            call(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, peak
    assert len(generalized_bisimilarity(m).blocks) == 300


def test_distinguishing_formula_keeps_rounds_as_plain_data():
    # The separators keep every round, and a chain splits one state off
    # per round, so the rounds hold O(n^2) block names: about 2 MB at
    # n = 300, one dict per round.
    m = _chain(300)
    tracemalloc.start()
    try:
        d = distinguishing_formula(m, "c0", "c1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak
    assert modal_depth(d) == 298


def test_hennessy_milner_desk_check_small():
    from itertools import combinations
    from wtl.bisimulation import _history

    for i in range(6):
        m = random_wts(31000 + i, 6, 3, POOL, ["p1", "p2"])
        partition = generalized_bisimilarity(m)
        satsets = [
            sat_set(m, random_formula(91000 + 997 * i + j, ["p1", "p2"], 2, POOL))
            for j in range(200)
        ]
        for a, b in combinations(sorted(m.states), 2):
            history = _history(m, a, b)
            for least in history:
                # each state named by its block's least member
                assert least.keys() == m.states, i
                assert all(least[least[s]] == least[s] <= s for s in m.states), i
            # a fresh dict per round, each round finer than the one before
            assert len(set(map(id, history))) == len(history), i
            sizes = [len(set(least.values())) for least in history]
            assert sizes == sorted(set(sizes)), i
            split = [least[a] != least[b] for least in history]
            if partition.same_block(a, b):
                assert not any(split), (i, a, b)
                assert all((a in ss) == (b in ss) for ss in satsets), (i, a, b)
            else:
                # the history stops at the first round that splits the pair
                assert split == [False] * (len(history) - 1) + [True], (i, a, b)
                d = distinguishing_formula(m, a, b)
                assert d is not None
                assert model_check(m, a, d) != model_check(m, b, d), (i, a, b)
                assert modal_depth(d) == len(history) - 1, (i, a, b)


def _sets(rounds):
    """Each round, a dict from every state to its block's name or id, as a
    set of frozensets."""
    sets = []
    for block_of in rounds:
        groups: dict = {}
        for s, b in block_of.items():
            groups.setdefault(b, set()).add(s)
        sets.append(set(map(frozenset, groups.values())))
    return sets


def test_refinement_matches_the_naive_oracle_round_by_round():
    # Every fixpoint, of either flavour, is the brute-force coarsest one,
    # and every round the separators read is the label-start round of
    # refinement from the definitions, up to the one that splits the pair.
    from itertools import combinations
    from wtl.bisimulation import _history

    models = [random_wts(seed + 87000, 6, 3, POOL, ["p", "q"]) for seed in range(30)]
    models += [random_wts(seed + 88000, 7, 2, [F(1), F(2)], ["p"]) for seed in range(10)]
    models += [_chain(n) for n in (1, 2, 5, 7)] + [_ring(n) for n in (3, 4, 6, 7)]
    for i, m in enumerate(models):
        bound = naive_coarsest(m, is_bound_bisimulation)
        exact = naive_coarsest(m, is_exact_bisimulation)
        assert generalized_bisimilarity(m) == bound, i
        assert weighted_bisimilarity(m) == exact, i
        assert minimize(m)[0] == bound, i
        rounds = naive_rounds(m)
        assert rounds[-1] == set(bound.blocks), i
        for a, b in combinations(sorted(m.states), 2):
            assert are_bisimilar(m, a, b) == bound.same_block(a, b), (i, a, b)
            assert are_bisimilar(m, a, b, "weighted") == exact.same_block(a, b), (i, a, b)
            history = _sets(_history(m, a, b))
            assert history == rounds[:len(history)], (i, a, b)
            if not bound.same_block(a, b):
                # stopped at the first naive round that splits the pair
                assert not any(b in block for block in history[-1] if a in block), (i, a, b)
                assert len(history) == 1 or any(
                    {a, b} <= block for block in history[-2]), (i, a, b)


def _signature_spy(monkeypatch):
    """Wrap `_bound_signature`, and return the block count it saw at each
    call: one distinct count per split pass, since every pass that is
    followed by another splits some block."""
    from wtl import bisimulation

    seen = []
    sign = bisimulation._bound_signature

    def spy(m, block_of, s):
        seen.append(len(set(block_of.values())))
        return sign(m, block_of, s)

    monkeypatch.setattr(bisimulation, "_bound_signature", spy)
    return seen


def _chain_and_pair(n):
    """A chain of n states beside a and b, which lead into states labelled
    q and r: the first split pass splits a and b, and the chain takes
    about n passes to reach the fixpoint."""
    chain = _chain(n)
    states = sorted(chain.states) + ["a", "b", "u", "v"]
    labels = {**chain.labels, "u": ["q"], "v": ["r"]}
    return Wts(states, labels, [*chain.transitions, ("a", 1, "u"), ("b", 1, "v")])


def test_distinguishing_stops_at_the_round_that_splits_the_pair(monkeypatch):
    seen = _signature_spy(monkeypatch)
    # different labels: no state is signed at all
    m = _chain_and_pair(30)
    f = distinguishing_formula(m, "u", "v")
    assert print_formula(f) == "q"
    assert seen == []
    f = distinguishing_formula(m, "a", "b")
    assert print_formula(f) == "L[0] q"
    assert len(set(seen)) == 1


def test_are_bisimilar_stops_at_the_round_that_splits_the_pair(monkeypatch):
    seen = _signature_spy(monkeypatch)
    m = _chain_and_pair(30)
    assert are_bisimilar(m, "a", "b") is False
    assert len(set(seen)) == 1
    seen.clear()
    assert are_bisimilar(m, "c0", "c0") is True
    assert len(set(seen)) > 25  # the fixpoint of a 30-state chain


def test_a_long_chain_refines_in_well_under_a_second():
    import time

    m = _chain(2000)
    began = time.perf_counter()
    p = generalized_bisimilarity(m)
    q = minimize(m)[1]
    elapsed = time.perf_counter() - began
    assert len(p.blocks) == 2000 and len(q.states) == 2000
    assert elapsed < 1.0, elapsed
    # `wtl quotient` gives a 10,000-state chain's 10,000 blocks
    code, out, err = cli_run(["quotient", "--model", "-"], serialize_wts(_chain(10_000)))
    assert (code, err) == (0, "") and len(json.loads(out)["blocks"]) == 10_000
