"""Independent oracles for cross-checking the engines.

Everything here recomputes results from first principles: partitions are
found by enumerating all equivalence relations and checking the defining
clauses verbatim, and satisfiability of shallow formulas is decided by
exhausting all two-state models over a finite weight grid.  Only the AST
and model data types are shared with the package under test.
"""

import math
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

from wtl import Partition, Wts
from wtl.formulas import And, AtLeast, Atom, Bottom, Formula, Not, Top


def all_partitions(items):
    items = sorted(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in all_partitions(rest):
        for k in range(len(smaller)):
            yield smaller[:k] + [[first] + smaller[k]] + smaller[k + 1:]
        yield [[first]] + smaller


def is_bound_bisimulation(m: Wts, blocks) -> bool:
    """Defining clauses of bound bisimulation, checked verbatim: equal
    labels, equal minimum and equal maximum weight toward every class."""
    for block in blocks:
        rep = block[0]
        if any(m.labels[s] != m.labels[rep] for s in block):
            return False
        for target in blocks:
            lo, hi = m.theta_min(rep, target), m.theta_max(rep, target)
            for s in block:
                if m.theta_min(s, target) != lo or m.theta_max(s, target) != hi:
                    return False
    return True


def is_exact_bisimulation(m: Wts, blocks) -> bool:
    """Defining clauses of exact (zig-zag) bisimulation, checked verbatim."""
    index = {s: i for i, block in enumerate(blocks) for s in block}
    for block in blocks:
        rep = block[0]
        if any(m.labels[s] != m.labels[rep] for s in block):
            return False
        for s in block:
            for t in block:
                # Ranks of one model's weights: equal ranks, equal weights.
                for rank, dst in m._out[s]:
                    if not any(
                        r2 == rank and index[d2] == index[dst] for r2, d2 in m._out[t]
                    ):
                        return False
    return True


def naive_coarsest(m: Wts, predicate) -> Partition:
    """Greatest fixpoint by brute force: union of all equivalence
    relations satisfying the predicate, over every partition of S."""
    relation = set()
    for blocks in all_partitions(m.states):
        if predicate(m, blocks):
            for block in blocks:
                relation.update((s, t) for s in block for t in block)
    blocks, seen = [], set()
    for s in sorted(m.states):
        if s in seen:
            continue
        cls = {t for t in m.states if (s, t) in relation}
        seen |= cls
        blocks.append(cls)
    return Partition(blocks)


def modality_indices(f: Formula) -> set:
    if isinstance(f, (Atom, Top, Bottom)):
        return set()
    if isinstance(f, Not):
        return modality_indices(f.operand)
    if isinstance(f, And):
        return modality_indices(f.left) | modality_indices(f.right)
    return {f.bound} | modality_indices(f.operand)


def weight_candidates(f: Formula) -> list:
    """The formula's index grid, midpoints between its consecutive values,
    and one value above the top; complete for two-state witnesses."""
    indices = modality_indices(f)
    if not indices:
        return [Fraction(1)]
    gran = math.lcm(*(q.denominator for q in indices))
    lo, hi = min(indices), max(indices)
    grid = sorted(
        {Fraction(j, gran) for j in range(math.ceil(lo * gran), math.floor(hi * gran) + 1)}
        | {Fraction(0)}
    )
    mids = [(a + b) / 2 for a, b in zip(grid, grid[1:])]
    return sorted(set(grid) | set(mids) | {grid[-1] + 1})


def _prop_true(f: Formula, labels: frozenset) -> bool:
    if isinstance(f, Atom):
        return f.name in labels
    if isinstance(f, Top):
        return True
    if isinstance(f, Bottom):
        return False
    if isinstance(f, Not):
        return not _prop_true(f.operand, labels)
    if isinstance(f, And):
        return _prop_true(f.left, labels) and _prop_true(f.right, labels)
    raise AssertionError("modal operand must be propositional here")


def _holds_at_first(f, lab0, lab1, edge0, edge1) -> bool:
    """Truth of a modal-depth-<=1 formula at the first of two states,
    where edge_i is None or the (least, greatest) weight toward state i.
    Truth never depends on the second state's outgoing edges."""
    if isinstance(f, Atom):
        return f.name in lab0
    if isinstance(f, Top):
        return True
    if isinstance(f, Bottom):
        return False
    if isinstance(f, Not):
        return not _holds_at_first(f.operand, lab0, lab1, edge0, edge1)
    if isinstance(f, And):
        return _holds_at_first(f.left, lab0, lab1, edge0, edge1) and _holds_at_first(
            f.right, lab0, lab1, edge0, edge1
        )
    reached = []
    if edge0 is not None and _prop_true(f.operand, lab0):
        reached.append(edge0)
    if edge1 is not None and _prop_true(f.operand, lab1):
        reached.append(edge1)
    if not reached:
        return False
    if isinstance(f, AtLeast):
        return min(e[0] for e in reached) >= f.bound
    return max(e[1] for e in reached) <= f.bound


def bounded_model_search(f: Formula, atoms) -> Wts | None:
    """Exhaust all two-state models over the formula's weight grid; a
    witness model (satisfying `f` at state u0) or None.

    Only the least and greatest weight per target can matter at modal
    depth one, so each state pair carries at most two transitions.
    """
    candidates = weight_candidates(f)
    edge_options = [None] + list(combinations_with_replacement(candidates, 2))
    labelsets = [
        frozenset(chosen)
        for r in range(len(atoms) + 1)
        for chosen in combinations(sorted(atoms), r)
    ]
    for lab0, lab1 in product(labelsets, repeat=2):
        for edge0 in edge_options:
            for edge1 in edge_options:
                if _holds_at_first(f, lab0, lab1, edge0, edge1):
                    transitions = []
                    if edge0 is not None:
                        transitions += [("u0", edge0[0], "u0"), ("u0", edge0[1], "u0")]
                    if edge1 is not None:
                        transitions += [("u0", edge1[0], "u1"), ("u0", edge1[1], "u1")]
                    return Wts(["u0", "u1"], {"u0": lab0, "u1": lab1}, transitions)
    return None
