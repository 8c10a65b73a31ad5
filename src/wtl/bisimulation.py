"""Bisimilarity by partition refinement, quotients, and distinguishing formulas.

Two flavours are computed as greatest fixpoints:

* bound bisimilarity ("generalized"): states in a block carry the same
  labels and the same minimum and maximum transition weight toward every
  block;
* exact bisimilarity ("weighted"): the classical zig-zag matching of
  individual transition weights into blocks.

Exact bisimilarity refines bound bisimilarity.  One refinement loop serves
both flavours; only the signature of a state differs.  Refinement is
global: starting from the partition by labels, each round scans every
out-edge of every state once, which gives each state its signature toward
all current blocks, and splits every block by signature, until a round
splits nothing.  The loop keeps only the current round, so the partition
callers hold one partition at a time; `distinguishing_formula` alone keeps
every round.  Signatures hold weight ranks (`Wts.weights`), not
rationals, so they hash and compare as ints; the quotient and the
distinguishing formulas map ranks back to weights.  Blocks are enumerated
in a canonical order (sorted by least member) so runs are deterministic.

A distinguishing formula is built from the rounds of bound refinement:
one memoized separator per state pair, which probes a block toward which
the two states' bounds differ and excludes only the blocks that would
spoil the probe (after Cleaveland, CAV 1990).  Its modal depth is the
round that splits the pair.
"""

from __future__ import annotations

from typing import Optional

from .formulas import AtLeast, AtMost, Atom, Formula, Not, conjoin
from .wts import NEG_INF, POS_INF, Wts

__all__ = [
    "Partition", "generalized_bisimilarity", "weighted_bisimilarity",
    "are_bisimilar", "quotient_model", "distinguishing_formula",
]

# Bounds toward a block a state does not reach: those of an empty image.
_UNREACHED = (NEG_INF, POS_INF)


class Partition:
    """Disjoint non-empty blocks covering a model's states."""

    __slots__ = ("blocks", "_index")

    def __init__(self, blocks):
        blocks = [frozenset(b) for b in blocks]
        self.blocks: tuple[frozenset[str], ...] = tuple(
            sorted(blocks, key=lambda b: min(b))
        )
        self._index: dict[str, int] = {}
        for i, block in enumerate(self.blocks):
            if not block:
                raise ValueError("empty block")
            for s in block:
                if s in self._index:
                    raise ValueError(f"state {s!r} in two blocks")
                self._index[s] = i

    def block_of(self, s: str) -> frozenset[str]:
        return self.blocks[self._index[s]]

    def same_block(self, s: str, t: str) -> bool:
        return self._index[s] == self._index[t]

    def refines(self, other: "Partition") -> bool:
        """Every block of self is contained in a block of other."""
        return all(b <= other.block_of(min(b)) for b in self.blocks)

    def as_lists(self) -> list[list[str]]:
        return [sorted(b) for b in self.blocks]

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return set(self.blocks) == set(other.blocks)

    def __hash__(self):
        return hash(frozenset(self.blocks))

    def __repr__(self):
        return f"Partition({self.as_lists()!r})"


def _split_by(m: Wts, partition: Partition, signature) -> Partition:
    new_blocks = []
    for block in partition.blocks:
        groups: dict = {}
        for s in sorted(block):
            groups.setdefault(signature(m, partition, s), []).append(s)
        new_blocks.extend(groups.values())
    return Partition(new_blocks)


def _label_partition(m: Wts) -> Partition:
    groups: dict = {}
    for s in sorted(m.states):
        groups.setdefault(m.labels[s], []).append(s)
    return Partition(groups.values())


def _bound_signature(m: Wts, partition: Partition, s: str):
    """Min and max weight rank toward every block `s` reaches."""
    return frozenset(m.bounds_by_block(s, partition._index).items())


def _exact_signature(m: Wts, partition: Partition, s: str):
    """Every (weight rank, block) pair of a transition from `s`."""
    return frozenset((r, partition._index[dst]) for r, dst in m._out[s])


def _rounds(m: Wts, signature):
    """The rounds of refinement by `signature`, coarsest first: the
    partition by labels, then each round's split of the one before, and
    last the fixpoint.

    A round only splits blocks, so an unchanged block count means nothing
    split.  Only the current round is kept, so a caller that wants the
    fixpoint holds O(states) however many rounds there are; one that wants
    every round (the separators) keeps them itself.
    """
    current = _label_partition(m)
    while True:
        yield current
        refined = _split_by(m, current, signature)
        if len(refined.blocks) == len(current.blocks):
            return
        current = refined


def _coarsest(m: Wts, signature) -> Partition:
    """The last of `_rounds`: the coarsest partition stable under
    `signature`."""
    for partition in _rounds(m, signature):
        pass
    return partition


def generalized_bisimilarity(m: Wts) -> Partition:
    """Coarsest partition with equal labels and equal min/max weight
    toward every block."""
    return _coarsest(m, _bound_signature)


def weighted_bisimilarity(m: Wts) -> Partition:
    """Coarsest partition under exact zig-zag matching of weights."""
    return _coarsest(m, _exact_signature)


def are_bisimilar(m: Wts, s: str, t: str, flavor: str = "generalized") -> bool:
    m._require_state(s)
    m._require_state(t)
    if flavor == "generalized":
        return generalized_bisimilarity(m).same_block(s, t)
    if flavor == "weighted":
        return weighted_bisimilarity(m).same_block(s, t)
    raise ValueError(f"unknown flavor {flavor!r}")


def _is_bound_bisimulation(m: Wts, p: Partition) -> bool:
    for block in p.blocks:
        rep = min(block)
        bounds = m.bounds_by_block(rep, p._index)
        for s in block:
            if m.labels[s] != m.labels[rep] or m.bounds_by_block(s, p._index) != bounds:
                return False
    return True


def quotient_model(m: Wts, p: Partition) -> Wts:
    """One state per block, keeping each block's min and max weight toward
    every other block.

    The partition must be a bound bisimulation for `m` (e.g. the output of
    generalized_bisimilarity); block states are named by their least member.
    """
    if set(p._index) != set(m.states):
        raise ValueError("partition does not cover the model's states")
    if not _is_bound_bisimulation(m, p):
        raise ValueError("partition is not a bound bisimulation for this model")
    reps = [min(block) for block in p.blocks]
    labels = {rep: m.labels[rep] for rep in reps}
    weights = m.weights
    transitions = []
    for rep in reps:
        for target, (lo, hi) in m.bounds_by_block(rep, p._index).items():
            transitions.append((rep, weights[lo], reps[target]))
            transitions.append((rep, weights[hi], reps[target]))
    return Wts(reps, labels, transitions)


class _Separator:
    """Formulas separating non-bisimilar states, one per state pair.

    `separate(u, v)` has modal depth k, the first refinement round that
    splits u and v; it is true on u's round-k block and false on v's.  At
    k = 0 it is a label literal.  At k >= 1 it probes the first block B of
    round k-1 toward which the bounds of u and v differ, with an operand
    that conjoins `separate(min B, min C)` over the blocks C that would
    spoil the probe:

    * one state reaches B, the other not: `L[0]`, and C ranges over every
      block the other state reaches;
    * least weights differ: `L[q]` with q between them, and C ranges over
      the blocks the state with the higher least weight reaches with a
      least weight below q;
    * greatest weights differ: `M[q]` likewise, over the blocks the state
      with the lower greatest weight reaches with a greatest weight
      above q.

    Bounds are compared as ranks; q and the spoiler tests use the weights
    themselves, since a midpoint of ranks need not lie between the values.
    The operand is true on B and has modal depth below k, so it is
    constant on every round k-1 block.  Its truth on the blocks left out
    therefore does not matter: the probe reads only bounds toward round
    k-1 blocks, which are equal across a round-k block, so the separator
    holds on whole round-k blocks.  The memo lives for one call.
    """

    def __init__(self, m: Wts, history: list[Partition]):
        self.m = m
        self.history = history
        self._memo: dict = {}

    def separate(self, u: str, v: str) -> Formula:
        """The separator of (u, v), built bottom-up from an explicit work
        stack: a pair is built once the separators its probe conjoins are,
        so a chain of n refinement rounds costs no Python recursion."""
        memo, plans = self._memo, {}
        stack = [(u, v)]
        while stack:
            pair = stack[-1]
            if pair in memo:
                stack.pop()
                continue
            plan = plans.get(pair)
            if plan is None:
                plan = plans[pair] = self._plan(*pair)
            if isinstance(plan, Formula):
                memo[pair] = plan
                continue
            modality, q, negate, operands = plan
            missing = [c for c in operands if c not in memo]
            if missing:
                stack.extend(missing)
                continue
            f = modality(q, conjoin(memo[c] for c in operands))
            memo[pair] = Not(f) if negate else f
        return memo[u, v]

    def _plan(self, u: str, v: str):
        """The label literal separating u and v, or their probe: the
        modality, its bound, whether the probe holds at v rather than u, and
        the state pairs whose separators its operand conjoins."""
        m = self.m
        weights = m.weights
        k = next(k for k, p in enumerate(self.history) if not p.same_block(u, v))
        if k == 0:
            only_u = m.labels[u] - m.labels[v]
            if only_u:
                return Atom(min(only_u))
            return Not(Atom(min(m.labels[v] - m.labels[u])))
        previous = self.history[k - 1]
        bounds = {u: m.bounds_by_block(u, previous._index),
                  v: m.bounds_by_block(v, previous._index)}
        # Canonical block order; blocks neither state reaches never differ.
        for i in sorted(bounds[u].keys() | bounds[v].keys()):
            lo_u, hi_u = bounds[u].get(i, _UNREACHED)
            lo_v, hi_v = bounds[v].get(i, _UNREACHED)
            if (lo_u, hi_u) == (lo_v, hi_v):
                continue
            if (lo_u == NEG_INF) != (lo_v == NEG_INF):
                # The operand must be false everywhere the other state goes.
                holder = u if lo_u != NEG_INF else v
                spoilers = bounds[v if holder == u else u].keys()
                modality, q = AtLeast, 0
            elif lo_u != lo_v:
                modality, q = AtLeast, (weights[lo_u] + weights[lo_v]) / 2
                holder = u if lo_u > lo_v else v
                spoilers = [j for j, (lo, _) in bounds[holder].items()
                            if weights[lo] < q]
            else:
                modality, q = AtMost, (weights[hi_u] + weights[hi_v]) / 2
                holder = u if hi_u < hi_v else v
                spoilers = [j for j, (_, hi) in bounds[holder].items()
                            if weights[hi] > q]
            b = min(previous.blocks[i])
            operands = [(b, min(previous.blocks[j])) for j in sorted(spoilers)]
            return modality, q, holder != u, operands
        raise AssertionError("separated states must differ toward some block")


def distinguishing_formula(m: Wts, s: str, t: str) -> Optional[Formula]:
    """None when s and t are bound-bisimilar; otherwise a formula holding
    at exactly one of them."""
    m._require_state(s)
    m._require_state(t)
    if s == t:
        return None
    history = list(_rounds(m, _bound_signature))
    if history[-1].same_block(s, t):
        return None
    return _Separator(m, history).separate(s, t)
