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
splits nothing.  Blocks are enumerated in a canonical order (sorted by
least member) so runs are deterministic.
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
    """Min and max weight toward every block `s` reaches."""
    return frozenset(m.bounds_by_block(s, partition._index).items())


def _exact_signature(m: Wts, partition: Partition, s: str):
    """Every (weight, block) pair of a transition from `s`."""
    return frozenset((w, partition._index[dst]) for w, dst in m._out[s])


def _refinement_history(m: Wts, signature) -> list[Partition]:
    """All rounds of refinement by `signature`, coarsest first.

    A round only splits blocks, so an unchanged block count means nothing
    split and the last partition is the fixpoint.
    """
    history = [_label_partition(m)]
    while True:
        current = history[-1]
        refined = _split_by(m, current, signature)
        if len(refined.blocks) == len(current.blocks):
            return history
        history.append(refined)


def generalized_bisimilarity(m: Wts) -> Partition:
    """Coarsest partition with equal labels and equal min/max weight
    toward every block."""
    return _refinement_history(m, _bound_signature)[-1]


def weighted_bisimilarity(m: Wts) -> Partition:
    """Coarsest partition under exact zig-zag matching of weights."""
    return _refinement_history(m, _exact_signature)[-1]


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
    transitions = []
    for rep in reps:
        for target, (lo, hi) in m.bounds_by_block(rep, p._index).items():
            transitions.append((rep, lo, reps[target]))
            transitions.append((rep, hi, reps[target]))
    return Wts(reps, labels, transitions)


class _DistinguisherBuilder:
    """Builds formulas separating non-bisimilar states, level by level
    along the refinement history.

    A level-j block characterization is true exactly on that block of
    round j; it is a conjunction of block-pair separators from earlier
    rounds, so the recursion is well founded.  Memo tables are per call.
    """

    def __init__(self, m: Wts, history: list[Partition]):
        self.m = m
        self.history = history
        self._chi: dict = {}
        self._sep: dict = {}

    def first_separating_round(self, s: str, t: str) -> Optional[int]:
        for k, p in enumerate(self.history):
            if not p.same_block(s, t):
                return k
        return None

    def characterize(self, level: int, block: frozenset[str]) -> Formula:
        key = (level, block)
        hit = self._chi.get(key)
        if hit is None:
            others = [b for b in self.history[level].blocks if b != block]
            hit = conjoin(self.separate(level, block, other) for other in others)
            self._chi[key] = hit
        return hit

    def separate(self, level: int, block: frozenset[str], other: frozenset[str]) -> Formula:
        """A formula true on all of `block` and false on all of `other`
        (both blocks of round `level`)."""
        key = (level, block, other)
        hit = self._sep.get(key)
        if hit is None:
            hit = self._separate(block, other)
            self._sep[key] = hit
        return hit

    def _separate(self, block: frozenset[str], other: frozenset[str]) -> Formula:
        u, v = min(block), min(other)
        k = self.first_separating_round(u, v)
        if k == 0:
            return self._label_literal(u, v)
        # Signatures toward round k-1 blocks are constant on round k
        # blocks, so a pointwise separator for u, v covers whole blocks.
        return self._bound_splitter(k, u, v)

    def _label_literal(self, u: str, v: str) -> Formula:
        only_u = self.m.labels[u] - self.m.labels[v]
        if only_u:
            return Atom(min(only_u))
        return Not(Atom(min(self.m.labels[v] - self.m.labels[u])))

    def _bound_splitter(self, k: int, u: str, v: str) -> Formula:
        """A formula true at `u`, false at `v`, for states first separated
        at round k >= 1: compare bounds toward some round k-1 block."""
        previous = self.history[k - 1]
        bounds_u = self.m.bounds_by_block(u, previous._index)
        bounds_v = self.m.bounds_by_block(v, previous._index)
        # Canonical block order; blocks neither state reaches never differ.
        for i in sorted(bounds_u.keys() | bounds_v.keys()):
            lo_u, hi_u = bounds_u.get(i, _UNREACHED)
            lo_v, hi_v = bounds_v.get(i, _UNREACHED)
            if (lo_u, hi_u) == (lo_v, hi_v):
                continue
            target = previous.blocks[i]
            chi = self.characterize(k - 1, target)
            if (lo_u == NEG_INF) != (lo_v == NEG_INF):
                probe = AtLeast(0, chi)
                return probe if lo_u != NEG_INF else Not(probe)
            if lo_u != lo_v:
                q = (lo_u + lo_v) / 2
                probe = AtLeast(q, chi)
                return probe if lo_u > lo_v else Not(probe)
            q = (hi_u + hi_v) / 2
            probe = AtMost(q, chi)
            return probe if hi_u < hi_v else Not(probe)
        raise AssertionError("separated states must differ toward some block")


def distinguishing_formula(m: Wts, s: str, t: str) -> Optional[Formula]:
    """None when s and t are bound-bisimilar; otherwise a formula holding
    at exactly one of them."""
    m._require_state(s)
    m._require_state(t)
    if s == t:
        return None
    history = _refinement_history(m, _bound_signature)
    if history[-1].same_block(s, t):
        return None
    builder = _DistinguisherBuilder(m, history)
    k = builder.first_separating_round(s, t)
    if k == 0:
        return builder._label_literal(s, t)
    return builder._bound_splitter(k, s, t)
